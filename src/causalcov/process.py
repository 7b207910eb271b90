"""Vector autoregressions, their causal-operator form, and path sampling.

A VAR(L) process follows Z_t = sum_l A_l Z_{t-l} + H W_t with zero
initialization (Z_t = 0 for t < 0).  Stacking the last L states into
X_t = (Z_t, ..., Z_{t-L+1}) gives the lifted recursion
X_t = A X_{t-1} + B W_t with the companion matrix A and B = [H; 0; ...],
whose causal operator has impulse blocks L[t, s] = A^{t-s} B for s <= t.

Every statistic the bounds read of a VAR comes from one VarAnalysis per
system (var_analysis), which forms the companion powers A^j by doubling and
reads the impulses and covariances off them; L itself is formed only by
var_to_operator, which the test suite uses as an oracle.

Sampled paths are X = L W, and one sampler (_path_blocks) draws them all:
it takes a batch's PCG64 state words, four per replicate as
replicate_words gives them, and yields the batch's paths one time block
at a time.  A block's normals continue each replicate's stream from the
words the block before left (_NormalStreams), and its simulator step
(_simulate) starts from the lifted state where the block before ended.
A VAR's lifted state advances _PATH_BLOCK time steps per matrix product
(VarAnalysis.responses), in products anchored at t = 0, _PATH_BLOCK,
2 _PATH_BLOCK, ..., through the m-step diagonal block L_m of L and the
powers A^1 .. A^m, so blocks of multiples of _PATH_BLOCK steps have the
bytes of whole paths, whose arithmetic depends only on T'.  A raw
operator multiplies by L^T; its state is its whole input, so it runs one
block of T'.  Every block is padded to a multiple of _PATH_ROWS rows with
copies of its first row, and the noise and right operands are
C-contiguous, so a path has the same bytes in a batch of any size.
noise_block and paths_from_noise split the one-block case in two: the
noise of given replicates, and the paths that noise drives.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

# NumPy imports this submodule on first attribute access; every subcommand
# uses it, so it loads with the package, not inside the first run
import numpy.random  # noqa: F401

from ._rng import (
    _state_words,
    check_seed,
    mix64,
    pcg64_word_order,
    pcg64_word_view,
    replicate_words,
)
from .errors import HorizonTooShort, InsufficientExcitation, InvalidInput, NonFiniteBound
from .linalg import CausalOperator, SymMatrix, check_int, finite_matrix, nonsingular

__all__ = [
    "VarSystem",
    "ProcessSpec",
    "companion",
    "effective_horizon",
    "var_to_operator",
    "noise_block",
    "paths_from_noise",
    "var_time_covariances",
    "gamma_k",
    "kappa",
    "derive_seed",
]

#: levels the bounded-real test tries in each bisection pass of lam_max_gram
_GRAM_LEVELS = 64

#: frequencies on [0, pi] at which lam_max_gram's Ritz floor seeks the peak gain
_PEAK_FREQUENCIES = 128

#: half-sine windows of the Ritz floor's test inputs, two inputs each
_RITZ_WINDOWS = 4

#: longest horizon the Ritz floor's test inputs span
_RITZ_STEPS = 2048

#: time steps a VAR path advances per matrix product in paths_from_noise
_PATH_BLOCK = 16

#: paths_from_noise pads every batch to a multiple of this many rows
_PATH_ROWS = 8

#: largest magnitude whose square is still a finite float
_SQRT_FLOAT_MAX = float(np.sqrt(np.finfo(float).max))


def _read_only(m: np.ndarray) -> np.ndarray:
    """A read-only C-contiguous copy of m."""
    out = np.array(m, order="C")
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class VarSystem:
    """Autoregression Z_t = sum_l A_l Z_{t-l} + H W_t, zero-initialized.

    a_lags holds (A_1, ..., A_L) (each d x d); h is the d x p noise map,
    p >= 1.  Each matrix must be finite and 2-d (linalg.finite_matrix).
    A system is immutable: its fields cannot be rebound, the matrices are
    read-only copies of the inputs, and it hashes by identity, so results
    computed once per system (var_analysis) never go stale.
    """

    a_lags: tuple = ()
    h: np.ndarray = None

    def __post_init__(self):
        lags = tuple(self.a_lags) if np.iterable(self.a_lags) else ()
        if not lags:
            raise InvalidInput("a_lags must be a non-empty list of matrices")
        a_lags = tuple(_read_only(finite_matrix(a, f"a_lags[{i}]")) for i, a in enumerate(lags))
        d = a_lags[0].shape[0]
        if d == 0:
            raise InvalidInput("a_lags[0] must have at least one row")
        for i, a in enumerate(a_lags):
            if a.shape != (d, d):
                raise InvalidInput(f"lag matrix {i + 1} must be {d} x {d}, got {a.shape}")
        h = _read_only(finite_matrix(self.h, "h"))
        if h.shape[0] != d:
            raise InvalidInput(f"noise map must have {d} rows, got shape {h.shape}")
        if h.shape[1] == 0:
            raise InvalidInput(f"noise map h must have at least one column, got shape {h.shape}")
        object.__setattr__(self, "a_lags", a_lags)
        object.__setattr__(self, "h", h)

    @property
    def d(self) -> int:
        return self.a_lags[0].shape[0]

    @property
    def p(self) -> int:
        return self.h.shape[1]

    @property
    def n_lags(self) -> int:
        return len(self.a_lags)

    @property
    def lifted_dim(self) -> int:
        return self.d * self.n_lags

    def lifted_noise_map(self) -> np.ndarray:
        """B = [H; 0; ...; 0], shape (d*L, p)."""
        b = np.zeros((self.lifted_dim, self.p))
        b[: self.d] = self.h
        return b

    def regression_matrix(self) -> np.ndarray:
        """A_star = [A_1 ... A_L], the d x (d*L) row of the companion form."""
        return np.hstack(self.a_lags)


def companion(sys: VarSystem) -> np.ndarray:
    """Companion matrix of the lifted state, shape (d*L, d*L), a writable copy
    of var_analysis(sys).a.

    Top block row is [A_1 ... A_L]; the sub-diagonal carries identities
    shifting old states down; everything else is zero.
    """
    return var_analysis(sys).a.copy()


def effective_horizon(T: int, k: int) -> int:
    """T' = k * floor(T/k), under the one rule of T and k: each an integer
    >= 1 (check_int), and HorizonTooShort where k > T, so no block fits."""
    T, k = check_int(T, "T"), check_int(k, "k")
    if k > T:
        raise HorizonTooShort(f"block length k={k} exceeds horizon T={T}")
    return k * (T // k)


def _lower_block_toeplitz(impulses: np.ndarray) -> np.ndarray:
    """The read-only (T*n) x (T*p) matrix with block (t, s) = impulses[t - s]
    for s <= t."""
    t_eff, n, p = impulses.shape
    matrix = np.zeros((t_eff * n, t_eff * p))
    steps = matrix.reshape(t_eff, n, t_eff, p)
    times = np.arange(t_eff)
    for lag in range(t_eff):
        steps[times[lag:], :, times[: t_eff - lag], :] = impulses[lag]
    matrix.flags.writeable = False
    return matrix


def var_to_operator(sys: VarSystem, T: int, k: int = 1) -> CausalOperator:
    """Causal operator of the lifted state over T' = k*floor(T/k) steps.

    Block (t, s) of the per-step partition is the impulse response
    A^{t-s} B for s <= t, so the unit-lag diagonal is B itself.  The matrix
    does not depend on k, which only sets the operator's block partition.
    The bounds never build it for a VAR: they read var_analysis instead.
    It is kept as the dense oracle of that analysis, and for callers that
    want L itself.
    """
    t_eff = effective_horizon(T, k)
    impulses = var_analysis(sys).impulses(t_eff)
    return CausalOperator(sys.lifted_dim, sys.p, k, _lower_block_toeplitz(impulses))


def _settle(triple, live: np.ndarray):
    """Fail every level whose triple is not finite, and zero the triples of
    the failed levels, so that later compositions overflow nothing."""
    live = live & np.logical_and.reduce([np.isfinite(m).all(axis=(1, 2)) for m in triple])
    for m in triple:
        m[~live] = 0.0
    return triple, live


def _compose(earlier, later, live: np.ndarray):
    """The triple of the map S -> f1(f2(S)), f1 the earlier segment's map
    and f2 the later one's, and the levels at which it is defined."""
    a1, g1, h1 = earlier
    a2, g2, h2 = later
    gh = g1 @ h2
    live = live & np.isfinite(gh).all(axis=(1, 2))
    gh[~live] = 0.0
    # the eigenvalues of G1 H2 are real and nonnegative: those of a product
    # of two positive semidefinite matrices
    live &= np.linalg.eigvals(gh).real.max(axis=1) < 1.0
    gh[~live] = 0.0
    m = np.linalg.inv(np.eye(gh.shape[1]) - gh)
    a2m = a2 @ m
    a1_t = np.swapaxes(a1, 1, 2)
    triple = (a2m @ a1, g2 + a2m @ g1 @ np.swapaxes(a2, 1, 2), h1 + a1_t @ h2 @ m @ a1)
    return _settle(triple, live)


def _bounded_real_doubling(a: np.ndarray, b: np.ndarray, horizon: int, levels) -> np.ndarray:
    """Which levels g make g I - L^T L positive definite, for L the causal
    operator of x_t = A x_{t-1} + B w_t over horizon steps: the
    finite-horizon bounded-real test, in O(log horizon) steps per level.

    The test's reverse-time pivots g I - B^T S B are the Schur complements
    of g I - L^T L taken one time step at a time from the last (the test
    suite runs it step by step as this function's oracle).  At level g,
    one reverse-time step is the Riccati map
    S -> I + A^T S (I - G S)^{-1} A with G = B B^T / g, defined while every
    eigenvalue of G S is below 1, i.e. while the pivot g I - B^T S B is
    positive definite.  A map S -> H + A^T S (I - G S)^{-1} A is held as its
    triple (A, G, H).  A later segment (A2, G2, H2), whose map runs first
    in reverse time, followed by an earlier one (A1, G1, H1) is the triple
    A = A2 M A1, G = G2 + A2 M G1 A2^T, H = H1 + A1^T H2 M A1 with
    M = (I - G1 H2)^{-1}, defined iff both segments are and every
    eigenvalue of G1 H2 is below 1.  The test is
    horizon + 1 steps from S = 0 (the first one always defined), composed
    by binary powers as in the doubling algorithm of Anderson & Moore
    (1979) and Chu, Fan & Lin (2005).  A non-finite or non-positive level
    fails; every level runs in one batch, under np.errstate, so nothing
    warns.
    """
    levels = np.asarray(levels, dtype=float)
    batch = (levels.size, 1, 1)
    with np.errstate(all="ignore"):
        live = np.isfinite(levels) & (levels > 0)
        g = (b @ b.T) / levels[:, None, None]
        step, live = _settle((np.tile(a, batch), g, np.tile(np.eye(len(a)), batch)), live)
        result = None
        steps = horizon + 1
        while True:
            if steps & 1:
                result, live = (step, live) if result is None else _compose(result, step, live)
            steps >>= 1
            if not steps:
                return live
            step, live = _compose(step, step, live)


def _spectral_norms(blocks: np.ndarray) -> np.ndarray:
    """||M||_2 of each block M of a stack, by one batched SVD up to the last
    block that is not exactly zero; the norm of every later block is 0.0,
    the value its SVD gives.  A stable VAR's powers and impulses underflow
    to exact zeros at long lags, so at long horizons most blocks are zero."""
    live = np.flatnonzero(blocks.any(axis=(1, 2)))
    stop = int(live[-1]) + 1 if live.size else 0
    norms = np.zeros(len(blocks))
    if stop:
        norms[:stop] = np.linalg.norm(blocks[:stop], 2, axis=(1, 2))
    return norms


def _lag_overflow(lag: int, what: str, horizon: int) -> InvalidInput:
    return InvalidInput(
        f"var model overflows at lag {lag}: {what} exceeds "
        f"{_SQRT_FLOAT_MAX:.3g}, so its square is not a finite float (horizon {horizon})"
    )


class VarAnalysis:
    """Every statistic of one VarSystem that the bounds read, each computed once.

    One recursion, in closed form: the companion powers A^j, each the
    product A^h A^(j-h) with h the largest power of two below j, formed as
    one stacked product per h.  Every other horizon-indexed series is read
    off them: the impulse responses A^j B, the covariances
    P_t = E X_t X_t^T = sum_{j<=t} A^j B (A^j B)^T of the lifted state
    (added in order of j), the per-time lam_max(P_t) and the squared power
    norms ||A^j||_2^2; those two are solved only up to the last lag where
    they change (per_time_lam_max, _spectral_norms).  A series is computed
    for the longest horizon asked so far and handed out as a prefix; as
    each term's arithmetic depends on its index alone, a prefix has the
    same bytes whatever was asked before.
    Gamma_k, lam_min(Gamma_k), the k-step diagonal block of L and
    lam_max(L^T L) are held per argument.  Every array handed out is
    read-only.  Built by var_analysis; it holds no reference to its system.
    A config runs check_overflow for its longest horizon at load, so the
    powers and impulses are formed there, once, and checked exactly as the
    bounds later read them.
    """

    def __init__(self, sys: VarSystem):
        d, L = sys.d, sys.n_lags
        a = np.zeros((d * L, d * L))
        a[:d] = sys.regression_matrix()
        a[d:, : d * (L - 1)] = np.eye(d * (L - 1))
        self.a = _read_only(a)  # the companion matrix
        self.b = _read_only(sys.lifted_noise_map())
        self._derived_series: dict = {}
        self._memo: dict = {}

    def _derived(self, name: str, n: int, compute) -> np.ndarray:
        have = self._derived_series.get(name)
        if have is None or len(have) < n:
            have = compute(n)
            have.flags.writeable = False
            self._derived_series[name] = have
        return have[:n]

    def _once(self, name: str, arg: int, compute):
        key = (name, arg)
        if key not in self._memo:
            self._memo[key] = compute(arg)
        return self._memo[key]

    def powers(self, n: int) -> np.ndarray:
        """A^j for j = 0..n-1, shape (n, dL, dL)."""
        return self._derived("powers", n, self._powers)

    def _powers(self, n: int) -> np.ndarray:
        powers = np.empty((n,) + self.a.shape)
        powers[:1] = np.eye(len(self.a))
        powers[1:2] = self.a
        h = 1
        while h + 1 < n:
            stop = min(2 * h + 1, n)
            np.matmul(powers[h], powers[1 : stop - h], out=powers[h + 1 : stop])
            h *= 2
        return powers

    def impulses(self, n: int) -> np.ndarray:
        """A^j B for j = 0..n-1, shape (n, dL, p)."""
        return self._derived("impulses", n, lambda m: self.powers(m) @ self.b)

    def covariances(self, n: int) -> np.ndarray:
        """P_t = E X_t X_t^T for t = 0..n-1, shape (n, dL, dL)."""

        def compute(m):
            g = self.impulses(m)
            terms = g @ np.swapaxes(g, 1, 2)
            return np.cumsum(terms, axis=0, out=terms)

        return self._derived("covariances", n, compute)

    def per_time_lam_max(self, n: int) -> np.ndarray:
        """lam_max(P_t) for t = 0..n-1.

        Once its terms fall below its rounding, P_t stops changing: the
        eigensolve runs up to the last t at which P_t differs bit-wise from
        P_(t-1), and every later t copies that value, the bytes eigvalsh
        gives for the same matrix.
        """

        def compute(m):
            covs = self.covariances(m)
            changed = np.flatnonzero(np.any(covs[1:] != covs[:-1], axis=(1, 2)))
            stop = int(changed[-1]) + 2 if changed.size else 1
            lam = np.empty(m)
            lam[:stop] = np.linalg.eigvalsh(covs[:stop])[:, -1]
            lam[stop:] = lam[stop - 1 : stop]
            return lam

        return self._derived("per_time_lam_max", n, compute)

    def _squared_power_norms(self, n: int) -> np.ndarray:
        """||A^j||_2^2 for j = 0..n-1 (one batched norm up to the last nonzero power)."""
        return self._derived(
            "squared_power_norms", n, lambda m: _spectral_norms(self.powers(m)) ** 2
        )

    def power_norm_sum(self, n: int) -> float:
        """sum_{j<n} ||A^j (A^j)^T|| = sum of squared spectral norms, added in
        order of j."""
        return float(np.cumsum(self._squared_power_norms(n))[-1])

    def check_overflow(self, horizon: int) -> None:
        """Raise InvalidInput unless the series the bounds read over horizon
        steps are finite floats.

        In order: no entry of A^j or of A^j B (A^0 B = B, the noise map), and
        then no ||A^j||_2, may exceed sqrt(float max) for a lag j < horizon;
        then the sums of those squares must be finite: sum_j ||A^j||_2^2, and
        the energy 2 * horizon * sum_j ||A^j B||_F^2, which bounds every entry
        of P_t, of sum_t P_t and of their symmetrisation.  The powers and
        impulses are formed here under np.errstate, so an overflow is
        reported, not warned.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            powers, impulses = self.powers(horizon), self.impulses(horizon)
            big_a = ~np.all(np.abs(powers) <= _SQRT_FLOAT_MAX, axis=(1, 2))
            big_b = ~np.all(np.abs(impulses) <= _SQRT_FLOAT_MAX, axis=(1, 2))
            if big_a.any() or big_b.any():
                lag = int(np.argmax(big_a | big_b))
                noise = f"the impulse response A^{lag} B" if lag else "the noise map B = [H; 0]"
                what = f"A^{lag}" if big_a[lag] else noise
                raise _lag_overflow(lag, f"an entry of {what}", horizon)
            energy = 2.0 * horizon * float(np.sum(impulses * impulses))
            big_norm = ~np.isfinite(self._squared_power_norms(horizon))
            if big_norm.any():
                lag = int(np.argmax(big_norm))
                raise _lag_overflow(lag, f"||A^{lag}||_2", horizon)
            power_sum = self.power_norm_sum(horizon)
        for what, total, consequence in (
            ("sum_{j<horizon} ||A^j||_2^2", power_sum, "ARMA bounds"),
            ("2 * horizon * sum_{j<horizon} ||A^j B||_F^2", energy, "process covariances"),
        ):
            if not np.isfinite(total):
                raise InvalidInput(
                    f"var model overflows within horizon {horizon}: {what} is not a "
                    f"finite float, so the {consequence} are not finite"
                )

    def gamma(self, k: int) -> SymMatrix:
        """Gamma_k = (1/k) sum_{t<k} P_t (shared; its array is read-only)."""

        def compute(k):
            gamma = SymMatrix(self.covariances(k).sum(axis=0) / k)
            gamma.a.flags.writeable = False
            return gamma

        return self._once("gamma", k, compute)

    def excitation_floor(self, k: int) -> float:
        """lam_min(Gamma_k), solved once per k; InsufficientExcitation where
        Gamma_k is singular (linalg.nonsingular), on every call."""

        def compute(k):
            lo, hi = self.gamma(k).eig_extremes()
            if not nonsingular(lo, hi):
                raise InsufficientExcitation(
                    f"Gamma_{k} is singular; pick k at or above the excitation index"
                )
            return lo

        return self._once("excitation_floor", k, compute)

    def excitation_index(self, k_max: int) -> int | None:
        """The smallest k <= k_max whose Gamma_k passes excitation_floor's
        test, or None; the sum of P_t runs on from k to k, in order of t as in
        gamma (NumPy adds along the first axis in order where dL > 1, and where
        dL = 1 the test reads only the sign of a sum of nonnegative terms)."""
        covs = self.covariances(k_max)
        running = np.zeros_like(covs[0])
        for k in range(1, k_max + 1):
            running = running + covs[k - 1]
            if nonsingular(*SymMatrix(running / k).eig_extremes()):
                return k
        return None

    def diagonal_block(self, k: int) -> np.ndarray:
        """The k-step head of L, the read-only (k dL, k p) lower block
        Toeplitz array of the impulses A^0 B .. A^(k-1) B: every diagonal
        block of a VAR's operator at stride k equals it."""
        return self._once("diagonal_block", k, lambda k: _lower_block_toeplitz(self.impulses(k)))

    def _block_operators(self, m: int) -> tuple[np.ndarray, np.ndarray]:
        """(L_m^T, [A^1 ... A^m]^T) as C-contiguous arrays, formed once per m:
        the right operands of one m-step block of responses."""

        def compute(m):
            n = len(self.a)
            powers = self.powers(m + 1)[1:].reshape(m * n, n)
            return _read_only(self.diagonal_block(m).T), _read_only(powers.T)

        return self._once("block_operators", m, compute)

    def responses(self, w: np.ndarray, state: np.ndarray | None = None) -> np.ndarray:
        """L w for a C-contiguous stack w of inputs over T' steps: shape
        (rows, T', p) in, (rows, T', dL) out; state, shape (rows, dL), is
        the lifted state before step 0 (None: zero, as in L).

        The lifted recursion, _PATH_BLOCK steps per matrix product: with m
        the block length, the block of steps t0..t0+m-1 is
        x[:, t0:t0+m] = w[:, t0:t0+m] @ L_m^T + x[:, t0-1] @ [A^1 ... A^m]^T,
        L_m the m-step diagonal block of L (_block_operators), and x[:, -1]
        the given state.  Blocks start at t = 0, m, 2m, ...; the last one
        may be shorter and reads the leading sub-blocks of the same
        matrices.  So a path run in pieces of multiples of _PATH_BLOCK
        steps, each from the last state of the one before, has the bytes of
        one run.  The one simulator of a VAR: the sampler's step
        (_simulate) and the Ritz floor of lam_max_gram run it.
        """
        rows, t_eff, p = w.shape
        n = len(self.a)
        m = min(_PATH_BLOCK, t_eff)
        x = np.empty((rows, t_eff, n))
        for t0 in range(0, t_eff, m):
            steps = min(m, t_eff - t0)
            noise_t, powers_t = self._block_operators(steps)
            block = w[:, t0 : t0 + steps].reshape(rows, steps * p) @ noise_t
            if state is not None:
                block += state @ powers_t
            x[:, t0 : t0 + steps] = block.reshape(rows, steps, n)
            state = x[:, t0 + steps - 1]
        return x

    def _peak_input(self) -> tuple[float, np.ndarray] | None:
        """(w, v): a frequency w in [0, pi] on a grid of _PEAK_FREQUENCIES
        points, and a unit input direction v, at which the gain
        ||(I - A e^{-iw})^{-1} B v|| is largest on that grid; lam_max of
        G^H G (eigvalsh) is each frequency's squared gain.  None where the
        solve is singular or not finite: A has an eigenvalue on the unit
        circle at a grid point, or close to one.  It reads only A and B, so
        _ritz_floor solves it once per analysis, for every horizon."""
        freqs = np.linspace(0.0, np.pi, _PEAK_FREQUENCIES)
        shifted = np.eye(len(self.a)) - np.exp(-1j * freqs)[:, None, None] * self.a
        b = np.broadcast_to(self.b, (len(freqs), *self.b.shape))
        with np.errstate(all="ignore"):
            try:
                gains = np.linalg.solve(shifted, b)
            except np.linalg.LinAlgError:
                return None
            if not np.isfinite(gains).all():
                return None
            products = np.conj(np.swapaxes(gains, 1, 2)) @ gains
            peak = int(np.argmax(np.linalg.eigvalsh(products)[:, -1]))
            _, vectors = np.linalg.eigh(products[peak])
        return float(freqs[peak]), vectors[:, -1]

    def _ritz_floor(self, n: int) -> float:
        """A lower bound on lam_max(L^T L) over n steps, by Rayleigh-Ritz.

        The test inputs are the real and imaginary parts of
        sin(pi j (t+1) / (m+1)) v e^{i w t} for t < m = min(n, _RITZ_STEPS)
        and j = 1.._RITZ_WINDOWS, at the peak (w, v) of _peak_input; near the
        peak of a long horizon the top singular input of L looks like the
        first of them.  Orthonormalised by QR into Q and run through the
        simulator (responses) over m steps, they give (L_m Q)^T (L_m Q),
        whose largest eigenvalue is at or below lam_max(L_m^T L_m)
        (Courant-Fischer), L_m the operator over m steps.  That is at or
        below lam_max(L^T L): an input that is zero after step m has the
        same first m outputs under L, and more after.  So memory stays
        bounded at any n.  0.0 where _peak_input finds no peak.
        """
        peak = self._once("peak_input", None, lambda _: self._peak_input())
        if peak is None:
            return 0.0
        freq, direction = peak
        m = min(n, _RITZ_STEPS)
        times = np.arange(m)
        windows = np.sin(np.pi * np.arange(1, _RITZ_WINDOWS + 1)[:, None] * (times + 1) / (m + 1))
        waves = windows[:, :, None] * np.exp(1j * freq * times)[None, :, None] * direction
        inputs = np.concatenate([waves.real, waves.imag]).reshape(2 * _RITZ_WINDOWS, -1)
        basis = np.linalg.qr(inputs.T)[0].T
        outputs = self.responses(np.ascontiguousarray(basis).reshape(len(basis), m, -1))
        flat = outputs.reshape(len(basis), -1)
        return float(np.linalg.eigvalsh(flat @ flat.T)[-1])

    def lam_max_gram(self, n: int) -> float:
        """Certified upper bound on lam_max(L^T L) for L over n steps.

        The bracket's lower end is the larger of two floors: the Ritz floor
        (_ritz_floor), and lam_max(sum_j (A^j B)^T A^j B), that of the
        top-left block of L^T L.  Its upper end is (sum_j ||A^j B||_2)^2,
        which bounds the norm of a block-Toeplitz L, raised by 1e-10
        relative to cover rounding.  Each pass puts _GRAM_LEVELS levels
        through the doubling bounded-real test (_bounded_real_doubling).
        The first pass spaces them geometrically above the floor, at
        floor (1 + e) for e from 1e-10 up to the upper end, so a tight
        floor leaves a narrow bracket.  Each later pass spans the interior
        of the bracket between the highest failed level and the lowest
        passed one, evenly, until that is 1e-10 wide or, in the subnormal
        range, holds no float strictly inside it.  The lowest passed
        level is returned: an upper bound on lam_max within 1e-10 relative
        of it (or one float step, in the subnormal range), which has always
        passed the test.  Neither L nor L^T L is
        formed.
        """
        return self._once("gram", n, self._certified_gram)

    def _certified_gram(self, n: int) -> float:
        impulses = self.impulses(n)
        if not impulses.any():
            return 0.0
        rtol = 1e-10
        corner = np.einsum("jnp,jnq->pq", impulses, impulses)
        low = max(float(np.linalg.eigvalsh(corner)[-1]), self._ritz_floor(n))
        high = float(np.sum(_spectral_norms(impulses))) ** 2 * (1.0 + rtol)
        if low > 0:
            with np.errstate(all="ignore"):
                excess = np.geomspace(rtol, max(high / low - 1.0, rtol), _GRAM_LEVELS)
            levels = low * (1.0 + excess)
        else:  # every entry of L^T L underflows to zero
            levels = np.linspace(low, high, _GRAM_LEVELS + 1)[1:]
        certified = None
        while True:
            passed = _bounded_real_doubling(self.a, self.b, n, levels)
            if passed.any():
                certified = high = float(levels[np.argmax(passed)])
            elif certified is None:
                raise NonFiniteBound(
                    f"lam_max(L^T L) over {n} steps could not be certified: the "
                    f"bounded-real test rejected every level up to {high:.6g}, "
                    "the upper end of its bracket"
                )
            failed = levels[~passed & (levels < high)]
            if failed.size:
                low = max(low, float(failed.max()))
            levels = np.linspace(low, high, _GRAM_LEVELS + 2)[1:-1]
            # a subnormal bracket may hold no float between its ends
            levels = levels[(low < levels) & (levels < high)]
            if high <= low * (1.0 + rtol) or not levels.size:
                return certified


_ANALYSES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def var_analysis(sys: VarSystem) -> VarAnalysis:
    """The one analysis of sys, built on first use and kept while sys lives.
    Every function of a VAR model reads it first, so here is the one rule
    of that model's kind: InvalidInput unless sys is a VarSystem."""
    if not isinstance(sys, VarSystem):
        raise InvalidInput(f"a VAR model must be a VarSystem, got {type(sys).__name__}")
    if sys not in _ANALYSES:
        _ANALYSES[sys] = VarAnalysis(sys)
    return _ANALYSES[sys]


@dataclass(frozen=True)
class ProcessSpec:
    """A process to experiment on: a source model plus horizon and stride.

    source is either a VarSystem (lifted-state process) or a raw
    CausalOperator; T is the requested horizon, truncated internally to
    T' = k*floor(T/k); k is the block length of the causal partition.  T
    and k follow effective_horizon's rule and are kept as ints, and an
    operator's blocks fix both; these rules, for the library and config
    load alike, hold for good, as a spec is immutable.
    """

    source: object
    T: int
    k: int = 1

    def __post_init__(self):
        T, k = check_int(self.T, "T"), check_int(self.k, "k")
        object.__setattr__(self, "T", T)
        object.__setattr__(self, "k", k)
        if isinstance(self.source, CausalOperator):
            if k != self.source.k:
                raise InvalidInput(f"k={k} conflicts with operator block length {self.source.k}")
            if T != self.source.T:
                raise InvalidInput(f"T={T} conflicts with operator horizon {self.source.T}")
        elif not isinstance(self.source, VarSystem):
            raise InvalidInput("source must be a VarSystem or CausalOperator")
        effective_horizon(T, k)  # k <= T

    @classmethod
    def from_operator(cls, op: CausalOperator) -> "ProcessSpec":
        return cls(source=op, T=op.T, k=op.k)

    @property
    def effective_horizon(self) -> int:
        return effective_horizon(self.T, self.k)

    @property
    def truncation_notice(self) -> str | None:
        """Why T' falls short of T, or None when k divides T."""
        t_eff = self.effective_horizon
        if t_eff == self.T:
            return None
        return f"horizon truncated from T={self.T} to T'={t_eff} (k={self.k} does not divide T)"

    @property
    def state_dim(self) -> int:
        if isinstance(self.source, VarSystem):
            return self.source.lifted_dim
        return self.source.d

    @property
    def noise_dim(self) -> int:
        return self.source.p


def _check_spec(spec) -> ProcessSpec:
    """spec itself; InvalidInput unless it is a ProcessSpec.  The one rule of
    the model kind at every sampling entry point (noise_block,
    paths_from_noise, montecarlo.run_tail_sweep)."""
    if not isinstance(spec, ProcessSpec):
        raise InvalidInput(f"process must be a ProcessSpec, got {type(spec).__name__}")
    return spec


class _NormalStreams:
    """The standard normal streams of a batch of replicates, filled a block
    at a time through one bit generator.

    words holds a PCG64 state per row, [state_lo, state_hi, inc_lo, inc_hi]
    as replicate_words gives it.  fill(out) fills out[i] from row i's
    state; with carry, it keeps the state after the fill, so the next fill
    continues the stream.  Fills of (s1, p) and then (s2, p) normals so
    carried give the bytes of one (s1 + s2, p) fill: a normal fill draws
    its values in order and never draws 32 bits, so the generator's cached
    32-bit half stays empty and the four words are its whole state.  The
    words are written into the generator's (state, inc) through
    pcg64_word_view, in the order that pcg64_word_order checked once per
    process, and read back through it.  Where the layout check fails, each
    state is set through the public PCG64.state setter, and read back
    through its getter, with the same bytes.
    """

    def __init__(self, words: np.ndarray):
        self._bit_gen = np.random.PCG64(0)
        self._gen = np.random.Generator(self._bit_gen)
        self._order = pcg64_word_order()
        if self._order is None:
            self._states = np.array(words)
        else:
            self._view = pcg64_word_view(self._bit_gen)
            self._states = words[:, self._order]

    def fill(self, out: np.ndarray, carry: bool = False) -> None:
        gen, states = self._gen, self._states
        if self._order is None:
            for i, (s_lo, s_hi, i_lo, i_hi) in enumerate(states.tolist()):
                self._bit_gen.state = {
                    "bit_generator": "PCG64",
                    "state": {"state": s_hi << 64 | s_lo, "inc": i_hi << 64 | i_lo},
                    "has_uint32": 0,
                    "uinteger": 0,
                }
                gen.standard_normal(out=out[i])
                if carry:
                    states[i] = _state_words(self._bit_gen)
            return
        view = self._view
        for row, state in zip(out, states):
            view[:] = state
            gen.standard_normal(out=row)
            if carry:
                state[:] = view


_TRANSPOSES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _operator_transpose(op: CausalOperator) -> np.ndarray:
    """L^T of a raw operator as a C-contiguous copy, formed once per operator."""
    if op not in _TRANSPOSES:
        _TRANSPOSES[op] = _read_only(op.dense().T)
    return _TRANSPOSES[op]


def _rows(count: int) -> int:
    """count rounded up to a multiple of _PATH_ROWS."""
    return -(-count // _PATH_ROWS) * _PATH_ROWS


def _simulate(spec: ProcessSpec, w: np.ndarray, count: int, state=None) -> np.ndarray:
    """X = L w for a C-contiguous (_rows(count), steps, p) stack w, whose
    rows from count on are padding: they are set here to copies of row 0.

    A VAR source runs its lifted recursion from state (VarAnalysis.responses).
    A raw operator multiplies by its matrix, through a transpose formed once
    per operator, and takes steps = T'.  The padding keeps a path's bytes
    independent of how the replicates are split into batches: the noise
    and the right operands are C-contiguous, so each product takes BLAS's
    matrix-matrix route with the same rounding whatever the row count.  A
    one-row product would take the matrix-vector route, a few rows round
    differently from many in blocked products, and an operand without unit
    inner stride (padding by np.broadcast_to) would take NumPy's own loop.
    The one step of paths_from_noise and _path_blocks.
    """
    w[count:] = w[:1]
    if isinstance(spec.source, CausalOperator):
        rows, steps, p = w.shape
        flat = w.reshape(rows, steps * p) @ _operator_transpose(spec.source)
        return flat.reshape(rows, steps, spec.source.d)
    return var_analysis(spec.source).responses(w, state)


def noise_block(spec: ProcessSpec, seed: int, start: int, count: int) -> np.ndarray:
    """Noise for replicates start..start+count-1, shape (count, T', p).

    Replicate r's noise is exactly NumPy's
    Generator(PCG64(mix64(seed, r))).standard_normal((T', p)), so the result
    is independent of batching: one fill of _NormalStreams from the words
    of one replicate_words pass.  With paths_from_noise it is the sampler's
    one-block case, kept as the public route to given replicates' noise and
    as the oracle of _path_blocks.  InvalidInput unless seed is in
    [0, 2**64), start and count are integers >= 0, and the last replicate
    index start + count - 1 is below 2**64 (check_seed's rule, as mix64
    would alias a larger one).
    """
    _check_spec(spec)
    check_seed(seed)
    start, count = check_int(start, "start", minimum=0), check_int(count, "count", minimum=0)
    if count:
        check_seed(start + count - 1, "replicate index")
    w = np.empty((count, spec.effective_horizon, spec.noise_dim))
    _NormalStreams(replicate_words(seed, start, count)).fill(w)
    return w


def paths_from_noise(spec: ProcessSpec, w: np.ndarray) -> np.ndarray:
    """Trajectories driven by the given noise, shape (count, T', d): one
    padded step of _simulate over the whole horizon, with the bytes that
    any batch of the same replicates gets.  w must have shape
    (count, T', p) (InvalidInput otherwise).
    """
    _check_spec(spec)
    w = np.asarray(w)
    t_eff, p = spec.effective_horizon, spec.noise_dim
    if w.shape[1:] != (t_eff, p):
        raise InvalidInput(f"noise must have shape (count, {t_eff}, {p}), got {w.shape}")
    count = len(w)
    padded = np.empty((_rows(count), t_eff, p))
    padded[:count] = w
    return _simulate(spec, padded, count)[:count]


def _path_blocks(spec: ProcessSpec, words: np.ndarray, block: int):
    """The paths of one batch of spec's replicates, a row of words
    (replicate_words) each, block time steps at a time: yields
    (count, steps, d) arrays whose concatenation along time has the bytes
    of paths_from_noise(spec, noise_block(...)) for the same replicates.

    block is T' for a raw operator, and otherwise a multiple of
    _PATH_BLOCK or T' itself.  Each block fills its normals from the
    batch's streams and carries the words to the next one
    (_NormalStreams); the last block reads nothing back.  Its simulator
    step (_simulate) starts from the lifted state at the end of the block
    before, and its _PATH_BLOCK-step products stay anchored at multiples of
    _PATH_BLOCK, so every step has the arithmetic of the whole path.
    Memory is O(rows x block), whatever T'.  The one sampler of the
    package (montecarlo._path_batches calls it once per batch).
    """
    t_eff, p, count = spec.effective_horizon, spec.noise_dim, len(words)
    streams = _NormalStreams(words)
    state = None
    for t0 in range(0, t_eff, block):
        steps = min(block, t_eff - t0)
        w = np.empty((_rows(count), steps, p))
        streams.fill(w[:count], carry=t0 + steps < t_eff)
        x = _simulate(spec, w, count, state)
        state = x[:, -1]
        yield x[:count]


def var_time_covariances(sys: VarSystem, T: int) -> np.ndarray:
    """E[X_t X_t^T] of the lifted state for t = 0..T-1, the running sums
    P_t = sum_{j<=t} A^j B (A^j B)^T; shape (T, dL, dL), read-only."""
    return var_analysis(sys).covariances(check_int(T, "T"))


def gamma_k(sys: VarSystem, k: int) -> SymMatrix:
    """Gamma_k = (1/k) sum_{t=0}^{k-1} E[X_t X_t^T] of the lifted state."""
    return var_analysis(sys).gamma(check_int(k, "k"))


def kappa(sys: VarSystem, k_max: int) -> int | None:
    """Smallest k <= k_max with Gamma_k nonsingular, or None if unreachable
    (VarAnalysis.excitation_index).  Nonsingularity is the eigenvalue test
    lam_max > 0 and lam_min > 1e-12 lam_max that an explicit k meets too
    (linalg.nonsingular).  With full-rank H H^T this equals the lag order.
    """
    return var_analysis(sys).excitation_index(check_int(k_max, "k_max"))


def derive_seed(seed: int, label: int) -> int:
    """Decorrelated sub-seed mix64(seed, label) of a labeled sub-experiment;
    seed and label each in [0, 2**64) (check_seed), where mix64 aliases none."""
    return mix64(check_seed(seed), check_seed(label, "label"))
