"""Vector autoregressions, their causal-operator form, and path sampling.

A VAR(L) process follows Z_t = sum_l A_l Z_{t-l} + H W_t with zero
initialization (Z_t = 0 for t < 0).  Stacking the last L states into
X_t = (Z_t, ..., Z_{t-L+1}) gives the lifted recursion
X_t = A X_{t-1} + B W_t with the companion matrix A and B = [H; 0; ...],
whose causal operator has impulse blocks L[t, s] = A^{t-s} B for s <= t.

Every statistic the bounds read of a VAR comes from one VarAnalysis per
system (var_analysis), by recursions in time; L itself is formed only by
var_to_operator, which the test suite uses as an oracle.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

# NumPy imports these submodules on first attribute access; every subcommand
# uses them, so they load with the package, not inside the first run
import numpy.fft  # noqa: F401
import numpy.random  # noqa: F401

from ._rng import mix64, replicate_states
from .errors import HorizonTooShort, InvalidInput, NonFiniteBound
from .linalg import CausalOperator, SymMatrix

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

#: relative eigenvalue tolerance for the excitation-index rank test
KAPPA_RTOL = 1e-9

#: relative margins above the Lanczos estimate of lam_max(L^T L) that the
#: bounded-real test tries first; the first one is also the relative width
#: to which a wider bracket [failed, passed] is then narrowed
GRAM_MARGINS = (1e-10, 1e-8, 1e-6, 1e-4, 1e-2, 1.0)

#: levels per narrowing pass of the bounded-real test
_BISECTION_LEVELS = 15

#: Lanczos settings for the estimate of lam_max(L^T L): the Krylov basis
#: size (an L^T L no larger than it is formed whole), the Ritz vectors a
#: restart keeps, the relative tolerance, and the seed of the start
#: vector's fixed noise direction
_LANCZOS_NCV = 40
_LANCZOS_KEEP = 20
_LANCZOS_TOL = 1e-10
_LANCZOS_SEED = 0

#: largest magnitude whose square is still a finite float
_SQRT_FLOAT_MAX = float(np.sqrt(np.finfo(float).max))


def _read_only(m) -> np.ndarray:
    out = np.array(m, dtype=float)
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class VarSystem:
    """Autoregression Z_t = sum_l A_l Z_{t-l} + H W_t, zero-initialized.

    a_lags holds (A_1, ..., A_L) (each d x d); h is the d x p noise map.
    A system is immutable: its fields cannot be rebound, the matrices are
    read-only copies of the inputs, and it hashes by identity, so results
    computed once per system (var_analysis) never go stale.
    """

    a_lags: tuple = ()
    h: np.ndarray = None

    def __post_init__(self):
        a_lags = tuple(_read_only(a) for a in self.a_lags)
        if not a_lags:
            raise InvalidInput("need at least one lag matrix")
        d = a_lags[0].shape[0]
        for i, a in enumerate(a_lags):
            if a.shape != (d, d):
                raise InvalidInput(f"lag matrix {i + 1} must be {d} x {d}, got {a.shape}")
        h = _read_only(self.h)
        if h.ndim != 2 or h.shape[0] != d:
            raise InvalidInput(f"noise map must have {d} rows, got shape {h.shape}")
        if not all(np.all(np.isfinite(a)) for a in a_lags) or not np.all(np.isfinite(h)):
            raise InvalidInput("system matrices must be finite")
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
    """Companion matrix of the lifted state, shape (d*L, d*L).

    Top block row is [A_1 ... A_L]; the sub-diagonal carries identities
    shifting old states down; everything else is zero.
    """
    d, L = sys.d, sys.n_lags
    a = np.zeros((d * L, d * L))
    a[:d] = sys.regression_matrix()
    a[d:, : d * (L - 1)] = np.eye(d * (L - 1))
    return a


def effective_horizon(T: int, k: int) -> int:
    """T' = k * floor(T/k); raises HorizonTooShort if no block fits."""
    if k < 1:
        raise InvalidInput(f"block length must be >= 1, got {k}")
    if T < k:
        raise HorizonTooShort(f"horizon {T} holds no complete block of length {k}")
    return k * (T // k)


def _lower_block_toeplitz(impulses: np.ndarray) -> np.ndarray:
    """The (T*n) x (T*p) matrix with block (t, s) = impulses[t - s] for s <= t."""
    t_eff, n, p = impulses.shape
    matrix = np.zeros((t_eff * n, t_eff * p))
    steps = matrix.reshape(t_eff, n, t_eff, p)
    times = np.arange(t_eff)
    for lag in range(t_eff):
        steps[times[lag:], :, times[: t_eff - lag], :] = impulses[lag]
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


def _gram_estimate(impulses: np.ndarray) -> float:
    """Lanczos estimate of lam_max(L^T L), L the lower block-Toeplitz
    operator of the impulses; a Ritz value, so at most lam_max.

    L and L^T are applied as block convolution and correlation by FFT, so
    neither L nor L^T L is formed unless it is no larger than the Krylov
    basis.  The start vector repeats one fixed Gaussian direction u in
    every step, so the estimate is deterministic.  It is in the null space
    of L only if B u = 0, which no structure of the model arranges (an
    all-ones start is, whenever H 1 = 0).  Being constant in time, it
    starts near the top eigenvector of a low-pass system: on the perfbench
    model a fully random start needs 3 times the mat-vecs at 8192 steps.
    """
    t_eff, _, p = impulses.shape
    nfft = 2 * t_eff
    h = np.fft.rfft(impulses, n=nfft, axis=0)
    h_adj = np.conj(np.swapaxes(h, 1, 2))

    def gram(v):
        w = np.fft.rfft(v.reshape(t_eff, p), n=nfft, axis=0)
        x = np.fft.irfft((h @ w[..., None])[..., 0], n=nfft, axis=0)[:t_eff]
        x_f = np.fft.rfft(x, n=nfft, axis=0)
        y = np.fft.irfft((h_adj @ x_f[..., None])[..., 0], n=nfft, axis=0)
        return y[:t_eff].reshape(-1)

    size = t_eff * p
    if size <= _LANCZOS_NCV:
        return float(np.linalg.eigvalsh(np.column_stack([gram(e) for e in np.eye(size)]))[-1])
    start = np.tile(np.random.default_rng(_LANCZOS_SEED).standard_normal(p), t_eff)
    return _top_ritz_value(gram, start)


def _top_ritz_value(matvec, start: np.ndarray) -> float:
    """Largest eigenvalue of the symmetric operator matvec, by thick-restart
    Lanczos (Wu & Simon 2000) from start; a Ritz value, so at most lam_max.

    The basis holds _LANCZOS_NCV vectors, each orthogonalised twice against
    the ones before it; the projected matrix is read off those
    coefficients.  A restart keeps the top _LANCZOS_KEEP Ritz vectors and
    the residual.  The run stops when the top Ritz pair's residual
    beta |y_m| is at most _LANCZOS_TOL times its value, ARPACK's test.  It
    stops at once if beta is that small against the projected matrix's
    largest diagonal entry (no more than its top eigenvalue): the basis
    then spans an invariant subspace, as when the operator's rank is below
    the basis size, and normalising the residual would fill the basis
    with rounding noise.
    """
    m = _LANCZOS_NCV
    basis = np.empty((m + 1, start.size))
    basis[0] = start / np.linalg.norm(start)
    projected = np.zeros((m, m))
    kept = 0
    while True:
        for j in range(kept, m):
            done = basis[: j + 1]
            w = matvec(basis[j])
            h = done @ w
            w = w - h @ done
            again = done @ w
            w -= again @ done
            projected[: j + 1, j] = projected[j, : j + 1] = h + again
            beta = float(np.linalg.norm(w))
            if beta <= _LANCZOS_TOL * projected.diagonal()[: j + 1].max():
                return float(np.linalg.eigvalsh(projected[: j + 1, : j + 1])[-1])
            basis[j + 1] = w / beta
        theta, y = np.linalg.eigh(projected)
        if beta * abs(y[-1, -1]) <= _LANCZOS_TOL * theta[-1]:
            return float(theta[-1])
        kept = _LANCZOS_KEEP
        basis[:kept] = y[:, -kept:].T @ basis[:m]
        basis[kept] = basis[m]
        projected[:] = 0.0
        np.fill_diagonal(projected[:kept, :kept], theta[-kept:])


def _bounded_real_passes(a: np.ndarray, b: np.ndarray, horizon: int, levels) -> np.ndarray:
    """Which levels g make g I - L^T L positive definite, for L the causal
    operator of x_t = A x_{t-1} + B w_t over horizon steps.

    This is the finite-horizon bounded-real test.  With S_T = I, every
    reverse-time pivot R_t = g I - B^T S_{t+1} B (t = T-1, ..., 0) must be
    positive definite, where
    S_t = I + A^T (S_{t+1} + S_{t+1} B R_t^{-1} B^T S_{t+1}) A.  The pivots
    are the Schur complements of g I - L^T L taken one time step at a time
    from the last, so all of them are positive definite exactly when
    g I - L^T L is.  All levels run in one pass, O(horizon n^3) work in
    flat memory; a level is dropped at its first non-finite or
    non-positive pivot, so nothing overflows or warns.
    """
    n, p = b.shape
    levels = np.asarray(levels, dtype=float)
    passed = np.zeros(levels.size, dtype=bool)
    live = np.flatnonzero(np.isfinite(levels))
    g = levels[live, None, None] * np.eye(p)
    eye = np.eye(n)
    s = np.broadcast_to(eye, (live.size, n, n))
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(horizon - 1, -1, -1):
            finite = np.isfinite(s).all(axis=(1, 2))
            if not finite.all():
                live, g, s = live[finite], g[finite], s[finite]
            bts = b.T @ s
            r = g - bts @ b
            pivot_pd = np.linalg.eigvalsh(r)[:, 0] > 0
            if not pivot_pd.all():
                live, g, s, bts, r = (m[pivot_pd] for m in (live, g, s, bts, r))
            if not live.size:
                break
            if t:
                s = eye + a.T @ (s + np.swapaxes(bts, 1, 2) @ np.linalg.solve(r, bts)) @ a
    passed[live] = True
    return passed


def _lag_overflow(lag: int, what: str, horizon: int) -> InvalidInput:
    return InvalidInput(
        f"var model overflows at lag {lag}: {what} exceeds "
        f"{_SQRT_FLOAT_MAX:.3g}, so its square is not a finite float (horizon {horizon})"
    )


class VarAnalysis:
    """Every statistic of one VarSystem that the bounds read, each computed once.

    Horizon-indexed series -- the impulse responses A^j B, the companion
    powers A^j and the covariances P_t = E X_t X_t^T of the lifted state
    (P_0 = B B^T, P_t = A P_{t-1} A^T + B B^T) -- are kept for the longest
    horizon asked so far and extended by the same recursion, so a shorter
    horizon reads a prefix with the same bytes; so are the per-time
    lam_max(P_t) and the squared power norms ||A^j||_2^2.  Gamma_k and the
    k-step diagonal block of L are held per k, and lam_max(L^T L) per
    horizon.  Every array handed out is read-only.  Built by var_analysis;
    it holds no reference to its system.  A config runs check_overflow for
    its longest horizon at load, so the series are formed there, once, and
    checked exactly as the bounds later read them; the impulses are formed
    there only when a bound from the powers cannot rule out their overflow.
    """

    def __init__(self, sys: VarSystem):
        self.a = _read_only(companion(sys))
        self.b = _read_only(sys.lifted_noise_map())
        self._series = {
            "impulses": _read_only(self.b[None]),
            "powers": _read_only(np.eye(len(self.a))[None]),
        }
        self._derived_series: dict = {}
        self._gamma: dict = {}
        self._blocks: dict = {}
        self._gram: dict = {}

    def _prefix(self, name: str, n: int) -> np.ndarray:
        have = self._series[name]
        if len(have) < n:
            grown = np.empty((n,) + have.shape[1:])
            grown[: len(have)] = have
            a = self.a
            for t in range(len(have), n):
                if name == "covariances":
                    grown[t] = a @ grown[t - 1] @ a.T + self._bbt
                else:
                    grown[t] = a @ grown[t - 1]
            grown.flags.writeable = False
            self._series[name] = have = grown
        return have[:n]

    def _derived(self, name: str, n: int, compute) -> np.ndarray:
        have = self._derived_series.get(name)
        if have is None or len(have) < n:
            have = compute(n)
            have.flags.writeable = False
            self._derived_series[name] = have
        return have[:n]

    def impulses(self, n: int) -> np.ndarray:
        """A^j B for j = 0..n-1, shape (n, dL, p)."""
        return self._prefix("impulses", n)

    def covariances(self, n: int) -> np.ndarray:
        """P_t = E X_t X_t^T for t = 0..n-1, shape (n, dL, dL)."""
        if "covariances" not in self._series:  # lazy, so B B^T waits for check_overflow
            self._bbt = self.b @ self.b.T
            self._series["covariances"] = _read_only(self._bbt[None])
        return self._prefix("covariances", n)

    def per_time_lam_max(self, n: int) -> np.ndarray:
        """lam_max(P_t) for t = 0..n-1."""
        return self._derived(
            "per_time_lam_max", n, lambda m: np.linalg.eigvalsh(self.covariances(m))[:, -1]
        )

    def _squared_power_norms(self, n: int) -> np.ndarray:
        """||A^j||_2^2 for j = 0..n-1 (one batched norm over the stacked powers)."""
        return self._derived(
            "squared_power_norms",
            n,
            lambda m: np.linalg.norm(self._prefix("powers", m), 2, axis=(1, 2)) ** 2,
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
        of P_t, of sum_t P_t and of their symmetrisation.  The series are
        formed here under np.errstate, so an overflow is reported, not warned.

        The impulses A^j B are formed only if they might overflow.  As
        ||A^j B||_F^2 <= ||A^j||_2^2 ||B||_F^2, the bound
        2 * horizon * ||B||_F^2 * sum_j ||A^j||_2^2 is at least the energy
        and at least twice the square of every entry of A^j B; when twice
        the bound is still finite (room for rounding), both impulse checks
        pass without them.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            powers = self._prefix("powers", horizon)
            big_a = ~np.all(np.abs(powers) <= _SQRT_FLOAT_MAX, axis=(1, 2))
            energy = np.inf
            if not big_a.any():
                noise_sq = float(np.sum(self.b * self.b))
                power_sq = float(np.sum(self._squared_power_norms(horizon)))
                energy = 2.0 * horizon * noise_sq * power_sq
            if not np.isfinite(2.0 * energy):
                impulses = self._prefix("impulses", horizon)
                big_b = ~np.all(np.abs(impulses) <= _SQRT_FLOAT_MAX, axis=(1, 2))
                if big_a.any() or big_b.any():
                    lag = int(np.argmax(big_a | big_b))
                    noise = (
                        f"the impulse response A^{lag} B" if lag else "the noise map B = [H; 0]"
                    )
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
        if k not in self._gamma:
            gamma = SymMatrix(self.covariances(k).sum(axis=0) / k)
            gamma.a.flags.writeable = False
            self._gamma[k] = gamma
        return self._gamma[k]

    def diagonal_block(self, k: int) -> CausalOperator:
        """The first k steps of L as a one-block operator: every diagonal
        block of a VAR's operator at stride k equals it."""
        if k not in self._blocks:
            _, n, p = self.impulses(k).shape
            self._blocks[k] = CausalOperator(n, p, k, _lower_block_toeplitz(self.impulses(k)))
        return self._blocks[k]

    def lam_max_gram(self, n: int) -> float:
        """Certified upper bound on lam_max(L^T L) for L over n steps.

        A Lanczos estimate theta (a Ritz value, so at most lam_max) is
        raised by each of GRAM_MARGINS, and every level goes through the
        bounded-real test in one pass.  Unless theta (1 + 1e-10) already
        passes, the bracket between the highest failed level (or theta) and
        the lowest passed one is narrowed by further passes until it is
        1e-10 wide.  The lowest passed level is returned: an upper bound on
        lam_max within 1e-10 relative of it.  Neither L nor L^T L is formed.
        """
        if n not in self._gram:
            self._gram[n] = self._certified_gram(n)
        return self._gram[n]

    def _certified_gram(self, n: int) -> float:
        impulses = self.impulses(n)
        if not impulses.any():
            return 0.0
        low = _gram_estimate(impulses)
        levels = low * (1.0 + np.array(GRAM_MARGINS))
        high = None
        while True:
            passed = _bounded_real_passes(self.a, self.b, n, levels)
            if passed.any():
                high = float(levels[np.argmax(passed)])
            elif high is None:
                raise NonFiniteBound(
                    f"lam_max(L^T L) over {n} steps could not be certified: the "
                    "bounded-real test rejected every level up to twice its Lanczos estimate"
                )
            failed = levels[~passed & (levels < high)]
            if failed.size:
                low = max(low, float(failed.max()))
            if high <= low * (1.0 + GRAM_MARGINS[0]):
                return high
            levels = np.linspace(low, high, _BISECTION_LEVELS + 2)[1:-1]


_ANALYSES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def var_analysis(sys: VarSystem) -> VarAnalysis:
    """The one analysis of sys, built on first use and kept while sys lives."""
    if sys not in _ANALYSES:
        _ANALYSES[sys] = VarAnalysis(sys)
    return _ANALYSES[sys]


@dataclass
class ProcessSpec:
    """A process to experiment on: a source model plus horizon and stride.

    source is either a VarSystem (lifted-state process) or a raw
    CausalOperator; T is the requested horizon, truncated internally to
    T' = k*floor(T/k); k is the block length of the causal partition.
    """

    source: object
    T: int
    k: int = 1

    def __post_init__(self):
        self.T = int(self.T)
        self.k = int(self.k)
        t_eff = effective_horizon(self.T, self.k)  # validates
        if isinstance(self.source, CausalOperator):
            if self.source.k != self.k:
                raise InvalidInput(
                    f"operator stride {self.source.k} != requested block length {self.k}"
                )
            if self.source.T != t_eff:
                raise InvalidInput(
                    f"operator horizon {self.source.T} != effective horizon {t_eff}"
                )
        elif not isinstance(self.source, VarSystem):
            raise InvalidInput("source must be a VarSystem or CausalOperator")

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


def noise_block(spec: ProcessSpec, seed: int, start: int, count: int) -> np.ndarray:
    """Noise for replicates start..start+count-1, shape (count, T', p).

    Replicate r's noise is exactly NumPy's
    Generator(PCG64(mix64(seed, r))).standard_normal((T', p)), so the result
    is independent of batching.  The batch's seeded states come from one
    vectorised pass (replicate_states), and one bit generator is set to
    each of them in turn instead of being built per replicate.
    """
    t_eff, p = spec.effective_horizon, spec.noise_dim
    w = np.empty((count, t_eff, p))
    bit_gen = np.random.PCG64(0)
    gen = np.random.Generator(bit_gen)
    for i, (state, inc) in enumerate(replicate_states(seed, start, count)):
        bit_gen.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        gen.standard_normal(out=w[i])
    return w


def paths_from_noise(spec: ProcessSpec, w: np.ndarray) -> np.ndarray:
    """Trajectories driven by the given noise, shape (count, T', d).

    VAR sources run the lifted recursion (algebraically identical to the
    operator product); raw operators multiply by the operator matrix.  A
    single replicate is run as two equal rows: a one-row product would take
    BLAS's matrix-vector route, which rounds differently from the
    matrix-matrix route of every larger batch, so a path's bytes would
    depend on how the replicates were split.
    """
    count, t_eff, p = w.shape
    if count == 1:
        return paths_from_noise(spec, np.concatenate([w, w]))[:1]
    if isinstance(spec.source, VarSystem):
        analysis = var_analysis(spec.source)
        a, b = analysis.a, analysis.b
        x = np.empty((count, t_eff, len(a)))
        state = w[:, 0, :] @ b.T
        x[:, 0, :] = state
        for t in range(1, t_eff):
            state = state @ a.T + w[:, t, :] @ b.T
            x[:, t, :] = state
        return x
    dense = spec.source.dense()
    flat = w.reshape(count, t_eff * p) @ dense.T
    return flat.reshape(count, t_eff, spec.source.d)


def var_time_covariances(sys: VarSystem, T: int) -> np.ndarray:
    """E[X_t X_t^T] of the lifted state for t = 0..T-1 via the recursion
    P_0 = B B^T, P_t = A P_{t-1} A^T + B B^T; shape (T, dL, dL), read-only."""
    if T < 1:
        raise InvalidInput("horizon must be >= 1")
    return var_analysis(sys).covariances(T)


def gamma_k(sys: VarSystem, k: int) -> SymMatrix:
    """Gamma_k = (1/k) sum_{t=0}^{k-1} E[X_t X_t^T] of the lifted state."""
    if k < 1:
        raise InvalidInput(f"excitation length must be >= 1, got {k}")
    return var_analysis(sys).gamma(k)


def kappa(sys: VarSystem, k_max: int) -> int | None:
    """Smallest k <= k_max with Gamma_k nonsingular, or None if unreachable.

    Nonsingularity is an eigenvalue test (lam_min > KAPPA_RTOL * lam_max); no
    determinant is formed.  With full-rank H H^T this equals the lag order.
    """
    if k_max < 1:
        raise InvalidInput("k_max must be >= 1")
    covs = var_analysis(sys).covariances(k_max)
    running = np.zeros_like(covs[0])
    for k in range(1, k_max + 1):
        running = running + covs[k - 1]
        lo, hi = SymMatrix(running / k).eig_extremes()
        if hi > 0 and lo > KAPPA_RTOL * hi:
            return k
    return None


def derive_seed(seed: int, label: int) -> int:
    """Decorrelated sub-seed for a labeled sub-experiment."""
    return mix64(seed, label)
