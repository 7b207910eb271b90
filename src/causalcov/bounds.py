"""Concentration bounds for quadratic functionals of causal Gaussian processes.

The chain of results, from primitive to composite:

- an exact closed form and an exponential upper bound for the one-sided
  moment generating function E exp(-lam [x;W]^T Q [x;W]),
- a one-sided exponential inequality for sum_t ||Delta X_t||^2 of a causal
  process, controlled by the diagonal blocks alone,
- a Chernoff lower-tail bound obtained by optimizing that inequality,
- a direction-uniform anticoncentration bound for the smallest eigenvalue
  of the empirical covariance, parametrized by the block-diversity index
  psi_k, plus a matching operator-norm upper tail,
- autoregressive corollaries expressed through the excitation covariance
  Gamma_k and the companion-matrix power norms.

All bounds are reported unclamped; values above 1 are vacuous but honest.

A process is a CausalOperator or a ProcessSpec.  A raw operator's
statistics come from its dense matrix; a VAR's come from its VarAnalysis
(process.var_analysis), from its companion powers, without forming L.
"""

from __future__ import annotations

import functools
import math
import weakref
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateDirection,
    InsufficientExcitation,
    InvalidInput,
    NonFiniteBound,
    SingularDecoupledCovariance,
)
from .linalg import CausalOperator, SymMatrix, require_psd, trace_square
from .process import (
    ProcessSpec,
    VarAnalysis,
    VarSystem,
    effective_horizon,
    gamma_k,
    var_analysis,
)

__all__ = [
    "BoundReport",
    "mgf_upper_bound",
    "exact_mgf",
    "block_trace_sums",
    "causal_exp_inequality",
    "chernoff_lower_tail",
    "chernoff_threshold",
    "psi_k",
    "anticoncentration_bound",
    "upper_tail_bound",
    "mgf_subexp_lemma",
    "armastability_bound",
    "arma_corollary_bound",
    "arma_prefactor",
]

#: fixed seed for the psi_k optimizer's random restarts (not user-facing)
_PSI_SEED = 0x5EED0F21
#: psi_k optimizer: descent starts, relative stopping tolerance, steps per start
_PSI_STARTS = 32
_PSI_TOL = 1e-8
_PSI_MAX_ITER = 500


def _power(base: float, exponent: int, what: str) -> float:
    """base**exponent; NonFiniteBound where the float power overflows."""
    try:
        value = base**exponent
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise NonFiniteBound(
            f"{what}: the prefactor {base:.6g} to the power {exponent} is not a "
            "finite float, so the bound is not a finite number"
        )
    return value


def _exp_bound(exponent: float) -> float:
    """e^exponent for an upper bound: +inf (vacuous) where it overflows a float."""
    try:
        return math.exp(exponent)
    except OverflowError:
        return math.inf


def _require_lam(lam: float) -> float:
    lam = float(lam)
    if not math.isfinite(lam) or lam < 0:
        raise InvalidInput(f"lambda must be finite and >= 0, got {lam}")
    return lam


def mgf_upper_bound(q22, lam: float) -> float:
    """Exponential upper bound exp(-lam tr(Q22) + lam^2 tr(Q22^2)).

    Dominates E exp(-lam W^T Q22 W) for W ~ N(0, I) and any PSD Q22,
    via log(1+x) >= x - x^2/2 applied to each eigenvalue of 2*lam*Q22.
    Past float range the bound is +inf: vacuous, not an error.
    """
    lam = _require_lam(lam)
    q22 = require_psd(q22, "Q22")
    tr = float(np.trace(q22))
    tr2 = trace_square(q22)
    return _exp_bound(-lam * tr + lam * lam * tr2)


def exact_mgf(q, x, lam: float) -> float:
    """Closed form of E exp(-lam [x;W]^T Q [x;W]), W ~ N(0, I_m).

    Q is PSD, partitioned at n = len(x).  The value is

        det(I + 2 lam Q22)^(-1/2)
        * exp(-lam x^T (Q11 - 2 lam Q12 (I + 2 lam Q22)^(-1) Q21) x)

    whose exponent matrix is a Schur complement of a PSD matrix, so the
    value is maximal at x = 0.  Validated against numerical quadrature in
    the test suite.
    """
    lam = _require_lam(lam)
    qa = require_psd(q, "Q")
    xv = np.atleast_1d(np.asarray(x, dtype=float))
    n = xv.shape[0]
    m = qa.shape[0] - n
    if m < 0:
        raise InvalidInput(f"x has length {n} but Q is only {qa.shape[0]} wide")
    if m == 0:
        return math.exp(-lam * float(xv @ qa @ xv))
    q11 = qa[:n, :n]
    q12 = qa[:n, n:]
    q22 = qa[n:, n:]
    mmat = np.eye(m) + 2.0 * lam * q22
    sign, logdet = np.linalg.slogdet(mmat)
    if sign <= 0:
        raise InvalidInput("I + 2*lam*Q22 is not positive definite")
    if n == 0:
        return math.exp(-0.5 * logdet)
    rhs = q12.T @ xv
    quad = float(xv @ q11 @ xv) - 2.0 * lam * float(rhs @ np.linalg.solve(mmat, rhs))
    return math.exp(-0.5 * logdet - lam * quad)


def _per_block(values: np.ndarray, copies: int) -> np.ndarray:
    """values (one row per block) repeated copies times along axis 0.

    A VAR's sums over blocks add this stack exactly as the dense route adds
    its stored blocks, so both routes round alike (a product of the count
    would not).
    """
    return np.tile(values, (copies,) + (1,) * (values.ndim - 1))


def block_trace_sums(process, d_mat) -> tuple[float, float]:
    """(S1, S2) with S1 = sum_j tr(Q_j), S2 = sum_j tr(Q_j^2),
    Q_j = L_jj^T blkdiag(D) L_jj; for a VAR, (T'/k) tr(Q_0) and
    (T'/k) tr(Q_0^2) from its k-step diagonal block.  NonFiniteBound where
    either sum overflows."""
    analysis = _analysis(process)
    stack, copies = analysis.diagonal_blocks()
    dm = require_psd(d_mat, "weight matrix")
    if dm.shape != (analysis.d, analysis.d):
        raise InvalidInput(f"weight matrix must be {analysis.d} x {analysis.d}")
    with np.errstate(over="ignore", invalid="ignore"):
        rows = stack.reshape(len(stack), analysis.k, analysis.d, stack.shape[2])
        grams = np.swapaxes(stack, 1, 2) @ np.einsum("ab,jtbq->jtaq", dm, rows).reshape(stack.shape)
        sym = 0.5 * (grams + np.swapaxes(grams, 1, 2))  # trace_square's symmetrised Q_j
        traces = np.stack([grams.trace(axis1=1, axis2=2), (sym * sym).sum(axis=(1, 2))], axis=1)
        sums = np.cumsum(_per_block(traces, copies), axis=0)[-1]  # added in block order
    for name, value in zip(("S1 = sum_j tr(Q_j)", "S2 = sum_j tr(Q_j^2)"), sums):
        if not np.isfinite(value):
            raise NonFiniteBound(
                f"Chernoff bound: {name} is not a finite float, so the bound is not a finite number"
            )
    return float(sums[0]), float(sums[1])


def causal_exp_inequality(process, d_mat, lam: float) -> float:
    """One-sided bound E exp(-lam sum_t ||Delta X_t||^2) <= exp(-lam S1 + lam^2 S2).

    D = Delta^T Delta weights the process coordinates; only the diagonal
    blocks of the operator enter, via S1 = sum_j tr(Q_j) and
    S2 = sum_j tr(Q_j^2).
    """
    lam = _require_lam(lam)
    s1, s2 = block_trace_sums(process, d_mat)
    return _exp_bound(-lam * s1 + lam * lam * s2)


def chernoff_lower_tail(process, d_mat) -> float:
    """Bound on P(sum_t ||Delta X_t||^2 <= S1/2), where S1 is the decoupled
    mean energy sum_t E ||Delta X~_t||^2.

    Optimizing lambda in the causal exponential inequality at threshold
    S1/2 gives exp(-S1^2 / (16 S2)).  Scale-invariant in D.
    """
    s1, s2 = block_trace_sums(process, d_mat)
    if s1 <= 0.0:
        raise DegenerateDirection("probing direction annihilates every diagonal block")
    return math.exp(-s1 * s1 / (16.0 * s2))


def chernoff_threshold(process, d_mat) -> float:
    """Event threshold S1/2 certified by chernoff_lower_tail."""
    s1, _ = block_trace_sums(process, d_mat)
    return 0.5 * s1


# ---------------------------------------------------------------------------
# psi_k: block-diversity index


def _block_covariances(analysis: "_Analysis") -> np.ndarray:
    """G_j = sum_tau R_tau R_tau^T, R_tau the tau-th d-row slice of L_jj, for
    every diagonal block in order with its copies: shape (T'/k, d, d)."""
    stack, copies = analysis.diagonal_blocks()
    rows = stack.reshape(len(stack), analysis.k, analysis.d, stack.shape[2])
    return _per_block(np.einsum("jtiq,jtkq->jik", rows, rows), copies)


def _psi_value(g_stack: np.ndarray, t_eff: int, v: np.ndarray):
    a = np.einsum("i,jik,k->j", v, g_stack, v)
    f1 = float(a.sum())
    f2 = float((a * a).sum())
    return f1 * f1 / (t_eff * f2), a, f1, f2


def _psi_gradient(g_stack, t_eff, v, a, f1, f2):
    gv = np.einsum("jik,k->ji", g_stack, v)
    term = f2 * gv.sum(axis=0) - f1 * (a[:, None] * gv).sum(axis=0)
    return (4.0 * f1 / (t_eff * f2 * f2)) * term


def _psi_descend(g_stack, t_eff, v0):
    """Projected gradient descent on the unit sphere from one start."""
    v = v0 / np.linalg.norm(v0)
    f, a, f1, f2 = _psi_value(g_stack, t_eff, v)
    for _ in range(_PSI_MAX_ITER):
        grad = _psi_gradient(g_stack, t_eff, v, a, f1, f2)
        grad_t = grad - (grad @ v) * v
        gnorm2 = float(grad_t @ grad_t)
        if gnorm2 <= 1e-30:
            break
        step = 1.0
        improved = False
        while step > 1e-14:
            cand = v - step * grad_t
            cand /= np.linalg.norm(cand)
            f_new, a_new, f1_new, f2_new = _psi_value(g_stack, t_eff, cand)
            if f_new <= f - 1e-4 * step * gnorm2:
                improved = True
                break
            step *= 0.5
        if not improved:
            break
        moved = abs(f - f_new)
        v, f, a, f1, f2 = cand, f_new, a_new, f1_new, f2_new
        if moved <= _PSI_TOL * max(abs(f), 1e-12):
            break
    return f, v


def _require_nonsingular_decoupled(lo: float, hi: float) -> None:
    """SingularDecoupledCovariance unless the summed decoupled covariance,
    with extreme eigenvalues lo and hi, is nonsingular."""
    if hi <= 0 or lo <= 1e-12 * hi:
        raise SingularDecoupledCovariance(
            "summed decoupled covariance is singular; every direction with "
            "zero energy makes the index undefined"
        )


def psi_k(op: CausalOperator) -> tuple[float, np.ndarray]:
    """Block-diversity index: inf over unit directions v of
    (sum_j v^T G_j v)^2 / (T' * sum_j (v^T G_j v)^2), with G_j the j-th
    diagonal block's Gram summed over its time slots (_block_covariances).

    Returns (value, minimizing direction), a pure function of the operator.
    The bounds run it for raw operators only: for a VAR the index is
    exactly 1/k (see _RecursionAnalysis.psi).
    Multi-start projected gradient descent over the sphere (_PSI_STARTS
    deterministic restarts); systems whose diagonal blocks are all
    identical short-circuit to max(value, 1/k).
    Probes are rank-one: the index scans single unit directions, not
    higher-dimensional subspaces.
    """
    g_stack = _block_covariances(_analysis(op))
    total = SymMatrix(g_stack.sum(axis=0))
    _require_nonsingular_decoupled(*total.eig_extremes())
    t_eff = op.T
    d = op.d

    starts = [np.eye(d)[i] for i in range(d)]
    _, u = np.linalg.eigh(total.a)
    starts.extend(u[:, i] for i in range(d))
    rng = np.random.Generator(np.random.PCG64(_PSI_SEED))
    while len(starts) < _PSI_STARTS:
        starts.append(rng.standard_normal(d))
    val, direction = np.inf, None
    for v0 in starts:
        start_val, v = _psi_descend(g_stack, t_eff, np.asarray(v0, float))
        if start_val < val:
            val, direction = start_val, v

    if op.identical_diag_blocks():
        val = max(val, 1.0 / op.k)
    return float(val), direction


# ---------------------------------------------------------------------------
# anticoncentration and upper tail


@dataclass(frozen=True)
class BoundReport:
    """Evaluated bounds for one process, with the quantities behind them.

    anticoncentration_bound builds one per process and shares it.
    """

    psi_k: float
    chernoff_exponent: float
    anticonc_probability: float
    anticonc_threshold: float
    upper_tail_probability: float
    intermediates: dict = field(default_factory=dict)


def _operator_stats(op: CausalOperator) -> dict:
    """Spectral quantities of an operator's exact covariances, from its
    dense matrix (one full SVD for lam_max(L^T L)).

    Only raw operators take this route, once per operator (_DenseAnalysis).
    For a VAR, _RecursionAnalysis.stats gives the same quantities without
    L, and this route on var_to_operator is its test oracle.
    """
    dense = op.dense()
    t_eff, d = op.T, op.d
    rows = dense.reshape(t_eff, d, dense.shape[1])
    per_time_sum = np.einsum("tiq,tjq->ij", rows, rows)
    lo_sum, hi_sum = SymMatrix(per_time_sum).eig_extremes()
    per_time_lam_max = np.linalg.eigvalsh(
        0.5 * (np.einsum("tiq,tjq->tij", rows, rows) + np.einsum("tjq,tiq->tij", rows, rows))
    )[:, -1]
    sv = np.linalg.svd(dense, compute_uv=False)
    gram_lam_max = float(sv[0] ** 2)
    decoupled_sum = _block_covariances(_analysis(op)).sum(axis=0)
    lo_dec, hi_dec = SymMatrix(decoupled_sum).eig_extremes()
    return {
        "lam_min_per_time_sum": lo_sum,
        "lam_max_per_time_sum": hi_sum,
        "lam_max_gram": gram_lam_max,
        "lam_min_decoupled_sum": lo_dec,
        "lam_max_decoupled_sum": hi_dec,
        "sum_per_time_lam_max": float(per_time_lam_max.sum()),
    }


class _Analysis:
    """What the bounds read of one process, each part computed on first use
    and then shared by every bound, event and report on the process.

    t_eff, d and k are the horizon, state dimension and block length;
    diagonal_blocks() gives (stack, copies): the operator's diagonal blocks
    L_jj are the read-only (n, d k, p k) stack, in order, repeated copies
    times, and psi_k and the decoupled sum read them (_block_covariances);
    stats holds the covariance statistics (the keys of _operator_stats);
    psi is (psi_k, direction).
    block_trace_sums reads only the diagonal blocks, so a Chernoff bound
    never pays for lam_max(L^T L) or psi_k.  _analysis picks the subclass.
    """

    t_eff: int
    d: int
    k: int

    @functools.cached_property
    def report(self) -> BoundReport:
        return _bound_report(self)


class _DenseAnalysis(_Analysis):
    """A raw operator: dense statistics and the psi_k search.  The operator
    is held by weak reference, so the memo entry keyed by it does not keep
    it alive."""

    def __init__(self, op: CausalOperator):
        self.t_eff, self.d, self.k = op.T, op.d, op.k
        self._op = weakref.ref(op)

    def diagonal_blocks(self) -> tuple[np.ndarray, int]:
        return self._op().diag_blocks(), 1

    @functools.cached_property
    def stats(self) -> dict:
        return _operator_stats(self._op())

    @functools.cached_property
    def psi(self) -> tuple[float, np.ndarray]:
        return psi_k(self._op())


class _RecursionAnalysis(_Analysis):
    """A VAR at one (T', k), read from its VarAnalysis without forming L.

    Every diagonal block of a VAR's operator is its k-step head, counted
    T'/k times.  sum_t P_t and lam_max(P_t) come from the covariances
    P_t, the decoupled sum T' Gamma_k from the head, and
    lam_max(L^T L) is a certified upper bound (VarAnalysis.lam_max_gram).
    Every diagonal block is the same, so every unit direction gives
    psi_k = 1/k exactly; the first coordinate axis is reported.
    """

    def __init__(self, var: VarAnalysis, t_eff: int, k: int):
        self.t_eff, self.d, self.k = t_eff, len(var.a), k
        self._var = var

    def diagonal_blocks(self) -> tuple[np.ndarray, int]:
        return self._var.diagonal_block(self.k)[None], self.t_eff // self.k

    @functools.cached_property
    def _decoupled_extremes(self) -> tuple[float, float]:
        return SymMatrix(_block_covariances(self).sum(axis=0)).eig_extremes()

    @functools.cached_property
    def stats(self) -> dict:
        var, t_eff = self._var, self.t_eff
        lo_sum, hi_sum = SymMatrix(var.covariances(t_eff).sum(axis=0)).eig_extremes()
        lo_dec, hi_dec = self._decoupled_extremes
        return {
            "lam_min_per_time_sum": lo_sum,
            "lam_max_per_time_sum": hi_sum,
            "lam_max_gram": var.lam_max_gram(t_eff),
            "lam_min_decoupled_sum": lo_dec,
            "lam_max_decoupled_sum": hi_dec,
            "sum_per_time_lam_max": float(var.per_time_lam_max(t_eff).sum()),
        }

    @functools.cached_property
    def psi(self) -> tuple[float, np.ndarray]:
        _require_nonsingular_decoupled(*self._decoupled_extremes)
        return 1.0 / self.k, np.eye(self.d)[0]


_ANALYSES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _analysis(process) -> _Analysis:
    """The one analysis of a process (a CausalOperator or a ProcessSpec).

    This is where the route is chosen, by source type: a raw operator gets
    _DenseAnalysis, a VAR _RecursionAnalysis.  Analyses are held per source
    (operator or VarSystem) in a WeakKeyDictionary, and per (T', k) for a
    VAR, so an entry lives exactly as long as its source; sources are
    immutable, so a stored analysis never goes stale.
    """
    source = process.source if isinstance(process, ProcessSpec) else process
    if isinstance(source, CausalOperator):
        key = None
    elif isinstance(process, ProcessSpec):
        key = (process.effective_horizon, process.k)
    else:
        raise InvalidInput("a process is a CausalOperator or a ProcessSpec")
    per_source = _ANALYSES.setdefault(source, {})
    if key not in per_source:
        per_source[key] = (
            _DenseAnalysis(source) if key is None else _RecursionAnalysis(var_analysis(source), *key)
        )
    return per_source[key]


def upper_tail_bound(process, q: float) -> float:
    """Bound on P(||sum_t X_t X_t^T|| >= 2 q ||sum_t E X_t X_t^T||) for q > 1:
    5^d exp(-(q-1) lam_min(sum_t E X_t X_t^T) / (8 lam_max(L^T L)))."""
    q = float(q)
    if not q > 1.0:
        raise InvalidInput(f"q must exceed 1, got {q}")
    analysis = _analysis(process)
    return _upper_tail_from_stats(analysis.d, q, analysis.stats)


def _upper_tail_from_stats(d: int, q: float, stats: dict) -> float:
    lam_min = stats["lam_min_per_time_sum"]
    lam_max = stats["lam_max_gram"]
    if lam_max <= 0:
        raise InvalidInput("operator is identically zero")
    return 5.0**d * math.exp(-(q - 1.0) * lam_min / (8.0 * lam_max))


def anticoncentration_bound(process) -> BoundReport:
    """Probability bound for the smallest-eigenvalue lower tail
    lam_min((1/T') sum_t X_t X_t^T) <= (1/(8T')) lam_min(sum_t E X~_t X~_t^T).

    The bound is (16 sqrt(q) sqrt(r))^d exp(-psi_k T'/8) with
    q = 1 + psi_k T' lam_max(L^T L) / lam_min(sum_t E X_t X_t^T) and
    r = lam_max(sum_t E X_t X_t^T) / lam_min(sum_t E X~_t X~_t^T); the
    matching operator-norm upper tail is evaluated at the same q.

    process is a CausalOperator or a ProcessSpec.  For a VAR, psi_k is
    exactly 1/k (psi_direction is the first coordinate axis) and
    lam_max(L^T L) is a certified upper bound a little above the exact
    value, which only raises q and the bound; a raw operator runs the
    psi_k search and the dense statistics.  The report is computed once
    per process and shared by every later call.  Where
    (16 sqrt(q) sqrt(r))^d overflows, NonFiniteBound is raised.
    """
    return _analysis(process).report


def _bound_report(analysis: _Analysis) -> BoundReport:
    psi, direction = analysis.psi
    stats = analysis.stats
    t_eff, d, k = analysis.t_eff, analysis.d, analysis.k
    lam_min_sum = stats["lam_min_per_time_sum"]
    lam_max_sum = stats["lam_max_per_time_sum"]
    lam_min_dec = stats["lam_min_decoupled_sum"]
    if lam_min_sum <= 0:
        raise SingularDecoupledCovariance(
            "summed per-time covariance is singular over the horizon"
        )
    q = 1.0 + psi * t_eff * stats["lam_max_gram"] / lam_min_sum
    ratio = lam_max_sum / lam_min_dec
    prefactor = 16.0 * math.sqrt(q) * math.sqrt(ratio)
    exponent = psi * t_eff / 8.0
    probability = _power(prefactor, d, "anticoncentration bound") * math.exp(-exponent)
    threshold = lam_min_dec / (8.0 * t_eff)
    upper = _upper_tail_from_stats(d, q, stats)
    intermediates = dict(stats)
    intermediates.update(
        {
            "psi_direction": direction.tolist(),
            "q": q,
            "covariance_ratio": ratio,
            "prefactor_base": prefactor,
            "horizon": t_eff,
            "block_length": k,
            "dim": d,
            "exact_gram_ratio": stats["lam_max_gram"] / lam_min_sum,
            "footnote_ratio_bound": stats["sum_per_time_lam_max"] / lam_min_dec,
        }
    )
    return BoundReport(
        psi_k=psi,
        chernoff_exponent=exponent,
        anticonc_probability=probability,
        anticonc_threshold=threshold,
        upper_tail_probability=upper,
        intermediates=intermediates,
    )


def mgf_subexp_lemma(op: CausalOperator, v, lam: float, exact: bool = False) -> float:
    """Sub-exponential MGF control of sum_t (v^T X_t)^2 along a direction v.

    With L_v = (I_T kron v^T) L: the bound exp(4 lam sum_t v^T E[X_t X_t^T] v)
    holds for 0 <= lam <= 1/(4 lam_max(L^T L)); exact=True instead returns
    det(I - 2 lam L_v^T L_v)^(-1/2), finite while 2 lam lam_max(L_v^T L_v) < 1.
    """
    lam = _require_lam(lam)
    vv = np.asarray(v, dtype=float).ravel()
    if vv.shape[0] != op.d:
        raise InvalidInput(f"direction must have length {op.d}")
    norm = np.linalg.norm(vv)
    if norm == 0:
        raise InvalidInput("direction must be nonzero")
    vv = vv / norm
    dense = op.dense()
    rows = dense.reshape(op.T, op.d, dense.shape[1])
    lv = np.einsum("i,tiq->tq", vv, rows)
    if exact:
        gram = lv @ lv.T
        w = np.linalg.eigvalsh(0.5 * (gram + gram.T))
        if 2.0 * lam * float(w[-1]) >= 1.0:
            raise InvalidInput("lambda outside the finite-MGF domain for this direction")
        return float(np.exp(-0.5 * np.sum(np.log1p(-2.0 * lam * np.clip(w, 0.0, None)))))
    lam_max = _analysis(op).stats["lam_max_gram"]
    if lam > 1.0 / (4.0 * lam_max):
        raise InvalidInput(
            f"lambda {lam} outside the sub-exponential domain (max {1.0 / (4.0 * lam_max)})"
        )
    energy = float(np.sum(lv * lv))
    return math.exp(4.0 * lam * energy)


# ---------------------------------------------------------------------------
# autoregressive corollaries


def armastability_bound(sys: VarSystem, T: int) -> float:
    """Upper bound T ||H H^T|| sum_{j<T} ||A^j (A^j)^T|| on ||sum_t E X_t X_t^T||."""
    if T < 1:
        raise InvalidInput("horizon must be >= 1")
    hh_norm = float(np.linalg.norm(sys.h, 2) ** 2)
    return T * hh_norm * var_analysis(sys).power_norm_sum(T)


def _excitation_floor(sys: VarSystem, k: int) -> float:
    """lam_min(Gamma_k); InsufficientExcitation where Gamma_k is singular."""
    lo, hi = gamma_k(sys, k).eig_extremes()
    if hi <= 0 or lo <= 1e-12 * hi:
        raise InsufficientExcitation(f"Gamma_{k} is singular; pick k at or above the excitation index")
    return lo


def arma_prefactor(sys: VarSystem, T: int, k: int) -> tuple[int, float]:
    """(T', base) with base = 32 T'^{3/2} ||HH^T|| sum_j ||A^j (A^j)^T||
    / (sqrt(k) lam_min(Gamma_k)); the corollary bound is base^{dL} e^{-T'/(8k)}."""
    t_eff = effective_horizon(T, k)
    lo = _excitation_floor(sys, k)
    hh_norm = float(np.linalg.norm(sys.h, 2) ** 2)
    base = (
        32.0 * t_eff**1.5 * hh_norm * var_analysis(sys).power_norm_sum(t_eff) / (math.sqrt(k) * lo)
    )
    return t_eff, base


def arma_corollary_bound(sys: VarSystem, T: int, k: int) -> float:
    """Anticoncentration corollary for the lifted autoregressive state:
    (32 T'^{3/2} ||HH^T|| sum_j ||A^j(A^j)^T|| / (sqrt(k) lam_min(Gamma_k)))^{dL}
    * exp(-T'/(8k)); NonFiniteBound where the power overflows."""
    t_eff, base = arma_prefactor(sys, T, k)
    return _power(base, sys.lifted_dim, "ARMA corollary bound") * math.exp(-t_eff / (8.0 * k))
