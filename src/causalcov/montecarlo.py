"""Monte-Carlo certification of the probability bounds.

Every experiment is reproducible: replicate r of master seed s draws its
noise from a generator seeded with mix64(s, r), and replicates are
simulated in order, in batches whose size depends only on the horizon.

Certification is one-sided by design: an experiment certifies its bound
when the upper edge of the 99.9% Wilson interval for the event frequency
sits at or below the bound, or trivially when the bound is vacuous (>= 1).
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field

import numpy as np

from ._rng import mix64
from .bounds import (
    _analysis,
    anticoncentration_bound,
    chernoff_lower_tail,
    chernoff_threshold,
    exact_mgf,
    mgf_upper_bound,
    upper_tail_bound,
)
from .errors import InvalidInput, NonFiniteBound
from .estimator import least_squares, ls_bound_details
from .linalg import require_psd
from .process import ProcessSpec, VarSystem, noise_block, paths_from_noise

__all__ = [
    "TailExperiment",
    "wilson_interval",
    "run_tail_experiment",
    "run_mgf_experiment",
    "run_identification_experiment",
]

#: simulated time steps per batch, which bounds the memory of its noise and paths
STEPS = 2**15

#: two-sided confidence of the certification interval
CONFIDENCE = 0.999

@dataclass
class TailExperiment:
    """Outcome of one certification experiment.

    frequency is the empirical event frequency (or the mean estimate for
    mgf-estimate runs, whose hits field is None); ci is the certification
    interval; certified is a pure function of (ci, bound): upper edge <=
    bound, or bound >= 1 (then vacuous is set).
    """

    event: str
    replicates: int
    hits: int | None
    frequency: float
    ci: tuple[float, float]
    bound: float
    vacuous: bool
    certified: bool
    seed: int
    extras: dict = field(default_factory=dict)


def wilson_interval(hits: int, n: int) -> tuple[float, float]:
    """Wilson score interval at CONFIDENCE for a binomial proportion."""
    if n < 1:
        raise InvalidInput("need at least one trial")
    if not 0 <= hits <= n:
        raise InvalidInput(f"hits {hits} outside [0, {n}]")
    z = statistics.NormalDist().inv_cdf(1.0 - (1.0 - CONFIDENCE) / 2.0)
    p = hits / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2.0 * n)) / denom
    half = z * math.sqrt(p * (1.0 - p) / n + z * z / (4.0 * n * n)) / denom
    # the edges are exactly 0 and 1 at the degenerate counts; pin them so
    # floating-point roundoff never leaks past the closed form
    lo = 0.0 if hits == 0 else max(0.0, center - half)
    hi = 1.0 if hits == n else min(1.0, center + half)
    return lo, hi


def certify(ci_hi: float, bound: float) -> tuple[bool, bool]:
    """(certified, vacuous) for an upper CI edge against a bound."""
    vacuous = bound >= 1.0
    return (vacuous or ci_hi <= bound), vacuous


def _finite_bound(event: str, bound: float) -> float:
    """The bound itself; a NaN or infinite bound is a model error, not a FAIL."""
    if not math.isfinite(bound):
        raise NonFiniteBound(
            f"event {event!r}: the bound evaluates to {bound}, not a finite number"
        )
    return bound


def _path_stats(spec: ProcessSpec, seed: int, R: int, stat) -> np.ndarray:
    """stat(paths) -> 1-d array over replicates 0..R-1 of spec, in order.

    Each batch simulates max(1, STEPS // T') replicates (the last one may
    hold fewer) through noise_block and paths_from_noise.
    """
    size = max(1, STEPS // spec.effective_horizon)
    parts = []
    for start in range(0, R, size):
        w = noise_block(spec, seed, start, min(size, R - start))
        parts.append(stat(paths_from_noise(spec, w)))
    return np.concatenate(parts)


def run_tail_experiment(
    spec: ProcessSpec,
    event: str,
    params: dict | None = None,
    R: int = 10_000,
    seed: int = 0,
) -> TailExperiment:
    """Estimate an event frequency over R sampled paths and certify its bound.

    Events:

    - "lower-tail-eigenvalue": lam_min of the empirical covariance falls to
      or below the protected threshold; bound from anticoncentration_bound.
    - "chernoff-direction": the probed energy sum_t ||Delta X_t||^2 drops
      to half its decoupled mean; params may carry "direction" (a d' x d
      matrix, default identity); bound from chernoff_lower_tail.
    - "upper-tail-opnorm": ||sum_t X_t X_t^T|| reaches 2q times its mean
      operator norm; params must carry "q" > 1; bound from upper_tail_bound.

    Bounds and thresholds read the process's analysis, computed once per
    process and shared by every event and report on it: psi_k and the
    dense statistics for a raw operator, the recursion-based VarAnalysis
    for a VAR, whose operator L is never formed.
    """
    params = dict(params or {})
    if R < 1:
        raise InvalidInput("replicate count must be >= 1")
    t_eff, d = spec.effective_horizon, spec.state_dim
    extras: dict = {}

    if event == "chernoff-direction":
        direction = np.asarray(params.pop("direction", np.eye(d)), dtype=float)
        if direction.ndim != 2 or direction.shape[1] != d:
            raise InvalidInput(f"direction must be d' x {d}")
        d_mat = require_psd(direction.T @ direction, "direction Gram")
        bound = _finite_bound(event, chernoff_lower_tail(spec, d_mat))
        threshold = chernoff_threshold(spec, d_mat)
        extras["threshold"] = threshold

        def batch_stat(x):
            probed = np.einsum("rtd,ed->rte", x, direction)
            return np.einsum("rte,rte->r", probed, probed)

        stat = _path_stats(spec, seed, R, batch_stat)
        hits = int(np.count_nonzero(stat <= threshold))

    elif event == "lower-tail-eigenvalue":
        report = anticoncentration_bound(spec)
        bound = _finite_bound(event, report.anticonc_probability)
        threshold = report.anticonc_threshold
        extras["threshold"] = threshold
        extras["psi_k"] = report.psi_k

        def batch_stat(x):
            grams = np.einsum("rti,rtj->rij", x, x) / t_eff
            return np.linalg.eigvalsh(grams)[:, 0]

        stat = _path_stats(spec, seed, R, batch_stat)
        hits = int(np.count_nonzero(stat <= threshold))

    elif event == "upper-tail-opnorm":
        if "q" not in params:
            raise InvalidInput("upper-tail-opnorm needs a q parameter")
        q = float(params.pop("q"))
        bound = _finite_bound(event, upper_tail_bound(spec, q))
        threshold = 2.0 * q * _analysis(spec).stats["lam_max_per_time_sum"]
        extras["threshold"] = threshold
        extras["q"] = q

        def batch_stat(x):
            grams = np.einsum("rti,rtj->rij", x, x)
            return np.linalg.eigvalsh(grams)[:, -1]

        stat = _path_stats(spec, seed, R, batch_stat)
        hits = int(np.count_nonzero(stat >= threshold))

    else:
        raise InvalidInput(f"unknown trajectory event {event!r}")

    if params:
        raise InvalidInput(f"unused event parameters: {sorted(params)}")
    frequency = hits / R
    ci = wilson_interval(hits, R)
    certified, vacuous = certify(ci[1], bound)
    return TailExperiment(
        event=event,
        replicates=R,
        hits=hits,
        frequency=frequency,
        ci=ci,
        bound=bound,
        vacuous=vacuous,
        certified=certified,
        seed=int(seed),
        extras=extras,
    )


def run_mgf_experiment(q, x, lam: float, R: int = 10_000, seed: int = 0) -> TailExperiment:
    """Monte-Carlo estimate of E exp(-lam [x;W]^T Q [x;W]) with a 5-SE band.

    The estimate is compared against both the closed form (consistency)
    and the exponential upper bound (certification); hits is None since
    the outcome is a mean, not an event count.  The R x m noise block is
    drawn from a single derived-seed generator.
    """
    if R < 2:
        raise InvalidInput("need at least two replicates for a standard error")
    qa = require_psd(q, "Q")
    xv = np.atleast_1d(np.asarray(x, dtype=float))
    n = xv.shape[0]
    m = qa.shape[0] - n
    if m < 1:
        raise InvalidInput("Q must have at least one noise coordinate")
    q11, q12, q22 = qa[:n, :n], qa[:n, n:], qa[n:, n:]
    rng = np.random.Generator(np.random.PCG64(mix64(seed, 0)))
    w = rng.standard_normal((R, m))
    const = float(xv @ q11 @ xv)
    lin = 2.0 * (q12.T @ xv)
    quad = np.einsum("ri,ij,rj->r", w, q22, w)
    vals = np.exp(-lam * (const + w @ lin + quad))
    estimate = float(vals.mean())
    se = float(vals.std(ddof=1) / math.sqrt(R))
    ci = (max(0.0, estimate - 5.0 * se), estimate + 5.0 * se)
    bound = mgf_upper_bound(q22, lam)
    certified, vacuous = certify(ci[1], bound)
    return TailExperiment(
        event="mgf-estimate",
        replicates=R,
        hits=None,
        frequency=estimate,
        ci=ci,
        bound=bound,
        vacuous=vacuous,
        certified=certified,
        seed=int(seed),
        extras={"exact": exact_mgf(qa, xv, lam), "se": se, "lam": float(lam)},
    )


def run_identification_experiment(
    sys: VarSystem,
    T: int,
    k: int,
    delta: float,
    R: int = 1000,
    seed: int = 0,
) -> TailExperiment:
    """Exceedance test of the identification error bound over R replicates.

    Each replicate simulates the lifted state for T'+1 steps as a k=1
    process, fits the regression of Z_{t+1} on the lifted X_t by least
    squares, and records the operator-norm error.  The certified budget is
    2*delta (bound failure plus burn-in failure); an unsatisfied burn-in
    is flagged in extras but the experiment proceeds.
    """
    if R < 1:
        raise InvalidInput("replicate count must be >= 1")
    details = ls_bound_details(sys, T, k, delta)
    bound = _finite_bound("ls-error-exceeds-bound", details["bound"])
    t_eff = details["effective_horizon"]
    a_star = sys.regression_matrix()

    def batch_stat(x):
        return np.array(
            [least_squares(xr[:t_eff], xr[1:, : sys.d], a_star=a_star).op_error for xr in x]
        )

    op_errors = _path_stats(ProcessSpec(source=sys, T=t_eff + 1), seed, R, batch_stat)
    hits = int(np.count_nonzero(op_errors > bound))
    frequency = hits / R
    ci = wilson_interval(hits, R)
    budget = 2.0 * delta
    certified, vacuous = certify(ci[1], budget)
    return TailExperiment(
        event="ls-error-exceeds-bound",
        replicates=R,
        hits=hits,
        frequency=frequency,
        ci=ci,
        bound=budget,
        vacuous=vacuous,
        certified=certified,
        seed=int(seed),
        extras={
            "ls_bound": bound,
            "burnin_satisfied": details["burnin_satisfied"],
            "median_op_error": float(np.median(op_errors)),
            "op_errors": op_errors,
            "delta": float(delta),
            "c_sys": details["c_sys"],
        },
    )
