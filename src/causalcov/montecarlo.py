"""Monte-Carlo certification of the probability bounds.

Every experiment is reproducible: replicate r of master seed s draws its
noise from a generator seeded with mix64(s, r), and replicates are
simulated in order, in batches whose size depends only on the horizon.
One loop (_path_batches) draws and simulates those batches for every
consumer: the tail events, the identification experiment and the CLI's
simulate report, each of which reads one batch at a time.  The simulator
(process.paths_from_noise) advances a VAR a block of time steps per matrix
product, in blocks anchored at t = 0, and pads every batch to a multiple
of eight rows with copies of its first row, so a replicate's path, and
every statistic computed from it, has the same bytes in a batch of any
size.

A batch goes from paths to one matrix per replicate to one statistic per
replicate.  Every tail event reads the empirical covariance
S_r = sum_t X_t X_t^T, formed once per batch and shared by all events of
the pass (run_tail_experiments): lam_min(S_r / T'), lam_max(S_r) or the
probed energy tr(D S_r); check_event defines the events and their
parameter rules once, for run_tail_experiments and config alike.  The
identification experiment fits a batch's regressions in one stacked
least-squares solve.  One function (_verdict) turns every experiment's
hit count into its TailExperiment: the bound is certified when the upper
edge of the 99.9% Wilson interval for the event frequency sits at or
below it, or trivially when it is vacuous (>= 1).
"""

from __future__ import annotations

import math
import statistics
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .bounds import (
    _analysis,
    anticoncentration_bound,
    chernoff_lower_tail,
    chernoff_threshold,
    upper_tail_bound,
)
from .errors import InvalidInput, NonFiniteBound
from .estimator import _pinv_fits, ls_bound_details
from .linalg import require_psd
from .process import _PATH_ROWS, ProcessSpec, VarSystem, noise_block, paths_from_noise

__all__ = [
    "TailExperiment",
    "wilson_interval",
    "run_tail_experiment",
    "run_tail_experiments",
    "run_identification_experiment",
]

#: simulated time steps per batch, which bounds the memory of its noise and
#: paths, except that a batch holds at least _PATH_ROWS replicates
STEPS = 2**15

#: two-sided confidence of the certification interval
CONFIDENCE = 0.999

#: every tail event and the parameters it accepts
EVENT_PARAMS = {
    "lower-tail-eigenvalue": frozenset(),
    "chernoff-direction": frozenset({"direction"}),
    "upper-tail-opnorm": frozenset({"q"}),
}


class EventSpec(NamedTuple):
    """One checked tail event; unpacks as run_tail_experiments' (event, params)."""

    event: str
    params: dict

    def to_dict(self) -> dict:
        out: dict = {"event": self.event}
        if self.params:
            out["params"] = dict(self.params)
        return out


def check_event(event, params, state_dim: int) -> EventSpec:
    """The EventSpec of one tail event (params may be None) on a state of
    dimension state_dim; InvalidInput for an unknown event or a bad parameter."""
    params = params or {}
    if not isinstance(event, str) or event not in EVENT_PARAMS:
        raise InvalidInput(f"unknown event {event!r}; known: {sorted(EVENT_PARAMS)}")
    extra = set(params) - EVENT_PARAMS[event]
    if extra:
        raise InvalidInput(f"event {event!r} does not accept parameters {sorted(extra)}")
    if event == "upper-tail-opnorm":
        if "q" not in params:
            raise InvalidInput("event 'upper-tail-opnorm' requires a 'q' parameter")
        q = params["q"]
        if isinstance(q, bool) or not isinstance(q, (int, float, np.integer, np.floating)):
            raise InvalidInput(f"q must be a number, got {q!r}")
        q = float(q)
        if not 1.0 < q < math.inf:
            raise InvalidInput(f"q must be a finite number > 1, got {q}")
        return EventSpec(event, {"q": q})
    if "direction" in params:
        try:
            direction = np.asarray(params["direction"], dtype=float)
        except (TypeError, ValueError) as exc:
            raise InvalidInput("direction is not a numeric matrix") from exc
        if direction.ndim != 2 or not np.all(np.isfinite(direction)):
            raise InvalidInput("direction must be a finite 2-d matrix")
        if direction.shape[1] != state_dim:
            raise InvalidInput(
                f"direction must have {state_dim} columns (the state dimension), "
                f"got {direction.shape[1]}"
            )
        with np.errstate(over="ignore", invalid="ignore"):
            if not np.all(np.isfinite(direction.T @ direction)):
                raise InvalidInput("direction is too large: direction^T direction overflows")
        return EventSpec(event, {"direction": direction.tolist()})
    return EventSpec(event, {})


@dataclass
class TailExperiment:
    """Outcome of one certification experiment.

    frequency is the empirical event frequency hits / replicates; ci is its
    Wilson interval; certified is a pure function of (ci, bound): upper
    edge <= bound, or bound >= 1 (then vacuous is set).
    """

    event: str
    replicates: int
    hits: int
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


def _verdict(
    event: str, hits: int, R: int, bound: float, seed: int, extras: dict
) -> TailExperiment:
    """The TailExperiment of hits out of R replicates against bound."""
    ci = wilson_interval(hits, R)
    certified, vacuous = certify(ci[1], bound)
    return TailExperiment(
        event=event, replicates=R, hits=hits, frequency=hits / R, ci=ci, bound=bound,
        vacuous=vacuous, certified=certified, seed=int(seed), extras=extras,
    )


def _path_batches(spec: ProcessSpec, seed: int, R: int):
    """Paths of replicates 0..R-1 of spec, in order, one batch at a time.

    A batch holds the largest multiple of _PATH_ROWS replicates at or below
    STEPS // T', and at least _PATH_ROWS, so only the last batch can be
    short and padded.  Batches are drawn by noise_block and simulated by
    paths_from_noise; every sampled path of the package comes from here.
    """
    size = max(_PATH_ROWS, STEPS // spec.effective_horizon // _PATH_ROWS * _PATH_ROWS)
    for start in range(0, R, size):
        yield paths_from_noise(spec, noise_block(spec, seed, start, min(size, R - start)))


@dataclass(frozen=True)
class _EventPlan:
    """How one tail event scores a batch, fixed before any sampling.

    batch_stat maps the batch's (count, d, d) stack of empirical
    covariances S_r = sum_t X_t X_t^T to one statistic per replicate; a
    replicate hits when hit(statistic, threshold) holds.
    """

    event: str
    bound: float
    threshold: float
    hit: Callable[[np.ndarray, float], np.ndarray]
    batch_stat: Callable[[np.ndarray], np.ndarray]
    extras: dict

    def hits(self, grams: np.ndarray) -> int:
        return int(np.count_nonzero(self.hit(self.batch_stat(grams), self.threshold)))


def _event_plan(spec: ProcessSpec, event: str, params: dict | None) -> _EventPlan:
    """The bound, threshold and batch statistic of one event; bad input raises here."""
    event, params = check_event(event, params, spec.state_dim)
    t_eff, d = spec.effective_horizon, spec.state_dim
    extras: dict = {}

    if event == "chernoff-direction":
        direction = np.asarray(params.get("direction", np.eye(d)), dtype=float)
        d_mat = require_psd(direction.T @ direction, "direction Gram")
        bound = _finite_bound(event, chernoff_lower_tail(spec, d_mat))
        threshold = chernoff_threshold(spec, d_mat)
        hit = np.less_equal

        def batch_stat(grams):
            return np.einsum("rij,ij->r", grams, d_mat)

    elif event == "lower-tail-eigenvalue":
        report = anticoncentration_bound(spec)
        bound = _finite_bound(event, report.anticonc_probability)
        threshold = report.anticonc_threshold
        hit = np.less_equal
        extras["psi_k"] = report.psi_k

        def batch_stat(grams):
            return np.linalg.eigvalsh(grams / t_eff)[:, 0]

    else:
        q = params["q"]
        bound = _finite_bound(event, upper_tail_bound(spec, q))
        threshold = 2.0 * q * _analysis(spec).stats["lam_max_per_time_sum"]
        hit = np.greater_equal
        extras["q"] = q

        def batch_stat(grams):
            return np.linalg.eigvalsh(grams)[:, -1]

    return _EventPlan(event, bound, threshold, hit, batch_stat, extras)


def run_tail_experiments(
    spec: ProcessSpec,
    events: Sequence[tuple[str, dict | None]],
    R: int = 10_000,
    seed: int = 0,
) -> list[TailExperiment]:
    """Estimate each event's frequency over the same R sampled paths and certify its bound.

    events is a sequence of (event, params) pairs, such as EventSpecs; the
    result holds one TailExperiment per pair, in order.  Events:

    - "lower-tail-eigenvalue": lam_min of the empirical covariance falls to
      or below the protected threshold; bound from anticoncentration_bound.
    - "chernoff-direction": the probed energy sum_t ||Delta X_t||^2 drops
      to half its decoupled mean; params may carry "direction" (a d' x d
      matrix, default identity); bound from chernoff_lower_tail.
    - "upper-tail-opnorm": ||sum_t X_t X_t^T|| reaches 2q times its mean
      operator norm; params must carry "q" > 1; bound from upper_tail_bound.

    Every event is checked (check_event), and its bound and threshold
    computed, before any path is drawn.  Then one pass of _path_batches
    samples replicates 0..R-1 of seed; each batch's empirical covariances
    are formed once, scored by every event in turn and dropped, so an
    event's row is the one it gets when run alone: it does not depend on
    which other events share the pass, nor on their order.  The events'
    hit indicators are dependent, since they read the same paths; each
    one's Wilson interval is valid on its own.

    Bounds and thresholds read the process's analysis, computed once per
    process and shared by every event and report on it: psi_k and the
    dense statistics for a raw operator, the VarAnalysis
    for a VAR, whose operator L is never formed.
    """
    if R < 1:
        raise InvalidInput("replicate count must be >= 1")
    plans = [_event_plan(spec, event, params) for event, params in events]
    hits = [0] * len(plans)
    for x in _path_batches(spec, seed, R):
        grams = np.swapaxes(x, 1, 2) @ x
        for i, plan in enumerate(plans):
            hits[i] += plan.hits(grams)
    return [
        _verdict(p.event, h, R, p.bound, seed, {**p.extras, "threshold": p.threshold})
        for p, h in zip(plans, hits)
    ]


def run_tail_experiment(
    spec: ProcessSpec,
    event: str,
    params: dict | None = None,
    R: int = 10_000,
    seed: int = 0,
) -> TailExperiment:
    """One event of run_tail_experiments, on its own pass over R paths."""
    return run_tail_experiments(spec, [(event, params)], R, seed)[0]


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
    squares, and records the operator-norm error; a batch's replicates are
    fitted in one stacked solve (estimator._pinv_fits), each with the bytes
    least_squares gives it alone.  The certified budget is 2*delta (bound
    failure plus burn-in failure); an unsatisfied burn-in is flagged in
    extras but the experiment proceeds.
    """
    if R < 1:
        raise InvalidInput("replicate count must be >= 1")
    details = ls_bound_details(sys, T, k, delta)
    bound = _finite_bound("ls-error-exceeds-bound", details["bound"])
    t_eff = details["effective_horizon"]
    a_star = sys.regression_matrix()

    def batch_stat(x):
        lagged, ahead = x[:, :t_eff], x[:, 1:, : sys.d]
        gram, syx = np.swapaxes(lagged, 1, 2) @ lagged, np.swapaxes(ahead, 1, 2) @ lagged
        a_hat = _pinv_fits(gram, syx)[0]
        return np.linalg.norm(a_hat - a_star, 2, axis=(1, 2))

    spec = ProcessSpec(source=sys, T=t_eff + 1)
    op_errors = np.concatenate([batch_stat(x) for x in _path_batches(spec, seed, R)])
    hits = int(np.count_nonzero(op_errors > bound))
    extras = {
        "ls_bound": bound,
        "burnin_satisfied": details["burnin_satisfied"],
        "median_op_error": float(np.median(op_errors)),
        "op_errors": op_errors,
        "delta": float(delta),
        "c_sys": details["c_sys"],
    }
    return _verdict("ls-error-exceeds-bound", hits, R, 2.0 * delta, seed, extras)
