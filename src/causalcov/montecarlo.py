"""Monte-Carlo certification of the probability bounds.

Every experiment is reproducible: replicate r of master seed s draws its
noise from a generator seeded with mix64(s, r), and replicates are
simulated in order, in batches whose size depends only on the horizon.
One loop (_path_batches) draws those batches for every consumer: the tail
events, the identification experiment and the CLI's simulate report.  It
seeds each group of batches in one replicate_words pass and hands each
batch its rows of those PCG64 words, and one sampler (process._path_blocks)
turns a batch into one lazy iterator of time blocks.  A VAR's batch
advances _TIME_BLOCK time steps per block: each block continues every
replicate's noise stream from the PCG64 state where the block before left
it, and its simulator starts from the lifted state where the block before
ended, so memory per batch does not grow with the horizon.  The tail
events add each block to every replicate's empirical covariance and
identify adds it to every fit's Gram and cross sums, so neither holds a
whole path; a raw operator, whose state is its whole input, and simulate,
which writes paths replicate by replicate, take one block of T'.  The
simulator advances a VAR _PATH_BLOCK time steps per matrix product, in
products anchored at t = 0, and pads every block to a multiple of eight
rows with copies of its first row, so a replicate's path, and every
statistic computed from it, has the same bytes in a batch of any size.
As the time blocks are fixed too, every sum over time runs in an order
set by the horizon alone.

A batch goes from paths to one matrix per replicate to one statistic per
replicate.  Every tail event reads the empirical covariance
S_r = sum_t X_t X_t^T, summed over the batch's time blocks and shared by
all events of the pass: lam_min(S_r / T'), lam_max(S_r) or the probed
energy tr(D S_r); check_event defines the events and their parameter
rules once, for run_tail_experiments and config alike.  A sweep
(run_tail_sweep) samples its cells in one pass at the longest horizon T'
of its grid: a causal process's X_t reads only W_s for s <= t, so each
cell scores the prefix of those paths at its own T', through one S_r and
one of each statistic per distinct T' and batch.  The hits of different
cells are then dependent; each interval is still valid on its own.  Where
that T' is not a multiple of the simulator's _PATH_BLOCK, the prefix may
differ from a pass at T' alone in the last digit.  run_tail_experiments
is the sweep of one cell.  The identification experiment fits a batch's
regressions in one stacked least-squares solve, once its sums have run
over every time block.  One function (_verdict) turns every experiment's
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

from ._rng import check_seed, replicate_words
from .bounds import _analysis, _chernoff, anticoncentration_bound, check_q, upper_tail_bound
from .errors import InvalidInput, NonFiniteBound
from .estimator import _pinv_fits, check_delta, ls_bound_details
from .linalg import check_int, finite_matrix, require_psd
from .process import _PATH_ROWS, _check_spec, _path_blocks, ProcessSpec, VarSystem, var_analysis

__all__ = [
    "TailExperiment",
    "wilson_interval",
    "run_tail_experiment",
    "run_tail_experiments",
    "run_tail_sweep",
    "run_identification_experiment",
]

#: simulated time steps per batch and time block, which bounds the memory of
#: its noise and paths, except that a batch holds at least _PATH_ROWS replicates
STEPS = 2**15

#: time steps a batch of a VAR's replicates advances per block of the sampling
#: loop, a multiple of the simulator's _PATH_BLOCK; fixed, so that every sum
#: over time runs in an order that depends only on the horizon
_TIME_BLOCK = 256

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
        return EventSpec(event, {"q": check_q(params["q"])})
    if "direction" in params:
        direction = finite_matrix(params["direction"], "direction")
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
    """Wilson score interval at CONFIDENCE for hits out of n trials (check_int, hits <= n)."""
    n, hits = check_int(n, "n"), check_int(hits, "hits", minimum=0)
    if hits > n:
        raise InvalidInput(f"hits must be <= n = {n}, got {hits}")
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


def _path_batches(spec: ProcessSpec, seed: int, R: int, whole: bool = False):
    """Paths of replicates 0..R-1 of spec, in order: one lazy iterator of
    time blocks per batch (process._path_blocks), whose blocks,
    concatenated along time, have the bytes of the batch's whole paths.

    A VAR's batch advances _TIME_BLOCK steps per block, or T' where that is
    shorter.  A raw operator has no small state to carry, and whole asks
    for whole paths (simulate writes replicate by replicate): both run one
    block of T'.  A batch holds the largest multiple of _PATH_ROWS
    replicates at or below STEPS // min(T', block), and at least
    _PATH_ROWS, so only the last batch can be short and padded, and a
    block above the _PATH_ROWS floor never exceeds STEPS steps.  One
    replicate_words pass seeds a group of batches, as many as keep the
    group's words within one block's noise, and each batch reads its rows
    of them.  Every sampled path of the package comes from here, so here
    is the one replicate rule: R must be an integer >= 1.  R and seed
    (check_seed) are checked at the call, before the first batch.
    """
    R, seed = check_int(R, "replicates"), check_seed(seed)
    t_eff = spec.effective_horizon
    whole = whole or not isinstance(spec.source, VarSystem)
    block = t_eff if whole else min(_TIME_BLOCK, t_eff)
    size = max(_PATH_ROWS, STEPS // block) // _PATH_ROWS * _PATH_ROWS
    # 32 bytes of words per replicate: a group's words take no more memory
    # than one block's noise, 8 block p bytes per replicate
    group = size * max(1, block * spec.noise_dim // 4)

    def batches():
        for first in range(0, R, group):
            words = replicate_words(seed, first, min(group, R - first))
            for start in range(0, len(words), size):
                yield _path_blocks(spec, words[start : start + size], block)

    return batches()


@dataclass(frozen=True)
class _EventPlan:
    """How one tail event scores a batch, fixed before any sampling.

    batch_stat maps the batch's (count, d, d) stack of empirical
    covariances S_r = sum_t X_t X_t^T to one statistic per replicate; a
    replicate hits when hit(statistic, threshold) holds.  Plans with equal
    stat_key = (event, T', direction) compute the same statistic.
    """

    event: str
    bound: float
    threshold: float
    hit: Callable[[np.ndarray, float], np.ndarray]
    batch_stat: Callable[[np.ndarray], np.ndarray]
    stat_key: tuple
    extras: dict


def _event_plan(spec: ProcessSpec, event: str, params: dict | None) -> _EventPlan:
    """The bound, threshold and batch statistic of one event; bad input raises here."""
    event, params = check_event(event, params, spec.state_dim)
    t_eff, d = spec.effective_horizon, spec.state_dim
    extras: dict = {}

    if event == "chernoff-direction":
        direction = finite_matrix(params.get("direction", np.eye(d)), "direction")
        d_mat = require_psd(direction.T @ direction, "direction Gram")
        bound, threshold = _chernoff(spec, d_mat)
        bound = _finite_bound(event, bound)
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

    stat_key = (event, t_eff, repr(params.get("direction")))
    return _EventPlan(event, bound, threshold, hit, batch_stat, stat_key, extras)


def run_tail_sweep(
    cells: Sequence[tuple[ProcessSpec, Sequence[tuple[str, dict | None]]]],
    R: int = 10_000,
    seed: int = 0,
) -> list[list[TailExperiment]]:
    """run_tail_experiments for each (spec, events) cell, all on one sample.

    The cells must share one source (InvalidInput otherwise).  R and seed
    are checked (_path_batches), and every cell's events, bounds and
    thresholds, before any path is drawn.  Then one pass samples
    replicates 0..R-1 of seed at the longest effective horizon of the
    cells.  Per batch, S_r = sum_{t<T'} X_t X_t^T is summed once for each
    distinct T' of the cells, from the prefix of the paths up to T', one
    time block at a time, and every event of a cell at that T' is scored
    on it; each distinct statistic of it (_EventPlan.stat_key) is computed
    once, so cells that differ only in k share theirs.  A VAR's X_t reads only W_s for s <= t,
    and a replicate's noise at a shorter T' is the prefix of its noise at
    the longest one, so a cell's prefix has the law of its paths, and the
    same bytes when its T' is a multiple of _PATH_BLOCK; otherwise its
    last, shorter simulator block may round differently in the last
    digit.  Cells read the same paths, so their hits are dependent; each
    Wilson interval is valid on its own.  Returns one list of
    TailExperiments per cell, in order.
    """
    cells = list(cells)
    if not cells:
        raise InvalidInput("a sweep needs at least one cell")
    source = _check_spec(cells[0][0]).source
    if any(_check_spec(spec).source is not source for spec, _ in cells):
        raise InvalidInput("the cells of a sweep must share one source")
    horizons = [spec.effective_horizon for spec, _ in cells]
    batches = _path_batches(cells[int(np.argmax(horizons))][0], seed, R)
    plans = [
        [_event_plan(spec, event, params) for event, params in events] for spec, events in cells
    ]
    hits = [[0] * len(cell_plans) for cell_plans in plans]
    distinct = {plan.stat_key: plan for cell_plans in plans for plan in cell_plans}
    distinct_horizons = sorted(set(horizons))
    for blocks in batches:
        t0, grams = 0, {}
        for x in blocks:
            for t in (t for t in distinct_horizons if t > t0):
                part = x[:, : t - t0]
                gram = np.swapaxes(part, 1, 2) @ part
                if t0:
                    grams[t] += gram
                else:
                    grams[t] = gram
            t0 += x.shape[1]
        stats = {key: plan.batch_stat(grams[key[1]]) for key, plan in distinct.items()}
        for cell_plans, cell_hits in zip(plans, hits):
            for i, p in enumerate(cell_plans):
                cell_hits[i] += int(np.count_nonzero(p.hit(stats[p.stat_key], p.threshold)))
    return [
        [
            _verdict(p.event, h, R, p.bound, seed, {**p.extras, "threshold": p.threshold})
            for p, h in zip(cell_plans, cell_hits)
        ]
        for cell_plans, cell_hits in zip(plans, hits)
    ]


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
    are summed over its time blocks once, scored by every event in turn
    and dropped, so an event's row is the one it gets when run alone: it
    does not depend on which other events share the pass, nor on their
    order.  The events'
    hit indicators are dependent, since they read the same paths; each
    one's Wilson interval is valid on its own.  This is run_tail_sweep's
    one-cell case; a sweep over several (T, k) cells scores each cell on
    the prefix of one pass at its grid's longest horizon, so a cell's row
    there equals this function's at the same seed where the cell's T' is
    a multiple of _PATH_BLOCK, and may differ in the last digit elsewhere.

    Bounds and thresholds read the process's analysis, computed once per
    process and shared by every event and report on it: psi_k and the
    dense statistics for a raw operator, the VarAnalysis
    for a VAR, whose operator L is never formed.
    """
    return run_tail_sweep([(spec, events)], R, seed)[0]


def run_tail_experiment(
    spec: ProcessSpec,
    event: str,
    params: dict | None = None,
    R: int = 10_000,
    seed: int = 0,
) -> TailExperiment:
    """One event of run_tail_experiments, on its own pass over R paths."""
    return run_tail_experiments(spec, [(event, params)], R, seed)[0]


def _median(values: np.ndarray) -> float:
    """np.median of a non-empty 1-d array, bit for bit, by one sort: the
    middle value, or the mean of the two middle values (a + b) / 2; NaN if
    any value is NaN.  np.median imports numpy.ma on its first call."""
    s = np.sort(values)
    n = len(s)
    if np.isnan(s[-1]):
        return math.nan
    if n % 2:
        return float(s[n // 2])
    return float((s[(n - 1) // 2] + s[n // 2]) / 2)


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
    squares, and records the operator-norm error.  The fit's sums
    sum_t X_t X_t^T and sum_t Z_{t+1} X_t^T are added up one time block
    at a time, the pair that straddles a block edge with the later block;
    a batch's replicates are fitted in one stacked solve
    (estimator._pinv_fits).  Where T'+1 steps fit in one time block, each
    fit has the bytes least_squares gives it alone; above, its sums differ
    from those of one product over the whole path only in rounding.  The
    certified budget is 2*delta (bound failure plus burn-in failure); an
    unsatisfied burn-in is flagged in extras but the experiment proceeds.
    The model (a VarSystem), T, k, R, seed and then delta (check_delta)
    are checked first.
    """
    var_analysis(sys)  # the VarSystem rule, before T and k
    t_eff = ProcessSpec(source=sys, T=T, k=k).effective_horizon
    batches = _path_batches(ProcessSpec(source=sys, T=t_eff + 1), seed, R)
    delta = check_delta(delta)
    details = ls_bound_details(sys, T, k, delta)
    bound = _finite_bound("ls-error-exceeds-bound", details["bound"])
    a_star = sys.regression_matrix()
    errors = []
    for blocks in batches:
        last = None
        for x in blocks:
            lagged, ahead = x[:, :-1], x[:, 1:, : sys.d]
            gram_part = np.swapaxes(lagged, 1, 2) @ lagged
            syx_part = np.swapaxes(ahead, 1, 2) @ lagged
            if last is None:
                gram, syx = gram_part, syx_part
            else:
                # the pair (X_t, Z_{t+1}) that straddles the block edge
                gram += gram_part + last[:, :, None] * last[:, None, :]
                syx += syx_part + x[:, 0, : sys.d, None] * last[:, None, :]
            last = x[:, -1].copy()
        a_hat = _pinv_fits(gram, syx)[0]
        errors.append(np.linalg.norm(a_hat - a_star, 2, axis=(1, 2)))
    op_errors = np.concatenate(errors)
    hits = int(np.count_nonzero(op_errors > bound))
    extras = {
        "ls_bound": bound,
        "burnin_satisfied": details["burnin_satisfied"],
        "median_op_error": _median(op_errors),
        "op_errors": op_errors,
        "delta": delta,
        "c_sys": details["c_sys"],
    }
    return _verdict("ls-error-exceeds-bound", hits, R, 2.0 * delta, seed, extras)
