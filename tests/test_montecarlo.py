"""Monte-Carlo harness: Wilson intervals, determinism, oracle agreement."""

import json
import math
import re
import warnings

import numpy as np
import pytest
from scipy import stats

from causalcov import (
    ConfigError,
    InvalidInput,
    ProcessSpec,
    VarSystem,
    chernoff_lower_tail,
    chernoff_threshold,
    derive_seed,
    effective_horizon,
    exact_mgf,
    load_config,
    noise_block,
    paths_from_noise,
    run_identification_experiment,
    run_tail_experiment,
    run_tail_experiments,
    run_tail_sweep,
    wilson_interval,
)
from causalcov import bounds, montecarlo, process
from causalcov._rng import mix64
from causalcov.estimator import least_squares
from causalcov.linalg import CausalOperator
from causalcov.montecarlo import certify
from causalcov.process import companion
from conftest import chi2_lower, random_psd, run_mgf_experiment, spy_draws


def iid_spec(T: int, d: int = 1) -> ProcessSpec:
    return ProcessSpec.from_operator(CausalOperator.identity(d, T))


class TestWilsonInterval:
    def test_hand_formula(self):
        z = float(stats.norm.ppf(0.9995))
        n, hits = 500, 25
        p = hits / n
        denom = 1 + z * z / n
        center = (p + z * z / (2 * n)) / denom
        half = z * np.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
        lo, hi = wilson_interval(hits, n)
        assert lo == pytest.approx(center - half, rel=1e-12)
        assert hi == pytest.approx(center + half, rel=1e-12)

    def test_edge_cases(self):
        lo, hi = wilson_interval(0, 100)
        assert lo == 0.0 and hi > 0.0
        lo, hi = wilson_interval(100, 100)
        assert hi == 1.0 and lo < 1.0
        with pytest.raises(InvalidInput):
            wilson_interval(5, 4)
        with pytest.raises(InvalidInput):
            wilson_interval(1, 0)

    def test_coverage_at_least_nominal(self, rng):
        # 99.9% interval should cover the truth in >= 99.5% of 10^4 draws
        p, n, sims = 0.04, 300, 10_000
        hits = rng.binomial(n, p, size=sims)
        covered = 0
        for h in hits:
            lo, hi = wilson_interval(int(h), n)
            covered += lo <= p <= hi
        assert covered / sims >= 0.995


def test_certify_logic():
    assert certify(0.5, 1.0) == (True, True)  # vacuous
    assert certify(0.01, 0.02) == (True, False)
    assert certify(0.03, 0.02) == (False, False)


class TestTailExperimentChernoff:
    def test_frequency_matches_chi2_oracle(self):
        T, R = 16, 20_000
        exp = run_tail_experiment(iid_spec(T), "chernoff-direction", R=R, seed=42)
        p = chi2_lower(T)
        se = np.sqrt(p * (1 - p) / R)
        assert abs(exp.frequency - p) <= 5 * se
        assert exp.certified and not exp.vacuous
        assert exp.extras["threshold"] == pytest.approx(T / 2.0)

    def test_threshold_uses_probed_direction(self):
        spec = iid_spec(8, d=2)
        direction = np.array([[2.0, 0.0]])
        exp = run_tail_experiment(
            spec, "chernoff-direction", params={"direction": direction}, R=64, seed=0
        )
        d_mat = direction.T @ direction
        assert exp.extras["threshold"] == pytest.approx(
            chernoff_threshold(spec.source, d_mat)
        )

    def test_bound_and_threshold_read_one_pair_of_sums(self, monkeypatch):
        # each event's (S1, S2) is computed once and gives both its bound and
        # its threshold, with the bytes of the two public functions
        spec = ProcessSpec(source=VarSystem(a_lags=[np.eye(2) * 0.5], h=np.eye(2)), T=32)
        direction = [[1.0, 0.5]]
        d_mat = np.array(direction).T @ np.array(direction)
        expected = (chernoff_lower_tail(spec, d_mat), chernoff_threshold(spec, d_mat))
        calls = []
        real_sums = bounds.block_trace_sums
        monkeypatch.setattr(
            bounds, "block_trace_sums", lambda *args: calls.append(args) or real_sums(*args)
        )
        events = [("chernoff-direction", {"direction": direction}), ("chernoff-direction", None)]
        exps = run_tail_experiments(spec, events, R=8, seed=1)
        assert len(calls) == 2
        assert (exps[0].bound, exps[0].extras["threshold"]) == expected

    def test_var_hits_match_probed_energy_oracle(self):
        # a VAR(2) source, whose lifted state has d = 4, probed by a 2 x 4
        # direction: the hits read tr(D S_r) off each replicate's Gram, the
        # oracle sums ||Delta X_t||^2 over the replicate's path
        a1 = np.array([[0.4, 0.1], [0.0, 0.4]])
        a2 = np.array([[0.15, 0.0], [0.05, 0.15]])
        spec = ProcessSpec(source=VarSystem(a_lags=[a1, a2], h=np.eye(2)), T=24, k=2)
        direction = np.array([[1.0, 0.5, 0.0, 0.0], [0.0, 1.0, 0.0, 0.3]])
        R, seed = 3000, 4
        exp = run_tail_experiment(
            spec, "chernoff-direction", params={"direction": direction}, R=R, seed=seed
        )
        paths = paths_from_noise(spec, noise_block(spec, seed, 0, R))
        energy = np.array([float(np.sum((x @ direction.T) ** 2)) for x in paths])
        assert exp.hits == int(np.count_nonzero(energy <= exp.extras["threshold"]))
        assert 0 < exp.hits < R

    def test_hits_match_direct_replication(self):
        # recompute the event per replicate straight from the seeded streams
        T, R = 8, 40
        spec = iid_spec(T)
        exp = run_tail_experiment(spec, "chernoff-direction", R=R, seed=7)
        hits = 0
        for r in range(R):
            w = np.random.Generator(np.random.PCG64(mix64(7, r))).standard_normal((T, 1))
            hits += float((w**2).sum()) <= T / 2.0
        assert exp.hits == hits


def test_tail_experiment_determinism_across_batch_sizes(monkeypatch):
    T = 16
    spec = iid_spec(T)
    r = 2 * (montecarlo.STEPS // T) + 333  # two full batches and an uneven last one
    events = ("lower-tail-eigenvalue", "chernoff-direction")
    ref = [run_tail_experiment(spec, ev, R=r, seed=3) for ev in events]
    # 8 replicates per batch (the floor), 96 per batch and 1000 per batch;
    # the last batch holds 5, 13 and 429
    for steps in (T, 100 * T, 1000 * T + 5):
        monkeypatch.setattr(montecarlo, "STEPS", steps)
        for ev, a in zip(events, ref):
            b = run_tail_experiment(spec, ev, R=r, seed=3)
            assert (a.hits, a.frequency, a.ci, a.bound) == (b.hits, b.frequency, b.ci, b.bound)


def _batch_sizes(monkeypatch, t_eff: int, R: int, whole: bool = False):
    """The sizes of the batches _path_batches draws for R replicates, lazily:
    each batch's words stand for its time blocks."""
    monkeypatch.setattr(montecarlo, "_path_blocks", lambda spec, words, block: words)
    spec = ProcessSpec(source=VarSystem(a_lags=[np.array([[0.5]])], h=np.eye(1)), T=t_eff)
    return (len(words) for words in montecarlo._path_batches(spec, 0, R, whole=whole))


@pytest.mark.parametrize(
    "t_eff, size",
    [(16, 2048), (48, 680), (2048, 128), (4097, 128), (16385, 128), (65536, 128)],
)
def test_batches_hold_a_multiple_of_eight_replicates(monkeypatch, t_eff, size):
    # only the last batch is short, so only the last one is padded
    assert list(_batch_sizes(monkeypatch, t_eff, 2 * size + 3)) == [size, size, 3]


def test_long_horizons_get_wide_batches_within_four_times_steps(monkeypatch):
    # a VAR's batch is the largest multiple of eight within STEPS steps of one
    # time block, min(T', _TIME_BLOCK) steps, and at least eight: from
    # _TIME_BLOCK steps on every batch gets STEPS // _TIME_BLOCK replicates
    # and a block holds STEPS steps.  Whole paths (a raw operator, simulate)
    # keep a block of T', so they get at least eight rows within STEPS steps.
    # Each run asks for one replicate more than the expected batch, so a
    # first batch of any other size shows, and seeds no more than it needs
    steps, block = montecarlo.STEPS, montecarlo._TIME_BLOCK
    horizons = [*range(1, 1025), *range(1025, 5 * steps, 97), 4 * steps]
    for t_eff in horizons:
        expected = max(8, steps // min(t_eff, block) // 8 * 8)
        size = next(_batch_sizes(monkeypatch, t_eff, expected + 1))
        assert size == expected, t_eff
        assert size * min(t_eff, block) <= steps, t_eff
        expected = max(8, steps // t_eff // 8 * 8)
        whole = next(_batch_sizes(monkeypatch, t_eff, expected + 1, whole=True))
        assert whole == expected, t_eff
        assert whole == 8 or whole * t_eff <= steps, t_eff
    assert steps // block >= 32  # long horizons batch at least 32 replicates


def test_var_time_blocks_concatenate_to_whole_paths():
    # T' = 3 blocks and 5 steps, and 137 replicates: a full batch of 128 and
    # a short one of 9, padded to 16 rows
    block = montecarlo._TIME_BLOCK
    spec = ProcessSpec(source=two_lag_var(), T=3 * block + 5)
    R, seed = montecarlo.STEPS // block + 9, 6
    batches = [list(blocks) for blocks in montecarlo._path_batches(spec, seed, R)]
    assert [[x.shape for x in blocks] for blocks in batches] == [
        [(n, block, 4)] * 3 + [(n, 5, 4)] for n in (R - 9, 9)
    ]
    paths = np.concatenate([np.concatenate(blocks, axis=1) for blocks in batches])
    whole = paths_from_noise(spec, noise_block(spec, seed, 0, R))
    assert paths.tobytes() == whole.tobytes()


def test_raw_operator_yields_one_block_per_batch():
    # no small state to carry: every batch is its whole paths, T' steps long
    block = montecarlo._TIME_BLOCK
    spec = iid_spec(block + 44)
    R, seed = 2 * 104 + 3, 2  # 104 = STEPS // T' rounded down to a multiple of eight
    batches = [list(blocks) for blocks in montecarlo._path_batches(spec, seed, R)]
    assert [[x.shape for x in blocks] for blocks in batches] == [
        [(n, block + 44, 1)] for n in (104, 104, 3)
    ]
    whole = paths_from_noise(spec, noise_block(spec, seed, 0, R))
    assert np.concatenate([x for (x,) in batches]).tobytes() == whole.tobytes()


@pytest.mark.parametrize("view", [True, False])
def test_carried_fills_continue_each_stream(monkeypatch, view):
    # fills of 256, 256, 3 and 1 steps, the words carried between them, give
    # each replicate the normals of its one stream, through the word view
    # and through the public PCG64.state setter and getter alike
    if not view:
        monkeypatch.setattr(process, "pcg64_word_order", lambda: None)
    seed, start, count, p, pieces = 9, 40, 5, 3, [256, 256, 3, 1]
    streams = process._NormalStreams(process.replicate_words(seed, start, count))
    fills = []
    for i, steps in enumerate(pieces):
        out = np.empty((count, steps, p))
        streams.fill(out, carry=i + 1 < len(pieces))
        fills.append(out)
    got = np.concatenate(fills, axis=1)
    for r in range(count):
        gen = np.random.Generator(np.random.PCG64(mix64(seed, start + r)))
        assert got[r].tobytes() == gen.standard_normal((sum(pieces), p)).tobytes()
    # the last fill reads nothing back: the streams still hold their state before it
    again = np.empty((count, 1, p))
    streams.fill(again)
    assert again.tobytes() == fills[-1].tobytes()


TAIL_EVENTS_LONG = [
    ("lower-tail-eigenvalue", None),
    ("chernoff-direction", {"direction": [[1.0, 0.5]]}),
    ("upper-tail-opnorm", {"q": 1.5}),
]


def test_tail_rows_above_the_time_block_do_not_depend_on_steps(monkeypatch):
    # T' = 272 and 528 span two and three time blocks.  At the default STEPS
    # a batch holds 128 replicates, at 256 * 8 eight and at 40 * 256 + 3
    # forty; 301 replicates leave a last batch of 45, 5 and 21.  The sweep's
    # cells each equal their own pass: their prefixes of the one pass at
    # T' = 528 are accumulated over the same time blocks.  The probed
    # energy's threshold is raised from half its decoupled sum to near its
    # mean, so that a few in ten replicates hit
    real_chernoff = montecarlo._chernoff

    def raised_threshold(spec, d_mat):
        bound, threshold = real_chernoff(spec, d_mat)
        return bound, 2.7 * threshold

    monkeypatch.setattr(montecarlo, "_chernoff", raised_threshold)
    sys = VarSystem(a_lags=[np.array([[0.5, 0.1], [0.0, 0.4]])], h=np.eye(2))
    cells = [(ProcessSpec(source=sys, T=T), TAIL_EVENTS_LONG) for T in (272, 528)]
    R, seed = 301, 4
    outcomes = []
    for steps in (montecarlo.STEPS, 8 * montecarlo._TIME_BLOCK, 40 * montecarlo._TIME_BLOCK + 3):
        monkeypatch.setattr(montecarlo, "STEPS", steps)
        swept = run_tail_sweep(cells, R=R, seed=seed)
        assert swept == [run_tail_experiments(spec, events, R=R, seed=seed) for spec, events in cells]
        outcomes.append([[(e.hits, e.frequency, e.ci, e.bound) for e in exps] for exps in swept])
    assert outcomes[0] == outcomes[1] == outcomes[2]
    # the probed energies summed over whole paths give the same hits
    direction = np.array(TAIL_EVENTS_LONG[1][1]["direction"])
    for (spec, _), exps in zip(cells, swept):
        paths = paths_from_noise(spec, noise_block(spec, seed, 0, R))
        energy = np.sum((paths @ direction.T) ** 2, axis=(1, 2))
        assert exps[1].hits == np.count_nonzero(energy <= exps[1].extras["threshold"])
        assert 50 < exps[1].hits < R - 50


def test_tail_experiment_event_validation(monkeypatch):
    spec = iid_spec(8)
    with pytest.raises(InvalidInput):
        run_tail_experiment(spec, "no-such-event", R=4, seed=0)
    with pytest.raises(InvalidInput):
        run_tail_experiment(spec, "upper-tail-opnorm", R=4, seed=0)  # missing q
    with pytest.raises(InvalidInput):
        run_tail_experiment(spec, "chernoff-direction", params={"bogus": 1}, R=4, seed=0)

    def never(*args):
        raise AssertionError("sampling started before the last event was checked")

    # every event is checked before the shared pass draws a path
    monkeypatch.setattr(montecarlo, "_path_blocks", never)
    with pytest.raises(InvalidInput, match=re.escape("unknown event 'no-such-event'; known: [")):
        run_tail_experiments(spec, [("chernoff-direction", None), ("no-such-event", None)], R=4)
    message = "direction must have 1 columns (the state dimension), got 2"
    with pytest.raises(InvalidInput, match=re.escape(message)):
        run_tail_experiments(
            spec,
            [("lower-tail-eigenvalue", {}), ("chernoff-direction", {"direction": np.eye(2)})],
            R=4,
        )


SWEEP_EVENTS = [
    ("lower-tail-eigenvalue", None),
    ("chernoff-direction", {"direction": [[1.0, 0.5, 0.0, 0.2], [0.0, 1.0, 0.3, 0.0]]}),
    ("upper-tail-opnorm", {"q": 2.0}),
]


def two_lag_var() -> VarSystem:
    a1 = np.array([[0.4, 0.1], [0.0, 0.4]])
    a2 = np.array([[0.15, 0.0], [0.05, 0.15]])
    return VarSystem(a_lags=[a1, a2], h=np.array([[1.0, 0.0], [0.3, 0.8]]))


def test_sweep_cells_read_prefixes_of_one_pass(monkeypatch):
    # T' = 16, 32, 48 and 64: multiples of the 16-step simulator block, so
    # each cell's prefix of the one pass has the bytes of its own pass
    sys = two_lag_var()
    cells = [(ProcessSpec(source=sys, T=T, k=k), SWEEP_EVENTS) for T, k in
             [(16, 2), (64, 2), (33, 2), (49, 3), (64, 4)]]
    R, seed = 2 * (montecarlo.STEPS // 64) + 5, 11
    draws = spy_draws(monkeypatch)
    swept = run_tail_sweep(cells, R=R, seed=seed)
    # one pass: R replicates, all at the longest T' and at the sweep's seed
    assert {(t_eff, s) for t_eff, s, _ in draws} == {(64, seed)}
    assert sum(count for _, _, count in draws) == R
    monkeypatch.undo()
    assert len(swept) == len(cells)
    for (spec, events), exps in zip(cells, swept):
        assert exps == run_tail_experiments(spec, events, R=R, seed=seed)


def test_sweep_cells_share_one_source(monkeypatch):
    def never(*args):
        raise AssertionError("sampling started before every cell was checked")

    monkeypatch.setattr(montecarlo, "_path_blocks", never)
    sys, twin = two_lag_var(), two_lag_var()
    events = [("lower-tail-eigenvalue", None)]
    with pytest.raises(InvalidInput, match="the cells of a sweep must share one source"):
        run_tail_sweep([(ProcessSpec(sys, 16, 2), events), (ProcessSpec(twin, 32, 2), events)], R=4)
    with pytest.raises(InvalidInput, match="a sweep needs at least one cell"):
        run_tail_sweep([], R=4)
    # every cell's events are checked before the pass draws a path
    bad = [("upper-tail-opnorm", {"q": 0.5})]
    with pytest.raises(InvalidInput, match="q must be a finite number > 1"):
        run_tail_sweep([(ProcessSpec(sys, 16, 2), events), (ProcessSpec(sys, 32, 2), bad)], R=4)


@pytest.mark.parametrize(
    "event, params",
    [
        pytest.param("no-such-event", {}, id="unknown"),
        pytest.param(["no-such-event"], {}, id="unhashable-name"),
        pytest.param("lower-tail-eigenvalue", {"q": 2.0}, id="extra-parameter"),
        pytest.param("upper-tail-opnorm", {}, id="q-missing"),
        pytest.param("upper-tail-opnorm", {"q": True}, id="q-true"),
        pytest.param("upper-tail-opnorm", {"q": "2"}, id="q-string"),
        pytest.param("upper-tail-opnorm", {"q": 1}, id="q-one"),
        pytest.param("upper-tail-opnorm", {"q": math.inf}, id="q-infinity"),
        pytest.param("upper-tail-opnorm", {"q": math.nan}, id="q-nan"),
        pytest.param("chernoff-direction", {"direction": [[1.0], [1.0, 2.0]]}, id="ragged"),
        pytest.param("chernoff-direction", {"direction": [1.0, 0.0]}, id="one-dimensional"),
        pytest.param("chernoff-direction", {"direction": [[1.0, 0.0, 0.0]]}, id="wrong-width"),
        pytest.param("chernoff-direction", {"direction": [[1.0, math.nan]]}, id="non-finite"),
        pytest.param("chernoff-direction", {"direction": [[1e200, 0.0]]}, id="overflowing"),
    ],
)
def test_api_and_config_reject_an_event_alike(tmp_path, monkeypatch, event, params):
    # the same event input, as a config entry and as a run_tail_experiments
    # pair, is rejected with the same message, warning-free and before sampling
    model = {"type": "var", "a_lags": [[[0.5, 0.1], [0.0, 0.4]]], "h": [[1.0, 0.0], [0.0, 1.0]]}
    events = [{"event": event, "params": params}]
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"model": model, "T": 16, "k": 1, "events": events}))

    def never(*args):
        raise AssertionError("sampling started before the event was rejected")

    monkeypatch.setattr(montecarlo, "_path_blocks", never)
    sys = VarSystem(a_lags=[np.array(model["a_lags"][0])], h=np.eye(2))
    pairs = [("lower-tail-eigenvalue", None), (event, params)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError) as at_load:
            load_config(path)
        with pytest.raises(InvalidInput) as in_run:
            run_tail_experiments(ProcessSpec(source=sys, T=16, k=1), pairs, R=4)
    assert str(in_run.value) == str(at_load.value)


@pytest.mark.parametrize("seed", [2**64, 2**64 + 5, -1])
def test_library_rejects_seeds_outside_64_bits(monkeypatch, seed):
    # mix64 reduces a seed mod 2**64, so 2**64 + 5 would replay seed 5's
    # paths; it reduces a replicate index and a sub-seed label alike, so the
    # same rule holds for each of them
    def never(*args):
        raise AssertionError("noise was drawn for an out-of-range seed")

    monkeypatch.setattr(process, "replicate_words", never)
    monkeypatch.setattr(montecarlo, "replicate_words", never)
    sys = VarSystem(a_lags=[np.array([[0.5]])], h=np.eye(1))
    runs = [
        ("seed", lambda: noise_block(iid_spec(8), seed, 0, 4)),
        ("seed", lambda: run_tail_experiments(
            iid_spec(8), [("lower-tail-eigenvalue", None)], R=4, seed=seed
        )),
        ("seed", lambda: run_identification_experiment(sys, T=64, k=1, delta=0.1, R=4, seed=seed)),
        ("seed", lambda: derive_seed(seed, 0)),
        ("label", lambda: derive_seed(5, seed)),
    ]
    if seed > 0:
        # replicate 2**64 would replay replicate 0, alone or inside a batch
        runs += [
            ("replicate index", lambda: noise_block(iid_spec(8), 3, seed, 1)),
            ("replicate index", lambda: noise_block(iid_spec(8), 3, 2**64 - 1, seed - 2**64 + 2)),
        ]
    rule = "must be >= 0, got -1" if seed < 0 else f"must be < 2**64, got {seed}"
    for name, run in runs:
        with pytest.raises(InvalidInput, match=re.escape(f"{name} {rule}")):
            run()


def test_upper_tail_event_counts_extreme_gram():
    spec = iid_spec(16)
    exp = run_tail_experiment(
        spec, "upper-tail-opnorm", params={"q": 2.0}, R=4000, seed=11
    )
    # threshold 2*q*T = 64; P(chi2_16 >= 64) ~ 1e-7, so zero hits expected
    assert exp.extras["threshold"] == pytest.approx(64.0)
    assert exp.hits == 0
    assert exp.certified


def test_lower_tail_event_against_chi2():
    # d=1: lam_min(Sigma_hat) = mean of X_t^2; threshold 1/8 means
    # P(chi2_T <= T/8); compare frequency with the exact oracle
    T, R = 8, 30_000
    exp = run_tail_experiment(iid_spec(T), "lower-tail-eigenvalue", R=R, seed=5)
    assert exp.extras["threshold"] == pytest.approx(1.0 / 8.0)
    p = float(stats.chi2.cdf(T / 8.0, df=T))
    se = np.sqrt(p * (1 - p) / R)
    assert abs(exp.frequency - p) <= 5 * se + 1e-12


class TestMgfExperiment:
    def test_estimate_consistent_with_closed_form(self, rng):
        q = random_psd(rng, 3, scale=1.0)
        x = np.array([0.4])
        lam = 0.5
        exp = run_mgf_experiment(q, x, lam, R=40_000, seed=9)
        assert exp.hits is None
        assert abs(exp.frequency - exp.extras["exact"]) <= 5 * exp.extras["se"]
        assert exp.extras["exact"] == pytest.approx(exact_mgf(q, x, lam), rel=1e-12)
        assert exp.certified  # the bound gap dwarfs the standard error here

    def test_deterministic(self, rng):
        q = random_psd(rng, 2, scale=1.0)
        a = run_mgf_experiment(q, np.empty(0), 0.3, R=5000, seed=1)
        b = run_mgf_experiment(q, np.empty(0), 0.3, R=5000, seed=1)
        assert a.frequency == b.frequency and a.ci == b.ci


@pytest.mark.parametrize("n", [1, 2, 7, 8, 100, 101])
def test_median_equals_numpy_bit_for_bit(n):
    rng = np.random.default_rng(n)
    for values in (
        rng.standard_normal(n),
        rng.exponential(size=n) * 1e-3,
        rng.integers(0, 3, n) * 0.1,
        np.full(n, 0.1),
    ):
        got = montecarlo._median(values)
        assert isinstance(got, float)
        assert np.float64(got).tobytes() == np.median(values).tobytes()
        # any NaN makes the median NaN, as np.median does
        values[rng.integers(n)] = math.nan
        assert math.isnan(montecarlo._median(values)) and math.isnan(np.median(values))


class TestIdentificationExperiment:
    def test_smoke_and_determinism(self):
        sys = VarSystem(a_lags=[np.array([[0.5]])], h=np.eye(1))
        a = run_identification_experiment(sys, T=512, k=1, delta=0.1, R=60, seed=21)
        b = run_identification_experiment(sys, T=512, k=1, delta=0.1, R=60, seed=21)
        assert a.event == "ls-error-exceeds-bound"
        assert a.bound == pytest.approx(0.2)  # budget 2*delta
        assert np.array_equal(a.extras["op_errors"], b.extras["op_errors"])
        assert a.extras["op_errors"].shape == (60,)
        assert a.extras["median_op_error"] > 0.0
        # the bound sits far above typical errors, and 60 replicates are enough
        # for the zero-hit Wilson upper edge to clear the 0.2 budget
        assert a.hits == 0 and a.certified

    def test_op_errors_match_per_replicate_loop(self):
        a1 = np.array([[0.4, 0.1], [0.0, 0.4]])
        a2 = np.array([[0.15, 0.0], [0.05, 0.15]])
        sys = VarSystem(a_lags=[a1, a2], h=np.eye(2))
        T, seed = 64, 17
        # replicates per batch at T' + 1 = 65 steps, a multiple of eight
        size = montecarlo.STEPS // (T + 1) // 8 * 8
        R = 2 * size + size // 3  # two full batches and a partial last one
        exp = run_identification_experiment(sys, T=T, k=2, delta=0.1, R=R, seed=seed)
        # independent route: one replicate at a time, matrix-vector recursion
        a, b = companion(sys), sys.lifted_noise_map()
        expected = np.empty(R)
        for r in range(R):
            w = np.random.Generator(np.random.PCG64(mix64(seed, r))).standard_normal((T + 1, sys.p))
            x = np.empty((T + 1, sys.lifted_dim))
            x[0] = b @ w[0]
            for t in range(1, T + 1):
                x[t] = a @ x[t - 1] + b @ w[t]
            fit = least_squares(x[:T], x[1:, : sys.d], a_star=sys.regression_matrix())
            expected[r] = fit.op_error
        np.testing.assert_allclose(exp.extras["op_errors"], expected, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("R", [1, 7, 8, 9])
    def test_stacked_fit_matches_least_squares_bytes(self, R):
        # one batch of R replicates fitted in one stacked solve gives each
        # replicate the bytes of its own least_squares fit
        a1 = np.array([[0.4, 0.1], [0.0, 0.4]])
        a2 = np.array([[0.15, 0.0], [0.05, 0.15]])
        sys = VarSystem(a_lags=[a1, a2], h=np.array([[1.0, 0.0], [0.3, 0.8]]))
        T, k, seed = 41, 2, 5
        exp = run_identification_experiment(sys, T=T, k=k, delta=0.1, R=R, seed=seed)
        t_eff = effective_horizon(T, k)
        spec = ProcessSpec(source=sys, T=t_eff + 1)
        expected = [
            least_squares(x[:t_eff], x[1:, : sys.d], a_star=sys.regression_matrix()).op_error
            for x in paths_from_noise(spec, noise_block(spec, seed, 0, R))
        ]
        assert exp.extras["op_errors"].tobytes() == np.array(expected).tobytes()

    def test_fits_above_the_time_block_match_whole_path_fits(self):
        # T' + 1 = 601 steps run in three time blocks; the Gram and cross sums
        # accumulated block by block agree with least_squares on whole paths
        sys = two_lag_var()
        T, k, R, seed = 600, 2, 9, 8
        exp = run_identification_experiment(sys, T=T, k=k, delta=0.1, R=R, seed=seed)
        spec = ProcessSpec(source=sys, T=T + 1)
        expected = [
            least_squares(x[:T], x[1:, : sys.d], a_star=sys.regression_matrix()).op_error
            for x in paths_from_noise(spec, noise_block(spec, seed, 0, R))
        ]
        np.testing.assert_allclose(exp.extras["op_errors"], expected, rtol=1e-12, atol=0.0)

    def test_errors_shrink_with_horizon(self):
        sys = VarSystem(a_lags=[np.array([[0.5]])], h=np.eye(1))
        short = run_identification_experiment(sys, T=64, k=1, delta=0.1, R=30, seed=2)
        long = run_identification_experiment(sys, T=1024, k=1, delta=0.1, R=30, seed=2)
        assert long.extras["median_op_error"] < short.extras["median_op_error"]


def test_one_seeding_pass_per_group(monkeypatch):
    # R = 16384 at T' = 128, p = 2: batches of 256, and one group of 16384
    # replicates, whose words (32 bytes each) fill as much memory as one
    # block's noise.  One replicate_words pass seeds them all, and every
    # batch, one block of T', has the bytes of its own noise_block's paths
    calls = []
    real_words = process.replicate_words

    def counted(seed, start, count):
        calls.append((seed, start, count))
        return real_words(seed, start, count)

    monkeypatch.setattr(montecarlo, "replicate_words", counted)
    monkeypatch.setattr(process, "replicate_words", counted)
    spec = ProcessSpec(VarSystem([np.array([[0.5, 0.1], [0.0, 0.4]])], np.eye(2)), 128)
    batches = [list(blocks) for blocks in montecarlo._path_batches(spec, 11, 16384)]
    assert calls == [(11, 0, 16384)]
    assert [len(blocks) for blocks in batches] == [1] * 64
    for i in (0, 63):
        alone = process.paths_from_noise(spec, process.noise_block(spec, 11, 256 * i, 256))
        assert batches[i][0].tobytes() == alone.tobytes()
    assert calls[1:] == [(11, 0, 256), (11, 256 * 63, 256)]
