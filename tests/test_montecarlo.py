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
    chernoff_threshold,
    effective_horizon,
    exact_mgf,
    load_config,
    noise_block,
    paths_from_noise,
    run_identification_experiment,
    run_tail_experiment,
    run_tail_experiments,
    wilson_interval,
)
from causalcov import montecarlo
from causalcov._rng import mix64
from causalcov.estimator import least_squares
from causalcov.linalg import CausalOperator
from causalcov.montecarlo import certify
from causalcov.process import companion
from conftest import chi2_lower, random_psd, run_mgf_experiment


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


@pytest.mark.parametrize("t_eff, size", [(16, 2048), (48, 680), (4097, 8), (65536, 8)])
def test_batches_hold_a_multiple_of_eight_replicates(monkeypatch, t_eff, size):
    # only the last batch is short, so only the last one is padded
    monkeypatch.setattr(montecarlo, "noise_block", lambda spec, seed, start, count: np.empty(count))
    monkeypatch.setattr(montecarlo, "paths_from_noise", lambda spec, w: w)
    spec = ProcessSpec(source=VarSystem(a_lags=[np.array([[0.5]])], h=np.eye(1)), T=t_eff)
    batches = [len(x) for x in montecarlo._path_batches(spec, 0, 2 * size + 3)]
    assert batches == [size, size, 3]


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
    monkeypatch.setattr(montecarlo, "noise_block", never)
    with pytest.raises(InvalidInput, match=re.escape("unknown event 'no-such-event'; known: [")):
        run_tail_experiments(spec, [("chernoff-direction", None), ("no-such-event", None)], R=4)
    message = "direction must have 1 columns (the state dimension), got 2"
    with pytest.raises(InvalidInput, match=re.escape(message)):
        run_tail_experiments(
            spec,
            [("lower-tail-eigenvalue", {}), ("chernoff-direction", {"direction": np.eye(2)})],
            R=4,
        )


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

    monkeypatch.setattr(montecarlo, "noise_block", never)
    sys = VarSystem(a_lags=[np.array(model["a_lags"][0])], h=np.eye(2))
    pairs = [("lower-tail-eigenvalue", None), (event, params)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError) as at_load:
            load_config(path)
        with pytest.raises(InvalidInput) as in_run:
            run_tail_experiments(ProcessSpec(source=sys, T=16, k=1), pairs, R=4)
    assert str(in_run.value) == str(at_load.value)


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

    def test_errors_shrink_with_horizon(self):
        sys = VarSystem(a_lags=[np.array([[0.5]])], h=np.eye(1))
        short = run_identification_experiment(sys, T=64, k=1, delta=0.1, R=30, seed=2)
        long = run_identification_experiment(sys, T=1024, k=1, delta=0.1, R=30, seed=2)
        assert long.extras["median_op_error"] < short.extras["median_op_error"]
