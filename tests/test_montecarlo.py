"""Monte-Carlo harness: Wilson intervals, determinism, oracle agreement."""

import numpy as np
import pytest
from scipy import stats

from causalcov import (
    InvalidInput,
    ProcessSpec,
    VarSystem,
    chernoff_threshold,
    exact_mgf,
    run_identification_experiment,
    run_mgf_experiment,
    run_tail_experiment,
    wilson_interval,
)
from causalcov import montecarlo
from causalcov._rng import mix64
from causalcov.estimator import least_squares
from causalcov.linalg import CausalOperator
from causalcov.montecarlo import certify
from causalcov.process import companion
from conftest import chi2_lower, random_psd


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
    # one replicate per batch, 100 per batch, and 1000 per batch
    for steps in (T, 100 * T, 1000 * T + 5):
        monkeypatch.setattr(montecarlo, "STEPS", steps)
        for ev, a in zip(events, ref):
            b = run_tail_experiment(spec, ev, R=r, seed=3)
            assert (a.hits, a.frequency, a.ci, a.bound) == (b.hits, b.frequency, b.ci, b.bound)


def test_tail_experiment_event_validation():
    spec = iid_spec(8)
    with pytest.raises(InvalidInput):
        run_tail_experiment(spec, "no-such-event", R=4, seed=0)
    with pytest.raises(InvalidInput):
        run_tail_experiment(spec, "upper-tail-opnorm", R=4, seed=0)  # missing q
    with pytest.raises(InvalidInput):
        run_tail_experiment(spec, "chernoff-direction", params={"bogus": 1}, R=4, seed=0)


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
        size = montecarlo.STEPS // (T + 1)  # replicates per batch at T' + 1 = 65 steps
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

    def test_errors_shrink_with_horizon(self):
        sys = VarSystem(a_lags=[np.array([[0.5]])], h=np.eye(1))
        short = run_identification_experiment(sys, T=64, k=1, delta=0.1, R=30, seed=2)
        long = run_identification_experiment(sys, T=1024, k=1, delta=0.1, R=30, seed=2)
        assert long.extras["median_op_error"] < short.extras["median_op_error"]
