"""The VAR analysis against the dense operator route, plus property tests.

For a VAR source the bounds read VarAnalysis (recursions in time and a
certified lam_max(L^T L)); the dense statistics of var_to_operator are the
oracle they must match.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from causalcov import (
    CausalOperator,
    ExperimentConfig,
    ProcessSpec,
    VarSystem,
    anticoncentration_bound,
    block_trace_sums,
    chernoff_lower_tail,
    exact_mgf,
    mgf_upper_bound,
    psi_k,
    var_to_operator,
)
from causalcov.bounds import _analysis, _operator_stats
from causalcov import process
from causalcov.process import _bounded_real_passes, _top_ritz_value, var_analysis
from conftest import random_operator, random_psd, random_var_system

PROPERTY = settings(max_examples=40, deadline=None, database=None, derandomize=True)
SEEDS = st.integers(min_value=0, max_value=2**32 - 1)

#: statistics of sum_t E X_t X_t^T and of the decoupled sum
COVARIANCE_KEYS = (
    "lam_min_per_time_sum",
    "lam_max_per_time_sum",
    "lam_min_decoupled_sum",
    "lam_max_decoupled_sum",
    "sum_per_time_lam_max",
)


@settings(max_examples=25, deadline=None, database=None, derandomize=True)
@given(
    seed=SEEDS,
    d=st.integers(1, 3),
    n_lags=st.integers(1, 2),
    p_less=st.integers(0, 2),
    t_eff=st.integers(1, 256),
    rho=st.floats(0.0, 0.95),
)
@example(seed=84365, d=2, n_lags=2, p_less=1, t_eff=2, rho=0.0)
@example(seed=7, d=3, n_lags=2, p_less=0, t_eff=256, rho=0.95)
@example(seed=11, d=2, n_lags=1, p_less=1, t_eff=240, rho=0.9)
def test_analysis_matches_dense_operator(seed, d, n_lags, p_less, t_eff, rho):
    rng = np.random.default_rng(seed)
    p = max(1, d - p_less)
    sys = random_var_system(rng, d, n_lags, rho=rho, p=p)
    dense = var_to_operator(sys, t_eff).dense()
    oracle_gram = float(np.linalg.svd(dense, compute_uv=False)[0] ** 2)
    weight = random_psd(rng, sys.lifted_dim) + 0.1 * np.eye(sys.lifted_dim)
    for k in (k for k in range(1, t_eff + 1) if t_eff % k == 0):
        op = CausalOperator(sys.lifted_dim, p, k, dense)
        spec = ProcessSpec(source=sys, T=t_eff, k=k)
        if k == 1:
            oracle = _operator_stats(op)
        else:
            lo, hi = np.linalg.eigvalsh(op.block_time_covs().sum(axis=0))[[0, -1]]
            oracle = {**oracle, "lam_min_decoupled_sum": lo, "lam_max_decoupled_sum": hi}
        stats = _analysis(spec).stats
        # eigenvalues agree to 1e-12 of the matrix's scale; per-time sums in the
        # order of the recursion, not of the operator's rows
        for key in COVARIANCE_KEYS:
            scale = max(abs(oracle[key.replace("lam_min", "lam_max")]), 1e-300)
            assert abs(stats[key] - oracle[key]) <= 1e-12 * scale, key
        # the same blocks, though a block stored apart may round differently
        assert block_trace_sums(spec, weight) == pytest.approx(
            block_trace_sums(op, weight), rel=1e-12
        )
        assert stats["lam_max_gram"] == var_analysis(sys).lam_max_gram(t_eff)
        if stats["lam_min_decoupled_sum"] > 1e-12 * stats["lam_max_decoupled_sum"]:
            assert anticoncentration_bound(spec).psi_k == 1.0 / k
            if k <= 2:  # the dense search agrees (it is slow, so two strides only)
                assert psi_k(op)[0] == pytest.approx(1.0 / k, rel=1e-9)
    gram = var_analysis(sys).lam_max_gram(t_eff)
    assert oracle_gram * (1 - 1e-12) <= gram <= oracle_gram * (1 + 1e-9)


@pytest.mark.parametrize("t_eff", [2, 21, 64, 256])
def test_rank_deficient_noise_map(t_eff):
    # H 1 = 0: every impulse A^j H has two opposite columns, so the all-ones
    # vector lies in the null space of L^T L.  The Lanczos start must not,
    # and the estimate must not depend on earlier eigensolver calls.
    a_lags = [np.array([[0.5, 0.1], [0.0, 0.3]]), np.array([[0.1, 0.0], [0.0, 0.2]])]
    h = np.array([[1.0, -1.0], [2.0, -2.0]])
    exact = float(np.linalg.svd(var_to_operator(VarSystem(a_lags, h), t_eff).dense(),
                                compute_uv=False)[0] ** 2)
    grams = []
    for seed in (1, 2):
        rng = np.random.default_rng(seed)
        other = random_var_system(rng, 2, 1, rho=0.9)
        var_analysis(other).lam_max_gram(int(rng.integers(30, 90)))
        grams.append(var_analysis(VarSystem(a_lags, h)).lam_max_gram(t_eff))
    assert grams[0] == grams[1]
    assert exact * (1 - 1e-12) <= grams[0] <= exact * (1 + 1e-9)
    spec = ProcessSpec(source=VarSystem(a_lags, h), T=t_eff, k=1)
    assert _analysis(spec).stats["lam_max_gram"] == grams[0]


@pytest.mark.parametrize("t_eff", [1, 2, 7, 40])
def test_bounded_real_test_brackets_the_dense_norm(t_eff):
    rng = np.random.default_rng(t_eff)
    sys = random_var_system(rng, 2, 2, rho=0.9, p=1)
    exact = float(np.linalg.svd(var_to_operator(sys, t_eff).dense(), compute_uv=False)[0] ** 2)
    analysis = var_analysis(sys)
    levels = exact * np.array([1 - 1e-6, 1 - 1e-9, 1 + 1e-9, 1 + 1e-6, np.inf])
    passed = _bounded_real_passes(analysis.a, analysis.b, t_eff, levels)
    assert passed.tolist() == [False, False, True, True, False]


@pytest.mark.parametrize("shortfall", [1e-9, 1e-5, 0.3])
def test_narrowing_passes_reach_the_dense_norm(monkeypatch, shortfall):
    # an estimate well below lam_max leaves a
    # bracket that further bounded-real passes narrow to 1e-10; the level
    # returned has passed the test, so it is above lam_max
    passes = []
    real_estimate, real_passes = process._gram_estimate, process._bounded_real_passes

    def counted(*args):
        passes.append(len(args[-1]))
        return real_passes(*args)

    monkeypatch.setattr(process, "_gram_estimate", lambda imp: real_estimate(imp) * (1 - shortfall))
    monkeypatch.setattr(process, "_bounded_real_passes", counted)
    sys = random_var_system(np.random.default_rng(8), 2, 1, rho=0.9)
    exact = float(np.linalg.svd(var_to_operator(sys, 60).dense(), compute_uv=False)[0] ** 2)
    gram = var_analysis(sys).lam_max_gram(60)
    assert exact * (1 - 1e-12) <= gram <= exact * (1 + 2e-10)
    assert len(passes) > 1


def _spectrum_matrix(rng, eigs):
    q, _ = np.linalg.qr(rng.standard_normal((len(eigs), len(eigs))))
    return (q * eigs) @ q.T


@pytest.mark.parametrize("n", [41, 64, 150, 300])
def test_top_ritz_value_matches_eigvalsh(n):
    rng = np.random.default_rng(n)
    matrix = random_psd(rng, n, scale=3.0)
    start = rng.standard_normal(n)
    top = _top_ritz_value(lambda v: matrix @ v, start)
    assert top == pytest.approx(np.linalg.eigvalsh(matrix)[-1], rel=1e-10)
    assert _top_ritz_value(lambda v: matrix @ v, start) == top  # the same bytes again


@pytest.mark.parametrize("rank", [1, 12, 30])
def test_top_ritz_value_stops_at_an_invariant_subspace(rank):
    # the Krylov space has dimension at most rank + 1 (in exact arithmetic),
    # so the residual vanishes before the basis is full
    rng = np.random.default_rng(rank)
    eigs = np.concatenate([rng.uniform(1.0, 5.0, rank), np.zeros(200 - rank)])
    matrix = _spectrum_matrix(rng, eigs)
    calls = []

    def matvec(v):
        calls.append(v)
        return matrix @ v

    top = _top_ritz_value(matvec, rng.standard_normal(200))
    assert top == pytest.approx(np.linalg.eigvalsh(matrix)[-1], rel=1e-12)
    assert len(calls) < process._LANCZOS_NCV


def test_top_ritz_value_clustered_top():
    rng = np.random.default_rng(5)
    eigs = np.concatenate([1.0 - 1e-7 * np.arange(10), rng.uniform(0.0, 0.9, 190)])
    matrix = _spectrum_matrix(rng, eigs)
    top = _top_ritz_value(lambda v: matrix @ v, rng.standard_normal(200))
    assert top == pytest.approx(1.0, rel=1e-10)
    assert top <= 1.0 + 1e-14  # a Ritz value: at most lam_max, to rounding


def test_gram_estimate_matches_arpack():
    # the perfbench model at T' = 512; ARPACK is a test-only oracle
    from scipy.sparse.linalg import LinearOperator, eigsh

    sys = VarSystem([np.array([[0.5, 0.1], [0.0, 0.4]])], np.eye(2))
    dense = var_to_operator(sys, 512).dense()
    size = dense.shape[1]
    gram = LinearOperator((size, size), matvec=lambda v: dense.T @ (dense @ v), dtype=float)
    oracle = float(eigsh(gram, k=1, which="LA", return_eigenvectors=False)[0])
    estimate = process._gram_estimate(var_analysis(sys).impulses(512))
    assert estimate == pytest.approx(oracle, rel=1e-12)


def test_overflow_check_forms_impulses_only_near_overflow():
    # far from overflow the bound 2 T ||B||_F^2 sum_j ||A^j||_2^2 settles the
    # impulse checks; near it the impulses are formed and checked.  Here
    # A^j B = 0 for j >= 1, so twice the bound overflows but the energy
    # 2 T ||B||_F^2 does not, and the check passes.
    far = var_analysis(VarSystem([np.array([[0.9]])], np.array([[1e10]])))
    far.check_overflow(4096)
    assert len(far._series["impulses"]) == 1  # B itself
    near = var_analysis(VarSystem([np.diag([0.99, 0.0])], np.array([[0.0], [3.16e153]])))
    near.check_overflow(4)
    assert len(near._series["impulses"]) == 4


def test_var_system_is_immutable():
    a, h = np.array([[0.5, 0.1], [0.0, 0.4]]), np.eye(2)
    sys = VarSystem(a_lags=[a], h=h)
    with pytest.raises(ValueError):
        sys.h[0, 0] = 2.0
    with pytest.raises(ValueError):
        sys.a_lags[0][0, 1] = 2.0
    with pytest.raises(TypeError):
        sys.a_lags[0] = np.zeros((2, 2))
    with pytest.raises(dataclasses.FrozenInstanceError):
        sys.h = np.zeros((2, 2))
    # the system holds copies: changing the inputs changes nothing
    a[0, 0] = h[1, 1] = 9.0
    assert sys.a_lags[0][0, 0] == 0.5 and sys.h[1, 1] == 1.0
    # hashed by identity, one analysis per system
    twin = VarSystem(a_lags=[sys.a_lags[0]], h=sys.h)
    assert sys != twin and var_analysis(sys) is var_analysis(sys)
    assert var_analysis(twin) is not var_analysis(sys)


MATRIX_ENTRY = st.floats(-0.45, 0.45, allow_nan=False).map(lambda x: round(x, 6))


@PROPERTY
@given(
    d=st.integers(1, 3),
    n_lags=st.integers(1, 2),
    data=st.data(),
    T=st.integers(2, 64),
    delta=st.floats(0.001, 0.999),
    replicates=st.integers(1, 10**6),
    seed=st.integers(0, 2**63),
    require_burnin=st.booleans(),
)
def test_config_round_trip(d, n_lags, data, T, delta, replicates, seed, require_burnin):
    matrix = st.lists(st.lists(MATRIX_ENTRY, min_size=d, max_size=d), min_size=d, max_size=d)
    lags = data.draw(st.lists(matrix, min_size=n_lags, max_size=n_lags))
    h = [[1.0 if i == j else 0.0 for j in range(d)] for i in range(d)]
    k = data.draw(st.integers(1, T))
    events = data.draw(
        st.lists(
            st.sampled_from(
                [
                    "lower-tail-eigenvalue",
                    "chernoff-direction",
                    {"event": "upper-tail-opnorm", "params": {"q": 2.5}},
                    # a VAR's state is its lifted one, of dimension d * n_lags
                    {"event": "chernoff-direction", "params": {"direction": [[1.0] * d * n_lags]}},
                ]
            ),
            min_size=1,
            max_size=3,
        )
    )
    grid = data.draw(st.sampled_from([{}, {"T": [T, 2 * T]}, {"delta": [0.05, delta]}]))
    raw = {
        "model": {"type": "var", "a_lags": lags, "h": h},
        "T": T,
        "k": k,
        "delta": delta,
        "replicates": replicates,
        "seed": seed,
        "events": events,
        "grid": grid,
        "require_burnin": require_burnin,
    }
    config = ExperimentConfig.from_dict(raw)
    again = ExperimentConfig.from_dict(config.to_dict())
    assert again.to_dict() == config.to_dict()
    assert [np.array_equal(a, b) for a, b in zip(again.model.a_lags, lags)] == [True] * n_lags


@PROPERTY
@given(seed=SEEDS, log_scale=st.floats(-6.0, 6.0), var_source=st.booleans())
def test_chernoff_lower_tail_is_scale_invariant(seed, log_scale, var_source):
    rng = np.random.default_rng(seed)
    if var_source:
        process = ProcessSpec(source=random_var_system(rng, 2, 1), T=12, k=3)
        dim = 2
    else:
        process = random_operator(rng, d=2, p=2, k=2, n_blocks=3)
        dim = 2
    weight = random_psd(rng, dim) + 0.05 * np.eye(dim)
    base = chernoff_lower_tail(process, weight)
    assert chernoff_lower_tail(process, 10.0**log_scale * weight) == pytest.approx(base, rel=1e-12)


@PROPERTY
@given(
    seed=SEEDS,
    n=st.integers(0, 3),
    m=st.integers(1, 4),
    lam=st.floats(0.0, 5.0),
    scale=st.floats(0.01, 10.0),
)
@example(seed=0, n=0, m=2, lam=4.0, scale=6.0)
def test_exact_mgf_below_its_upper_bound(seed, n, m, lam, scale):
    rng = np.random.default_rng(seed)
    q = random_psd(rng, n + m, scale=scale)
    x = rng.standard_normal(n)
    # past float range the upper bound is +inf, which still dominates
    assert exact_mgf(q, x, lam) <= mgf_upper_bound(q[n:, n:], lam) * (1 + 1e-12)
