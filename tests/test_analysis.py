"""The VAR analysis against the dense operator route, plus property tests.

For a VAR source the bounds read VarAnalysis (series read off the companion
powers and a certified lam_max(L^T L)); the dense statistics of
var_to_operator and the one-step recursions are the oracles they must
match.
"""

import dataclasses
import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from causalcov import (
    CausalOperator,
    ExperimentConfig,
    InvalidInput,
    ProcessSpec,
    VarSystem,
    anticoncentration_bound,
    block_trace_sums,
    chernoff_lower_tail,
    exact_mgf,
    mgf_upper_bound,
    psi_k,
    run_identification_experiment,
    run_tail_experiment,
    run_tail_experiments,
    var_to_operator,
)
from causalcov.bounds import _analysis, _operator_stats
from causalcov import montecarlo, process
from causalcov.process import _bounded_real_doubling, var_analysis
from conftest import _bounded_real_passes, random_operator, random_psd, random_var_system

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
            rows = [op.block(j, j).reshape(k, op.d, -1) for j in range(op.n_blocks)]
            decoupled = sum(r[t] @ r[t].T for r in rows for t in range(k))
            lo, hi = np.linalg.eigvalsh(decoupled)[[0, -1]]
            oracle = {**oracle, "lam_min_decoupled_sum": lo, "lam_max_decoupled_sum": hi}
        stats = _analysis(spec).stats
        # eigenvalues agree to 1e-12 of the matrix's scale; per-time sums in the
        # order of the analysis, not of the operator's rows
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
    assert oracle_gram * (1 - 1e-12) <= gram <= oracle_gram * (1 + 2e-10)


@pytest.mark.parametrize("t_eff", [2, 21, 64, 256])
def test_rank_deficient_noise_map(t_eff):
    # H 1 = 0: every impulse A^j H has two opposite columns, so the all-ones
    # vector lies in the null space of L^T L.  The certified value must not
    # depend on earlier calls for other systems.
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
    assert exact * (1 - 1e-12) <= grams[0] <= exact * (1 + 2e-10)
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


@PROPERTY
@given(
    seed=SEEDS,
    d=st.integers(1, 3),
    n_lags=st.integers(1, 2),
    p_less=st.integers(0, 2),
    t_eff=st.integers(1, 400),
    rho=st.floats(0.0, 0.999),
)
@example(seed=7, d=3, n_lags=2, p_less=0, t_eff=400, rho=0.999)
@example(seed=3, d=1, n_lags=1, p_less=0, t_eff=1, rho=0.5)
def test_doubling_test_matches_the_step_by_step_test(seed, d, n_lags, p_less, t_eff, rho):
    rng = np.random.default_rng(seed)
    sys = random_var_system(rng, d, n_lags, rho=rho, p=max(1, d - p_less))
    exact = float(np.linalg.svd(var_to_operator(sys, t_eff).dense(), compute_uv=False)[0] ** 2)
    margins = np.array([1e-10, 1e-8, 1e-4])
    levels = np.concatenate([exact * (1 - margins), exact * (1 + margins), [np.inf]])
    analysis = var_analysis(sys)
    step = _bounded_real_passes(analysis.a, analysis.b, t_eff, levels)
    assert step.tolist() == [False] * 3 + [True] * 3 + [False]
    assert _bounded_real_doubling(analysis.a, analysis.b, t_eff, levels).tolist() == step.tolist()


@pytest.mark.parametrize("gap", [1e-9, 1e-5, 0.3])
def test_narrowing_passes_reach_the_dense_norm(monkeypatch, gap):
    # spectral radius 1 - gap, up to a near unit root: the bisection narrows
    # the bracket [lam_max of the top-left block, (sum_j ||A^j B||_2)^2] to
    # 1e-10 in a few passes; the level returned has passed the test, so it
    # is above lam_max
    passes = []
    real_passes = process._bounded_real_doubling

    def counted(*args):
        passes.append(len(args[-1]))
        return real_passes(*args)

    monkeypatch.setattr(process, "_bounded_real_doubling", counted)
    sys = random_var_system(np.random.default_rng(8), 2, 1, rho=1 - gap)
    exact = float(np.linalg.svd(var_to_operator(sys, 60).dense(), compute_uv=False)[0] ** 2)
    analysis = var_analysis(sys)
    gram = analysis.lam_max_gram(60)
    assert exact * (1 - 1e-12) <= gram <= exact * (1 + 2e-10)
    assert _bounded_real_passes(analysis.a, analysis.b, 60, [gram]).tolist() == [True]
    assert 1 < len(passes) <= 8
    assert passes == [process._GRAM_LEVELS] * len(passes)


@pytest.mark.parametrize("t_eff", [1, 2, 9])
def test_zero_transition_is_certified(t_eff):
    # A = 0: L^T L is block diagonal with blocks H^T H, so both ends of the
    # bracket are ||H||_2^2 (the upper one raised by 1e-10 for rounding) and
    # the first pass alone must certify a level
    sys = VarSystem([np.zeros((2, 2))], np.array([[1.0, 2.0], [0.5, -1.0]]))
    exact = float(np.linalg.svd(var_to_operator(sys, t_eff).dense(), compute_uv=False)[0] ** 2)
    analysis = var_analysis(sys)
    gram = analysis.lam_max_gram(t_eff)
    assert exact <= gram <= exact * (1 + 2e-10)
    assert _bounded_real_passes(analysis.a, analysis.b, t_eff, [gram]).tolist() == [True]


def test_lam_max_gram_matches_arpack():
    # the perfbench model at T' = 512; ARPACK is a test-only oracle
    from scipy.sparse.linalg import LinearOperator, eigsh

    sys = VarSystem([np.array([[0.5, 0.1], [0.0, 0.4]])], np.eye(2))
    dense = var_to_operator(sys, 512).dense()
    size = dense.shape[1]
    gram = LinearOperator((size, size), matvec=lambda v: dense.T @ (dense @ v), dtype=float)
    oracle = float(eigsh(gram, k=1, which="LA", return_eigenvectors=False)[0])
    assert oracle * (1 - 1e-12) <= var_analysis(sys).lam_max_gram(512) <= oracle * (1 + 2e-10)


def _rotation_var(radius: float, angle: float) -> VarSystem:
    """A d=2 VAR(1) with eigenvalues radius e^{+-i angle}: its gain peaks near
    frequency angle, not at 0."""
    c, s = np.cos(angle), np.sin(angle)
    return VarSystem([radius * np.array([[c, -s], [s, c]])], np.array([[1.0], [0.3]]))


@settings(max_examples=25, deadline=None, database=None, derandomize=True)
@given(
    seed=SEEDS,
    d=st.integers(1, 3),
    n_lags=st.integers(1, 2),
    p_less=st.integers(0, 2),
    t_eff=st.integers(1, 200),
    rho=st.floats(0.0, 0.999),
)
@example(seed=1, d=3, n_lags=2, p_less=2, t_eff=200, rho=0.99)
@example(seed=2, d=1, n_lags=1, p_less=0, t_eff=1, rho=0.5)
def test_ritz_floor_is_below_the_dense_norm(seed, d, n_lags, p_less, t_eff, rho):
    # Courant-Fischer: the top Ritz value of L^T L on any orthonormal set of
    # inputs is at most lam_max(L^T L), up to rounding
    rng = np.random.default_rng(seed)
    sys = random_var_system(rng, d, n_lags, rho=rho, p=max(1, d - p_less))
    exact = float(np.linalg.svd(var_to_operator(sys, t_eff).dense(), compute_uv=False)[0] ** 2)
    floor = var_analysis(sys)._ritz_floor(t_eff)
    assert 0.0 <= floor <= exact * (1 + 1e-12)


@pytest.mark.parametrize("angle", [0.7, 2.0, np.pi])
def test_ritz_floor_finds_a_peak_away_from_zero(angle):
    # eigenvalues 0.95 e^{+-i angle}: the peak frequency is near angle, and
    # the floor from it is tight, far above the top-left block's lam_max
    sys = _rotation_var(0.95, angle)
    analysis = var_analysis(sys)
    freq, direction = analysis._peak_input()
    assert abs(freq - angle) < 0.1
    assert np.linalg.norm(direction) == pytest.approx(1.0)
    exact = float(np.linalg.svd(var_to_operator(sys, 256).dense(), compute_uv=False)[0] ** 2)
    impulses = analysis.impulses(256)
    corner = float(np.linalg.eigvalsh(np.einsum("jnp,jnq->pq", impulses, impulses))[-1])
    floor = analysis._ritz_floor(256)
    assert corner < floor <= exact * (1 + 1e-12)
    assert floor >= exact * (1 - 1e-2)


def test_peak_input_is_solved_once_per_analysis(monkeypatch):
    # the peak reads only A and B: a sweep's horizons share one frequency
    # solve, and each horizon's floor keeps the bytes of a fresh analysis
    sys = VarSystem([np.array([[0.5, 0.1], [0.0, 0.4]])], np.eye(2))
    solves = []
    real_solve = process.VarAnalysis._peak_input
    monkeypatch.setattr(
        process.VarAnalysis, "_peak_input", lambda self: solves.append(1) or real_solve(self)
    )
    analysis = process.VarAnalysis(sys)
    floors = [analysis._ritz_floor(n) for n in (32, 64, 128, 256)]
    assert len(solves) == 1
    assert floors == [process.VarAnalysis(sys)._ritz_floor(n) for n in (32, 64, 128, 256)]


@pytest.mark.parametrize(
    "sys, singular",
    [
        (VarSystem([np.array([[1.0]])], np.array([[1.0]])), True),
        (_rotation_var(1.0, 0.0), True),
        # e^{-i pi} is -1 only up to rounding: a finite, huge gain at pi
        (VarSystem([np.array([[-1.0]])], np.array([[2.0]])), False),
    ],
    ids=["unit-root", "double-unit-root", "root-minus-one"],
)
@pytest.mark.parametrize("t_eff", [1, 5, 64])
def test_unit_circle_eigenvalue_falls_back(sys, singular, t_eff):
    # an eigenvalue at a grid frequency makes I - A e^{-iw} singular: no
    # peak is found, the floor falls back to 0 and the bracket to the
    # top-left block's lam_max; either way the certificate holds
    analysis = process.VarAnalysis(sys)
    assert (analysis._peak_input() is None) == singular
    exact = float(np.linalg.svd(var_to_operator(sys, t_eff).dense(), compute_uv=False)[0] ** 2)
    floor = analysis._ritz_floor(t_eff)
    assert floor == 0.0 if singular else 0.0 < floor <= exact * (1 + 1e-12)
    gram = analysis.lam_max_gram(t_eff)
    assert exact * (1 - 1e-12) <= gram <= exact * (1 + 2e-10)
    assert _bounded_real_passes(analysis.a, analysis.b, t_eff, [gram]).tolist() == [True]


def test_perfbench_model_certified_in_four_passes(monkeypatch):
    # the perfbench model at T' = 512: the Ritz floor is within 1e-5 of
    # lam_max, so the geometric first pass leaves a bracket that three more
    # passes narrow to 1e-10
    passes = []
    real_passes = process._bounded_real_doubling

    def counted(*args):
        passes.append(len(args[-1]))
        return real_passes(*args)

    monkeypatch.setattr(process, "_bounded_real_doubling", counted)
    sys = VarSystem([np.array([[0.5, 0.1], [0.0, 0.4]])], np.eye(2))
    exact = float(np.linalg.svd(var_to_operator(sys, 512).dense(), compute_uv=False)[0] ** 2)
    analysis = process.VarAnalysis(sys)
    assert exact * (1 - 1e-5) <= analysis._ritz_floor(512) <= exact * (1 + 1e-12)
    gram = analysis.lam_max_gram(512)
    assert exact * (1 - 1e-12) <= gram <= exact * (1 + 2e-10)
    assert passes == [process._GRAM_LEVELS] * len(passes)
    assert len(passes) <= 4


@pytest.mark.parametrize("seed, rho, t_eff", [(0, 1.03, 512), (1, 1.07, 512), (2, 1.05, 700)])
def test_explosive_var_certificate(seed, rho, t_eff):
    # spectral radius above 1: the floor is poor, yet the level returned
    # passes the test and sits within 2e-10 of the dense norm
    sys = random_var_system(np.random.default_rng(seed), 2, 1, rho=rho)
    analysis = process.VarAnalysis(sys)
    gram = analysis.lam_max_gram(t_eff)
    exact = float(np.linalg.svd(var_to_operator(sys, t_eff).dense(), compute_uv=False)[0] ** 2)
    assert exact * (1 - 1e-12) <= gram <= exact * (1 + 2e-10)
    assert _bounded_real_doubling(analysis.a, analysis.b, t_eff, [gram]).tolist() == [True]


@pytest.mark.parametrize("d", [1, 2])
def test_subnormal_bracket_ends(monkeypatch, d):
    # A = I has its eigenvalue on the unit circle at w = 0, so there is no
    # Ritz floor, and H = 1e-160 I puts lam_max(L^T L) near 3e-319: no float
    # lies strictly inside the bracket long before it is 1e-10 wide.  The
    # bisection stops there, at a level that has passed the test
    passes = []
    real_passes = process._bounded_real_doubling

    def counted(*args):
        passes.append(len(args[-1]))
        if len(passes) > 100:
            raise AssertionError("the bracket never closes")
        return real_passes(*args)

    monkeypatch.setattr(process, "_bounded_real_doubling", counted)
    sys = VarSystem([np.eye(d)], 1e-160 * np.eye(d))
    analysis = process.VarAnalysis(sys)
    assert analysis._ritz_floor(8) == 0.0
    gram = analysis.lam_max_gram(8)
    exact = float(np.linalg.svd(var_to_operator(sys, 8).dense(), compute_uv=False)[0] ** 2)
    assert 0.0 < exact <= gram < np.finfo(float).tiny
    assert real_passes(analysis.a, analysis.b, 8, [gram]).tolist() == [True]


def test_overflow_check_passes_models_near_overflow():
    # one model far from overflow, and one whose 2 T ||B||_F^2 sum_j ||A^j||_2^2
    # overflows while the energy 2 T sum_j ||A^j B||_F^2 does not (A^j B = 0
    # for j >= 1): both pass, without a warning
    far = var_analysis(VarSystem([np.array([[0.9]])], np.array([[1e10]])))
    near = var_analysis(VarSystem([np.diag([0.99, 0.0])], np.array([[0.0], [3.16e153]])))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        far.check_overflow(4096)
        near.check_overflow(4)


def _step_series(a: np.ndarray, b: np.ndarray, n: int):
    """Powers, impulses and covariances by the one-step recursions
    A^j = A A^(j-1), A^j B = A A^(j-1) B and P_t = A P_{t-1} A^T + B B^T."""
    powers, impulses, covs = [np.eye(len(a))], [b], [b @ b.T]
    for _ in range(1, n):
        powers.append(a @ powers[-1])
        impulses.append(a @ impulses[-1])
        covs.append(a @ covs[-1] @ a.T + b @ b.T)
    return np.array(powers), np.array(impulses), np.array(covs)


@PROPERTY
@given(
    seed=SEEDS,
    d=st.integers(1, 3),
    n_lags=st.integers(1, 2),
    p_less=st.integers(0, 2),
    t_eff=st.integers(1, 600),
    rho=st.floats(0.0, 0.999),
)
@example(seed=5, d=2, n_lags=2, p_less=1, t_eff=1, rho=0.9)
@example(seed=6, d=1, n_lags=1, p_less=0, t_eff=2, rho=0.999)
@example(seed=7, d=3, n_lags=1, p_less=0, t_eff=3, rho=0.5)
@example(seed=8, d=3, n_lags=2, p_less=0, t_eff=4096, rho=0.999)
def test_series_match_the_step_recursions(seed, d, n_lags, p_less, t_eff, rho):
    # the powers by doubling, and the impulses and covariances read off
    # them, against the one-step recursions, within 1e-12 of each series'
    # largest entry; random lags are non-normal
    rng = np.random.default_rng(seed)
    sys = random_var_system(rng, d, n_lags, rho=rho, p=max(1, d - p_less))
    analysis = process.VarAnalysis(sys)
    oracles = _step_series(np.asarray(analysis.a), np.asarray(analysis.b), t_eff)
    for name, oracle in zip(("powers", "impulses", "covariances"), oracles):
        series = getattr(analysis, name)(t_eff)
        assert series.shape == oracle.shape, name
        assert np.max(np.abs(series - oracle)) <= 1e-12 * np.max(np.abs(oracle)), name


@pytest.mark.parametrize("n1, n2", [(1, 2), (3, 17), (100, 129), (64, 1000)])
def test_series_do_not_depend_on_the_order_of_requests(n1, n2):
    # one analysis asked for n1 steps then n2, another for n2 then n1: every
    # series has the same bytes at both lengths, and so has lam_max_gram
    sys = random_var_system(np.random.default_rng(n1 + n2), 2, 2, rho=0.95, p=1)
    series = (
        "powers",
        "impulses",
        "covariances",
        "per_time_lam_max",
        "_squared_power_norms",
        "lam_max_gram",
    )
    read = {}
    for order in ((n1, n2), (n2, n1)):
        analysis = process.VarAnalysis(sys)
        for n in order:
            for name in series:
                getattr(analysis, name)(n)
        read[order] = [np.asarray(getattr(analysis, name)(n)).tobytes()
                       for name in series for n in (n1, n2)]
    assert read[(n1, n2)] == read[(n2, n1)]


IDENTIFY_VAR = VarSystem(
    a_lags=[np.array([[0.4, 0.1], [0.0, 0.4]]), np.array([[0.15, 0.0], [0.05, 0.15]])],
    h=np.eye(2),
)


@pytest.mark.parametrize(
    "sys, t_eff, settles",
    [
        pytest.param(random_var_system(np.random.default_rng(1), 2, 2, rho=0.3), 3000, True,
                     id="rho-0.3"),
        pytest.param(random_var_system(np.random.default_rng(2), 3, 1, rho=0.6, p=2), 2500, True,
                     id="rho-0.6"),
        pytest.param(random_var_system(np.random.default_rng(3), 2, 1, rho=0.9), 1500, True,
                     id="rho-0.9"),
        pytest.param(IDENTIFY_VAR, 4097, True, id="identify-model"),
        pytest.param(random_var_system(np.random.default_rng(4), 2, 2, rho=0.9999), 600, False,
                     id="near-unit-root"),
    ],
)
def test_truncated_series_equal_the_full_solves(sys, t_eff, settles):
    # lam_max(P_t) is solved only up to the last t at which P_t changes, and
    # the spectral norms up to the last nonzero block; both have the bytes
    # of one eigensolve or SVD over the whole stack.  At rho 0.3 and 0.6 and on the
    # identify benchmark's model the powers underflow to exact zeros within
    # the horizon; the near-unit-root model's P_t changes at every t of the
    # horizon, so nothing is copied there.
    analysis = process.VarAnalysis(sys)
    covs = analysis.covariances(t_eff)
    assert bool(np.array_equal(covs[-1], covs[-2])) == settles
    full_lam = np.linalg.eigvalsh(covs)[:, -1]
    assert analysis.per_time_lam_max(t_eff).tobytes() == full_lam.tobytes()
    for blocks in (analysis.powers(t_eff), analysis.impulses(t_eff)):
        full_norms = np.linalg.norm(blocks, 2, axis=(1, 2))
        assert process._spectral_norms(blocks).tobytes() == full_norms.tobytes()
    full_squares = np.linalg.norm(analysis.powers(t_eff), 2, axis=(1, 2)) ** 2
    assert analysis._squared_power_norms(t_eff).tobytes() == full_squares.tobytes()


def test_all_zero_stack_has_zero_norms():
    assert process._spectral_norms(np.zeros((3, 2, 2))).tolist() == [0.0, 0.0, 0.0]
    assert process._spectral_norms(np.zeros((0, 2, 2))).shape == (0,)


@pytest.mark.parametrize(
    "a, h, horizon, message",
    [
        # 1.5^876 is the first power above sqrt(float max)
        pytest.param([[1.5, 0.0], [0.0, 0.5]], np.eye(2), 2000,
                     "overflows at lag 876: an entry of A^876 exceeds", id="entry"),
        # every entry of A^876 is below sqrt(float max), but ||A^876||_2^2 is not
        pytest.param([[0.75, 0.75], [0.75, 0.75]], 1e-10 * np.eye(2), 877,
                     "overflows at lag 876: ||A^876||_2 exceeds", id="spectral-norm"),
    ],
)
def test_overflow_check_names_the_first_lag(a, h, horizon, message):
    analysis = process.VarAnalysis(VarSystem(a_lags=[np.array(a)], h=h))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInput, match=re.escape(message)):
            analysis.check_overflow(horizon)


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


TAIL_EVENTS = (
    ("chernoff-direction", {}),
    ("lower-tail-eigenvalue", {}),
    ("upper-tail-opnorm", {"q": 2.0}),
)


@PROPERTY
@given(
    seed=SEEDS,
    d=st.integers(1, 3),
    n_lags=st.integers(1, 2),
    T=st.integers(2, 64),
    R=st.integers(1, 40),
    per_batch=st.lists(st.integers(1, 40), min_size=2, max_size=2),
    var_source=st.booleans(),
)
# the blocked products round this case differently in batches of one and
# of four replicates unless both are padded to the same multiple of rows
@example(seed=0, d=3, n_lags=1, T=6, R=4, per_batch=[1, 4], var_source=True)
def test_reported_statistics_are_batch_invariant(seed, d, n_lags, T, R, per_batch, var_source):
    rng = np.random.default_rng(seed)
    if var_source:
        # k = n_lags makes Gamma_k nonsingular
        sys = random_var_system(rng, d, n_lags, rho=0.9)
        spec = ProcessSpec(source=sys, T=T, k=n_lags)
    else:
        spec = ProcessSpec.from_operator(random_operator(rng, d, d, n_lags, max(1, T // n_lags)))
    block = process.paths_from_noise(spec, process.noise_block(spec, seed, 0, R))
    outcomes = []
    # from one replicate per batch to all R in one batch: straight through
    # the simulator, and through the experiments, whose batches are rounded
    # to a multiple of eight replicates (at least eight)
    for size in ((n - 1) % R + 1 for n in per_batch):
        pieces = [
            process.paths_from_noise(
                spec, process.noise_block(spec, seed, start, min(size, R - start))
            )
            for start in range(0, R, size)
        ]
        assert np.concatenate(pieces).tobytes() == block.tobytes()
        with mock.patch.object(montecarlo, "STEPS", size * spec.effective_horizon):
            batches = montecarlo._path_batches(spec, seed, R)
            paths = np.concatenate([np.concatenate(list(blocks), axis=1) for blocks in batches])
            assert paths.tobytes() == block.tobytes()
            tails = [
                run_tail_experiment(spec, event, dict(params), R=R, seed=seed)
                for event, params in TAIL_EVENTS
            ]
            # one shared pass scores each event as its own pass does
            assert run_tail_experiments(spec, TAIL_EVENTS, R=R, seed=seed) == tails
            if var_source:
                ident = run_identification_experiment(sys, T, n_lags, 0.1, R=R, seed=seed)
                tails.append(ident.extras["op_errors"].tobytes())
        outcomes.append(tails)
    assert outcomes[0] == outcomes[1]


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
