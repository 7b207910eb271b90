"""Tail bounds: closed forms against quadrature, bounds against oracles.

Ordering matters: the closed-form MGF is validated against numerical
quadrature before any other test leans on it as an oracle.
"""

import math

import numpy as np
import pytest

from causalcov import (
    CausalOperator,
    DegenerateDirection,
    InsufficientExcitation,
    InvalidInput,
    SingularDecoupledCovariance,
    VarSystem,
    anticoncentration_bound,
    arma_corollary_bound,
    arma_prefactor,
    armastability_bound,
    block_trace_sums,
    causal_exp_inequality,
    chernoff_lower_tail,
    chernoff_threshold,
    exact_mgf,
    mgf_subexp_lemma,
    mgf_upper_bound,
    psi_k,
    upper_tail_bound,
    var_time_covariances,
    var_to_operator,
)
from conftest import (
    chi2_lower,
    mgf_quadrature,
    psi_grid_oracle,
    random_operator,
    random_psd,
    random_var_system,
)


# ---------------------------------------------------------------------------
# closed-form MGF: quadrature validation comes before everything else


class TestExactMgfAgainstQuadrature:
    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("lam", [0.0, 0.1, 0.7])
    def test_random_instances(self, rng, m, lam):
        for _ in range(4):
            n = int(rng.integers(1, 3))
            q = random_psd(rng, n + m, scale=1.5)
            x = rng.standard_normal(n)
            closed = exact_mgf(q, x, lam)
            numeric = mgf_quadrature(q, x, lam)
            assert closed == pytest.approx(numeric, rel=1e-7, abs=1e-10)

    def test_pure_noise_diagonal(self):
        # no conditioned part: E exp(-lam * mu * W^2) = (1+2*lam*mu)^{-1/2}
        q = np.diag([0.8])
        assert exact_mgf(q, np.empty(0), 0.5) == pytest.approx((1 + 2 * 0.5 * 0.8) ** -0.5)

    def test_monotone_in_x(self, rng):
        q = random_psd(rng, 3, scale=1.0)
        x0 = exact_mgf(q, np.zeros(1), 0.3)
        for _ in range(10):
            x = rng.standard_normal(1) * 3.0
            assert exact_mgf(q, x, 0.3) <= x0 + 1e-12


class TestMgfUpperBound:
    def test_hand_value_identity(self):
        # Q22 = I_1, lam = 0.5: exact (1+2*0.5)^{-1/2} = 2^{-1/2}, bound e^{-1/4}
        q = np.eye(1)
        assert exact_mgf(q, np.empty(0), 0.5) == pytest.approx(2.0**-0.5)
        assert mgf_upper_bound(q, 0.5) == pytest.approx(math.exp(-0.25))
        # the half-rate exponent e^{-lam + lam^2/2} would sit BELOW the exact
        # value here, so the quadratic-rate exponent is the sharp valid one
        assert math.exp(-0.5 + 0.125) < 2.0**-0.5

    def test_dominates_exact_on_random_psd(self, rng):
        lams = np.arange(0.0, 2.0001, 0.05)
        for _ in range(60):
            m = int(rng.integers(1, 7))
            q22 = random_psd(rng, m, scale=2.0)
            for lam in lams:
                exact = exact_mgf(q22, np.empty(0), float(lam))
                bound = mgf_upper_bound(q22, float(lam))
                assert exact <= bound * (1 + 1e-12)

    def test_rejects_negative_lam(self):
        with pytest.raises(InvalidInput):
            mgf_upper_bound(np.eye(1), -0.1)
        with pytest.raises(InvalidInput):
            exact_mgf(np.eye(1), np.empty(0), -0.1)


# ---------------------------------------------------------------------------
# block trace sums and the causal exponential inequality


def iid_operator(T: int, d: int = 1) -> CausalOperator:
    return CausalOperator.identity(d, T)


def test_block_trace_sums_iid():
    op = iid_operator(16)
    s1, s2 = block_trace_sums(op, np.eye(1))
    assert s1 == pytest.approx(16.0)
    assert s2 == pytest.approx(16.0)


def test_block_trace_sums_weighted(rng):
    op = random_operator(rng, d=2, p=2, k=2, n_blocks=3)
    d_mat = random_psd(rng, 2, scale=1.0)
    big_d = np.kron(np.eye(2), d_mat)
    s1_expected = 0.0
    s2_expected = 0.0
    for j in range(op.n_blocks):
        blk = op.diag_block(j)
        g = blk.T @ big_d @ blk
        s1_expected += np.trace(g)
        s2_expected += np.trace(g @ g)
    s1, s2 = block_trace_sums(op, d_mat)
    assert s1 == pytest.approx(s1_expected, rel=1e-12)
    assert s2 == pytest.approx(s2_expected, rel=1e-12)


def test_causal_exp_inequality_formula(rng):
    op = random_operator(rng, d=1, p=1, k=2, n_blocks=4)
    d_mat = np.array([[1.3]])
    s1, s2 = block_trace_sums(op, d_mat)
    lam = 0.07
    assert causal_exp_inequality(op, d_mat, lam) == pytest.approx(
        math.exp(-lam * s1 + lam * lam * s2), rel=1e-12
    )


def test_causal_exp_inequality_dominates_iid_exact():
    # iid scalar, D = 1: E exp(-lam sum X_t^2) = (1+2 lam)^{-T/2}
    op = iid_operator(12)
    for lam in (0.05, 0.2, 0.6, 1.5):
        exact = (1.0 + 2.0 * lam) ** (-12 / 2)
        assert exact <= causal_exp_inequality(op, np.eye(1), lam) * (1 + 1e-12)


# ---------------------------------------------------------------------------
# Chernoff lower tail


def test_chernoff_iid_scalar_values():
    for T in (8, 16, 32):
        op = iid_operator(T)
        # S1 = S2 = T so the exponent is T/16
        assert chernoff_lower_tail(op, np.eye(1)) == pytest.approx(math.exp(-T / 16.0))
        assert chernoff_threshold(op, np.eye(1)) == pytest.approx(T / 2.0)


def test_chernoff_dominates_chi2_oracle():
    # event {sum X_t^2 <= T/2} has exact probability P(chi^2_T <= T/2)
    for T in (8, 16, 32, 64, 128):
        op = iid_operator(T)
        assert chi2_lower(T) <= chernoff_lower_tail(op, np.eye(1))


def test_chernoff_degenerate_direction():
    op = iid_operator(8)
    with pytest.raises(DegenerateDirection):
        chernoff_lower_tail(op, np.zeros((1, 1)))


# ---------------------------------------------------------------------------
# directional balance psi_k


def test_psi_iid_scalar_is_one():
    val, v = psi_k(iid_operator(32))
    assert val == pytest.approx(1.0, abs=1e-8)
    assert np.linalg.norm(v) == pytest.approx(1.0)


def test_psi_identical_blocks_at_least_inv_k(rng):
    for k in (2, 3, 4):
        blk = rng.standard_normal((k, k)) * 0.3 + np.eye(k)
        n = 4
        blocks = []
        for i in range(n):
            row = [rng.standard_normal((k, k)) * 0.2 for _ in range(i)]
            row.append(blk.copy())
            blocks.append(row)
        op = CausalOperator.from_blocks(1, 1, k, blocks)
        val, _ = psi_k(op)
        assert val >= 1.0 / k - 1e-12


def test_psi_matches_grid_oracle(rng):
    for _ in range(4):
        op = random_operator(rng, d=2, p=2, k=2, n_blocks=4)
        val, v = psi_k(op)
        grid = psi_grid_oracle(op, n_grid=10_000)
        assert val == pytest.approx(grid, abs=1e-4)
        # up to its own tolerance the optimizer can only undershoot the grid min
        assert val <= grid + 1e-7


def test_psi_singular_decoupled():
    op = CausalOperator.from_blocks(
        1, 1, 1, [[np.zeros((1, 1))], [np.zeros((1, 1)), np.zeros((1, 1))]]
    )
    with pytest.raises(SingularDecoupledCovariance):
        psi_k(op)


# ---------------------------------------------------------------------------
# anticoncentration and upper tail


def test_anticoncentration_iid_hand_arithmetic():
    # iid scalar, T' = 64: psi = 1, q = 2, covariance ratio 1,
    # probability (16 sqrt 2) e^{-8}, threshold 1/8
    report = anticoncentration_bound(iid_operator(64))
    assert report.psi_k == pytest.approx(1.0, abs=1e-8)
    assert report.intermediates["q"] == pytest.approx(2.0, rel=1e-8)
    assert report.intermediates["covariance_ratio"] == pytest.approx(1.0, rel=1e-10)
    assert report.anticonc_probability == pytest.approx(16 * math.sqrt(2) * math.exp(-8), rel=1e-7)
    assert report.anticonc_threshold == pytest.approx(1.0 / 8.0, rel=1e-12)


def test_anticoncentration_dimension_exponent():
    # iid d=2: prefactor is squared relative to d=1 at the same T'
    rep1 = anticoncentration_bound(iid_operator(64, d=1))
    rep2 = anticoncentration_bound(iid_operator(64, d=2))
    base1 = rep1.anticonc_probability / math.exp(-8)
    base2 = rep2.anticonc_probability / math.exp(-8)
    assert base2 == pytest.approx(base1**2, rel=1e-6)


def test_upper_tail_iid_hand_arithmetic():
    # iid scalar T'=32, q=2: 5 e^{-(q-1) * 32 / 8}
    op = iid_operator(32)
    assert upper_tail_bound(op, 2.0) == pytest.approx(5.0 * math.exp(-4.0), rel=1e-10)
    with pytest.raises(InvalidInput):
        upper_tail_bound(op, 1.0)


def test_upper_tail_report_consistent():
    op = iid_operator(32)
    report = anticoncentration_bound(op)
    q = report.intermediates["q"]
    assert report.upper_tail_probability == pytest.approx(upper_tail_bound(op, q), rel=1e-10)


# ---------------------------------------------------------------------------
# directional sub-exponential MGF helper


def test_mgf_subexp_exact_matches_direct(rng):
    op = random_operator(rng, d=2, p=2, k=1, n_blocks=6)
    v = rng.standard_normal(2)
    lam = 0.05
    dense = op.dense()
    rows = dense.reshape(op.T, 2, dense.shape[1])
    lv = np.einsum("i,tiq->tq", v / np.linalg.norm(v), rows)
    gram = lv @ lv.T
    direct = float(np.prod(1.0 - 2.0 * lam * np.linalg.eigvalsh(gram)) ** -0.5)
    assert mgf_subexp_lemma(op, v, lam, exact=True) == pytest.approx(direct, rel=1e-9)


def test_mgf_subexp_bound_dominates(rng):
    op = random_operator(rng, d=2, p=2, k=1, n_blocks=6)
    dense = op.dense()
    lam_cap = 1.0 / (4.0 * np.linalg.norm(dense, 2) ** 2)
    for _ in range(5):
        v = rng.standard_normal(2)
        for lam in (0.25 * lam_cap, 0.9 * lam_cap):
            exact = mgf_subexp_lemma(op, v, lam, exact=True)
            bound = mgf_subexp_lemma(op, v, lam)
            assert exact <= bound * (1 + 1e-12)
    with pytest.raises(InvalidInput):
        mgf_subexp_lemma(op, np.ones(2), 2.0 * lam_cap)


# ---------------------------------------------------------------------------
# VAR stability and corollary bounds


def test_armastability_hand_value_scalar():
    # A = 0: sum_j ||A^j (A^j)'|| = 1, so the bound is T * h^2
    sys = VarSystem(a_lags=[np.zeros((1, 1))], h=np.array([[1.5]]))
    assert armastability_bound(sys, 10) == pytest.approx(10 * 1.5**2)


def test_armastability_dominates_exact(rng):
    for _ in range(10):
        d = int(rng.integers(1, 4))
        n_lags = int(rng.integers(1, 4))
        sys = random_var_system(rng, d, n_lags, rho=float(rng.uniform(0.3, 0.95)))
        T = int(rng.integers(4, 64))
        covs = var_time_covariances(sys, T)
        exact = float(np.linalg.eigvalsh(covs.sum(axis=0))[-1])
        assert exact <= armastability_bound(sys, T) * (1 + 1e-10)


def test_arma_corollary_hand_value():
    # scalar A = 0, H = 1, k = 1: base = 32 T^{3/2}, bound = base e^{-T/8}
    sys = VarSystem(a_lags=[np.zeros((1, 1))], h=np.eye(1))
    T = 64
    t_eff, base = arma_prefactor(sys, T, 1)
    assert t_eff == T
    assert base == pytest.approx(32.0 * T**1.5, rel=1e-12)
    assert arma_corollary_bound(sys, T, 1) == pytest.approx(
        32.0 * T**1.5 * math.exp(-T / 8.0), rel=1e-12
    )


def test_arma_corollary_exponent_in_dl():
    # d=2, L=1 doubles the prefactor exponent d*L
    sys = VarSystem(a_lags=[np.zeros((2, 2))], h=np.eye(2))
    T = 32
    _, base = arma_prefactor(sys, T, 1)
    assert arma_corollary_bound(sys, T, 1) == pytest.approx(
        base**2 * math.exp(-T / 8.0), rel=1e-10
    )


def test_arma_insufficient_excitation():
    sys = VarSystem(a_lags=[np.zeros((2, 2))], h=np.array([[1.0], [0.0]]))
    with pytest.raises(InsufficientExcitation):
        arma_prefactor(sys, 16, 1)


def test_anticoncentration_threshold_matches_gamma_for_var():
    # for a VAR at block length k, the decoupled covariance sum is T' Gamma_k
    from causalcov import gamma_k

    sys = VarSystem(a_lags=[np.array([[0.5]])], h=np.eye(1))
    T, k = 16, 2
    op = var_to_operator(sys, T, k)
    report = anticoncentration_bound(op)
    lam_min = float(np.asarray(gamma_k(sys, k))[0, 0])
    assert report.anticonc_threshold == pytest.approx(lam_min / 8.0, rel=1e-10)
