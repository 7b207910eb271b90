"""Process construction: lifted recursions, operators, covariances, seeding."""

import numpy as np
import pytest

from causalcov import (
    HorizonTooShort,
    InvalidInput,
    ProcessSpec,
    VarSystem,
    block_trace_sums,
    companion,
    derive_seed,
    effective_horizon,
    gamma_k,
    kappa,
    noise_block,
    paths_from_noise,
    var_time_covariances,
    var_to_operator,
)
from conftest import convolution_paths, per_time_cov_oracle, random_var_system


def scalar_system(a: float = 0.5, h: float = 1.0) -> VarSystem:
    return VarSystem(a_lags=[np.array([[a]])], h=np.array([[h]]))


def staircase_system() -> VarSystem:
    """d=2 system whose one-step covariance is singular but two-step is not."""
    a = np.array([[0.0, 0.0], [1.0, 0.0]])
    h = np.array([[1.0], [0.0]])
    return VarSystem(a_lags=[a], h=h)


class TestVarSystem:
    def test_validation(self):
        with pytest.raises(InvalidInput):
            VarSystem(a_lags=[], h=np.eye(1))
        with pytest.raises(InvalidInput):
            VarSystem(a_lags=[np.eye(2)], h=np.eye(3))  # h row dim mismatch
        with pytest.raises(InvalidInput):
            VarSystem(a_lags=[np.ones((2, 3))], h=np.eye(2))

    def test_lifted_shapes(self):
        sys = VarSystem(a_lags=[0.3 * np.eye(2), 0.1 * np.eye(2)], h=np.eye(2))
        assert sys.d == 2 and sys.p == 2 and sys.n_lags == 2
        assert sys.lifted_dim == 4
        b = sys.lifted_noise_map()
        assert b.shape == (4, 2)
        assert np.allclose(b[:2], np.eye(2)) and np.all(b[2:] == 0)
        comp = companion(sys)
        assert comp.shape == (4, 4)
        assert np.allclose(comp[:2, :2], 0.3 * np.eye(2))
        assert np.allclose(comp[:2, 2:], 0.1 * np.eye(2))
        assert np.allclose(comp[2:, :2], np.eye(2))  # shift register
        assert np.allclose(sys.regression_matrix(), np.hstack(sys.a_lags))


def test_effective_horizon():
    assert effective_horizon(10, 3) == 9
    assert effective_horizon(12, 4) == 12
    with pytest.raises(HorizonTooShort):
        effective_horizon(3, 4)
    with pytest.raises(InvalidInput):
        effective_horizon(4, 0)


def test_operator_impulse_column_geometric():
    # scalar a=0.5: first column of the dense operator is (1, .5, .25, .125)
    op = var_to_operator(scalar_system(0.5), T=4)
    dense = op.dense()
    assert np.allclose(dense[:, 0], [1.0, 0.5, 0.25, 0.125])
    assert np.allclose(np.triu(dense, 1), 0.0)
    assert np.allclose(np.diag(dense), 1.0)


def test_operator_matrix_independent_of_k(rng):
    sys = random_var_system(rng, d=2, n_lags=2, rho=0.8, p=1)
    ops = {k: var_to_operator(sys, T=12, k=k) for k in (1, 2, 3, 4, 6, 12)}
    for k, op in ops.items():
        assert op.k == k and op.T == 12 and op.n_blocks == 12 // k
        assert np.array_equal(op.dense(), ops[1].dense())
    # T=13, k=3 truncates to T'=12; every (t, s) step block is A^{t-s} B or 0
    a, b = companion(sys), sys.lifted_noise_map()
    dl, p = sys.lifted_dim, sys.p
    oracle = np.zeros((12 * dl, 12 * p))
    for t in range(12):
        for s in range(t + 1):
            oracle[t * dl : (t + 1) * dl, s * p : (s + 1) * p] = (
                np.linalg.matrix_power(a, t - s) @ b
            )
    op = var_to_operator(sys, T=13, k=3)
    assert op.T == 12 and op.n_blocks == 4
    assert np.allclose(op.dense(), oracle, rtol=1e-13, atol=1e-15)
    assert np.array_equal(op.dense(), ops[3].dense())


def test_operator_matches_convolution_oracle(rng):
    sys = random_var_system(rng, d=2, n_lags=2, rho=0.8)
    spec = ProcessSpec(source=sys, T=12, k=3)
    w = noise_block(spec, seed=5, start=0, count=3)
    via_recursion = paths_from_noise(spec, w)
    via_operator = paths_from_noise(ProcessSpec.from_operator(var_to_operator(sys, spec.T, spec.k)), w)
    via_oracle = convolution_paths(sys, w)
    assert np.allclose(via_recursion, via_oracle, atol=1e-12)
    assert np.allclose(via_operator, via_oracle, atol=1e-10)


def test_noise_block_is_batch_invariant():
    spec = ProcessSpec(source=scalar_system(), T=8)
    whole = noise_block(spec, seed=11, start=0, count=10)
    parts = np.concatenate(
        [noise_block(spec, seed=11, start=0, count=4), noise_block(spec, seed=11, start=4, count=6)]
    )
    assert np.array_equal(whole, parts)
    other = noise_block(spec, seed=12, start=0, count=10)
    assert not np.allclose(whole, other)


def test_noise_and_paths_shapes_and_determinism():
    spec = ProcessSpec(source=scalar_system(), T=10, k=2)
    w = noise_block(spec, seed=3, start=0, count=5)
    x = paths_from_noise(spec, w)
    assert x.shape == (5, 10, 1) and w.shape == (5, 10, 1)
    again = paths_from_noise(spec, noise_block(spec, seed=3, start=0, count=5))
    assert np.array_equal(x, again)


def test_per_time_covariance_routes_agree(rng):
    sys = random_var_system(rng, d=2, n_lags=1, rho=0.6)
    T = 9
    op = var_to_operator(sys, T)
    recursion = var_time_covariances(sys, T)
    oracle = per_time_cov_oracle(sys, T)
    assert np.allclose(recursion, oracle, atol=1e-12)
    # the operator rows behind the dense statistics give the same E[X_t X_t^T]
    d = op.d
    for t in (0, 4, 8):
        row = op.dense()[t * d : (t + 1) * d, :]
        assert np.allclose(row @ row.T, oracle[t], atol=1e-10)


def test_decoupled_covariance_sum_explicit(rng):
    sys = scalar_system(0.9)
    op = var_to_operator(sys, T=6, k=2)
    d_mat = np.array([[2.0]])
    # diagonal blocks of the k=2 partition are [[1,0],[.9,1]]; the decoupled
    # process restarts at each block boundary
    blk = np.array([[1.0, 0.0], [0.9, 1.0]])
    per_block = np.trace(blk @ blk.T * 2.0)
    assert block_trace_sums(op, d_mat)[0] == pytest.approx(3 * per_block, rel=1e-12)


class TestGammaKappa:
    def test_gamma_scalar_hand_values(self):
        sys = scalar_system(a=0.5, h=2.0)
        # P_0 = 4, P_1 = 0.25*4 + 4 = 5
        assert np.asarray(gamma_k(sys, 1))[0, 0] == pytest.approx(4.0)
        assert np.asarray(gamma_k(sys, 2))[0, 0] == pytest.approx((4.0 + 5.0) / 2.0)

    def test_kappa_full_rank_noise(self):
        assert kappa(scalar_system(), k_max=8) == 1
        sys2 = VarSystem(a_lags=[0.2 * np.eye(2), 0.1 * np.eye(2)], h=np.eye(2))
        # rank-deficient lifted noise: need as many steps as lags
        assert kappa(sys2, k_max=8) == 2

    def test_kappa_staircase(self):
        assert kappa(staircase_system(), k_max=8) == 2

    def test_kappa_unreachable(self):
        sys = VarSystem(
            a_lags=[np.zeros((2, 2))], h=np.array([[1.0], [0.0]])
        )  # noise never reaches coordinate 2
        assert kappa(sys, k_max=16) is None


def test_derive_seed_distinct():
    seeds = {derive_seed(7, i) for i in range(100)}
    assert len(seeds) == 100
    assert derive_seed(7, 0) != derive_seed(8, 0)


def test_process_spec_validation():
    op = var_to_operator(scalar_system(), T=8, k=2)
    with pytest.raises(InvalidInput):
        ProcessSpec(source=op, T=8, k=4)  # stride mismatch
    with pytest.raises(InvalidInput):
        ProcessSpec(source=op, T=10, k=2)  # horizon mismatch
    with pytest.raises(InvalidInput):
        ProcessSpec(source="not a model", T=8)
    spec = ProcessSpec(source=scalar_system(), T=10, k=4)
    assert spec.effective_horizon == 8
    assert spec.truncation_notice == "horizon truncated from T=10 to T'=8 (k=4 does not divide T)"
    assert ProcessSpec(source=scalar_system(), T=12, k=4).truncation_notice is None
