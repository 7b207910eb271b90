"""Least-squares estimator, error decomposition, and the finite-sample bound."""

import math

import numpy as np
import pytest

from causalcov import (
    BurninUnsatisfied,
    InvalidInput,
    ProcessSpec,
    SingularGram,
    VarSystem,
    burnin_check,
    error_decomposition,
    least_squares,
    ls_bound_details,
    ls_error_bound,
    noise_block,
    paths_from_noise,
    self_normalized_bound,
)
from conftest import random_var_system


def test_noiseless_exact_recovery(rng):
    a_star = rng.standard_normal((2, 3))
    x = rng.standard_normal((20, 3))
    y = x @ a_star.T
    fit = least_squares(x, y)
    assert np.allclose(fit.a_hat, a_star, atol=1e-10)
    assert not fit.rank_deficient
    assert fit.n_samples == 20


def test_matches_lstsq_oracle(rng):
    x = rng.standard_normal((50, 4))
    y = rng.standard_normal((50, 2))
    fit = least_squares(x, y)
    oracle, *_ = np.linalg.lstsq(x, y, rcond=None)
    assert np.allclose(fit.a_hat, oracle.T, atol=1e-9)


def test_rank_deficient_minimum_norm(rng):
    base = rng.standard_normal((30, 1))
    x = np.hstack([base, 2.0 * base])  # rank 1
    y = base.copy()
    fit = least_squares(x, y)
    assert fit.rank_deficient
    oracle, *_ = np.linalg.lstsq(x, y, rcond=None)
    assert np.allclose(fit.a_hat, oracle.T, atol=1e-9)


def test_op_error_and_self_normalized(rng):
    a_star = np.array([[0.5, 0.1], [0.0, 0.3]])
    x = rng.standard_normal((200, 2))
    y = x @ a_star.T + 0.1 * rng.standard_normal((200, 2))
    fit = least_squares(x, y, a_star=a_star)
    assert fit.op_error == pytest.approx(np.linalg.norm(fit.a_hat - a_star, 2), rel=1e-10)


def test_error_decomposition_reconstructs(rng):
    a_star = rng.standard_normal((2, 2)) * 0.4
    x = rng.standard_normal((100, 2))
    y = x @ a_star.T + 0.2 * rng.standard_normal((100, 2))
    fit = least_squares(x, y, a_star=a_star)
    self_norm, inv_sqrt_min = error_decomposition(fit, a_star)
    # ||A_hat - A*|| <= self-normalized term / sqrt(lam_min(gram))
    assert fit.op_error <= self_norm * inv_sqrt_min + 1e-8
    gram = np.asarray(fit.gram)
    assert inv_sqrt_min == pytest.approx(np.linalg.eigvalsh(gram)[0] ** -0.5, rel=1e-10)
    # scalar case collapses to equality
    xs = rng.standard_normal((60, 1))
    ys = 0.7 * xs + 0.05 * rng.standard_normal((60, 1))
    fs = least_squares(xs, ys, a_star=np.array([[0.7]]))
    sn, im = error_decomposition(fs, np.array([[0.7]]))
    assert fs.op_error == pytest.approx(sn * im, rel=1e-9)


def test_error_decomposition_singular_gram(rng):
    x = np.zeros((10, 2))
    y = rng.standard_normal((10, 2))
    fit = least_squares(x, y, a_star=np.zeros((2, 2)))
    with pytest.raises(SingularGram):
        error_decomposition(fit, np.zeros((2, 2)))


def test_error_decomposition_checks_the_truth_shape():
    # the same rule and message as least_squares' a_star
    fit = least_squares(np.eye(2), np.eye(2))
    with pytest.raises(InvalidInput, match=r"^truth shape \(3, 3\) != fit shape \(2, 2\)$"):
        error_decomposition(fit, np.eye(3))
    with pytest.raises(InvalidInput, match=r"^truth shape \(3, 3\) != fit shape \(2, 2\)$"):
        least_squares(np.eye(2), np.eye(2), a_star=np.eye(3))


def test_self_normalized_bound_hand_value():
    # zero det argument (logdet(I+0) = 0), sigma=2, d=3, delta=0.1:
    # sqrt(8*3*4*log5 + 8*4*log10)
    val = self_normalized_bound(np.zeros((3, 3)), sigma=2.0, d=3, delta=0.1)
    expected = math.sqrt(96.0 * math.log(5.0) + 32.0 * math.log(10.0))
    assert val == pytest.approx(expected, rel=1e-12)
    # logdet term: M = (e-1) I_1 adds 4 sigma^2 per dimension
    val2 = self_normalized_bound(np.array([[math.e - 1.0]]), sigma=1.0, d=1, delta=0.5)
    expected2 = math.sqrt(4.0 + 8.0 * math.log(5.0) + 8.0 * math.log(2.0))
    assert val2 == pytest.approx(expected2, rel=1e-12)
    with pytest.raises(InvalidInput):
        self_normalized_bound(np.eye(2), sigma=1.0, d=2, delta=1.5)


def test_ls_bound_iid_cross_check():
    # iid scalar: A=0, H=1, k=1, T=1024, delta=0.1
    sys = VarSystem(a_lags=[np.zeros((1, 1))], h=np.eye(1))
    T, delta = 1024, 0.1
    details = ls_bound_details(sys, T, 1, delta)
    c_sys = 1.0 + 32.0 * T**2
    expected = (
        32.0
        * 1.0
        / math.sqrt(T * 1.0)
        * math.sqrt(math.log(c_sys) + 2.0 * math.log(5.0) + 2.0 * math.log(1.0 / delta))
    )
    assert details["c_sys"] == pytest.approx(c_sys, rel=1e-12)
    assert details["bound"] == pytest.approx(expected, rel=1e-12)
    assert details["sigma"] == pytest.approx(1.0)
    assert details["lam_min_gamma"] == pytest.approx(1.0)
    assert details["burnin_satisfied"] is True
    assert ls_error_bound(sys, T, 1, delta) == pytest.approx(expected, rel=1e-12)


def test_burnin_check_monotone_in_T():
    sys = VarSystem(a_lags=[np.array([[0.5]])], h=np.eye(1))
    assert burnin_check(sys, 4096, 1, 0.1) is True
    assert burnin_check(sys, 8, 1, 0.1) is False


def test_ls_error_bound_require_burnin():
    sys = VarSystem(a_lags=[np.array([[0.5]])], h=np.eye(1))
    with pytest.raises(BurninUnsatisfied):
        ls_error_bound(sys, 8, 1, 0.1, require_burnin=True)
    # without the flag the bound is still returned
    assert ls_error_bound(sys, 8, 1, 0.1) > 0.0


def test_fit_on_simulated_var_converges(rng):
    sys = random_var_system(rng, d=2, n_lags=1, rho=0.6)
    errors = []
    for T in (128, 2048):
        spec = ProcessSpec(source=sys, T=T + 1)
        w = noise_block(spec, seed=99, start=0, count=1)
        x = paths_from_noise(spec, w)[0]
        fit = least_squares(x[:T], x[1:, : sys.d], a_star=sys.regression_matrix())
        errors.append(fit.op_error)
    assert errors[1] < errors[0]
