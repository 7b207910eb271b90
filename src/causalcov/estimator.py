"""Least-squares identification of autoregressions and its error certificates.

The regression pairs the lifted state X_t with the next observation
Y_t = Z_{t+1} = A_star X_t + H W_{t+1}, A_star = [A_1 ... A_L].  The
estimator error factors into a self-normalized martingale term and an
inverse square root of the Gram matrix; the finite-sample bound combines
the two once the horizon clears a burn-in threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import arma_prefactor
from .errors import BurninUnsatisfied, InvalidInput, SingularGram
from .linalg import SINGULAR_RTOL, SymMatrix, check_int, check_number, finite_matrix, nonsingular
from .process import VarSystem, effective_horizon, var_analysis

__all__ = [
    "LsFit",
    "least_squares",
    "error_decomposition",
    "self_normalized_bound",
    "burnin_check",
    "ls_error_bound",
    "ls_bound_details",
]

@dataclass
class LsFit:
    """Least-squares fit Y_t ~ A X_t with the sums needed downstream."""

    a_hat: np.ndarray
    gram: SymMatrix
    syx: np.ndarray
    n_samples: int
    rank_deficient: bool
    op_error: float | None = None


def _pinv_fits(gram: np.ndarray, syx: np.ndarray):
    """Least-squares fits A_hat = syx gram^+ of a stack of regressions.

    gram (..., n, n) holds each fit's sum_t X_t X_t^T and syx (..., d, n)
    its sum_t Y_t X_t^T.  The Gram is symmetrised as (G + G^T)/2 and
    inverted through eigh, keeping the eigenvalues above SINGULAR_RTOL times
    the largest.  Returns (a_hat, inv_w): the fits and the inverted
    eigenvalues, with 0 where cut.  Every step runs one fit
    at a time inside NumPy, so a fit has the same bytes in a stack of any
    size: least_squares is the one-fit case, and the identification
    experiment fits a whole batch of replicates in one call.
    """
    w, u = np.linalg.eigh(0.5 * (gram + np.swapaxes(gram, -1, -2)))
    keep = w > SINGULAR_RTOL * np.maximum(w[..., -1:], 0.0)
    inv_w = np.where(keep, 1.0 / np.where(keep, w, 1.0), 0.0)
    return syx @ ((u * inv_w[..., None, :]) @ np.swapaxes(u, -1, -2)), inv_w


def _check_truth(a_star, shape: tuple) -> np.ndarray:
    """a_star as a finite matrix (finite_matrix) of a fit's shape; InvalidInput otherwise."""
    a_star = finite_matrix(a_star, "a_star")
    if a_star.shape != shape:
        raise InvalidInput(f"truth shape {a_star.shape} != fit shape {shape}")
    return a_star


def least_squares(x: np.ndarray, y: np.ndarray, a_star: np.ndarray | None = None) -> LsFit:
    """Fit A_hat = (sum_t Y_t X_t^T)(sum_t X_t X_t^T)^+.

    x has rows X_t^T (T x n) and y rows Y_t^T (T x d), finite matrices
    (finite_matrix).  The pseudo-inverse uses a symmetric eigendecomposition
    with relative cutoff 1e-12; rank deficiency is flagged, not fatal.  When
    the true matrix is supplied the operator-norm error is filled in.
    """
    x, y = finite_matrix(x, "x"), finite_matrix(y, "y")
    if x.shape[0] != y.shape[0]:
        raise InvalidInput(f"incompatible sample shapes {x.shape} and {y.shape}")
    gram = x.T @ x
    syx = y.T @ x
    a_hat, inv_w = _pinv_fits(gram, syx)
    fit = LsFit(
        a_hat=a_hat,
        gram=SymMatrix(gram),
        syx=syx,
        n_samples=int(x.shape[0]),
        rank_deficient=bool(np.count_nonzero(inv_w) < gram.shape[0]),
    )
    if a_star is not None:
        a_star = _check_truth(a_star, a_hat.shape)
        fit.op_error = float(np.linalg.norm(a_hat - a_star, 2))
    return fit


def error_decomposition(
    fit: LsFit, a_star: np.ndarray, regularizer: np.ndarray | None = None
) -> tuple[float, float]:
    """Split the estimator error into its two certificate factors.

    Returns (self_norm_term, min_eig_term) where self_norm_term =
    ||(sum_t V_t X_t^T)(reg + sum_t X_t X_t^T)^(-1/2)|| and min_eig_term =
    1/sqrt(lam_min(reg + sum_t X_t X_t^T)); their product bounds
    ||A_hat - A_star|| and with zero regularizer the two matrix factors
    compose back to A_hat - A_star exactly.  Both matrices are finite
    (finite_matrix), and a_star has the fit's shape.
    """
    a_star = _check_truth(a_star, fit.a_hat.shape)
    gram = fit.gram.a
    reg = np.zeros_like(gram) if regularizer is None else finite_matrix(regularizer, "regularizer")
    if reg.shape != gram.shape:
        raise InvalidInput(f"regularizer shape {reg.shape} != gram shape {gram.shape}")
    w, u = SymMatrix(gram + reg).eigh()
    if not nonsingular(w[0], w[-1]):
        raise SingularGram("regularized Gram matrix has no inverse square root")
    inv_sqrt = (u * w**-0.5) @ u.T
    svx = fit.syx - a_star @ gram
    self_norm_term = float(np.linalg.norm(svx @ inv_sqrt, 2))
    min_eig_term = 1.0 / math.sqrt(float(w[0]))
    return self_norm_term, min_eig_term


def check_delta(delta, name: str = "delta") -> float:
    """delta as a float; InvalidInput unless it is a number in (0, 1).  The
    one delta rule, of the certificates here and config load alike."""
    delta = check_number(delta, name)
    if not 0.0 < delta < 1.0:
        raise InvalidInput(f"{name} must lie in (0, 1), got {delta}")
    return delta


def self_normalized_bound(det_argument, sigma: float, d: int, delta: float) -> float:
    """Martingale certificate sqrt(4 s^2 logdet(I + M) + 8 d s^2 log 5
    + 8 s^2 log(1/delta)) with s the noise operator norm: sigma, a finite
    number >= 0; d an integer >= 1; M a finite square matrix (the shared rules)."""
    sigma = check_number(sigma, "sigma")
    if not 0.0 <= sigma < math.inf:
        raise InvalidInput(f"sigma must be finite and >= 0, got {sigma}")
    d = check_int(d, "d")
    delta = check_delta(delta)
    m = finite_matrix(det_argument, "det argument")
    if m.shape[0] != m.shape[1]:
        raise InvalidInput(f"det argument must be square, got shape {m.shape}")
    sign, logdet = np.linalg.slogdet(np.eye(m.shape[0]) + m)
    if sign <= 0:
        raise InvalidInput("I + det argument must have positive determinant")
    s2 = sigma * sigma
    return math.sqrt(4.0 * s2 * logdet + 8.0 * d * s2 * math.log(5.0) + 8.0 * s2 * math.log(1.0 / delta))


def burnin_check(sys: VarSystem, T: int, k: int, delta: float) -> bool:
    """True once T'/(8k) >= dL log(corollary prefactor) + log(1/delta),
    i.e. once the anticoncentration corollary certifies at level delta."""
    delta = check_delta(delta)
    t_eff, base = arma_prefactor(sys, T, k)
    lhs = t_eff / (8.0 * k)
    rhs = sys.lifted_dim * math.log(base) + math.log(1.0 / delta)
    return lhs >= rhs


def ls_bound_details(sys: VarSystem, T: int, k: int, delta: float) -> dict:
    """Error bound of the least-squares identifier plus its ingredients."""
    delta = check_delta(delta)
    t_eff = effective_horizon(T, k)
    analysis = var_analysis(sys)
    g_lo = analysis.excitation_floor(k)
    sum_lam_max = float(analysis.per_time_lam_max(t_eff).sum())
    head_lo = k * g_lo  # lam_min(sum_{t<k} P_t)
    try:
        c_sys = 1.0 + 32.0 * sum_lam_max**2 / head_lo**2
    except (OverflowError, ZeroDivisionError):
        c_sys = math.inf  # the bound is then infinite, which callers reject
    sigma = float(np.linalg.norm(sys.h, 2))
    dl, d = sys.lifted_dim, sys.d
    log_terms = dl * math.log(c_sys) + 2.0 * d * math.log(5.0) + 2.0 * math.log(1.0 / delta)
    bound = 32.0 * sigma / math.sqrt(t_eff * g_lo) * math.sqrt(log_terms)
    return {
        "bound": bound,
        "c_sys": c_sys,
        "sigma": sigma,
        "lam_min_gamma": g_lo,
        "sum_per_time_lam_max": sum_lam_max,
        "effective_horizon": t_eff,
        "burnin_satisfied": burnin_check(sys, T, k, delta),
    }


def ls_error_bound(
    sys: VarSystem, T: int, k: int, delta: float, require_burnin: bool = False
) -> float:
    """Finite-sample bound on ||A_hat - A_star||, valid with probability
    >= 1 - 2 delta past burn-in.

    With require_burnin=True a horizon failing burnin_check raises
    BurninUnsatisfied; by default the bound is still evaluated and the
    caller decides what the flag means.
    """
    details = ls_bound_details(sys, T, k, delta)
    if require_burnin and not details["burnin_satisfied"]:
        raise BurninUnsatisfied(
            f"horizon {T} fails burn-in at block length {k} and delta {delta}"
        )
    return details["bound"]
