"""Shared fixtures and independent oracles for the test suite.

Every oracle here is deliberately implemented by a different route than
the library code it checks: quadrature instead of closed forms, explicit
convolution instead of recursion, dense grids instead of optimizers.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy import integrate, stats

from causalcov import CausalOperator, VarSystem


def make_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


# ---------------------------------------------------------------------------
# random instances


def random_psd(rng: np.random.Generator, n: int, scale: float = 1.0) -> np.ndarray:
    """Random PSD matrix with eigenvalues in [0, scale]."""
    a = rng.standard_normal((n, n))
    q, _ = np.linalg.qr(a)
    eigs = rng.uniform(0.0, scale, size=n)
    return (q * eigs) @ q.T


def random_var_system(
    rng: np.random.Generator,
    d: int,
    n_lags: int,
    rho: float = 0.7,
    p: int | None = None,
) -> VarSystem:
    """Random VAR with companion spectral radius scaled to rho."""
    from causalcov import companion

    p = d if p is None else p
    lags = [rng.standard_normal((d, d)) for _ in range(n_lags)]
    h = rng.standard_normal((d, p)) + 0.5 * np.eye(d, p)
    sys = VarSystem(a_lags=lags, h=h)
    radius = max(abs(np.linalg.eigvals(companion(sys))))
    if radius > 1e-12:
        # scale lag j by (rho/radius)^{j+1}: rescales eigenvalues uniformly
        factor = rho / radius
        lags = [a * factor ** (j + 1) for j, a in enumerate(lags)]
        sys = VarSystem(a_lags=lags, h=h)
    return sys


def random_operator(
    rng: np.random.Generator, d: int, p: int, k: int, n_blocks: int
) -> CausalOperator:
    """Random causal operator with well-conditioned diagonal blocks."""
    blocks = []
    for i in range(n_blocks):
        row = [rng.standard_normal((d * k, p * k)) * 0.5 for _ in range(i)]
        diag = rng.standard_normal((d * k, p * k)) * 0.3 + np.eye(d * k, p * k)
        row.append(diag)
        blocks.append(row)
    return CausalOperator.from_blocks(d, p, k, blocks)


# ---------------------------------------------------------------------------
# oracles


def chi2_lower(T: int) -> float:
    """P(chi^2_T <= T/2), the exact lower-tail probability for iid sums."""
    return float(stats.chi2.cdf(T / 2.0, df=T))


def mgf_quadrature(q: np.ndarray, x: np.ndarray, lam: float) -> float:
    """E exp(-lam [x;W]' Q [x;W]) for W ~ N(0, I_m), m <= 2, by quadrature."""
    q = np.asarray(q, dtype=float)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    n = x.shape[0]
    m = q.shape[0] - n
    if m == 1:

        def f(w):
            z = np.concatenate([x, [w]])
            return np.exp(-lam * (z @ q @ z)) * stats.norm.pdf(w)

        val, _ = integrate.quad(f, -12.0, 12.0, limit=200)
        return float(val)
    if m == 2:

        def f(w2, w1):
            z = np.concatenate([x, [w1, w2]])
            return (
                np.exp(-lam * (z @ q @ z))
                * stats.norm.pdf(w1)
                * stats.norm.pdf(w2)
            )

        val, _ = integrate.dblquad(f, -9.0, 9.0, -9.0, 9.0, epsabs=1e-10)
        return float(val)
    raise ValueError("quadrature oracle supports m in {1, 2}")


def psi_grid_oracle(op: CausalOperator, n_grid: int = 10_000) -> float:
    """Dense-grid evaluation of the directional balance over the 2-sphere."""
    if op.d != 2:
        raise ValueError("grid oracle is for d = 2")
    grams = np.stack([np.asarray(op.block_time_cov(j)) for j in range(op.n_blocks)])
    theta = np.linspace(0.0, np.pi, n_grid, endpoint=False)
    v = np.stack([np.cos(theta), np.sin(theta)], axis=1)  # (n_grid, 2)
    quad = np.einsum("gi,jik,gk->gj", v, grams, v)  # (n_grid, n_blocks)
    num = quad.sum(axis=1) ** 2
    den = op.T * (quad**2).sum(axis=1)
    return float(np.min(num / den))


def convolution_paths(sys: VarSystem, w: np.ndarray) -> np.ndarray:
    """Lifted trajectories via explicit impulse-response convolution.

    X_t = sum_{s<=t} A^{t-s} B W_s, computed term by term with
    matrix_power; independent of both library simulation routes.
    """
    from causalcov import companion

    count, t_eff, _ = w.shape
    a, b = companion(sys), sys.lifted_noise_map()
    x = np.zeros((count, t_eff, sys.lifted_dim))
    for t in range(t_eff):
        for s in range(t + 1):
            coef = np.linalg.matrix_power(a, t - s) @ b
            x[:, t, :] += w[:, s, :] @ coef.T
    return x


def per_time_cov_oracle(sys: VarSystem, T: int) -> np.ndarray:
    """E X_t X_t' for the lifted state, summed impulse responses squared."""
    from causalcov import companion

    a, b = companion(sys), sys.lifted_noise_map()
    dl = sys.lifted_dim
    covs = np.zeros((T, dl, dl))
    acc = np.zeros((dl, dl))
    impulse = b.copy()
    for t in range(T):
        acc = acc + impulse @ impulse.T
        covs[t] = acc
        impulse = a @ impulse
    return covs


@pytest.fixture
def rng() -> np.random.Generator:
    return make_rng(20260816)
