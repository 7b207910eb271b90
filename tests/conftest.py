"""Shared fixtures and independent oracles for the test suite.

Every oracle here is deliberately implemented by a different route than
the library code it checks: quadrature instead of closed forms, explicit
convolution instead of recursion, dense grids instead of optimizers, the
step-by-step bounded-real test (_bounded_real_passes) for its doubling
form, a plain Monte-Carlo mean on its own generator (run_mgf_experiment)
for the MGF closed form, the exact directional MGF (subexp_mgf_oracle)
for the sub-exponential lemma's bound, and the explicit-k test at each
block length in turn (kappa_oracle) for the running-sum excitation index.
The SciPy oracles import SciPy when called, so test modules that use none
of them run without it.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from causalcov import (
    CausalOperator,
    InsufficientExcitation,
    InvalidInput,
    VarSystem,
    exact_mgf,
    mgf_upper_bound,
    montecarlo,
    require_psd,
)
from causalcov._rng import mix64
from causalcov.montecarlo import TailExperiment, certify
from causalcov.process import var_analysis


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
    from scipy import stats

    return float(stats.chi2.cdf(T / 2.0, df=T))


def mgf_quadrature(q: np.ndarray, x: np.ndarray, lam: float) -> float:
    """E exp(-lam [x;W]' Q [x;W]) for W ~ N(0, I_m), m <= 2, by quadrature."""
    from scipy import integrate, stats

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


def run_mgf_experiment(q, x, lam: float, R: int = 10_000, seed: int = 0) -> TailExperiment:
    """Monte-Carlo estimate of E exp(-lam [x;W]^T Q [x;W]) with a 5-SE band.

    The estimate is compared against both the closed form (consistency)
    and the exponential upper bound (certification); hits is None since
    the outcome is a mean, not an event count.  The R x m noise block is
    drawn from a single derived-seed generator.
    """
    if R < 2:
        raise InvalidInput("need at least two replicates for a standard error")
    qa = require_psd(q, "Q")
    xv = np.atleast_1d(np.asarray(x, dtype=float))
    n = xv.shape[0]
    m = qa.shape[0] - n
    if m < 1:
        raise InvalidInput("Q must have at least one noise coordinate")
    q11, q12, q22 = qa[:n, :n], qa[:n, n:], qa[n:, n:]
    rng = np.random.Generator(np.random.PCG64(mix64(seed, 0)))
    w = rng.standard_normal((R, m))
    const = float(xv @ q11 @ xv)
    lin = 2.0 * (q12.T @ xv)
    quad = np.einsum("ri,ij,rj->r", w, q22, w)
    vals = np.exp(-lam * (const + w @ lin + quad))
    estimate = float(vals.mean())
    se = float(vals.std(ddof=1) / math.sqrt(R))
    ci = (max(0.0, estimate - 5.0 * se), estimate + 5.0 * se)
    bound = mgf_upper_bound(q22, lam)
    certified, vacuous = certify(ci[1], bound)
    return TailExperiment(
        event="mgf-estimate",
        replicates=R,
        hits=None,
        frequency=estimate,
        ci=ci,
        bound=bound,
        vacuous=vacuous,
        certified=certified,
        seed=int(seed),
        extras={"exact": exact_mgf(qa, xv, lam), "se": se, "lam": float(lam)},
    )


def subexp_mgf_oracle(op: CausalOperator, v, lam: float) -> float:
    """E exp(lam sum_t (v^T X_t)^2) in closed form, det(I - 2 lam L_v L_v^T)^(-1/2)
    with L_v = (I_T kron v^T) L for the normalised v: the exact value that
    bounds.mgf_subexp_lemma bounds.  InvalidInput outside the finite-MGF
    domain 2 lam lam_max(L_v L_v^T) < 1."""
    vv = np.asarray(v, dtype=float).ravel()
    lv = np.einsum("i,tiq->tq", vv / np.linalg.norm(vv), op.dense().reshape(op.T, op.d, -1))
    gram = lv @ lv.T
    w = np.linalg.eigvalsh(0.5 * (gram + gram.T))
    if 2.0 * lam * float(w[-1]) >= 1.0:
        raise InvalidInput("lambda outside the finite-MGF domain for this direction")
    return float(np.exp(-0.5 * np.sum(np.log1p(-2.0 * lam * np.clip(w, 0.0, None)))))


def psi_grid_oracle(op: CausalOperator, n_grid: int = 10_000) -> float:
    """Dense-grid evaluation of the directional balance over the 2-sphere."""
    if op.d != 2:
        raise ValueError("grid oracle is for d = 2")
    grams = []
    for j in range(op.n_blocks):
        rows = op.block(j, j).reshape(op.k, op.d, -1)  # one d-row slice per time slot
        grams.append(sum(rows[t] @ rows[t].T for t in range(op.k)))
    grams = np.stack(grams)
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


def step_by_step_paths(sys: VarSystem, w: np.ndarray) -> np.ndarray:
    """Lifted trajectories by the recursion x_t = A x_{t-1} + B w_t, one
    time step per iteration, not the blocked products of paths_from_noise."""
    from causalcov import companion

    count, t_eff, _ = w.shape
    a, b = companion(sys), sys.lifted_noise_map()
    x = np.empty((count, t_eff, sys.lifted_dim))
    state = w[:, 0, :] @ b.T
    x[:, 0, :] = state
    for t in range(1, t_eff):
        state = state @ a.T + w[:, t, :] @ b.T
        x[:, t, :] = state
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


def kappa_oracle(sys: VarSystem, k_max: int) -> int | None:
    """The excitation index by the explicit-k route: the smallest k <= k_max
    at which VarAnalysis.excitation_floor, with Gamma_k formed afresh by
    gamma for each k, accepts; None if there is none."""
    analysis = var_analysis(sys)
    for k in range(1, k_max + 1):
        try:
            analysis.excitation_floor(k)
        except InsufficientExcitation:
            continue
        return k
    return None


def _bounded_real_passes(a: np.ndarray, b: np.ndarray, horizon: int, levels) -> np.ndarray:
    """Which levels g make g I - L^T L positive definite, for L the causal
    operator of x_t = A x_{t-1} + B w_t over horizon steps.

    This is the finite-horizon bounded-real test.  With S_T = I, every
    reverse-time pivot R_t = g I - B^T S_{t+1} B (t = T-1, ..., 0) must be
    positive definite, where
    S_t = I + A^T (S_{t+1} + S_{t+1} B R_t^{-1} B^T S_{t+1}) A.  The pivots
    are the Schur complements of g I - L^T L taken one time step at a time
    from the last, so all of them are positive definite exactly when
    g I - L^T L is.  All levels run in one pass, O(horizon n^3) work in
    flat memory; a level is dropped at its first non-finite or
    non-positive pivot, so nothing overflows or warns.
    """
    n, p = b.shape
    levels = np.asarray(levels, dtype=float)
    passed = np.zeros(levels.size, dtype=bool)
    live = np.flatnonzero(np.isfinite(levels))
    g = levels[live, None, None] * np.eye(p)
    eye = np.eye(n)
    s = np.broadcast_to(eye, (live.size, n, n))
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(horizon - 1, -1, -1):
            finite = np.isfinite(s).all(axis=(1, 2))
            if not finite.all():
                live, g, s = live[finite], g[finite], s[finite]
            bts = b.T @ s
            r = g - bts @ b
            pivot_pd = np.linalg.eigvalsh(r)[:, 0] > 0
            if not pivot_pd.all():
                live, g, s, bts, r = (m[pivot_pd] for m in (live, g, s, bts, r))
            if not live.size:
                break
            if t:
                s = eye + a.T @ (s + np.swapaxes(bts, 1, 2) @ np.linalg.solve(r, bts)) @ a
    passed[live] = True
    return passed


def spy_draws(monkeypatch) -> list:
    """Record (T', seed, count) of every batch the sampling loop draws: the
    seed of the replicate_words pass that seeds the batch's group, and the
    horizon and row count of the _path_blocks call that samples the batch."""
    draws, seeds = [], []
    real_words, real_blocks = montecarlo.replicate_words, montecarlo._path_blocks

    def words(seed, start, count):
        seeds.append(seed)
        return real_words(seed, start, count)

    def blocks(spec, batch_words, block):
        draws.append((spec.effective_horizon, seeds[-1], len(batch_words)))
        return real_blocks(spec, batch_words, block)

    monkeypatch.setattr(montecarlo, "replicate_words", words)
    monkeypatch.setattr(montecarlo, "_path_blocks", blocks)
    return draws



@pytest.fixture
def rng() -> np.random.Generator:
    return make_rng(20260816)
