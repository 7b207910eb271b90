"""Vector autoregressions, their causal-operator form, and path sampling.

A VAR(L) process follows Z_t = sum_l A_l Z_{t-l} + H W_t with zero
initialization (Z_t = 0 for t < 0).  Stacking the last L states into
X_t = (Z_t, ..., Z_{t-L+1}) gives the lifted recursion
X_t = A X_{t-1} + B W_t with the companion matrix A and B = [H; 0; ...],
whose causal operator has impulse blocks L[t, s] = A^{t-s} B for s <= t.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._rng import mix64, replicate_rng
from .errors import HorizonTooShort, InvalidInput
from .linalg import CausalOperator, SymMatrix, require_psd

__all__ = [
    "VarSystem",
    "ProcessSpec",
    "PathBatch",
    "companion",
    "var_to_operator",
    "sample",
    "per_time_covariance",
    "var_time_covariances",
    "decoupled_covariance_sum",
    "empirical_covariance",
    "gamma_k",
    "kappa",
]

#: relative eigenvalue tolerance for the excitation-index rank test
KAPPA_RTOL = 1e-9


@dataclass
class VarSystem:
    """Autoregression Z_t = sum_l A_l Z_{t-l} + H W_t, zero-initialized.

    a_lags holds [A_1, ..., A_L] (each d x d); h is the d x p noise map.
    """

    a_lags: list = field(default_factory=list)
    h: np.ndarray = None

    def __post_init__(self):
        self.a_lags = [np.asarray(a, dtype=float) for a in self.a_lags]
        if not self.a_lags:
            raise InvalidInput("need at least one lag matrix")
        d = self.a_lags[0].shape[0]
        for i, a in enumerate(self.a_lags):
            if a.shape != (d, d):
                raise InvalidInput(f"lag matrix {i + 1} must be {d} x {d}, got {a.shape}")
        self.h = np.asarray(self.h, dtype=float)
        if self.h.ndim != 2 or self.h.shape[0] != d:
            raise InvalidInput(f"noise map must have {d} rows, got shape {self.h.shape}")
        if not all(np.all(np.isfinite(a)) for a in self.a_lags) or not np.all(
            np.isfinite(self.h)
        ):
            raise InvalidInput("system matrices must be finite")

    @property
    def d(self) -> int:
        return self.a_lags[0].shape[0]

    @property
    def p(self) -> int:
        return self.h.shape[1]

    @property
    def n_lags(self) -> int:
        return len(self.a_lags)

    @property
    def lifted_dim(self) -> int:
        return self.d * self.n_lags

    def lifted_noise_map(self) -> np.ndarray:
        """B = [H; 0; ...; 0], shape (d*L, p)."""
        b = np.zeros((self.lifted_dim, self.p))
        b[: self.d] = self.h
        return b

    def regression_matrix(self) -> np.ndarray:
        """A_star = [A_1 ... A_L], the d x (d*L) row of the companion form."""
        return np.hstack(self.a_lags)


def companion(sys: VarSystem) -> np.ndarray:
    """Companion matrix of the lifted state, shape (d*L, d*L).

    Top block row is [A_1 ... A_L]; the sub-diagonal carries identities
    shifting old states down; everything else is zero.
    """
    d, L = sys.d, sys.n_lags
    a = np.zeros((d * L, d * L))
    a[:d] = sys.regression_matrix()
    for l in range(L - 1):
        a[(l + 1) * d : (l + 2) * d, l * d : (l + 1) * d] = np.eye(d)
    return a


def effective_horizon(T: int, k: int) -> int:
    """T' = k * floor(T/k); raises HorizonTooShort if no block fits."""
    if k < 1:
        raise InvalidInput(f"block length must be >= 1, got {k}")
    if T < k:
        raise HorizonTooShort(f"horizon {T} holds no complete block of length {k}")
    return k * (T // k)


def var_to_operator(sys: VarSystem, T: int, k: int = 1) -> CausalOperator:
    """Causal operator of the lifted state over T' = k*floor(T/k) steps.

    Block (t, s) of the per-step partition is the impulse response
    A^{t-s} B for s <= t, so the unit-lag diagonal is B itself.  The matrix
    does not depend on k, which only sets the operator's block partition.
    """
    t_eff = effective_horizon(T, k)
    a = companion(sys)
    b = sys.lifted_noise_map()
    dl, p = sys.lifted_dim, sys.p
    impulses = np.empty((t_eff, dl, p))
    impulses[0] = b
    for j in range(1, t_eff):
        impulses[j] = a @ impulses[j - 1]

    matrix = np.zeros((t_eff * dl, t_eff * p))
    steps = matrix.reshape(t_eff, dl, t_eff, p)
    times = np.arange(t_eff)
    for lag in range(t_eff):
        steps[times[lag:], :, times[: t_eff - lag], :] = impulses[lag]
    return CausalOperator(dl, p, k, matrix)


@dataclass
class ProcessSpec:
    """A process to experiment on: a source model plus horizon and stride.

    source is either a VarSystem (lifted-state process) or a raw
    CausalOperator; T is the requested horizon, truncated internally to
    T' = k*floor(T/k); k is the block length of the causal partition.
    """

    source: object
    T: int
    k: int = 1

    def __post_init__(self):
        self.T = int(self.T)
        self.k = int(self.k)
        t_eff = effective_horizon(self.T, self.k)  # validates
        if isinstance(self.source, CausalOperator):
            if self.source.k != self.k:
                raise InvalidInput(
                    f"operator stride {self.source.k} != requested block length {self.k}"
                )
            if self.source.T != t_eff:
                raise InvalidInput(
                    f"operator horizon {self.source.T} != effective horizon {t_eff}"
                )
        elif not isinstance(self.source, VarSystem):
            raise InvalidInput("source must be a VarSystem or CausalOperator")
        self._operator = self.source if isinstance(self.source, CausalOperator) else None

    @classmethod
    def from_operator(cls, op: CausalOperator) -> "ProcessSpec":
        return cls(source=op, T=op.T, k=op.k)

    @property
    def effective_horizon(self) -> int:
        return self.k * (self.T // self.k)

    @property
    def truncated(self) -> bool:
        return self.effective_horizon != self.T

    @property
    def state_dim(self) -> int:
        if isinstance(self.source, VarSystem):
            return self.source.lifted_dim
        return self.source.d

    @property
    def noise_dim(self) -> int:
        return self.source.p

    def operator(self) -> CausalOperator:
        """Causal operator of the process (built lazily and cached)."""
        if self._operator is None:
            self._operator = var_to_operator(self.source, self.T, self.k)
        return self._operator


@dataclass
class PathBatch:
    """R sampled trajectories (X) with the noise that drove them (W)."""

    R: int
    X: np.ndarray  # (R, T', d)
    W: np.ndarray  # (R, T', p)
    seed: int

    @property
    def T(self) -> int:
        return self.X.shape[1]

    @property
    def d(self) -> int:
        return self.X.shape[2]


def noise_block(spec: ProcessSpec, seed: int, start: int, count: int) -> np.ndarray:
    """Noise for replicates start..start+count-1, shape (count, T', p).

    Replicate r draws its whole stream from a generator seeded with
    mix64(seed, r), so the result is independent of batching.
    """
    t_eff, p = spec.effective_horizon, spec.noise_dim
    w = np.empty((count, t_eff, p))
    for i in range(count):
        w[i] = replicate_rng(seed, start + i).standard_normal((t_eff, p))
    return w


def paths_from_noise(spec: ProcessSpec, w: np.ndarray) -> np.ndarray:
    """Trajectories driven by the given noise, shape (count, T', d).

    VAR sources run the lifted recursion (algebraically identical to the
    operator product); raw operators multiply by the operator matrix.
    """
    count, t_eff, p = w.shape
    if isinstance(spec.source, VarSystem):
        sys = spec.source
        a, b = companion(sys), sys.lifted_noise_map()
        x = np.empty((count, t_eff, sys.lifted_dim))
        state = w[:, 0, :] @ b.T
        x[:, 0, :] = state
        for t in range(1, t_eff):
            state = state @ a.T + w[:, t, :] @ b.T
            x[:, t, :] = state
        return x
    dense = spec.source.dense()
    flat = w.reshape(count, t_eff * p) @ dense.T
    return flat.reshape(count, t_eff, spec.source.d)


def sample(spec: ProcessSpec, R: int, seed: int) -> PathBatch:
    """Draw R independent trajectories with counter-based replicate seeding."""
    if R < 1:
        raise InvalidInput(f"replicate count must be >= 1, got {R}")
    w = noise_block(spec, seed, 0, R)
    x = paths_from_noise(spec, w)
    return PathBatch(R=R, X=x, W=w, seed=int(seed))


def per_time_covariance(op: CausalOperator, t: int) -> SymMatrix:
    """Exact E[X_t X_t^T], computed from row t of the operator matrix."""
    if not 0 <= t < op.T:
        raise InvalidInput(f"time {t} outside horizon [0, {op.T})")
    row = op.dense()[t * op.d : (t + 1) * op.d, :]
    return SymMatrix(row @ row.T)


def var_time_covariances(sys: VarSystem, T: int) -> np.ndarray:
    """E[X_t X_t^T] of the lifted state for t = 0..T-1 via the recursion
    P_0 = B B^T, P_t = A P_{t-1} A^T + B B^T; shape (T, dL, dL)."""
    if T < 1:
        raise InvalidInput("horizon must be >= 1")
    a, b = companion(sys), sys.lifted_noise_map()
    bbt = b @ b.T
    out = np.empty((T, sys.lifted_dim, sys.lifted_dim))
    out[0] = bbt
    for t in range(1, T):
        out[t] = a @ out[t - 1] @ a.T + bbt
    return out


def decoupled_covariance_sum(op: CausalOperator, d_mat) -> float:
    """S1 = sum_j tr[L_jj^T blkdiag(D) L_jj] = sum_t E ||Delta X~_t||^2.

    D must be PSD (D = Delta^T Delta for a probing matrix Delta); X~ is the
    decoupled process driven by the diagonal blocks alone.
    """
    dm = require_psd(d_mat, "weight matrix")
    if dm.shape != (op.d, op.d):
        raise InvalidInput(f"weight matrix must be {op.d} x {op.d}")
    covs = op.block_time_covs()
    return float(np.einsum("ab,jba->", dm, covs))


def empirical_covariance(batch: PathBatch, r: int) -> SymMatrix:
    """Sigma_hat = (1/T') sum_t X_t X_t^T for replicate r."""
    if not 0 <= r < batch.R:
        raise InvalidInput(f"replicate {r} outside batch of {batch.R}")
    x = batch.X[r]
    return SymMatrix(x.T @ x / batch.T)


def gamma_k(sys: VarSystem, k: int) -> SymMatrix:
    """Gamma_k = (1/k) sum_{t=0}^{k-1} E[X_t X_t^T] of the lifted state."""
    if k < 1:
        raise InvalidInput(f"excitation length must be >= 1, got {k}")
    covs = var_time_covariances(sys, k)
    return SymMatrix(covs.sum(axis=0) / k)


def kappa(sys: VarSystem, k_max: int, rtol: float = KAPPA_RTOL) -> int | None:
    """Smallest k <= k_max with Gamma_k nonsingular, or None if unreachable.

    Nonsingularity is an eigenvalue test (lam_min > rtol * lam_max); no
    determinant is formed.  With full-rank H H^T this equals the lag order.
    """
    if k_max < 1:
        raise InvalidInput("k_max must be >= 1")
    covs = var_time_covariances(sys, k_max)
    running = np.zeros_like(covs[0])
    for k in range(1, k_max + 1):
        running = running + covs[k - 1]
        lo, hi = SymMatrix(running / k).eig_extremes()
        if hi > 0 and lo > rtol * hi:
            return k
    return None


def derive_seed(seed: int, label: int) -> int:
    """Decorrelated sub-seed for a labeled sub-experiment."""
    return mix64(seed, label)
