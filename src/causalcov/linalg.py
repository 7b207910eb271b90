"""Symmetric-matrix utilities and block lower-triangular causal operators.

A causal operator maps a driving noise vector W_{0:T-1} (stacked, p coords
per step) to a process X_{0:T-1} (d coords per step) through a block
lower-triangular matrix partitioned at stride k: block (i, j) has shape
(d*k, p*k) and is zero for j > i, so each X_t depends only on noise up to
its own block.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInput

__all__ = [
    "SymMatrix",
    "psd_check",
    "trace_square",
    "CausalOperator",
    "assemble",
]

#: default relative tolerance for PSD checks
PSD_RTOL = 1e-10


def _as_square(m, name: str = "matrix") -> np.ndarray:
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidInput(f"{name} must be square, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InvalidInput(f"{name} contains non-finite entries")
    return a


class SymMatrix:
    """Symmetric matrix wrapper; symmetrizes as (M + M^T)/2 on construction."""

    __slots__ = ("a",)

    def __init__(self, m):
        a = _as_square(m, "SymMatrix input")
        self.a = 0.5 * (a + a.T)

    @property
    def dim(self) -> int:
        return self.a.shape[0]

    def eigvals(self) -> np.ndarray:
        """All eigenvalues, ascending."""
        return np.linalg.eigvalsh(self.a)

    def eigh(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigenvalues (ascending) and orthonormal eigenvectors as columns."""
        return np.linalg.eigh(self.a)

    def eig_extremes(self) -> tuple[float, float]:
        """(smallest, largest) eigenvalue."""
        w = self.eigvals()
        return float(w[0]), float(w[-1])

    def is_psd(self, rtol: float = PSD_RTOL) -> bool:
        lo, hi = self.eig_extremes()
        return lo >= -rtol * max(hi, 1.0)

    def __array__(self, dtype=None, copy=None):
        if dtype is not None:
            return self.a.astype(dtype)
        return self.a


def psd_check(m, rtol: float = PSD_RTOL) -> bool:
    """True if the symmetrized matrix is PSD within a relative tolerance."""
    if not isinstance(m, SymMatrix):
        m = SymMatrix(m)
    return m.is_psd(rtol)


def require_psd(m, name: str = "matrix", rtol: float = PSD_RTOL) -> np.ndarray:
    """Symmetrize and return the matrix, raising InvalidInput if not PSD."""
    sm = m if isinstance(m, SymMatrix) else SymMatrix(m)
    if not sm.is_psd(rtol):
        raise InvalidInput(f"{name} is not positive semidefinite within tolerance")
    return sm.a


def trace_square(m) -> float:
    """tr(M^2) for symmetric M, computed as the squared Frobenius norm."""
    a = m.a if isinstance(m, SymMatrix) else 0.5 * (np.asarray(m, float) + np.asarray(m, float).T)
    return float(np.sum(a * a))


class CausalOperator:
    """Block lower-triangular operator X_{0:T-1} = L W_{0:T-1}.

    Parameters
    ----------
    d, p : int
        Process and noise dimension per time step.
    k : int
        Block stride (time steps per block).
    blocks : sequence of sequences of arrays
        ``blocks[i][j]`` holds block (i, j), shape (d*k, p*k), for j <= i.
        Row i must contain exactly i+1 blocks.
    """

    def __init__(self, d: int, p: int, k: int, blocks):
        if d < 1 or p < 1 or k < 1:
            raise InvalidInput("d, p and k must be positive integers")
        self.d, self.p, self.k = int(d), int(p), int(k)
        rows = []
        for i, row in enumerate(blocks):
            row = [np.asarray(b, dtype=float) for b in row]
            if len(row) != i + 1:
                raise InvalidInput(
                    f"block row {i} must hold {i + 1} blocks, got {len(row)}"
                )
            for j, b in enumerate(row):
                if b.shape != (d * k, p * k):
                    raise InvalidInput(
                        f"block ({i},{j}) has shape {b.shape}, "
                        f"expected {(d * k, p * k)}"
                    )
                if not np.all(np.isfinite(b)):
                    raise InvalidInput(f"block ({i},{j}) has non-finite entries")
            rows.append(row)
        if not rows:
            raise InvalidInput("operator needs at least one block row")
        self.blocks = rows
        self._dense: np.ndarray | None = None

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    @property
    def T(self) -> int:
        """Horizon covered by the block grid (always a multiple of k)."""
        return self.n_blocks * self.k

    @classmethod
    def identity(cls, d: int, T: int, k: int = 1) -> "CausalOperator":
        """Operator of the iid process X_t = W_t (requires k | T)."""
        if T % k != 0:
            raise InvalidInput("identity operator needs k to divide T")
        n = T // k
        eye = np.eye(d * k)
        zero = np.zeros((d * k, d * k))
        blocks = [[eye if j == i else zero.copy() for j in range(i + 1)] for i in range(n)]
        return cls(d, d, k, blocks)

    def assemble(self) -> np.ndarray:
        """Dense (d*T) x (p*T) matrix with zeros above the block diagonal."""
        n, d, p, k = self.n_blocks, self.d, self.p, self.k
        out = np.zeros((d * k * n, p * k * n))
        for i in range(n):
            for j in range(i + 1):
                out[i * d * k : (i + 1) * d * k, j * p * k : (j + 1) * p * k] = self.blocks[i][j]
        return out

    def dense(self) -> np.ndarray:
        """Assembled matrix, cached (the block grid stays the source of truth)."""
        if self._dense is None:
            self._dense = self.assemble()
        return self._dense

    def diag_block(self, j: int) -> np.ndarray:
        """Diagonal block L_{j,j}, shape (d*k, p*k)."""
        return self.blocks[j][j]

    def block_time_cov(self, j: int) -> np.ndarray:
        """Sum over the block's time slots of the decoupled per-time covariance.

        Returns the d x d matrix G_j = sum_tau R_tau R_tau^T where R_tau is
        the tau-th d-row slice of L_{j,j}; v^T G_j v equals
        tr[L_{j,j}^T blkdiag(v v^T) L_{j,j}].
        """
        b = self.diag_block(j)
        d, k = self.d, self.k
        r = b.reshape(k, d, b.shape[1])
        return np.einsum("tiq,tjq->ij", r, r)

    def block_time_covs(self) -> np.ndarray:
        """Stacked G_j for all blocks, shape (n_blocks, d, d)."""
        return np.stack([self.block_time_cov(j) for j in range(self.n_blocks)])

    def diag_gram(self, j: int, d_mat) -> np.ndarray:
        """Q_j = L_{j,j}^T blkdiag(D) L_{j,j} for a d x d weight matrix D."""
        dm = np.asarray(d_mat, dtype=float)
        if dm.shape != (self.d, self.d):
            raise InvalidInput(f"weight matrix must be {self.d} x {self.d}")
        b = self.diag_block(j)
        r = b.reshape(self.k, self.d, b.shape[1])
        weighted = np.einsum("ab,tbq->taq", dm, r).reshape(b.shape)
        return b.T @ weighted

    def identical_diag_blocks(self, rtol: float = 1e-12) -> bool:
        """True when every diagonal block equals block (0, 0)."""
        first = self.diag_block(0)
        scale = max(float(np.max(np.abs(first))), 1e-300)
        return all(
            np.max(np.abs(self.diag_block(j) - first)) <= rtol * scale
            for j in range(1, self.n_blocks)
        )


def assemble(op: CausalOperator) -> np.ndarray:
    """Dense matrix of a causal operator (module-level convenience)."""
    return op.assemble()
