"""Symmetric-matrix utilities and block lower-triangular causal operators.

A causal operator maps a driving noise vector W_{0:T-1} (stacked, p coords
per step) to a process X_{0:T-1} (d coords per step) through one
(d*T) x (p*T) matrix L.  Partitioned at stride k, block (i, j) of L has
shape (d*k, p*k) and is zero for j > i, so each X_t depends only on noise
up to its own block.  CausalOperator stores L itself; blocks are views
into it, and a block grid is only an input format (from_blocks).
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInput

__all__ = [
    "SymMatrix",
    "require_psd",
    "trace_square",
    "CausalOperator",
]

#: relative tolerance of PSD checks
PSD_RTOL = 1e-10

#: relative tolerance under which two diagonal blocks count as identical
DIAG_BLOCK_RTOL = 1e-12


class SymMatrix:
    """Symmetric matrix wrapper; symmetrizes as (M + M^T)/2 on construction."""

    __slots__ = ("a",)

    def __init__(self, m):
        a = np.asarray(m, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise InvalidInput(f"SymMatrix input must be square, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise InvalidInput("SymMatrix input contains non-finite entries")
        self.a = 0.5 * (a + a.T)

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

    def is_psd(self) -> bool:
        lo, hi = self.eig_extremes()
        return lo >= -PSD_RTOL * max(hi, 1.0)

    def __array__(self, dtype=None, copy=None):
        if dtype is not None:
            return self.a.astype(dtype)
        return self.a


def require_psd(m, name: str = "matrix") -> np.ndarray:
    """Symmetrize and return the matrix, raising InvalidInput if not PSD."""
    sm = m if isinstance(m, SymMatrix) else SymMatrix(m)
    if not sm.is_psd():
        raise InvalidInput(f"{name} is not positive semidefinite within tolerance")
    return sm.a


def trace_square(m) -> float:
    """tr(M^2) for symmetric M, computed as the squared Frobenius norm."""
    a = m.a if isinstance(m, SymMatrix) else 0.5 * (np.asarray(m, float) + np.asarray(m, float).T)
    return float(np.sum(a * a))


class CausalOperator:
    """Block lower-triangular operator X_{0:T-1} = L W_{0:T-1}, stored as L.

    Parameters
    ----------
    d, p : int
        Process and noise dimension per time step.
    k : int
        Block stride (time steps per block).
    matrix : array, shape (d*T, p*T)
        The operator itself; T must be a multiple of k and every entry
        above the (d*k, p*k) block diagonal must be zero.  The array is
        kept as given (converted to float) and is the only copy of L; the
        operator holds it through a read-only view, so L cannot change
        under results computed from it.
    """

    def __init__(self, d: int, p: int, k: int, matrix):
        if d < 1 or p < 1 or k < 1:
            raise InvalidInput("d, p and k must be positive integers")
        self.d, self.p, self.k = int(d), int(p), int(k)
        m = np.asarray(matrix, dtype=float)
        rb, cb = self.d * self.k, self.p * self.k
        n = m.shape[0] // rb if m.ndim == 2 else 0
        if n == 0 or m.shape != (n * rb, n * cb):
            raise InvalidInput(f"matrix shape {m.shape} is not a square grid of {(rb, cb)} blocks")
        if not np.all(np.isfinite(m)):
            raise InvalidInput("operator matrix has non-finite entries")
        for i in range(n - 1):
            if np.any(m[i * rb : (i + 1) * rb, (i + 1) * cb :]):
                raise InvalidInput(f"block row {i} has nonzero entries above the diagonal")
        self._matrix = m.view()
        self._matrix.flags.writeable = False

    @classmethod
    def from_blocks(cls, d: int, p: int, k: int, blocks) -> "CausalOperator":
        """Operator from a block grid: ``blocks[i][j]`` is block (i, j), j <= i.

        Row i must hold exactly i+1 blocks of shape (d*k, p*k).
        """
        if d < 1 or p < 1 or k < 1:
            raise InvalidInput("d, p and k must be positive integers")
        rows = list(blocks)
        if not rows:
            raise InvalidInput("operator needs at least one block row")
        rb, cb = d * k, p * k
        out = np.zeros((rb * len(rows), cb * len(rows)))
        for i, row in enumerate(rows):
            row = [np.asarray(b, dtype=float) for b in row]
            if len(row) != i + 1:
                raise InvalidInput(f"block row {i} must hold {i + 1} blocks, got {len(row)}")
            for j, b in enumerate(row):
                if b.shape != (rb, cb):
                    raise InvalidInput(f"block ({i},{j}) has shape {b.shape}, expected {(rb, cb)}")
                if not np.all(np.isfinite(b)):
                    raise InvalidInput(f"block ({i},{j}) has non-finite entries")
                out[i * rb : (i + 1) * rb, j * cb : (j + 1) * cb] = b
        return cls(d, p, k, out)

    @property
    def n_blocks(self) -> int:
        return self._matrix.shape[0] // (self.d * self.k)

    @property
    def T(self) -> int:
        """Horizon covered by the operator (always a multiple of k)."""
        return self.n_blocks * self.k

    @classmethod
    def identity(cls, d: int, T: int, k: int = 1) -> "CausalOperator":
        """Operator of the iid process X_t = W_t (requires k | T)."""
        if T % k != 0:
            raise InvalidInput("identity operator needs k to divide T")
        return cls(d, d, k, np.eye(d * T))

    def dense(self) -> np.ndarray:
        """The (d*T) x (p*T) matrix L (the stored read-only array, not a copy)."""
        return self._matrix

    def block(self, i: int, j: int) -> np.ndarray:
        """Block (i, j), shape (d*k, p*k), as a view into the matrix."""
        rb, cb = self.d * self.k, self.p * self.k
        return self._matrix[i * rb : (i + 1) * rb, j * cb : (j + 1) * cb]

    def diag_block(self, j: int) -> np.ndarray:
        """Diagonal block L_{j,j}, shape (d*k, p*k)."""
        return self.block(j, j)

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

    def identical_diag_blocks(self) -> bool:
        """True when every diagonal block equals block (0, 0)."""
        first = self.diag_block(0)
        scale = max(float(np.max(np.abs(first))), 1e-300)
        return all(
            np.max(np.abs(self.diag_block(j) - first)) <= DIAG_BLOCK_RTOL * scale
            for j in range(1, self.n_blocks)
        )

