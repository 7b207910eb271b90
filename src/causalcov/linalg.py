"""Symmetric-matrix utilities and block lower-triangular causal operators.

A causal operator maps a driving noise vector W_{0:T-1} (stacked, p coords
per step) to a process X_{0:T-1} (d coords per step) through one
(d*T) x (p*T) matrix L.  Partitioned at stride k, block (i, j) of L has
shape (d*k, p*k) and is zero for j > i, so each X_t depends only on noise
up to its own block.  CausalOperator stores L itself; a block is a view
into it, the diagonal blocks come as one stacked view (diag_blocks), and a
block grid is only an input format (from_blocks).

The constructors hold every rule of an operator model, for the library and
config load alike; every public function reads integers, numbers and
matrices through check_int, check_number and finite_matrix (a vector as one row).
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

#: relative eigenvalue tolerance under which a covariance counts as singular
SINGULAR_RTOL = 1e-12


class SymMatrix:
    """Symmetric matrix wrapper of a finite square matrix m (finite_matrix; name
    labels its errors); symmetrizes as (M + M^T)/2 on construction."""

    __slots__ = ("a",)

    def __init__(self, m, name: str = "SymMatrix input"):
        a = finite_matrix(m, name)
        if a.shape[0] != a.shape[1]:
            raise InvalidInput(f"{name} must be square, got shape {a.shape}")
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


def finite_matrix(value, name: str) -> np.ndarray:
    """value as a float array, raising InvalidInput unless it is a finite 2-d
    matrix of integers or floats: strings and booleans are not numbers."""
    try:
        arr = np.asarray(value)
    except (TypeError, ValueError) as exc:
        raise InvalidInput(f"{name} is not a numeric matrix") from exc
    if arr.dtype.kind not in "iuf":
        raise InvalidInput(f"{name} is not a numeric matrix")
    arr = np.asarray(arr, dtype=float)
    if arr.ndim != 2 or not np.all(np.isfinite(arr)):
        raise InvalidInput(f"{name} must be a finite 2-d matrix")
    return arr


def nonsingular(lo: float, hi: float) -> bool:
    """Whether a covariance with extreme eigenvalues lo and hi is
    nonsingular: hi > 0 and lo > SINGULAR_RTOL * hi."""
    return bool(hi > 0 and lo > SINGULAR_RTOL * hi)


def check_int(value, name: str, minimum: int | None = 1) -> int:
    """value as an int; InvalidInput unless it is an integer (NumPy's too, not
    a boolean or a float) of at least minimum."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InvalidInput(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise InvalidInput(f"{name} must be >= {minimum}, got {value}")
    return int(value)


def check_number(value, name: str) -> float:
    """value as a float; InvalidInput unless it is an int or a float (NumPy's too)."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise InvalidInput(f"{name} must be a number, got {value!r}")
    return float(value)


def require_psd(m, name: str = "matrix") -> np.ndarray:
    """Symmetrize and return the matrix (SymMatrix), raising InvalidInput if not PSD."""
    sm = m if isinstance(m, SymMatrix) else SymMatrix(m, name)
    if not sm.is_psd():
        raise InvalidInput(f"{name} is not positive semidefinite within tolerance")
    return sm.a


def trace_square(m) -> float:
    """tr(M^2) for M symmetrized by SymMatrix, as the squared Frobenius norm."""
    a = (m if isinstance(m, SymMatrix) else SymMatrix(m)).a
    return float(np.sum(a * a))


def _is_list(value) -> bool:
    return isinstance(value, (list, tuple)) or (isinstance(value, np.ndarray) and value.ndim > 0)


class CausalOperator:
    """Block lower-triangular operator X_{0:T-1} = L W_{0:T-1}, stored as L.

    Parameters
    ----------
    d, p : int
        Process and noise dimension per time step.
    k : int
        Block stride (time steps per block); d, p and k are integers >= 1.
    matrix : array, shape (d*T, p*T)
        The operator itself; T must be a multiple of k and every entry
        above the (d*k, p*k) block diagonal must be zero, and the energy
        2 * T * ||L||_F^2 must be a finite float.  The array is
        kept as given (converted to float) and is the only copy of L; the
        operator holds it through a read-only view, so L cannot change
        under results computed from it.
    """

    def __init__(self, d: int, p: int, k: int, matrix):
        self.d, self.p, self.k = check_int(d, "d"), check_int(p, "p"), check_int(k, "k")
        m = finite_matrix(matrix, "operator matrix")
        rb, cb = self.d * self.k, self.p * self.k
        n = m.shape[0] // rb
        if n == 0 or m.shape != (n * rb, n * cb):
            raise InvalidInput(f"matrix shape {m.shape} is not a square grid of {(rb, cb)} blocks")
        for i in range(n - 1):
            if np.any(m[i * rb : (i + 1) * rb, (i + 1) * cb :]):
                raise InvalidInput(f"block row {i} has nonzero entries above the diagonal")
        with np.errstate(over="ignore"):
            energy = 2.0 * n * self.k * float(np.vdot(m, m))
        if not np.isfinite(energy):
            raise InvalidInput(
                f"operator model overflows: 2 * T' * ||L||_F^2 (T' = {n * self.k}) is not "
                "a finite float, so the process covariances are not finite"
            )
        self._matrix = m.view()
        self._matrix.flags.writeable = False

    @classmethod
    def from_blocks(cls, d: int, p: int, k: int, blocks) -> "CausalOperator":
        """Operator from a block grid: ``blocks[i][j]`` is block (i, j), j <= i.

        Row i must hold exactly i+1 blocks of shape (d*k, p*k).
        """
        d, p, k = check_int(d, "d"), check_int(p, "p"), check_int(k, "k")
        if not _is_list(blocks) or not len(blocks):
            raise InvalidInput("blocks must be a non-empty list of rows")
        rb, cb = d * k, p * k
        rows = []
        for i, row in enumerate(blocks):
            if not _is_list(row):
                raise InvalidInput(f"blocks[{i}] must be a list of matrices")
            row = [finite_matrix(b, f"blocks[{i}][{j}]") for j, b in enumerate(row)]
            if len(row) != i + 1:
                raise InvalidInput(f"block row {i} must hold {i + 1} blocks, got {len(row)}")
            for j, b in enumerate(row):
                if b.shape != (rb, cb):
                    raise InvalidInput(f"block ({i},{j}) has shape {b.shape}, expected {(rb, cb)}")
            rows.append(row)
        out = np.zeros((rb * len(rows), cb * len(rows)))
        for i, row in enumerate(rows):
            for j, b in enumerate(row):
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
        """Operator of the iid process X_t = W_t (integers d, T, k >= 1, k | T)."""
        d, T, k = check_int(d, "d"), check_int(T, "T"), check_int(k, "k")
        if T % k != 0:
            raise InvalidInput("identity operator needs k to divide T")
        return cls(d, d, k, np.eye(d * T))

    def dense(self) -> np.ndarray:
        """The (d*T) x (p*T) matrix L (the stored read-only array, not a copy)."""
        return self._matrix

    def block(self, i: int, j: int) -> np.ndarray:
        """Block (i, j), 0 <= i, j < n_blocks, as a (d*k, p*k) view into the matrix."""
        n = self.n_blocks
        for name, index in (("i", i), ("j", j)):
            if check_int(index, name, minimum=0) >= n:
                raise InvalidInput(f"{name} must be < {n} (the block count), got {index}")
        rb, cb = self.d * self.k, self.p * self.k
        return self._matrix[i * rb : (i + 1) * rb, j * cb : (j + 1) * cb]

    def diag_blocks(self) -> np.ndarray:
        """The diagonal blocks L_{j,j} as one stack, shape (n_blocks, d*k, p*k):
        a read-only view into the matrix, each block with the strides of
        block(j, j)."""
        n = self.n_blocks
        grid = self._matrix.reshape(n, self.d * self.k, n, self.p * self.k)
        return np.moveaxis(np.diagonal(grid, axis1=0, axis2=2), -1, 0)

    def identical_diag_blocks(self) -> bool:
        """True when every diagonal block equals block (0, 0)."""
        stack = self.diag_blocks()
        scale = max(float(np.max(np.abs(stack[0]))), 1e-300)
        return bool(np.max(np.abs(stack - stack[0])) <= DIAG_BLOCK_RTOL * scale)
