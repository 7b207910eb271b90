"""Symmetric-matrix helpers and the block-causal operator container."""

import numpy as np
import pytest

from causalcov import (
    CausalOperator,
    InvalidInput,
    SymMatrix,
    block_trace_sums,
    require_psd,
    trace_square,
)
from conftest import random_operator


class TestSymMatrix:
    def test_symmetrizes(self, rng):
        a = rng.standard_normal((4, 4))
        s = np.asarray(SymMatrix(a))
        assert np.allclose(s, s.T)
        assert np.allclose(s, 0.5 * (a + a.T))

    def test_eig_extremes_match_numpy(self, rng):
        a = rng.standard_normal((5, 5))
        s = SymMatrix(a)
        w = np.linalg.eigvalsh(np.asarray(s))
        lo, hi = s.eig_extremes()
        assert lo == pytest.approx(w[0], rel=1e-12)
        assert hi == pytest.approx(w[-1], rel=1e-12)

    def test_is_psd_tolerates_roundoff(self):
        eps = -1e-13
        m = np.diag([1.0, eps])
        assert SymMatrix(m).is_psd()
        assert not SymMatrix(np.diag([1.0, -1e-3])).is_psd()

    def test_rejects_nonsquare(self):
        with pytest.raises(InvalidInput):
            SymMatrix(np.ones((2, 3)))


def test_psd_check_and_require(rng):
    q = rng.standard_normal((3, 3))
    psd = q @ q.T
    assert SymMatrix(psd).is_psd()
    assert not SymMatrix(psd - 2.0 * np.trace(psd) * np.eye(3)).is_psd()
    out = require_psd(psd, "gram")
    assert np.allclose(out, 0.5 * (psd + psd.T))
    with pytest.raises(InvalidInput, match="gram"):
        require_psd(-np.eye(2), "gram")


def test_trace_square_matches_explicit(rng):
    a = rng.standard_normal((6, 6))
    sym = 0.5 * (a + a.T)
    assert trace_square(a) == pytest.approx(np.trace(sym @ sym), rel=1e-12)
    # PSD case: equals the sum of squared eigenvalues
    p = a @ a.T
    assert trace_square(p) == pytest.approx((np.linalg.eigvalsh(p) ** 2).sum(), rel=1e-10)


class TestCausalOperator:
    def test_validates_block_shapes(self):
        with pytest.raises(InvalidInput, match="shape"):
            CausalOperator.from_blocks(1, 1, 1, [[np.eye(2)]])  # wrong block size
        with pytest.raises(InvalidInput, match="must hold 2 blocks"):
            CausalOperator.from_blocks(1, 1, 1, [[np.eye(1)], [np.eye(1)]])  # short row
        with pytest.raises(InvalidInput, match=r"blocks\[0\]\[0\] must be a finite 2-d matrix"):
            CausalOperator.from_blocks(1, 1, 1, [[np.array([[np.nan]])]])
        # the matrix constructor: causality, a whole block grid, finiteness
        lower = np.tril(np.ones((6, 6)))
        assert CausalOperator(1, 1, 2, lower).T == 6
        upper = lower.copy()
        upper[2, 4] = 1e-300
        with pytest.raises(InvalidInput, match="block row 1 has nonzero"):
            CausalOperator(1, 1, 2, upper)
        # entries above the time diagonal but inside a diagonal block are causal
        inside = lower.copy()
        inside[2, 3] = 1.0
        assert CausalOperator(1, 1, 2, inside).block(1, 1)[0, 1] == 1.0
        for shape in ((6, 4), (5, 5), (0, 0)):
            with pytest.raises(InvalidInput, match="grid"):
                CausalOperator(1, 1, 2, np.zeros(shape))
        nan = lower.copy()
        nan[5, 0] = np.nan
        for bad in (np.zeros(6), nan):
            with pytest.raises(InvalidInput, match="operator matrix must be a finite 2-d matrix"):
                CausalOperator(1, 1, 2, bad)
        with pytest.raises(InvalidInput, match="operator matrix is not a numeric matrix"):
            CausalOperator(1, 1, 1, [["x"]])
        with pytest.raises(InvalidInput, match=r"^p must be >= 1, got 0$"):
            CausalOperator(1, 0, 2, lower)

    def test_stored_matrix_is_read_only(self, rng):
        lower = np.tril(rng.standard_normal((4, 4)))
        op = CausalOperator(1, 1, 1, lower)
        assert op.dense() is op.dense()
        with pytest.raises(ValueError):
            op.dense()[1, 0] = 0.0
        with pytest.raises(ValueError):
            op.block(1, 1)[...] = 0.0
        assert np.array_equal(op.dense(), lower)

    def test_identity_roundtrip(self):
        op = CausalOperator.identity(2, 6, k=2)
        assert op.d == 2 and op.p == 2 and op.k == 2
        assert op.T == 6 and op.n_blocks == 3
        assert np.allclose(op.dense(), np.eye(12))

    def test_from_blocks_layout(self, rng):
        blocks = [[rng.standard_normal((4, 2)) for _ in range(i + 1)] for i in range(3)]
        op = CausalOperator.from_blocks(2, 1, 2, blocks)
        dense = op.dense()
        assert dense.shape == (2 * 6, 1 * 6)
        for i in range(3):
            for j in range(3):
                sub = dense[i * 4 : (i + 1) * 4, j * 2 : (j + 1) * 2]
                assert np.shares_memory(op.block(i, j), dense)
                assert np.array_equal(op.block(i, j), sub)
                if j > i:
                    assert np.all(sub == 0.0)
                else:
                    assert np.array_equal(sub, blocks[i][j])
        assert op.dense() is dense

    @pytest.mark.parametrize("d, p, k, n_blocks", [(1, 1, 1, 1), (1, 2, 3, 4), (2, 3, 2, 4), (3, 1, 2, 2)])
    def test_diag_blocks_stack_the_diagonal(self, rng, d, p, k, n_blocks):
        op = random_operator(rng, d=d, p=p, k=k, n_blocks=n_blocks)
        stack = op.diag_blocks()
        expected = np.stack([op.block(j, j) for j in range(n_blocks)])
        assert stack.shape == (n_blocks, d * k, p * k)
        assert stack.dtype == expected.dtype and stack.tobytes() == expected.tobytes()
        assert not stack.flags.writeable
        # a view with each block's own strides: products over the stack run
        # the arithmetic of the same products over block(j, j)
        assert np.shares_memory(stack, op.dense())
        assert stack.strides[1:] == op.block(0, 0).strides

    def test_block_trace_sums_rank_one_weight(self, rng):
        # D = v v^T: tr(Q_j) is sum_tau (v^T R_tau)(R_tau^T v), R_tau the
        # tau-th d-row slice of block (j, j)
        op = random_operator(rng, d=2, p=3, k=2, n_blocks=4)
        v = rng.standard_normal(2)
        big_d = np.kron(np.eye(2), np.outer(v, v))  # block-diagonal over the k times
        grams = [op.block(j, j).T @ big_d @ op.block(j, j) for j in range(4)]
        s1, s2 = block_trace_sums(op, np.outer(v, v))
        energy = sum(
            float(v @ rows[t] @ rows[t].T @ v)
            for rows in (op.block(j, j).reshape(2, 2, 6) for j in range(4))
            for t in range(2)
        )
        assert s1 == pytest.approx(energy, rel=1e-12)
        assert s2 == pytest.approx(sum(np.trace(g @ g) for g in grams), rel=1e-12)

    def test_block_trace_sums_match_blockdiag_product(self, rng):
        op = random_operator(rng, d=2, p=2, k=3, n_blocks=3)
        d_mat = rng.standard_normal((2, 2))
        d_mat = d_mat @ d_mat.T
        big_d = np.kron(np.eye(3), d_mat)  # block-diagonal over the k times
        grams = [op.block(j, j).T @ big_d @ op.block(j, j) for j in range(3)]
        s1, s2 = block_trace_sums(op, d_mat)
        assert s1 == pytest.approx(sum(np.trace(g) for g in grams), rel=1e-12)
        assert s2 == pytest.approx(sum(np.trace(g @ g) for g in grams), rel=1e-12)
        with pytest.raises(InvalidInput, match="weight matrix must be 2 x 2"):
            block_trace_sums(op, np.eye(3))

    def test_identical_diag_blocks_detection(self, rng):
        same = np.eye(2)
        op = CausalOperator.from_blocks(
            1, 1, 2, [[same], [rng.standard_normal((2, 2)), same.copy()]]
        )
        assert op.identical_diag_blocks()
        op2 = CausalOperator.from_blocks(1, 1, 2, [[same], [np.zeros((2, 2)), same + 1e-3]])
        assert not op2.identical_diag_blocks()
