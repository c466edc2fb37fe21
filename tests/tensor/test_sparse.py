"""Tests for SparseMatrix and the differentiable spmm kernels."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from repro.errors import ShapeError
from repro.tensor import Tensor
from repro.tensor.sparse import (INDEX_BYTES, VALUE_BYTES, SparseMatrix,
                                 spmm, spmm_rows)
from tests.helpers import all_backends_fixture, check_gradients

# every test in this module runs once per available kernel backend
kernel_backend = all_backends_fixture()


def random_sparse(n, m, density=0.3, seed=0):
    return SparseMatrix(sp.random(n, m, density=density, random_state=seed,
                                  dtype=np.float64))


class TestSparseMatrix:
    def test_from_dense(self):
        dense = np.array([[1.0, 0.0], [0.0, 2.0]])
        s = SparseMatrix(dense)
        assert s.nnz == 2
        assert s.shape == (2, 2)

    def test_from_scipy_coo(self):
        coo = sp.coo_matrix(([1.0], ([0], [1])), shape=(2, 2))
        s = SparseMatrix(coo)
        assert s.csr.format == "csr"

    def test_duplicates_summed(self):
        coo = sp.coo_matrix(([1.0, 2.0], ([0, 0], [1, 1])), shape=(2, 2))
        s = SparseMatrix(coo)
        assert s.nnz == 1
        assert s.csr[0, 1] == 3.0

    def test_wrap_sparsematrix(self):
        s = random_sparse(3, 3)
        s2 = SparseMatrix(s)
        assert s2.csr is s.csr

    def test_transpose(self):
        s = random_sparse(3, 5, seed=2)
        st_ = s.T
        assert st_.shape == (5, 3)
        np.testing.assert_allclose(st_.csr.toarray(), s.csr.toarray().T)

    def test_coo_edges_sorted_lexicographically(self):
        edges = np.array([[2, 1], [0, 3], [0, 1], [2, 0]])
        s = SparseMatrix.from_edges(edges, None, (4, 4))
        out = s.coo_edges()
        assert (np.lexsort((out[:, 1], out[:, 0])) == np.arange(len(out))).all()
        assert set(map(tuple, out)) == set(map(tuple, edges))

    def test_byte_accounting(self):
        s = random_sparse(10, 10, density=0.2, seed=3)
        assert s.index_nbytes == 2 * INDEX_BYTES * s.nnz
        assert s.value_nbytes == VALUE_BYTES * s.nnz
        assert s.nbytes == s.index_nbytes + s.value_nbytes

    def test_from_edges_default_values(self):
        edges = np.array([[0, 1], [1, 2]])
        s = SparseMatrix.from_edges(edges, None, (3, 3))
        np.testing.assert_array_equal(s.csr.toarray()[[0, 1], [1, 2]],
                                      [1.0, 1.0])


class TestSpMM:
    def test_forward_matches_scipy(self):
        s = random_sparse(6, 4, seed=1)
        x = Tensor(np.random.default_rng(0).normal(size=(4, 3)))
        out = spmm(s, x)
        np.testing.assert_allclose(out.data, s.csr @ x.data)

    def test_gradient(self):
        s = random_sparse(5, 5, density=0.4, seed=7)
        x = Tensor(np.random.default_rng(1).normal(size=(5, 2)),
                   requires_grad=True)
        check_gradients(lambda: spmm(s, x).sum(), [x])

    def test_gradient_weighted_output(self):
        s = random_sparse(5, 5, density=0.4, seed=9)
        w = np.random.default_rng(2).normal(size=(5, 2))
        x = Tensor(np.random.default_rng(3).normal(size=(5, 2)),
                   requires_grad=True)
        check_gradients(lambda: (spmm(s, x) * w).sum(), [x])

    def test_shape_mismatch(self):
        s = random_sparse(3, 4)
        with pytest.raises(ShapeError):
            spmm(s, Tensor(np.zeros((3, 2))))

    def test_requires_2d(self):
        s = random_sparse(3, 3)
        with pytest.raises(ShapeError):
            spmm(s, Tensor(np.zeros(3)))

    @given(st.integers(2, 8), st.integers(1, 4))
    @settings(max_examples=20, deadline=None)
    def test_identity_spmm_is_identity(self, n, f):
        s = SparseMatrix(sp.eye(n, format="csr"))
        x = Tensor(np.random.default_rng(n * 10 + f).normal(size=(n, f)))
        np.testing.assert_allclose(spmm(s, x).data, x.data)

    @given(st.integers(2, 6))
    @settings(max_examples=15, deadline=None)
    def test_spmm_linearity(self, n):
        s = random_sparse(n, n, density=0.5, seed=n)
        g = np.random.default_rng(n)
        x = Tensor(g.normal(size=(n, 2)))
        y = Tensor(g.normal(size=(n, 2)))
        left = spmm(s, x + y).data
        right = (spmm(s, x) + spmm(s, y)).data
        np.testing.assert_allclose(left, right, atol=1e-12)


class TestCachedTranspose:
    def test_transpose_built_at_most_once(self):
        """Regression: spmm used to rebuild ``csr.T.tocsr()`` on every
        call; the cached transpose must be materialized at most once
        per matrix however many forward/backward passes reuse it."""
        s = random_sparse(6, 6, density=0.4, seed=11)
        assert s.transpose_builds == 0
        for i in range(5):
            x = Tensor(np.random.default_rng(i).normal(size=(6, 2)),
                       requires_grad=True)
            spmm(s, x).sum().backward()
        assert s.transpose_builds == 1
        s.T  # explicit transposes reuse the same cache
        s.transpose()
        assert s.transpose_builds == 1

    def test_transpose_lazy_without_backward(self):
        s = random_sparse(4, 4, seed=3)
        spmm(s, Tensor(np.zeros((4, 2))))
        assert s.transpose_builds == 0  # forward-only: never built

    def test_transpose_of_transpose_shares_cache(self):
        s = random_sparse(3, 5, seed=2)
        t = s.T
        assert t.transposed_csr() is s.csr
        np.testing.assert_allclose(t.csr.toarray(), s.csr.toarray().T)

    def test_wrap_shares_cache(self):
        s = random_sparse(4, 4, seed=5)
        s.transposed_csr()
        s2 = SparseMatrix(s)
        assert s2.transposed_csr() is s.transposed_csr()
        # the build count travels with the cache: a copy that inherits
        # a built transpose reports that build instead of undercounting
        assert s2.transpose_builds == 1

    def test_wrap_carries_build_count_before_build(self):
        s = random_sparse(4, 4, seed=5)
        s2 = SparseMatrix(s)  # nothing built yet
        assert s2.transpose_builds == 0
        s2.transposed_csr()
        assert s2.transpose_builds == 1


class TestSpmmRows:
    def test_rows_bitwise_equal_full_product(self):
        s = random_sparse(20, 20, density=0.3, seed=4)
        x = np.random.default_rng(0).normal(size=(20, 5))
        rows = np.array([0, 3, 7, 19])
        full = spmm(s, Tensor(x)).data
        sliced = spmm_rows(s, Tensor(x), rows).data
        # same per-row accumulation order: bit-identical, not just close
        np.testing.assert_array_equal(sliced, full[rows])

    def test_row_slice_matches_scipy(self):
        s = random_sparse(10, 10, density=0.3, seed=8)
        rows = np.array([2, 2, 5])  # duplicates allowed, order kept
        np.testing.assert_allclose(s.row_slice(rows).toarray(),
                                   s.csr[rows].toarray())

    def test_gradient(self):
        s = random_sparse(6, 6, density=0.4, seed=13)
        rows = np.array([1, 4, 5])
        x = Tensor(np.random.default_rng(5).normal(size=(6, 3)),
                   requires_grad=True)
        check_gradients(lambda: spmm_rows(s, x, rows).sum(), [x])

    def test_gradient_scatters_through_slice(self):
        """dL/dX must equal S.T @ scatter(g): rows not requested get
        gradient only through the sliced operator."""
        s = random_sparse(5, 5, density=0.5, seed=17)
        rows = np.array([0, 2])
        x = Tensor(np.random.default_rng(7).normal(size=(5, 2)),
                   requires_grad=True)
        out = spmm_rows(s, x, rows)
        out.sum().backward()
        g_full = np.zeros((5, 2))
        g_full[rows] = 1.0
        expected = s.csr.toarray().T @ g_full
        np.testing.assert_allclose(x.grad, expected, atol=1e-12)

    def test_empty_rows(self):
        s = random_sparse(4, 4, seed=1)
        out = spmm_rows(s, Tensor(np.ones((4, 2))),
                        np.empty(0, dtype=np.int64))
        assert out.data.shape == (0, 2)

    def test_out_of_range_rows_rejected(self):
        s = random_sparse(3, 3)
        with pytest.raises(ShapeError):
            spmm_rows(s, Tensor(np.zeros((3, 2))), np.array([3]))
        with pytest.raises(ShapeError):
            spmm_rows(s, Tensor(np.zeros((3, 2))), np.array([-1]))

    def test_shape_mismatch(self):
        s = random_sparse(3, 4)
        with pytest.raises(ShapeError):
            spmm_rows(s, Tensor(np.zeros((3, 2))), np.array([0]))
