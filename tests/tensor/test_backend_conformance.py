"""The conformance contract, kernel by kernel.

Every *available* backend is checked against the reference backend on
every kernel of :data:`~repro.tensor.backend.KERNEL_NAMES`, across both
CSR index dtypes (scipy emits int32 below the int32 nnz limit; the
store/exec tiers hand the kernels int64):

* kernels a backend declares in ``exact`` must be **bit-identical**
  (``array_equal``) to reference;
* everything else must agree elementwise within 1e-12.

tests/graph/test_inc_laplacian.py doubles as the end-to-end conformance
suite for the maintainer primitives (it is parametrized over all
backends and asserts divergence 0.0 against full rebuilds); this module
pins the primitive-level contract directly.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.tensor.backend import (KERNEL_NAMES, available_backends,
                                  get_backend)

INDEX_DTYPES = (np.int32, np.int64)


def _csr(n=400, m=300, density=0.02, seed=0, index_dtype=np.int64):
    csr = sp.random(n, m, density=density, random_state=seed,
                    dtype=np.float64).tocsr()
    csr.sort_indices()
    csr.indptr = csr.indptr.astype(index_dtype)
    csr.indices = csr.indices.astype(index_dtype)
    return csr


def _rows(n, seed=1):
    rng = np.random.default_rng(seed)
    # unsorted on purpose: the serving frontier arrives sorted, but the
    # kernel contract does not require it
    return rng.permutation(n)[:max(1, n // 5)].astype(np.int64)


def _assert_matches(kb, kernel, got, want):
    if kernel in kb.exact:
        np.testing.assert_array_equal(got, want)
    else:
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)


@pytest.fixture(params=available_backends())
def kb(request):
    return get_backend(request.param)


def test_kernel_names_cover_the_surface():
    assert set(KERNEL_NAMES) == {
        "spmm", "spmm_rows", "spmm_rows_t", "transpose", "row_slice",
        "degree_counts", "splice_delete", "splice_insert", "rescale"}


@pytest.mark.parametrize("index_dtype", INDEX_DTYPES)
def test_spmm(kb, index_dtype):
    ref = get_backend("reference")
    csr = _csr(index_dtype=index_dtype)
    x = np.random.default_rng(2).standard_normal((csr.shape[1], 7))
    _assert_matches(kb, "spmm", kb.spmm(csr, x), ref.spmm(csr, x))


@pytest.mark.parametrize("index_dtype", INDEX_DTYPES)
def test_spmm_rows_and_backward(kb, index_dtype):
    ref = get_backend("reference")
    csr = _csr(index_dtype=index_dtype)
    rows = _rows(csr.shape[0])
    x = np.random.default_rng(3).standard_normal((csr.shape[1], 5))
    g = np.random.default_rng(4).standard_normal((len(rows), 5))

    out, ctx = kb.spmm_rows(csr, rows, x)
    want, ref_ctx = ref.spmm_rows(csr, rows, x)
    _assert_matches(kb, "spmm_rows", out, want)

    bwd = kb.spmm_rows_t(csr, rows, g, ctx)
    want_bwd = ref.spmm_rows_t(csr, rows, g, ref_ctx)
    _assert_matches(kb, "spmm_rows_t", bwd, want_bwd)
    # the ctx-free path must agree with the ctx path
    _assert_matches(kb, "spmm_rows_t", kb.spmm_rows_t(csr, rows, g, None),
                    bwd)


@pytest.mark.parametrize("index_dtype", INDEX_DTYPES)
def test_transpose_and_row_slice(kb, index_dtype):
    ref = get_backend("reference")
    csr = _csr(index_dtype=index_dtype)
    got_t, want_t = kb.transpose(csr), ref.transpose(csr)
    np.testing.assert_array_equal(got_t.indptr, want_t.indptr)
    np.testing.assert_array_equal(got_t.indices, want_t.indices)
    np.testing.assert_array_equal(got_t.data, want_t.data)

    rows = _rows(csr.shape[0], seed=5)
    got_s, want_s = kb.row_slice(csr, rows), ref.row_slice(csr, rows)
    np.testing.assert_array_equal(got_s.indptr, want_s.indptr)
    np.testing.assert_array_equal(got_s.indices, want_s.indices)
    np.testing.assert_array_equal(got_s.data, want_s.data)


@pytest.mark.parametrize("index_dtype", INDEX_DTYPES)
@pytest.mark.parametrize("rows", ["perm", "dup", "empty", "one"])
def test_reference_row_slice_is_scipys(index_dtype, rows):
    """The reference backend calls scipy's row-gather kernel directly;
    its slice, products and backward equal scipy's ``csr[rows]`` path
    bit for bit — duplicated rows, empty CSR rows and an empty
    selection included — and an out-of-range row raises."""
    ref = get_backend("reference")
    csr = _csr(density=0.005, index_dtype=index_dtype)  # some rows empty
    assert (np.diff(csr.indptr) == 0).any()
    rows = {"perm": _rows(csr.shape[0], seed=7),
            "dup": np.array([3, 3, 0, 399, 3], dtype=np.int64),
            "empty": np.empty(0, dtype=np.int64),
            "one": np.array([17], dtype=np.int64)}[rows]
    want = csr[rows]
    got = ref.row_slice(csr, rows)
    assert got.shape == want.shape
    for name in ("indptr", "indices", "data"):
        np.testing.assert_array_equal(getattr(got, name),
                                      getattr(want, name))
    x = np.random.default_rng(8).standard_normal((csr.shape[1], 4))
    g = np.random.default_rng(9).standard_normal((len(rows), 4))
    out, ctx = ref.spmm_rows(csr, rows, x)
    np.testing.assert_array_equal(out, want @ x)
    np.testing.assert_array_equal(ref.spmm_rows_t(csr, rows, g, ctx),
                                  want.T @ g)
    np.testing.assert_array_equal(ref.spmm_rows_t(csr, rows, g),
                                  want.T @ g)
    with pytest.raises(IndexError):
        ref.row_slice(csr, np.array([0, csr.shape[0]]))
    with pytest.raises(IndexError):
        ref.row_slice(csr, np.array([-1]))


def test_degree_counts(kb):
    ref = get_backend("reference")
    vertices = np.random.default_rng(6).integers(0, 50, size=300)
    np.testing.assert_array_equal(kb.degree_counts(vertices, 50),
                                  ref.degree_counts(vertices, 50))


def test_splice_delete_and_insert(kb):
    ref = get_backend("reference")
    rng = np.random.default_rng(7)
    keys = np.sort(rng.choice(10_000, size=200, replace=False))
    arrays = (keys, rng.standard_normal(200), rng.standard_normal(200),
              rng.integers(0, 100, size=200))

    pos = np.sort(rng.choice(200, size=40, replace=False))
    got = kb.splice_delete(arrays, pos)
    want = ref.splice_delete(arrays, pos)
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w)

    new_keys = np.sort(rng.choice(
        np.setdiff1d(np.arange(10_000), keys), size=30, replace=False))
    ins = np.searchsorted(keys, new_keys).astype(np.int64)
    extras = (new_keys, rng.standard_normal(30), np.zeros(30),
              rng.integers(0, 100, size=30))
    got_arrays, got_pos = kb.splice_insert(arrays, ins, extras)
    want_arrays, want_pos = ref.splice_insert(arrays, ins, extras)
    np.testing.assert_array_equal(got_pos, want_pos)
    for g, w in zip(got_arrays, want_arrays):
        np.testing.assert_array_equal(g, w)
    # the merged key stream is sorted with the new entries at new_pos
    np.testing.assert_array_equal(np.sort(got_arrays[0]), got_arrays[0])
    np.testing.assert_array_equal(got_arrays[0][got_pos], new_keys)


@pytest.mark.parametrize("index_dtype", INDEX_DTYPES)
def test_rescale(kb, index_dtype):
    ref = get_backend("reference")
    csr = _csr(n=100, m=100, density=0.05, seed=8,
               index_dtype=index_dtype)
    rng = np.random.default_rng(9)
    w = rng.standard_normal(csr.nnz)
    dinv = rng.standard_normal(100) ** 2 + 0.1
    pos = np.sort(rng.choice(csr.nnz, size=csr.nnz // 3, replace=False))

    got = csr.data.copy()
    kb.rescale(got, w, csr.indices.astype(np.int64), csr.indptr, pos,
               dinv)
    want = csr.data.copy()
    ref.rescale(want, w, csr.indices.astype(np.int64), csr.indptr, pos,
                dinv)
    np.testing.assert_array_equal(got, want)
    # untouched positions keep their original bits
    keep = np.ones(csr.nnz, dtype=bool)
    keep[pos] = False
    np.testing.assert_array_equal(got[keep], csr.data[keep])
