"""The ``reference`` backend: scipy/numpy, bit-identical by construction.

This is the pre-registry kernel code of ``tensor/sparse.py`` and
``graph/inc_laplacian.py`` moved behind the :class:`KernelBackend`
surface — not reimplemented, *ported*, so its outputs define the
conformance contract every other backend is tested against.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse._sparsetools import csr_row_index

from repro.tensor.backend.base import KERNEL_NAMES, KernelBackend

__all__ = ["ReferenceBackend"]


def _row_slice(csr: sp.csr_matrix, rows: np.ndarray) -> sp.csr_matrix:
    """``csr[rows]`` for an integer row array: the C kernel scipy's
    fancy row index ends in (``csr_row_index``: same kernel, same entry
    order, bit-identical output), without the index normalization and
    constructor re-scan that cost several times the copy on a small
    slice."""
    idx = np.result_type(csr.indptr, csr.indices)
    indptr = csr.indptr.astype(idx, copy=False)
    rows = np.asarray(rows, dtype=idx).reshape(-1)
    if len(rows) and (rows.min() < 0 or rows.max() >= csr.shape[0]):
        raise IndexError(f"row index out of range for {csr.shape[0]} rows")
    out_indptr = np.zeros(len(rows) + 1, dtype=idx)
    np.cumsum(indptr[rows + 1] - indptr[rows], out=out_indptr[1:])
    nnz = int(out_indptr[-1])
    out_indices = np.empty(nnz, dtype=idx)
    out_data = np.empty(nnz, dtype=csr.data.dtype)
    csr_row_index(len(rows), rows, indptr,
                  csr.indices.astype(idx, copy=False), csr.data,
                  out_indices, out_data)
    sub = sp.csr_matrix.__new__(sp.csr_matrix)
    sub.data, sub.indices, sub.indptr = out_data, out_indices, out_indptr
    sub._shape = (len(rows), csr.shape[1])
    return sub


class ReferenceBackend(KernelBackend):
    """scipy/numpy kernels — the conformance oracle."""

    name = "reference"
    exact = frozenset(KERNEL_NAMES)  # it *is* the reference

    # -- SpMM family -------------------------------------------------------------
    def spmm(self, csr: sp.csr_matrix, x: np.ndarray) -> np.ndarray:
        return csr @ x

    def spmm_rows(self, csr: sp.csr_matrix, rows: np.ndarray,
                  x: np.ndarray) -> tuple[np.ndarray, object]:
        # CSR row extraction preserves each row's entry order, so the
        # per-row accumulation in the multiply matches the full product
        # bit-for-bit; the sliced matrix rides along as ctx so a
        # backward pass reuses it instead of re-slicing
        sub = _row_slice(csr, rows)
        return sub @ x, sub

    def spmm_rows_t(self, csr: sp.csr_matrix, rows: np.ndarray,
                    g: np.ndarray, ctx: object = None) -> np.ndarray:
        sub = ctx if ctx is not None else _row_slice(csr, rows)
        return sub.T @ g

    # -- structure ---------------------------------------------------------------
    def transpose(self, csr: sp.csr_matrix) -> sp.csr_matrix:
        return csr.T.tocsr()

    def row_slice(self, csr: sp.csr_matrix, rows: np.ndarray
                  ) -> sp.csr_matrix:
        return _row_slice(csr, rows)

    # -- maintainer primitives ---------------------------------------------------
    def degree_counts(self, vertices: np.ndarray, n: int) -> np.ndarray:
        return np.bincount(vertices, minlength=n)

    def splice_delete(self, arrays: tuple[np.ndarray, ...],
                      pos: np.ndarray) -> tuple[np.ndarray, ...]:
        keep = np.ones(len(arrays[0]), dtype=bool)
        keep[pos] = False
        return tuple(a[keep] for a in arrays)

    def splice_insert(self, arrays: tuple[np.ndarray, ...],
                      ins: np.ndarray,
                      extras: tuple[np.ndarray, ...]
                      ) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
        k = len(ins)
        new_pos = ins + np.arange(k, dtype=np.int64)
        mask = np.ones(len(arrays[0]) + k, dtype=bool)
        mask[new_pos] = False
        merged = []
        for a, extra in zip(arrays, extras):
            out = np.empty(len(a) + k, dtype=a.dtype)
            out[mask] = a
            out[new_pos] = extra
            merged.append(out)
        return tuple(merged), new_pos

    def rescale(self, data: np.ndarray, w: np.ndarray, cols: np.ndarray,
                indptr: np.ndarray, pos: np.ndarray,
                dinv: np.ndarray) -> None:
        # duplicates in pos are harmless: every write recomputes the
        # same exact expression of the full build, (w · dinv_u) · dinv_v
        pos_rows = np.searchsorted(indptr, pos, side="right") - 1
        data[pos] = (w[pos] * dinv[pos_rows]) * dinv[cols[pos]]
