"""Sparse matrices and the differentiable SpMM kernel.

The dynamic-GNN workload multiplies a *fixed* sparse graph operator (the
normalized Laplacian, paper Eq. 1) with dense feature matrices (Eq. 2).
Gradients are therefore needed only with respect to the dense operand:

    Y = S @ X        =>      dL/dX = S.T @ dL/dY

``SparseMatrix`` wraps a ``scipy.sparse.csr_matrix`` and additionally
exposes the byte accounting needed by the CPU→GPU transfer model (index
bytes vs value bytes are tracked separately because the graph-difference
technique of paper §3.2 saves *index* bytes only).

The kernels themselves (SpMM, fused row-sliced SpMM, transpose
materialization, row slicing) run on a pluggable
:class:`~repro.tensor.backend.KernelBackend`.  A matrix is pinned to
one backend at construction (kwarg > ``REPRO_KERNEL_BACKEND`` env >
``reference``); passing a *different* explicit ``backend=`` to a kernel
raises :class:`~repro.errors.KernelError` — convert with
:meth:`SparseMatrix.with_backend` instead.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.errors import KernelError, ShapeError
from repro.tensor.backend import KernelBackend, get_backend, resolve_backend
from repro.tensor.tensor import Tensor, as_tensor

__all__ = ["SparseMatrix", "spmm", "spmm_rows", "spmm_memo", "spmm_patch"]

# Wire format of the (index, value) sparse representation the paper
# ships CPU→GPU: PyTorch sparse tensors use int64 indices and float32
# values.  The 4:1 index:value byte ratio is what lets the
# graph-difference method reach ~4x transfer savings (paper §6.2) —
# indices dominate the naive payload and GD only ships the differing
# ones.  (In-memory numerics in this library stay float64 for the
# convergence-fidelity experiments; only the modeled transfer sizes use
# the float32 wire width.)
INDEX_BYTES = 8
VALUE_BYTES = 4
# dense feature rows move between devices as float32 as well
WIRE_FLOAT_BYTES = 4


class SparseMatrix:
    """An immutable CSR sparse matrix with transfer-size accounting.

    Parameters
    ----------
    matrix:
        Any scipy sparse matrix (converted to CSR) or a dense ndarray.
    backend:
        Kernel backend name or instance; ``None`` applies the selection
        precedence (env var, then default), except when copying another
        ``SparseMatrix``, whose backend is adopted.
    """

    __slots__ = ("csr", "_csr_t", "_transpose_builds", "backend")

    def __init__(self, matrix, backend: str | KernelBackend | None = None
                 ) -> None:
        self._csr_t = None
        self._transpose_builds = 0
        if isinstance(matrix, SparseMatrix):
            self.csr = matrix.csr
            self._csr_t = matrix._csr_t  # share the transpose cache
            # the cache and its build count travel together — a copy
            # that inherits a built transpose inherits the build
            self._transpose_builds = matrix._transpose_builds
            self.backend = resolve_backend(backend) \
                if backend is not None else matrix.backend
        elif sp.issparse(matrix):
            self.csr = matrix.tocsr()
            self.backend = resolve_backend(backend)
        else:
            self.csr = sp.csr_matrix(np.asarray(matrix, dtype=np.float64))
            self.backend = resolve_backend(backend)
        self.csr.sum_duplicates()

    # -- structure -------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, int]:
        return self.csr.shape

    @property
    def nnz(self) -> int:
        return self.csr.nnz

    @property
    def dtype(self):
        return self.csr.dtype

    def with_backend(self, backend: str | KernelBackend) -> "SparseMatrix":
        """This matrix pinned to another backend (CSR arrays and the
        transpose cache are shared, not copied)."""
        return SparseMatrix(self, backend=backend)

    def transposed_csr(self) -> sp.csr_matrix:
        """The CSR transpose, built lazily and cached.

        The sparse operand of :func:`spmm` is a fixed graph operator
        reused across layers and epochs; its transpose (needed only by
        the backward pass) is therefore computed at most once per
        matrix instead of per call.
        """
        if self._csr_t is None:
            self._csr_t = self.backend.transpose(self.csr)
            self._transpose_builds += 1
        return self._csr_t

    @property
    def transpose_builds(self) -> int:
        """How many times this matrix (or the matrix it was copied
        from) materialized its transpose."""
        return self._transpose_builds

    def transpose(self) -> "SparseMatrix":
        t = SparseMatrix(self.transposed_csr(), backend=self.backend)
        t._csr_t = self.csr  # (Aᵀ)ᵀ is already resident
        return t

    @property
    def T(self) -> "SparseMatrix":
        return self.transpose()

    def row_slice(self, rows: np.ndarray) -> sp.csr_matrix:
        """CSR submatrix of the requested ``rows`` (in ``rows`` order).

        ``(self.row_slice(rows) @ X)`` equals ``(self.csr @ X)[rows]``
        bit-for-bit: CSR row extraction preserves each row's entry
        order, so the per-row accumulation in the multiply is
        identical.  This is the gather kernel behind :func:`spmm_rows`
        and the serving tier's dirty-frontier refresh.
        """
        rows = np.asarray(rows, dtype=np.int64)
        return self.backend.row_slice(self.csr, rows)

    def coo_edges(self) -> np.ndarray:
        """Return an (nnz, 2) int64 array of (row, col) indices, sorted."""
        coo = self.csr.tocoo()
        edges = np.stack([coo.row.astype(np.int64),
                          coo.col.astype(np.int64)], axis=1)
        order = np.lexsort((edges[:, 1], edges[:, 0]))
        return edges[order]

    # -- byte accounting (paper §3.2) -------------------------------------------
    @property
    def index_nbytes(self) -> int:
        """Bytes needed to ship the (row, col) index pairs."""
        return 2 * INDEX_BYTES * self.nnz

    @property
    def value_nbytes(self) -> int:
        """Bytes needed to ship the nonzero values."""
        return VALUE_BYTES * self.nnz

    @property
    def nbytes(self) -> int:
        """Full naive (index, value) sparse-transfer footprint."""
        return self.index_nbytes + self.value_nbytes

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"SparseMatrix(shape={self.shape}, nnz={self.nnz}, "
                f"backend={self.backend.name!r})")

    @staticmethod
    def from_edges(edges: np.ndarray, values: np.ndarray | None,
                   shape: tuple[int, int],
                   backend: str | KernelBackend | None = None
                   ) -> "SparseMatrix":
        """Build from an (nnz, 2) index array and optional values."""
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        if values is None:
            values = np.ones(len(edges), dtype=np.float64)
        mat = sp.csr_matrix(
            (np.asarray(values, dtype=np.float64),
             (edges[:, 0], edges[:, 1])), shape=shape)
        return SparseMatrix(mat, backend=backend)


def _kernel_backend(sparse: SparseMatrix,
                    backend: str | KernelBackend | None,
                    name: str) -> KernelBackend:
    """The backend a kernel call runs on: the sparse operand's pinned
    backend, unless an explicit override *agrees* with it.

    Backends own per-matrix cached state (the transpose cache, compiled
    handles), so a differing explicit ``backend=`` is an error, not a
    conversion — callers convert with
    :meth:`SparseMatrix.with_backend`.
    """
    if backend is None:
        return sparse.backend
    b = backend if isinstance(backend, KernelBackend) \
        else get_backend(backend)
    if b is not sparse.backend:
        raise KernelError(
            f"{name}: operand is pinned to backend "
            f"{sparse.backend.name!r} but backend={b.name!r} was "
            f"requested; use SparseMatrix.with_backend to convert")
    return b


def spmm(sparse: SparseMatrix, dense,
         backend: str | KernelBackend | None = None) -> Tensor:
    """Differentiable sparse @ dense product (gradient w.r.t. dense only).

    The sparse operand is a fixed graph operator; its (lazily cached)
    transpose serves the backward pass (``grad_X = S.T @ grad_Y``).

    .. warning::
       Autograd assumes ``sparse`` is frozen between forward and
       backward.  Do not tape over a *live* maintained operator
       (:attr:`LaplacianMaintainer.laplacian`, whose arrays the next
       ``update()`` replaces) — train on frozen ``export()`` copies,
       as :func:`~repro.train.preprocess.compute_laplacians` provides.
    """
    dense = as_tensor(dense)
    if dense.ndim != 2:
        raise ShapeError(f"spmm expects a 2-D dense operand, got "
                         f"{dense.ndim}-D")
    if sparse.shape[1] != dense.shape[0]:
        raise ShapeError(
            f"spmm shape mismatch: {sparse.shape} @ {dense.shape}")
    kb = _kernel_backend(sparse, backend, "spmm")
    out = kb.spmm(sparse.csr, dense.data)

    def backward(g):
        # lazy: the transpose is materialized only if backward runs,
        # and the per-matrix cache makes repeated calls free
        return (kb.spmm(sparse.transposed_csr(), g),)

    return Tensor._make(out, (dense,), backward)


def spmm_rows(sparse: SparseMatrix, dense, rows: np.ndarray,
              backend: str | KernelBackend | None = None) -> Tensor:
    """Row-sliced differentiable SpMM: only ``rows`` of ``S @ X``.

    Computes ``(S @ X)[rows]`` with the backend's fused
    gather-then-GEMM kernel — O(nnz(rows) · F) instead of O(nnz · F).
    The output rows are bit-identical to the corresponding rows of the
    full product (same per-row accumulation order).  The backward pass
    scatters the upstream gradient through the sliced operator:
    ``dL/dX = S[rows, :].T @ dL/dY`` (gradient w.r.t. the dense operand
    only, as for :func:`spmm`).
    """
    dense = as_tensor(dense)
    if dense.ndim != 2:
        raise ShapeError(f"spmm_rows expects a 2-D dense operand, got "
                         f"{dense.ndim}-D")
    if sparse.shape[1] != dense.shape[0]:
        raise ShapeError(
            f"spmm_rows shape mismatch: {sparse.shape} @ {dense.shape}")
    rows = np.asarray(rows, dtype=np.int64).reshape(-1)
    if len(rows) and (rows.min() < 0 or rows.max() >= sparse.shape[0]):
        raise ShapeError(
            f"spmm_rows row index out of range for {sparse.shape[0]} rows")
    kb = _kernel_backend(sparse, backend, "spmm_rows")
    out, ctx = kb.spmm_rows(sparse.csr, rows, dense.data)

    def backward(g):
        return (kb.spmm_rows_t(sparse.csr, rows, g, ctx),)

    return Tensor._make(out, (dense,), backward)


def _check_spmm_operands(sparse: SparseMatrix, dense: Tensor,
                         name: str) -> None:
    if dense.ndim != 2:
        raise ShapeError(f"{name} expects a 2-D dense operand, got "
                         f"{dense.ndim}-D")
    if sparse.shape[1] != dense.shape[0]:
        raise ShapeError(
            f"{name} shape mismatch: {sparse.shape} @ {dense.shape}")


def spmm_memo(sparse: SparseMatrix, dense, product: np.ndarray,
              backend: str | KernelBackend | None = None) -> Tensor:
    """``S @ X`` with the forward *values* taken from a memoized product.

    ``product`` must be bit-equal to ``sparse.csr @ dense.data`` (the
    caller — the training-tier :class:`~repro.train.reuse.AggregationCache`
    — verifies this by comparing the dense operand against the one the
    memo was computed from).  The forward therefore costs nothing, while
    the backward is the *unconditional* true Jacobian ``S.T @ g`` — no
    assumption beyond value equality is needed for exact gradients.
    """
    dense = as_tensor(dense)
    _check_spmm_operands(sparse, dense, "spmm_memo")
    kb = _kernel_backend(sparse, backend, "spmm_memo")
    product = np.asarray(product)
    if product.shape != (sparse.shape[0], dense.shape[1]):
        raise ShapeError(
            f"spmm_memo product shape {product.shape} does not match "
            f"{(sparse.shape[0], dense.shape[1])}")

    def backward(g):
        return (kb.spmm(sparse.transposed_csr(), g),)

    return Tensor._make(product, (dense,), backward)


def spmm_patch(sparse: SparseMatrix, dense, rows: np.ndarray,
               base: np.ndarray, parent: Tensor | None = None,
               backend: str | KernelBackend | None = None) -> Tensor:
    """``S @ X`` computed by patching a previous product's rows.

    The output equals ``base`` with ``rows`` overwritten by
    ``(S @ X)[rows]`` (fused row recompute, bit-identical to the full
    product's rows).  The caller guarantees that the untouched rows of
    ``base`` already equal the corresponding rows of ``S @ X`` — the
    cross-timestep reuse invariant established by the delta-touched
    frontier expansion.

    Backward routes gradients through the sliced recompute:
    ``dL/dX = S[rows, :].T @ g[rows]``.  When ``parent`` (the previous
    timestep's product tensor, whose data is ``base``) is given, the
    untouched rows' gradient ``g[~rows]`` flows to it — exact whenever
    the untouched rows of both products are the *same function* of the
    parameters, which the structural dirty propagation guarantees;
    without a parent the untouched rows are treated as constants (only
    valid when they carry no gradient, e.g. first-layer aggregations
    over leaf features).
    """
    dense = as_tensor(dense)
    _check_spmm_operands(sparse, dense, "spmm_patch")
    rows = np.asarray(rows, dtype=np.int64).reshape(-1)
    if len(rows) and (rows.min() < 0 or rows.max() >= sparse.shape[0]):
        raise ShapeError(
            f"spmm_patch row index out of range for {sparse.shape[0]} rows")
    base = np.asarray(base)
    if base.shape != (sparse.shape[0], dense.shape[1]):
        raise ShapeError(
            f"spmm_patch base shape {base.shape} does not match "
            f"{(sparse.shape[0], dense.shape[1])}")
    kb = _kernel_backend(sparse, backend, "spmm_patch")
    if len(rows) == 0:
        out = base
        ctx = None
    else:
        patch, ctx = kb.spmm_rows(sparse.csr, rows, dense.data)
        out = base.copy()
        out[rows] = patch

    if parent is None:
        def backward(g):
            if len(rows) == 0:
                return (np.zeros_like(dense.data),)
            return (kb.spmm_rows_t(sparse.csr, rows, g[rows], ctx),)

        return Tensor._make(out, (dense,), backward)

    def backward_chain(g):
        g_parent = g.copy()
        if len(rows) == 0:
            return (np.zeros_like(dense.data), g_parent)
        g_parent[rows] = 0.0
        return (kb.spmm_rows_t(sparse.csr, rows, g[rows], ctx),
                g_parent)

    return Tensor._make(out, (dense, parent), backward_chain)
