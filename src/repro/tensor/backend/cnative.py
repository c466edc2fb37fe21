"""The ``cnative`` backend: C kernels compiled at first use via gcc.

Fused gather-then-GEMM CSR row kernels for any environment with a C
compiler, with no Python dependency.  The kernels are compiled once per
process into a private temp directory and loaded with ctypes.

Bit-exactness hinges on one compiler flag: ``-ffp-contract=off``.  At
``-O2+`` gcc defaults to contracting ``acc += v * x`` into a fused
multiply-add, whose single rounding diverges from scipy's separate
multiply and add; with contraction off, the k-outer / feature-inner
loop reproduces scipy's per-element accumulation order bit-for-bit
(verified by the conformance suite's ``array_equal`` assertions).

Index dtypes differ across producers — scipy's ``tocsr`` emits int32
indptr/indices for small matrices while the maintainer hand-builds
int64 arrays — so every kernel is generated in all four
(indptr, indices) dtype combinations and dispatched per call.
"""

from __future__ import annotations

import atexit
import ctypes
import os
import shutil
import subprocess
import tempfile

import numpy as np

from repro.tensor.backend.base import KERNEL_NAMES
from repro.tensor.backend.reference import ReferenceBackend

__all__ = ["CNativeBackend"]

_C_TEMPLATE = """
#include <stdint.h>

void spmm_{s}(const {P} *indptr, const {I} *indices, const double *data,
              int64_t n_rows, const double *x, int64_t f, double *out) {{
    for (int64_t i = 0; i < n_rows; i++) {{
        double *o = out + i * f;
        for (int64_t j = 0; j < f; j++) o[j] = 0.0;
        for (int64_t k = indptr[i]; k < indptr[i + 1]; k++) {{
            const double v = data[k];
            const double *xr = x + (int64_t)indices[k] * f;
            for (int64_t j = 0; j < f; j++) o[j] += v * xr[j];
        }}
    }}
}}

void spmm_rows_{s}(const {P} *indptr, const {I} *indices,
                   const double *data, const int64_t *rows, int64_t n_sel,
                   const double *x, int64_t f, double *out) {{
    for (int64_t p = 0; p < n_sel; p++) {{
        const int64_t i = rows[p];
        double *o = out + p * f;
        for (int64_t j = 0; j < f; j++) o[j] = 0.0;
        for (int64_t k = indptr[i]; k < indptr[i + 1]; k++) {{
            const double v = data[k];
            const double *xr = x + (int64_t)indices[k] * f;
            for (int64_t j = 0; j < f; j++) o[j] += v * xr[j];
        }}
    }}
}}

void spmm_rows_t_{s}(const {P} *indptr, const {I} *indices,
                     const double *data, const int64_t *rows,
                     int64_t n_sel, const double *g, int64_t f,
                     double *out) {{
    for (int64_t p = 0; p < n_sel; p++) {{
        const int64_t i = rows[p];
        const double *gr = g + p * f;
        for (int64_t k = indptr[i]; k < indptr[i + 1]; k++) {{
            const double v = data[k];
            double *o = out + (int64_t)indices[k] * f;
            for (int64_t j = 0; j < f; j++) o[j] += v * gr[j];
        }}
    }}
}}
"""

_CTYPES = {"int32_t": ctypes.c_int32, "int64_t": ctypes.c_int64}
_VARIANTS = [("p32_i32", "int32_t", "int32_t"),
             ("p32_i64", "int32_t", "int64_t"),
             ("p64_i32", "int64_t", "int32_t"),
             ("p64_i64", "int64_t", "int64_t")]

_LIB = None
_COMPILE_ERROR = None


def _find_cc() -> str | None:
    for cc in (os.environ.get("CC"), "gcc", "cc"):
        if cc and shutil.which(cc):
            return cc
    return None


def _load_library():
    """Compile and dlopen the kernels (once per process)."""
    global _LIB, _COMPILE_ERROR
    if _LIB is not None or _COMPILE_ERROR is not None:
        return _LIB
    cc = _find_cc()
    if cc is None:
        _COMPILE_ERROR = RuntimeError("no C compiler on PATH")
        return None
    workdir = tempfile.mkdtemp(prefix="repro-cnative-")
    atexit.register(shutil.rmtree, workdir, ignore_errors=True)
    src = os.path.join(workdir, "kernels.c")
    lib = os.path.join(workdir, "kernels.so")
    with open(src, "w") as fh:
        for suffix, ptype, itype in _VARIANTS:
            fh.write(_C_TEMPLATE.format(s=suffix, P=ptype, I=itype))
    try:
        # -ffp-contract=off is load-bearing: see module docstring
        subprocess.run(
            [cc, "-O3", "-ffp-contract=off", "-fPIC", "-shared",
             "-o", lib, src],
            check=True, capture_output=True, timeout=120)
        _LIB = ctypes.CDLL(lib)
    except (subprocess.SubprocessError, OSError) as exc:
        _COMPILE_ERROR = exc
        return None
    f64 = ctypes.POINTER(ctypes.c_double)
    i64 = ctypes.POINTER(ctypes.c_int64)
    for suffix, ptype, itype in _VARIANTS:
        p = ctypes.POINTER(_CTYPES[ptype])
        i = ctypes.POINTER(_CTYPES[itype])
        fn = getattr(_LIB, f"spmm_{suffix}")
        fn.restype = None
        fn.argtypes = [p, i, f64, ctypes.c_int64, f64, ctypes.c_int64,
                       f64]
        fn = getattr(_LIB, f"spmm_rows_{suffix}")
        fn.restype = None
        fn.argtypes = [p, i, f64, i64, ctypes.c_int64, f64,
                       ctypes.c_int64, f64]
        fn = getattr(_LIB, f"spmm_rows_t_{suffix}")
        fn.restype = None
        fn.argtypes = [p, i, f64, i64, ctypes.c_int64, f64,
                       ctypes.c_int64, f64]
    return _LIB


def _ptr(a: np.ndarray, ct):
    return a.ctypes.data_as(ctypes.POINTER(ct))


class CNativeBackend(ReferenceBackend):
    """gcc-compiled CSR kernels; structure/splice primitives inherited
    from the reference backend."""

    name = "cnative"
    # forward kernels preserve the reference accumulation order (and
    # the conformance suite asserts array_equal); the backward scatter
    # is only guaranteed to 1e-12
    exact = frozenset(KERNEL_NAMES) - {"spmm_rows_t"}

    @classmethod
    def available(cls) -> bool:
        return _load_library() is not None

    def __init__(self) -> None:
        self._lib = _load_library()
        if self._lib is None:  # pragma: no cover - registry checks first
            raise RuntimeError(f"cnative compile failed: {_COMPILE_ERROR}")

    def _dispatch(self, kernel: str, csr):
        indptr, indices = csr.indptr, csr.indices
        if indptr.dtype not in (np.int32, np.int64) or \
                indices.dtype not in (np.int32, np.int64):
            return None, None, None  # exotic dtype: reference fallback
        suffix = (f"p{indptr.dtype.itemsize * 8}"
                  f"_i{indices.dtype.itemsize * 8}")
        fn = getattr(self._lib, f"{kernel}_{suffix}")
        pct = _CTYPES["int32_t"] if indptr.dtype == np.int32 \
            else _CTYPES["int64_t"]
        ict = _CTYPES["int32_t"] if indices.dtype == np.int32 \
            else _CTYPES["int64_t"]
        return fn, pct, ict

    def spmm(self, csr, x):
        fn, pct, ict = self._dispatch("spmm", csr)
        if fn is None:
            return super().spmm(csr, x)
        x = np.ascontiguousarray(x, dtype=np.float64)
        out = np.empty((csr.shape[0], x.shape[1]), dtype=np.float64)
        fn(_ptr(csr.indptr, pct), _ptr(csr.indices, ict),
           _ptr(csr.data, ctypes.c_double), csr.shape[0],
           _ptr(x, ctypes.c_double), x.shape[1],
           _ptr(out, ctypes.c_double))
        return out

    def spmm_rows(self, csr, rows, x):
        fn, pct, ict = self._dispatch("spmm_rows", csr)
        if fn is None:
            return super().spmm_rows(csr, rows, x)
        x = np.ascontiguousarray(x, dtype=np.float64)
        rows = np.ascontiguousarray(rows, dtype=np.int64)
        out = np.empty((len(rows), x.shape[1]), dtype=np.float64)
        fn(_ptr(csr.indptr, pct), _ptr(csr.indices, ict),
           _ptr(csr.data, ctypes.c_double),
           _ptr(rows, ctypes.c_int64), len(rows),
           _ptr(x, ctypes.c_double), x.shape[1],
           _ptr(out, ctypes.c_double))
        return out, None  # fused: no sliced submatrix to stash

    def spmm_rows_t(self, csr, rows, g, ctx=None):
        fn, pct, ict = self._dispatch("spmm_rows_t", csr)
        if fn is None:
            return super().spmm_rows_t(csr, rows, g, ctx)
        g = np.ascontiguousarray(g, dtype=np.float64)
        rows = np.ascontiguousarray(rows, dtype=np.int64)
        out = np.zeros((csr.shape[1], g.shape[1]), dtype=np.float64)
        fn(_ptr(csr.indptr, pct), _ptr(csr.indices, ict),
           _ptr(csr.data, ctypes.c_double),
           _ptr(rows, ctypes.c_int64), len(rows),
           _ptr(g, ctypes.c_double), g.shape[1],
           _ptr(out, ctypes.c_double))
        return out
