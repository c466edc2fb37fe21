"""The basic differentiable ops on :class:`~repro.tensor.Tensor`.

The models train through the fused tape nodes of
:mod:`repro.tensor.functional` and these five ops.  Each computes its
numpy result eagerly and records a closure that maps the upstream
gradient to per-parent gradients.  Broadcasting is undone by the tape
machinery (``Tensor._backward_into``), so the closures here may return
gradients in the *broadcast* shape.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.errors import ShapeError
from repro.tensor.tensor import Tensor, as_tensor

__all__ = ["add", "mul", "matmul", "getitem", "sum_"]


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data + b.data

    def backward(g):
        return g, g

    return Tensor._make(out, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data * b.data
    a_data, b_data = a.data, b.data

    def backward(g):
        return g * b_data, g * a_data

    return Tensor._make(out, (a, b), backward)


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 1 or b.ndim < 1:
        raise ShapeError("matmul requires at least 1-D operands")
    out = a.data @ b.data
    a_data, b_data = a.data, b.data

    def backward(g):
        if a_data.ndim == 1 and b_data.ndim == 1:
            # inner product: g is scalar
            return g * b_data, g * a_data
        if b_data.ndim == 1:
            return np.outer(g, b_data), a_data.T @ g
        if a_data.ndim == 1:
            return g @ b_data.T, np.outer(a_data, g)
        return g @ np.swapaxes(b_data, -1, -2), np.swapaxes(a_data, -1, -2) @ g

    return Tensor._make(out, (a, b), backward)


def _is_basic_index(index) -> bool:
    """Slices, ints, ``...`` and ``None`` (or a tuple of them) select each
    element at most once."""
    parts = index if isinstance(index, tuple) else (index,)
    return all(isinstance(p, (slice, int, np.integer)) or p is None
               or p is Ellipsis for p in parts)


def getitem(a, index) -> Tensor:
    a = as_tensor(a)
    out = a.data[index]
    shape = a.data.shape
    dtype = a.data.dtype

    def backward(g):
        if _is_basic_index(index):
            # nothing repeats: scatter by assignment
            full = np.zeros(shape, dtype=dtype)
            full[index] = g
        elif isinstance(index, np.ndarray) and index.ndim == 1 \
                and index.dtype.kind in "iu":
            # row gather: the transposed gather matrix is CSC, whose
            # product walks the index positions in order, so duplicates
            # accumulate exactly as np.add.at would add them
            count, width = len(index), int(np.prod(shape[1:]))
            gather = sp.csr_matrix(
                (np.ones(count, dtype=dtype),
                 np.where(index < 0, index + shape[0], index),
                 np.arange(count + 1)), shape=(count, shape[0]))
            full = (gather.T @ g.reshape(count, width)).reshape(shape)
        else:
            full = np.zeros(shape, dtype=dtype)
            np.add.at(full, index, g)
        return (full,)

    return Tensor._make(np.asarray(out), (a,), backward)


def sum_(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    out = a.data.sum(axis=axis, keepdims=keepdims)
    shape = a.data.shape

    def backward(g):
        g = np.asarray(g)
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, shape),)

    return Tensor._make(np.asarray(out), (a,), backward)
