"""Differentiable primitive operations on :class:`~repro.tensor.Tensor`.

Each op computes its numpy result eagerly and records a closure that maps
the upstream gradient to per-parent gradients.  Broadcasting is undone by
the tape machinery (``Tensor._backward_into``), so the closures here may
return gradients in the *broadcast* shape.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
import scipy.sparse as sp

from repro.errors import ShapeError
from repro.tensor.tensor import Tensor, as_tensor

__all__ = [
    "add", "sub", "mul", "div", "neg", "power", "exp", "log", "sqrt",
    "matmul", "transpose", "reshape", "getitem", "concat", "stack",
    "sum_", "mean", "maximum", "clip", "abs_", "where", "scale_rows",
]


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data + b.data

    def backward(g):
        return g, g

    return Tensor._make(out, (a, b), backward)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data - b.data

    def backward(g):
        return g, -g

    return Tensor._make(out, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data * b.data
    a_data, b_data = a.data, b.data

    def backward(g):
        return g * b_data, g * a_data

    return Tensor._make(out, (a, b), backward)


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data / b.data
    a_data, b_data = a.data, b.data

    def backward(g):
        return g / b_data, -g * a_data / (b_data * b_data)

    return Tensor._make(out, (a, b), backward)


def neg(a) -> Tensor:
    a = as_tensor(a)
    return Tensor._make(-a.data, (a,), lambda g: (-g,))


def power(a, exponent: float) -> Tensor:
    a = as_tensor(a)
    out = a.data ** exponent
    a_data = a.data

    def backward(g):
        return (g * exponent * a_data ** (exponent - 1),)

    return Tensor._make(out, (a,), backward)


def exp(a) -> Tensor:
    a = as_tensor(a)
    out = np.exp(a.data)

    def backward(g):
        return (g * out,)

    return Tensor._make(out, (a,), backward)


def log(a) -> Tensor:
    a = as_tensor(a)
    out = np.log(a.data)
    a_data = a.data

    def backward(g):
        return (g / a_data,)

    return Tensor._make(out, (a,), backward)


def sqrt(a) -> Tensor:
    a = as_tensor(a)
    out = np.sqrt(a.data)

    def backward(g):
        return (g * 0.5 / out,)

    return Tensor._make(out, (a,), backward)


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


def transpose(a, axes: tuple[int, ...] | None = None) -> Tensor:
    a = as_tensor(a)
    out = np.transpose(a.data, axes)
    if axes is None:
        inverse = None
    else:
        inverse = tuple(np.argsort(axes))

    def backward(g):
        return (np.transpose(g, inverse),)

    return Tensor._make(out, (a,), backward)


def reshape(a, shape: tuple[int, ...]) -> Tensor:
    a = as_tensor(a)
    orig = a.data.shape
    out = a.data.reshape(shape)

    def backward(g):
        return (g.reshape(orig),)

    return Tensor._make(out, (a,), backward)


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


def concat(tensors: Sequence, axis: int = 0) -> Tensor:
    ts = [as_tensor(t) for t in tensors]
    if not ts:
        raise ShapeError("concat of empty sequence")
    out = np.concatenate([t.data for t in ts], axis=axis)
    sizes = [t.data.shape[axis] for t in ts]
    splits = np.cumsum(sizes)[:-1]

    def backward(g):
        return tuple(np.split(g, splits, axis=axis))

    return Tensor._make(out, ts, backward)


def stack(tensors: Sequence, axis: int = 0) -> Tensor:
    ts = [as_tensor(t) for t in tensors]
    if not ts:
        raise ShapeError("stack of empty sequence")
    out = np.stack([t.data for t in ts], axis=axis)

    def backward(g):
        moved = np.moveaxis(g, axis, 0)
        return tuple(moved[i] for i in range(len(ts)))

    return Tensor._make(out, ts, backward)


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


def mean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    out = a.data.mean(axis=axis, keepdims=keepdims)
    shape = a.data.shape
    count = a.data.size if axis is None else np.prod(
        [shape[ax] for ax in (axis if isinstance(axis, tuple) else (axis,))])

    def backward(g):
        g = np.asarray(g)
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, shape) / count,)

    return Tensor._make(np.asarray(out), (a,), backward)


def maximum(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = np.maximum(a.data, b.data)
    mask = a.data >= b.data

    def backward(g):
        return g * mask, g * ~mask

    return Tensor._make(out, (a, b), backward)


def clip(a, lo: float, hi: float) -> Tensor:
    a = as_tensor(a)
    out = np.clip(a.data, lo, hi)
    mask = (a.data >= lo) & (a.data <= hi)

    def backward(g):
        return (g * mask,)

    return Tensor._make(out, (a,), backward)


def abs_(a) -> Tensor:
    a = as_tensor(a)
    out = np.abs(a.data)
    sign = np.sign(a.data)

    def backward(g):
        return (g * sign,)

    return Tensor._make(out, (a,), backward)


def where(cond: np.ndarray, a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    cond = np.asarray(cond, dtype=bool)
    out = np.where(cond, a.data, b.data)

    def backward(g):
        return g * cond, g * ~cond

    return Tensor._make(out, (a, b), backward)


def scale_rows(a, scales: np.ndarray) -> Tensor:
    """Multiply each row of 2-D tensor ``a`` by a fixed per-row scalar.

    ``scales`` is a constant (e.g. degree normalization); no gradient is
    produced for it.
    """
    a = as_tensor(a)
    scales = np.asarray(scales, dtype=a.data.dtype).reshape(-1, 1)
    if scales.shape[0] != a.data.shape[0]:
        raise ShapeError(
            f"scale_rows: {scales.shape[0]} scales for {a.data.shape[0]} rows")
    out = a.data * scales

    def backward(g):
        return (g * scales,)

    return Tensor._make(out, (a,), backward)
