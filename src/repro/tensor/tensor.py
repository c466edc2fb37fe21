"""Reverse-mode automatic differentiation over numpy arrays.

This module provides the :class:`Tensor` class — a thin wrapper around a
``numpy.ndarray`` that records a tape of operations so gradients can be
propagated with :meth:`Tensor.backward`.

The engine is deliberately small but real: it supports broadcasting,
arbitrary DAGs (values consumed by several ops accumulate gradients),
a ``no_grad`` context used by the gradient-checkpointing machinery, and
explicit graph cutting via :meth:`Tensor.detach` — the primitive on which
block-wise timeline checkpointing (paper §3.1) is built.

Design notes
------------
* Gradients are stored on leaf tensors with ``requires_grad=True`` only.
* The backward pass walks a topological order of the recorded tape, so the
  cost is linear in the number of recorded ops.
* All data is kept as ``float64`` by default for reproducibility of the
  convergence experiments (paper Fig. 6 compares loss curves down to
  floating-point accumulation noise).
"""

from __future__ import annotations

import contextlib
from typing import Callable, Sequence

import numpy as np

from repro.errors import GradientError, ShapeError

__all__ = ["Tensor", "no_grad", "is_grad_enabled", "as_tensor"]

_GRAD_ENABLED = True


@contextlib.contextmanager
def no_grad():
    """Context manager that disables tape recording.

    Used by the checkpointed trainer for the first (memory-light) forward
    sweep and by evaluation code.
    """
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


def is_grad_enabled() -> bool:
    """Return whether operations currently record the autograd tape."""
    return _GRAD_ENABLED


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    # Sum out prepended axes.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # Sum axes that were broadcast from size 1.
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


class Tensor:
    """A numpy-backed tensor participating in reverse-mode autodiff.

    Parameters
    ----------
    data:
        Array-like payload; converted to a ``float64`` ndarray by default.
    requires_grad:
        Whether gradients should be accumulated into ``self.grad``.
    name:
        Optional debug label carried through error messages.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents",
                 "name")

    def __init__(self, data, requires_grad: bool = False,
                 name: str | None = None, dtype=np.float64) -> None:
        if isinstance(data, Tensor):
            data = data.data
        self.data = np.asarray(data, dtype=dtype)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._backward: Callable[[np.ndarray], None] | None = None
        self._parents: tuple[Tensor, ...] = ()
        self.name = name

    # -- basic introspection -------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def nbytes(self) -> int:
        """Payload size in bytes (used by the device memory accountant)."""
        return self.data.nbytes

    @property
    def is_leaf(self) -> bool:
        return self._backward is None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        tag = f" name={self.name!r}" if self.name else ""
        return (f"Tensor(shape={self.shape}, requires_grad="
                f"{self.requires_grad}{tag})")

    def __len__(self) -> int:
        return len(self.data)

    # -- graph construction helpers -------------------------------------------
    @staticmethod
    def _make(data: np.ndarray, parents: Sequence["Tensor"],
              backward: Callable[[np.ndarray], None]) -> "Tensor":
        """Create a non-leaf tensor recording ``backward`` on the tape."""
        requires = _GRAD_ENABLED and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=requires, dtype=data.dtype)
        if requires:
            out._backward = backward
            out._parents = tuple(parents)
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        grad = _unbroadcast(np.asarray(grad, dtype=self.data.dtype),
                            self.data.shape)
        if self.grad is None:
            self.grad = grad.copy()
        else:
            self.grad += grad

    def detach(self) -> "Tensor":
        """Return a new leaf tensor sharing data but cut from the graph.

        This is the core primitive for gradient checkpointing: block
        boundaries detach the RNN carry state so each block's graph can be
        rebuilt and freed independently (paper §3.1).
        """
        return Tensor(self.data, requires_grad=False, dtype=self.data.dtype)

    def zero_grad(self) -> None:
        self.grad = None

    # -- backward pass ---------------------------------------------------------
    def backward(self, grad: np.ndarray | None = None) -> int:
        """Backpropagate from this tensor through the recorded tape.

        Parameters
        ----------
        grad:
            Upstream gradient.  Defaults to 1 for scalar tensors; required
            for non-scalars (mirrors the usual autograd contract).

        Returns the number of tape nodes the sweep visited (leaves that
        require a gradient included) — the size of the recorded graph,
        which the trainers export as ``train_tape_nodes``.
        """
        if not self.requires_grad:
            raise GradientError(
                "backward() called on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise GradientError(
                    "grad must be provided for non-scalar backward()")
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=self.data.dtype)
        if grad.shape != self.data.shape:
            raise ShapeError(
                f"backward grad shape {grad.shape} does not match tensor "
                f"shape {self.data.shape}")

        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in seen:
                    stack.append((parent, False))

        grads: dict[int, np.ndarray] = {id(self): grad}
        for node in reversed(topo):
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if node.is_leaf:
                node._accumulate(g)
            else:
                node._backward_into(g, grads)
        return len(topo)

    def _backward_into(self, g: np.ndarray,
                       grads: dict[int, np.ndarray]) -> None:
        """Run this node's backward fn, accumulating into ``grads``."""
        parent_grads = self._backward(g)
        if parent_grads is None:
            return
        if not isinstance(parent_grads, (tuple, list)):
            parent_grads = (parent_grads,)
        if len(parent_grads) != len(self._parents):
            raise GradientError(
                f"backward fn produced {len(parent_grads)} grads for "
                f"{len(self._parents)} parents")
        for parent, pg in zip(self._parents, parent_grads):
            if pg is None or not parent.requires_grad:
                continue
            pg = _unbroadcast(np.asarray(pg, dtype=parent.data.dtype),
                              parent.data.shape)
            key = id(parent)
            if key in grads:
                grads[key] = grads[key] + pg
            else:
                grads[key] = pg

    # -- operator sugar (implementations live in repro.tensor.ops) -------------
    def __add__(self, other):
        from repro.tensor import ops
        return ops.add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        from repro.tensor import ops
        return ops.mul(self, other)

    __rmul__ = __mul__

    def __matmul__(self, other):
        from repro.tensor import ops
        return ops.matmul(self, other)

    def __getitem__(self, index):
        from repro.tensor import ops
        return ops.getitem(self, index)

    # -- convenience methods ----------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False):
        from repro.tensor import ops
        return ops.sum_(self, axis=axis, keepdims=keepdims)

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def numpy(self) -> np.ndarray:
        """Return the underlying array (shared storage, read-mostly)."""
        return self.data


def as_tensor(value, requires_grad: bool = False) -> Tensor:
    """Coerce ``value`` to a :class:`Tensor` (no copy when already one)."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value, requires_grad=requires_grad)
