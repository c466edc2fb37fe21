"""Autograd substrate: numpy-backed tensors with reverse-mode autodiff.

The tape carries the fused nodes of :mod:`repro.tensor.functional` and
the five basic ops of :mod:`repro.tensor.ops` (``+``, ``*``, ``@``,
indexing and ``sum``).

Public surface::

    from repro.tensor import Tensor, no_grad, ops, functional as F
    from repro.tensor import Parameter, Module, Adam
    from repro.tensor.sparse import SparseMatrix, spmm, spmm_rows
    from repro.tensor.backend import get_backend, available_backends
"""

from repro.tensor.tensor import Tensor, as_tensor, is_grad_enabled, no_grad
from repro.tensor.module import Module, Parameter
from repro.tensor.optim import Adam
from repro.tensor.backend import (KernelBackend, available_backends,
                                  get_backend, registered_backends,
                                  resolve_backend)
from repro.tensor.sparse import SparseMatrix, spmm, spmm_rows
from repro.tensor import ops, functional, init

__all__ = [
    "Tensor", "as_tensor", "no_grad", "is_grad_enabled",
    "Module", "Parameter", "Adam",
    "SparseMatrix", "spmm", "spmm_rows",
    "KernelBackend", "get_backend", "resolve_backend",
    "available_backends", "registered_backends",
    "ops", "functional", "init",
]
