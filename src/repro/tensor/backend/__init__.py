"""Kernel-backend registry and selection.

Every sparse kernel in the library runs on a :class:`KernelBackend`
resolved by name through this registry.  Selection precedence:

1. an explicit ``backend=`` kwarg (a name or an instance) wherever the
   seam is exposed — ``SparseMatrix``, ``LaplacianMaintainer``, the
   serving engines, the trainer, ``WorkerBoot``;
2. the ``REPRO_KERNEL_BACKEND`` environment variable, read at resolve
   time (so exec-tier workers spawned with it inherit the choice);
3. the default, ``reference``.

An **unknown** name raises :class:`~repro.errors.KernelError` — a typo
must not silently run the slow path.  A **known but unavailable**
backend (no C compiler for cnative) falls back to
``reference`` with a single warning per name: availability is an
environment property, and code written against an accelerated backend
must still run everywhere.

Backends are process-local singletons; pickling one ships only its
name (see :meth:`KernelBackend.__reduce__`), and the receiving process
re-resolves — which may legitimately land on the fallback there.
"""

from __future__ import annotations

import os
import warnings

from repro.errors import KernelError
from repro.tensor.backend.base import KERNEL_NAMES, KernelBackend
from repro.tensor.backend.cnative import CNativeBackend
from repro.tensor.backend.reference import ReferenceBackend

__all__ = ["KernelBackend", "KERNEL_NAMES", "DEFAULT_BACKEND", "ENV_VAR",
           "register_backend", "registered_backends",
           "available_backends", "get_backend", "resolve_backend"]

DEFAULT_BACKEND = "reference"
ENV_VAR = "REPRO_KERNEL_BACKEND"

_REGISTRY: dict[str, type[KernelBackend]] = {}
_INSTANCES: dict[str, KernelBackend] = {}
_WARNED: set[str] = set()


def register_backend(cls: type[KernelBackend]) -> type[KernelBackend]:
    """Register a backend class under ``cls.name`` (usable as a
    decorator).  Re-registering a name replaces it and drops any cached
    instance."""
    if not cls.name or cls.name == "abstract":
        raise KernelError("backend class must set a concrete `name`")
    _REGISTRY[cls.name] = cls
    _INSTANCES.pop(cls.name, None)
    return cls


def registered_backends() -> tuple[str, ...]:
    """All registered names, available or not."""
    return tuple(_REGISTRY)


def available_backends() -> tuple[str, ...]:
    """Names whose dependencies are usable in this process."""
    out = []
    for name, cls in _REGISTRY.items():
        try:
            if cls.available():
                out.append(name)
        except Exception:
            pass
    return tuple(out)


def _fallback(name: str, why: str) -> KernelBackend:
    if name not in _WARNED:
        _WARNED.add(name)
        warnings.warn(
            f"kernel backend {name!r} is unavailable ({why}); "
            f"falling back to {DEFAULT_BACKEND!r}",
            RuntimeWarning, stacklevel=3)
    return get_backend(DEFAULT_BACKEND)


def get_backend(name: str | None = None) -> KernelBackend:
    """The process-local singleton for ``name`` (default backend when
    ``None``), falling back to ``reference`` if it is unavailable."""
    if name is None:
        name = DEFAULT_BACKEND
    if isinstance(name, KernelBackend):
        return name
    if name not in _REGISTRY:
        raise KernelError(
            f"unknown kernel backend {name!r}; registered: "
            f"{', '.join(_REGISTRY)}")
    inst = _INSTANCES.get(name)
    if inst is not None:
        return inst
    cls = _REGISTRY[name]
    try:
        usable = cls.available()
    except Exception as exc:
        usable, why = False, f"availability probe failed: {exc}"
    else:
        why = "dependencies not importable"
    if usable:
        try:
            inst = cls()
        except Exception as exc:
            inst = _fallback(name, f"instantiation failed: {exc}")
    else:
        inst = _fallback(name, why)
    _INSTANCES[name] = inst
    return inst


def resolve_backend(backend: str | KernelBackend | None = None
                    ) -> KernelBackend:
    """Apply the selection precedence: kwarg > env > default."""
    if backend is not None:
        if isinstance(backend, KernelBackend):
            return backend
        return get_backend(backend)
    env = os.environ.get(ENV_VAR)
    if env:
        return get_backend(env)
    return get_backend(DEFAULT_BACKEND)


def _reset_for_tests() -> None:
    """Drop cached instances and the warned set (test isolation)."""
    _INSTANCES.clear()
    _WARNED.clear()


register_backend(ReferenceBackend)
register_backend(CNativeBackend)
