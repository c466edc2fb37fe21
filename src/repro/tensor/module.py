"""Module/Parameter abstractions (a small torch.nn.Module analogue).

Modules own named :class:`Parameter` leaves, recurse through attributes,
and support ``state_dict``/``load_state_dict`` — required by the
distributed trainer, which replicates the (small) GCN/RNN weights on every
rank (paper §4.2: "the GCN weight matrices W are very small in size and we
store a copy of the matrices in all the processors").
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.errors import ShapeError
from repro.tensor.tensor import Tensor

__all__ = ["Parameter", "Module"]


class Parameter(Tensor):
    """A leaf tensor registered as a learnable model parameter."""

    def __init__(self, data, name: str | None = None) -> None:
        super().__init__(data, requires_grad=True, name=name)


class Module:
    """Base class for layers and models.

    Subclasses assign :class:`Parameter` and :class:`Module` instances as
    attributes; ``parameters()`` and ``named_parameters()`` discover them
    recursively in deterministic (sorted) order so gradient all-reduce
    buffers line up across simulated ranks.
    """

    def __init__(self) -> None:
        self._params: dict[str, Parameter] = {}
        self._modules: dict[str, Module] = {}

    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self.__dict__.setdefault("_params", {})[name] = value
        elif isinstance(value, Module):
            self.__dict__.setdefault("_modules", {})[name] = value
        object.__setattr__(self, name, value)

    # -- discovery ---------------------------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        for name in sorted(self._params):
            yield prefix + name, self._params[name]
        for name in sorted(self._modules):
            yield from self._modules[name].named_parameters(
                prefix=f"{prefix}{name}.")

    def parameters(self) -> list[Parameter]:
        return [p for _, p in self.named_parameters()]

    # -- serialization ---------------------------------------------------------------
    def state_dict(self) -> dict[str, np.ndarray]:
        return {name: p.data.copy() for name, p in self.named_parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise ShapeError(
                f"state_dict mismatch: missing={sorted(missing)}, "
                f"unexpected={sorted(unexpected)}")
        for name, p in own.items():
            value = np.asarray(state[name], dtype=p.data.dtype)
            if value.shape != p.data.shape:
                raise ShapeError(
                    f"parameter {name}: shape {value.shape} != "
                    f"{p.data.shape}")
            p.data = value.copy()

    # -- call protocol ---------------------------------------------------------------
    def forward(self, *args, **kwargs):  # pragma: no cover - abstract
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)
