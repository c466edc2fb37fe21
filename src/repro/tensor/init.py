"""Deterministic parameter initialization.

All initializers take an explicit ``numpy.random.Generator`` so the
convergence-fidelity experiments (paper Fig. 6) can replay identical
parameter draws for the snapshot-partitioned, vertex-partitioned and
sequential runs.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["xavier_uniform", "orthogonal"]


def xavier_uniform(shape: tuple[int, ...],
                   rng: np.random.Generator,
                   gain: float = 1.0) -> np.ndarray:
    """Glorot/Xavier uniform init for 2-D weight matrices."""
    fan_in, fan_out = _fans(shape)
    bound = gain * math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)


def orthogonal(shape: tuple[int, ...],
               rng: np.random.Generator,
               gain: float = 1.0) -> np.ndarray:
    """Orthogonal init (used for LSTM recurrent weights)."""
    rows, cols = shape
    flat = rng.normal(0.0, 1.0, size=(max(rows, cols), min(rows, cols)))
    q, r = np.linalg.qr(flat)
    q *= np.sign(np.diag(r))
    if rows < cols:
        q = q.T
    return gain * q[:rows, :cols]


def _fans(shape: tuple[int, ...]) -> tuple[int, int]:
    if len(shape) < 1:
        raise ValueError("init shape must have at least 1 dim")
    if len(shape) == 1:
        return shape[0], shape[0]
    return shape[0], shape[1]
