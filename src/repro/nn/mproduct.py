"""The M-transform (paper §5.3): TM-GCN's parameter-free RNN component.

``Y = X ×₁ M`` with the banded lower-triangular averaging matrix

    M[t, k] = 1 / min(w, t)   for max(1, t−w+1) ≤ k ≤ t   (1-indexed)

i.e. each output frame is the average of the current and up to ``w−1``
previous input frames.  The same matrix smooths the input adjacency
tensor in TM-GCN's preprocessing step (§5.4); that sparse variant lives
in :mod:`repro.train.preprocess`.

For block-wise (checkpointed / distributed) execution the transform is
applied with an explicit *history window*: the carry between blocks is
the last ``w−1`` frames of the previous block, which is exactly the
``π_b`` payload of paper Fig. 2.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError
from repro.tensor import Tensor, functional as F
from repro.tensor.tensor import as_tensor

__all__ = ["m_matrix", "m_transform_frames", "m_transform_flops",
           "window_average"]


def window_average(contributors: list[Tensor]) -> Tensor:
    """Uniform average of equally shaped frames, oldest first, as ONE
    tape node.

    The naive ``x₀·s + x₁·s + …`` chain allocates an intermediate (and
    an autograd node) per contributor; a T-step timeline pays that for
    every output frame.  This op sums in place (:func:`~repro.tensor.
    functional.window_mean`, the sum the serving engine runs) and
    records a single backward (each parent receives ``g · 1/len``),
    which is what keeps the M-transform off the training profile's hot
    list.
    """
    contributors = [as_tensor(c) for c in contributors]
    if not contributors:
        raise ConfigError("window_average needs at least one frame")
    shape = contributors[0].shape
    acc = F.window_mean([c.data for c in contributors], np.empty(shape),
                        np.empty(shape))
    scale = 1.0 / len(contributors)

    def backward(g):
        shared = g * scale
        return tuple(shared for _ in contributors)

    return Tensor._make(acc, tuple(contributors), backward)


def m_matrix(num_timesteps: int, window: int) -> np.ndarray:
    """Dense ``T × T`` M-product matrix (for reference and tests)."""
    if window <= 0:
        raise ConfigError(f"window must be positive, got {window}")
    m = np.zeros((num_timesteps, num_timesteps))
    for t in range(1, num_timesteps + 1):  # 1-indexed per the paper
        lo = max(1, t - window + 1)
        for k in range(lo, t + 1):
            m[t - 1, k - 1] = 1.0 / min(window, t)
    return m


def m_transform_frames(frames: list[Tensor], window: int,
                       history: list[Tensor] | None = None
                       ) -> tuple[list[Tensor], list[Tensor]]:
    """Apply the M-transform to a block of frames.

    Parameters
    ----------
    frames:
        Frames of the current block, in time order.
    history:
        The trailing ``≤ w−1`` frames of the *previous* block (the RNN
        carry ``π``); ``None`` means this block starts the timeline.

    Returns
    -------
    (outputs, new_history):
        One output per input frame, plus the trailing window to carry
        into the next block.
    """
    if window <= 0:
        raise ConfigError(f"window must be positive, got {window}")
    past: list[Tensor] = list(history) if history else []
    outputs: list[Tensor] = []
    for x in frames:
        active = past[-(window - 1):] if window > 1 else []
        outputs.append(window_average(active + [x]))
        past.append(x)
    new_history = past[-(window - 1):] if window > 1 else []
    return outputs, new_history


def m_transform_flops(rows: int, features: int, window: int) -> float:
    """FLOPs per output frame: averaging ≤ w frames of shape rows×F."""
    return 2.0 * rows * features * window
