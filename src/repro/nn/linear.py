"""Dense layers and the edge-concatenation classifier head.

The paper derives edge-level predictions "via concatenating the
embeddings of the edge end-points and applying a fully connected layer"
(§6.4); :class:`EdgeScorer` computes exactly that head, through the
identity ``concat(z_u, z_v)·W = z_u·W[:d] + z_v·W[d:]``: every vertex is
projected once and each pair adds two narrow rows
(:func:`repro.tensor.functional.edge_logits`).
"""

from __future__ import annotations

import numpy as np

from repro.tensor import Module, Parameter, Tensor, functional as F, init

__all__ = ["Linear", "EdgeScorer"]


class Linear(Module):
    """Affine map ``y = x W + b``."""

    def __init__(self, in_features: int, out_features: int,
                 rng: np.random.Generator, bias: bool = True) -> None:
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(
            init.xavier_uniform((in_features, out_features), rng),
            name="linear.weight")
        self.use_bias = bias
        if bias:
            self.bias = Parameter(np.zeros(out_features), name="linear.bias")

    def forward(self, x: Tensor) -> Tensor:
        out = x @ self.weight
        if self.use_bias:
            out = out + self.bias
        return out

    def flops(self, rows: int) -> float:
        return 2.0 * rows * self.in_features * self.out_features


class EdgeScorer(Module):
    """Classify vertex pairs from concatenated endpoint embeddings.

    ``forward(z, pairs)`` maps ``z[u] ‖ z[v]`` for each pair to
    ``num_classes`` logits through ``fc``.  It never forms the
    concatenation: ``fc``'s weight splits into the halves that multiply
    ``z[u]`` and ``z[v]``, so ``Z`` is projected once per vertex and a
    pair's logits are the sum of two ``num_classes``-wide rows, one tape
    node per call (:func:`~repro.tensor.functional.edge_logits`).  The
    parameters stay ``fc``'s, so the ``state_dict`` keys and the FLOP
    charge :meth:`Linear.flops` are those of the concatenated form.
    A vertex id outside ``[0, len(z))`` raises :class:`ShapeError`.
    """

    def __init__(self, embed_dim: int, num_classes: int,
                 rng: np.random.Generator) -> None:
        super().__init__()
        self.embed_dim = embed_dim
        self.num_classes = num_classes
        self.fc = Linear(2 * embed_dim, num_classes, rng)

    def forward(self, embeddings: Tensor, pairs: np.ndarray) -> Tensor:
        return F.edge_logits(embeddings, self.fc.weight, self.fc.bias,
                             pairs)
