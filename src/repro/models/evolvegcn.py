"""EvolveGCN (EGCN-O variant, paper §5.2, Pareja et al.).

Each layer maintains a per-timestep GCN weight evolved by an LSTM over
the weight matrix itself:

    W_t = LSTM(W_{t−1}),     Y_t = σ(Ã_t · X_t · W_t)

There is no vertex-level recurrence, so under snapshot partitioning the
whole model is communication-free apart from the end-of-epoch gradient
all-reduce (paper §5.5): the weight matrices are tiny and replicated,
and every rank can evolve them locally.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError
from repro.models.base import DynamicGNN
from repro.nn.gcn import GCNLayer
from repro.nn.lstm import WeightLSTMCell
from repro.tensor import Tensor

__all__ = ["EvolveGCN"]


class EvolveGCN(DynamicGNN):
    """Multi-layer EGCN-O."""

    kind = "evolve"

    def __init__(self, in_features: int, hidden: int = 6,
                 embed_dim: int = 6, num_layers: int = 2,
                 rng: np.random.Generator | None = None) -> None:
        super().__init__()
        if num_layers < 1:
            raise ConfigError("num_layers must be >= 1")
        rng = rng or np.random.default_rng(0)
        self.in_features = in_features
        self.hidden = hidden
        self.embed_dim = embed_dim
        self.num_layers = num_layers
        width = in_features
        for idx in range(num_layers):
            out = embed_dim if idx == num_layers - 1 else hidden
            gcn = GCNLayer(width, out, rng)
            evolver = WeightLSTMCell(out, rng)
            setattr(self, f"gcn{idx}", gcn)
            setattr(self, f"evolver{idx}", evolver)
            width = out

    def gcn_layer(self, idx: int) -> GCNLayer:
        return getattr(self, f"gcn{idx}")

    def evolver(self, idx: int) -> WeightLSTMCell:
        return getattr(self, f"evolver{idx}")

    # -- weight evolution ---------------------------------------------------------
    def weight_init(self, idx: int) -> tuple[Tensor, Tensor]:
        """Initial weight-LSTM state: hidden = the layer's base weight."""
        return self.evolver(idx).init_state(self.gcn_layer(idx).weight)

    def evolve_weights(self, idx: int, count: int,
                       state: tuple[Tensor, Tensor]
                       ) -> tuple[list[Tensor], tuple[Tensor, Tensor]]:
        """Produce ``count`` consecutive evolved weights ``W_t``.

        Every rank replays this identical tiny computation locally —
        that is what makes the model communication-free (§5.5).
        """
        weights: list[Tensor] = []
        for _ in range(count):
            w, state = self.evolver(idx).forward(state)
            weights.append(w)
        return weights, state

    # -- block protocol -----------------------------------------------------------------
    def init_carry(self, rows: int) -> list:
        # carry is per-layer weight-LSTM state; `rows` is irrelevant here
        return [self.weight_init(idx) for idx in range(self.num_layers)]

    def layer_block(self, idx, laplacians, xs, state, t0: int = 0):
        weights, state = self.evolve_weights(idx, len(laplacians), state)
        gcn = self.gcn_layer(idx)
        ys = [gcn.forward_with_weight(
                  lap, x, w, precomputed=self.aggregate(idx, t0 + i, lap, x))
              for i, (lap, x, w) in enumerate(zip(laplacians, xs, weights))]
        return ys, state

    def reuse_profile(self) -> list:
        # W_t evolves at every timestep, so every row of a layer's
        # output changes across time even where the aggregation did not
        return ["dense"] * self.num_layers

    # -- cost model ------------------------------------------------------------------------
    def rnn_flops_per_step(self, rows: int) -> float:
        """Weight-LSTM cost: independent of the vertex count."""
        return sum(self.evolver(idx).flops(self.gcn_layer(idx).in_features)
                   for idx in range(self.num_layers))

    def activation_bytes_per_step(self, rows: int) -> int:
        per_layer = sum(self.gcn_layer(i).out_features
                        for i in range(self.num_layers))
        return int(4 * rows * per_layer)  # fp32 activations
