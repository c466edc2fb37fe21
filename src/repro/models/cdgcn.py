"""CD-GCN — Concatenate Dynamic GCN (paper §5.1, Manessi et al.).

Each layer is a skip-concatenation GCN followed by a vertex-level LSTM:

    Y₀ = Ã·X,   Y₁ = Y₀·W,   Y = σ(Y₀ ∘ Y₁)        (GCN, width F+F′)
    Z_t, S_t = LSTM(S_{t−1}, Y_t)                    (RNN, window w=1)

The original model is single-layer; following the paper we extend it to
two layers for generality.  CD-GCN trains on the *raw* snapshots (no
edge-life / M-product smoothing), which is why its graph-difference
gains are smaller in the paper's Fig. 4.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError
from repro.models.base import DynamicGNN
from repro.nn.gcn import GCNLayer
from repro.nn.lstm import LSTMCell

__all__ = ["CDGCN"]


class CDGCN(DynamicGNN):
    """Two-layer (configurable) CD-GCN.

    Parameters
    ----------
    in_features:
        Input feature width ``F`` (the paper uses 2: in/out degree).
    hidden:
        Intermediate feature length (paper: 6).
    embed_dim:
        Output embedding length ``F'`` (paper: 6).
    num_layers:
        GCN+LSTM pairs (paper's study: 2).
    """

    kind = "gcn_rnn"

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
            gcn = GCNLayer(width, hidden, rng, skip_concat=True)
            lstm = LSTMCell(gcn.output_dim, out, rng)
            setattr(self, f"gcn{idx}", gcn)
            setattr(self, f"lstm{idx}", lstm)
            width = out

    # -- layer access -------------------------------------------------------------
    def gcn_layer(self, idx: int) -> GCNLayer:
        return getattr(self, f"gcn{idx}")

    def lstm_layer(self, idx: int) -> LSTMCell:
        return getattr(self, f"lstm{idx}")

    # -- block protocol ------------------------------------------------------------------
    def init_carry(self, rows: int) -> list:
        return [self.lstm_layer(idx).init_state(rows)
                for idx in range(self.num_layers)]

    def layer_block(self, idx, laplacians, xs, state, t0: int = 0):
        gcn = self.gcn_layer(idx)
        ys = [gcn.forward_precomputed(self.aggregate(idx, t0 + i, lap, x))
              for i, (lap, x) in enumerate(zip(laplacians, xs))]
        return self.lstm_layer(idx).run_sequence(ys, state)

    def reuse_profile(self) -> list:
        # the per-vertex LSTM re-mixes every row's state at every
        # timestep: deeper-layer inputs change densely across time
        return ["dense"] * self.num_layers

    # -- cost model ------------------------------------------------------------------------
    def rnn_flops_per_step(self, rows: int) -> float:
        return sum(self.lstm_layer(idx).flops(rows)
                   for idx in range(self.num_layers))

    def activation_bytes_per_step(self, rows: int) -> int:
        per_layer = sum(self.gcn_layer(i).output_dim +
                        2 * self.lstm_layer(i).hidden_size
                        for i in range(self.num_layers))
        return int(4 * rows * per_layer)  # fp32 activations
