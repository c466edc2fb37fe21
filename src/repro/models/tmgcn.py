"""TM-GCN — tensor M-product dynamic GCN (paper §5.3, Malik et al.).

Each layer pairs a plain GCN with the parameter-free M-transform: the
RNN component is a trailing-window average along the timeline.  TM-GCN
additionally smooths its *input* (both the adjacency tensor and the
feature tensor) with the same M-product in preprocessing (§5.4) — that
half lives in :mod:`repro.train.preprocess`.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError
from repro.models.base import DynamicGNN
from repro.nn.gcn import GCNLayer
from repro.nn.mproduct import m_transform_flops, m_transform_frames

__all__ = ["TMGCN"]


class TMGCN(DynamicGNN):
    """Multi-layer TM-GCN.

    Parameters
    ----------
    window:
        The M-product window ``w`` (both the RNN aggregation width and
        the carry size between checkpoint blocks).
    """

    kind = "gcn_rnn"

    def __init__(self, in_features: int, hidden: int = 6,
                 embed_dim: int = 6, num_layers: int = 2, window: int = 3,
                 rng: np.random.Generator | None = None) -> None:
        super().__init__()
        if num_layers < 1:
            raise ConfigError("num_layers must be >= 1")
        if window < 1:
            raise ConfigError("window must be >= 1")
        rng = rng or np.random.default_rng(0)
        self.in_features = in_features
        self.hidden = hidden
        self.embed_dim = embed_dim
        self.num_layers = num_layers
        self.window = window
        width = in_features
        for idx in range(num_layers):
            out = embed_dim if idx == num_layers - 1 else hidden
            setattr(self, f"gcn{idx}", GCNLayer(width, out, rng))
            width = out

    def gcn_layer(self, idx: int) -> GCNLayer:
        return getattr(self, f"gcn{idx}")

    # -- block protocol -----------------------------------------------------------------
    def init_carry(self, rows: int) -> list:
        # empty frame history at the start of the timeline
        return [[] for _ in range(self.num_layers)]

    def layer_block(self, idx, laplacians, xs, state, t0: int = 0):
        gcn = self.gcn_layer(idx)
        ys = [gcn.forward_precomputed(self.aggregate(idx, t0 + i, lap, x))
              for i, (lap, x) in enumerate(zip(laplacians, xs))]
        return m_transform_frames(ys, self.window, history=state)

    def reuse_profile(self) -> list:
        # the M-transform is a trailing-window average over GCN outputs
        # whose weights are shared across timesteps: a row differs from
        # the previous timestep only if one of the last ``window``
        # aggregations touched it, so deeper layers stay patchable
        return [("window", self.window)] * self.num_layers

    # -- cost model -----------------------------------------------------------------------
    def rnn_flops_per_step(self, rows: int) -> float:
        return sum(m_transform_flops(rows, self.gcn_layer(idx).out_features,
                                     self.window)
                   for idx in range(self.num_layers))

    def activation_bytes_per_step(self, rows: int) -> int:
        per_layer = sum(2 * self.gcn_layer(i).out_features
                        for i in range(self.num_layers))
        return int(4 * rows * per_layer)  # fp32 activations
