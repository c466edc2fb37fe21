"""The dynamic-GNN model framework (paper §2.2).

A model is a stack of layers, each pairing a GCN component (independent
per snapshot) with an RNN component (independent per vertex, dependent
along the timeline).  Models execute **block-wise**: ``forward_block``
consumes a contiguous run of timesteps plus a *carry* — the ``π_b``
payload of paper Fig. 2 (RNN states and trailing window frames) — and
returns the embeddings plus the carry for the next block.  Running a
single block over the whole timeline recovers the plain forward pass.
A block is one loop over ``layer_block``, the model's only numeric
step: every trainer — sequential, checkpointed, distributed — drives
that same step, so a data distribution is a cost model over it, never
a second forward (paper §6.4).

Two model kinds exist, distinguished by ``kind``:

* ``"gcn_rnn"`` (CD-GCN, TM-GCN) — the RNN works on vertex features, so
  the snapshot distribution must redistribute between the GCN and RNN
  stages (§4.2);
* ``"evolve"`` (EvolveGCN) — the recurrence runs over the *replicated*
  GCN weights, making every stage communication-free (§5.5).
"""

from __future__ import annotations

from typing import Any

from repro.errors import ConfigError
from repro.tensor import Module, Tensor
from repro.tensor.sparse import SparseMatrix, spmm

__all__ = ["DynamicGNN", "detach_carry"]


def detach_carry(carry: Any) -> Any:
    """Recursively detach every Tensor in a carry structure.

    Checkpoint block boundaries store the carry *detached* so each
    block's autograd graph is independent (paper §3.1); the gradient
    flowing into the carry is handled explicitly by the checkpointed
    backward pass.
    """
    if carry is None:
        return None
    if isinstance(carry, Tensor):
        return carry.detach()
    if isinstance(carry, tuple):
        return tuple(detach_carry(c) for c in carry)
    if isinstance(carry, list):
        return [detach_carry(c) for c in carry]
    if isinstance(carry, dict):
        return {k: detach_carry(v) for k, v in carry.items()}
    return carry


class DynamicGNN(Module):
    """Base class for the three paper models.

    Subclasses set ``kind``, ``embed_dim`` and ``num_layers``, expose
    their per-layer :class:`~repro.nn.gcn.GCNLayer` as ``gcn_layer(idx)``
    and implement ``init_carry`` and ``layer_block``.
    """

    kind: str = "gcn_rnn"
    embed_dim: int
    num_layers: int

    # -- block protocol (init_carry and layer_block must be implemented) ------------
    def init_carry(self, rows: int) -> list:
        """Fresh per-layer carry for a timeline starting at t=0.

        ``rows`` is the number of vertex rows the RNN will see (``N`` on
        a single device, ``N/P`` per rank under redistribution).
        """
        raise NotImplementedError

    def layer_block(self, idx: int, laplacians: list[SparseMatrix],
                    xs: list[Tensor], state: Any,
                    t0: int = 0) -> tuple[list[Tensor], Any]:
        """Layer ``idx`` over one contiguous block of timesteps: the GCN
        stage of every snapshot (through :meth:`aggregate`, keyed by the
        global timestep ``t0 + i``), then the recurrence from ``state``
        (``carry[idx]``).  Returns the layer's outputs and new state."""
        raise NotImplementedError

    def forward_block(self, laplacians: list[SparseMatrix],
                      frames: list[Tensor],
                      carry: list, t0: int = 0) -> tuple[list[Tensor], list]:
        """Process one contiguous block of timesteps.

        ``t0`` is the block's global starting timestep — the index the
        aggregation hook (cross-timestep reuse) keys its cache by.
        """
        xs, new_carry = frames, []
        for idx in range(self.num_layers):
            xs, state = self.layer_block(idx, laplacians, xs, carry[idx],
                                         t0)
            new_carry.append(state)
        return xs, new_carry

    # -- aggregation hook (cross-timestep reuse) -----------------------------------
    def set_aggregation_hook(self, hook) -> None:
        """Install ``hook(layer_idx, t, laplacian, frame) -> Tensor`` as
        the sparse-aggregation kernel; ``None`` restores plain
        :func:`~repro.tensor.sparse.spmm`.  The training tier points
        this at an :class:`~repro.train.reuse.AggregationCache` so
        ``Ã_t·X`` products are patched from the previous timestep
        instead of recomputed in full; the distributed trainer also
        charges each call to its cost plan from here."""
        self._agg_hook = hook

    def aggregate(self, idx: int, t: int, laplacian: SparseMatrix,
                  frame: Tensor) -> Tensor:
        """The layer-``idx`` sparse aggregation at global timestep ``t``."""
        hook = getattr(self, "_agg_hook", None)
        if hook is None:
            return spmm(laplacian, frame)
        return hook(idx, t, laplacian, frame)

    def reuse_profile(self) -> list:
        """Per-layer temporal propagation for the reuse frontier.

        Entry ``idx`` describes how layer ``idx``'s post-aggregation
        transform spreads a row's change across adjacent timesteps:

        * ``"dense"`` — every row can change between timesteps (a
          per-vertex recurrence or per-timestep weights); downstream
          aggregations cannot be patched and fall back to full SpMM;
        * ``("window", w)`` — a trailing-window mix: a row differs from
          the previous timestep only if one of the last ``w``
          aggregations touched it (TM-GCN's M-transform);
        * ``"local"`` — a time-invariant row-local map: the dirty set
          passes through unchanged.
        """
        return ["dense"] * self.num_layers

    # -- conveniences -----------------------------------------------------------------
    def forward(self, laplacians: list[SparseMatrix],
                frames: list[Tensor]) -> list[Tensor]:
        """Whole-timeline forward (single block)."""
        if len(laplacians) != len(frames):
            raise ConfigError(
                f"{len(laplacians)} laplacians vs {len(frames)} frames")
        if not frames:
            return []
        outs, _ = self.forward_block(laplacians, frames,
                                     self.init_carry(frames[0].shape[0]),
                                     t0=0)
        return outs

    # -- cost model (per single timestep) ------------------------------------------------
    def rnn_flops_per_step(self, rows: int) -> float:
        """Dense FLOPs of all RNN components at one timestep."""
        raise NotImplementedError

    def activation_bytes_per_step(self, rows: int) -> int:
        """Rough bytes of intermediate activations per timestep (memory
        accounting for the checkpoint study)."""
        raise NotImplementedError
