"""Cross-shard halo traffic accounting.

Ghost (halo) rows let each shard recompute its owned block exactly, but
their *frozen temporal state* — LSTM carries entering the current
timestep, M-product history frames — lives on the owning shard.  The
router (:class:`~repro.exec.router.ExecRouter`) mirrors it across shard
boundaries at two moments:

* a **boundary sync** at every timestep boundary, after all shards
  promoted their carries and before any recomputes: each shard imports
  the temporal rows of its entire ghost set from the owners — the
  classic bulk-synchronous halo exchange, whose volume is the
  per-advance halo traffic the benchmark reports;
* an **entrant sync** mid-step, when an edge event pulls new vertices
  into a shard's halo (the k-hop cone of the event crossed a shard
  boundary): only the entrant rows ship, keeping incremental refresh
  exact without re-syncing the whole fringe.

Because every owner recomputes its own block at every layer, the rows it
exports are always exact — the exchange never forwards second-hand
(ghost) state.  EvolveGCN ships zero temporal bytes (its recurrence runs
over replicated weights); :class:`HaloTraffic` still records the
exchanged row sets so halo *pressure* stays observable for every model.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field, replace

__all__ = ["HaloTraffic"]


@dataclass
class HaloTraffic:
    """Monotonic counters of cross-shard state movement.

    ``bytes_per_shard`` / ``rows_per_shard`` break the aggregate down by
    *importing* shard — the per-shard halo pressure the observability
    layer exports as labeled ``shard_halo_*`` series.
    """

    boundary_syncs: int = 0        # bulk syncs at timestep boundaries
    entrant_syncs: int = 0         # mid-step halo-growth syncs
    rows_shipped: int = 0          # temporal-state rows moved owner→ghost
    bytes_shipped: int = 0         # payload bytes of those rows
    messages: int = 0              # owner→ghost-shard transfers
    bytes_per_shard: dict = field(default_factory=lambda: defaultdict(int))
    rows_per_shard: dict = field(default_factory=lambda: defaultdict(int))

    def copy(self) -> "HaloTraffic":
        """Deep point-in-time copy (the per-shard dicts are mutable)."""
        return replace(self, bytes_per_shard=dict(self.bytes_per_shard),
                       rows_per_shard=dict(self.rows_per_shard))
