"""A shard's inference engine: owned block + shrinking halo rings.

:class:`ShardEngine` specializes the single-worker
:class:`~repro.serve.engine.InferenceEngine` with a truncated
distance-to-block field.  Layer ``ℓ`` (0-based) is computed only for
vertices within ``L-1-ℓ`` hops of the owned block: the served rows are
the block itself, and each ghost ring exists solely to feed the next
layer's aggregation, so the computed region shrinks by one ring per
layer.  Everything a computed row reads is therefore computed one ring
wider at the previous layer (or is a globally-exact degree feature), and
owned rows come out **numerically identical** to a single-worker full
recompute — the same exactness argument as the unsharded engine, applied
ring-wise.  The rings are the block's read cone in closed form, and
the cache keeps the unsharded stale-layer rule: a shard marks clean
exactly the rows it computed, so ring ``d`` stays stale from layer
``L-d`` on.

The Eq. 1 operator and the degree features reach the shard through the
engine's own :class:`~repro.graph.inc_laplacian.LaplacianMaintainer`,
advanced by each commit's GD delta.  Every layer's aggregation then
row-slices that operator over the shard's covered rows (owned block +
the live ghost rings), never the full vertex set.

What cannot be derived locally is the frozen temporal state of ghost
rows (LSTM carries entering the current timestep, M-product history
frames): those are *owned* by their home shard, and pulled here from
the tier's frozen board (:mod:`repro.serve.sharded.halo`) — once per
timestep boundary for the whole halo, and incrementally whenever an
edge event pulls a new vertex into the halo mid-step.  EvolveGCN has
no per-vertex recurrence; its weight LSTM is replicated and every
shard evolves it identically, so it pulls zero bytes.
"""

from __future__ import annotations

import numpy as np

from repro.graph.snapshot import GraphSnapshot
from repro.graph.traversal import undirected_distances
from repro.models.base import DynamicGNN
from repro.serve.engine import REPLICATED_STATE, InferenceEngine
from repro.serve.sharded.plan import relax_distances

__all__ = ["ShardEngine"]


class ShardEngine(InferenceEngine):
    """Evaluates a dynamic GNN for one shard's vertex block.

    Parameters
    ----------
    model / snapshot / telemetry / kernel_backend:
        As for :class:`InferenceEngine` (every shard packs the same
        weights — serving replicates weights, not state).
    block:
        Sorted vertex ids this shard owns and serves.
    """

    def __init__(self, model: DynamicGNN, snapshot: GraphSnapshot,
                 block: np.ndarray, *, telemetry=None,
                 kernel_backend=None) -> None:
        self._block = np.asarray(block, dtype=np.int64)
        super().__init__(model, snapshot, telemetry=telemetry,
                         kernel_backend=kernel_backend)
        self.rebuild_halo()

    # -- halo geometry ---------------------------------------------------------------
    @property
    def block(self) -> np.ndarray:
        return self._block

    @property
    def max_ring(self) -> int:
        """Deepest ghost ring whose rows are computed locally."""
        return self.model.num_layers - 1

    @property
    def coverage(self) -> np.ndarray:
        """Rows this shard materializes (owned block + ghost rings)."""
        return np.flatnonzero(self._dist <= self.max_ring)

    @property
    def halo(self) -> np.ndarray:
        """Ghost rows only (coverage minus the owned block)."""
        return np.flatnonzero((self._dist >= 1) & (self._dist <= self.max_ring))

    def rebuild_halo(self) -> None:
        """Exact truncated BFS from the block on the resident topology."""
        self._dist = undirected_distances(
            self.num_vertices, self._resident.edges, self._block,
            self.max_ring)

    def relax_halo(self, region: np.ndarray) -> np.ndarray:
        """Lower the distance field after edge additions touching
        ``region`` (the global dirty set); returns the rows that newly
        entered (or deepened into) the computed coverage and therefore
        need their frozen temporal state pulled from their owner."""
        before = self._dist.copy()
        relax_distances(self._dist, self._resident.edges, region,
                        self.max_ring)
        return np.flatnonzero((self._dist < before)
                              & (self._dist <= self.max_ring))

    def _layer_rows(self, idx: int, rows: np.ndarray) -> np.ndarray:
        """The scheduled ``rows`` within ``L-1-idx`` hops of the block:
        its last layer's read cone, in closed form (the rest stay stale)."""
        return rows[self._dist[rows] <= self.max_ring - idx]

    # -- advance protocol -------------------------------------------------------------
    # The worker pulls its halo's frozen rows between the two halves of
    # the inherited advance (all shards promote and publish, then pull,
    # then compute).
    def begin_advance(self, snapshot: GraphSnapshot | None = None, *,
                      diff=None) -> int:
        settled = super().begin_advance(snapshot, diff=diff)
        self.rebuild_halo()
        return settled

    # -- state transplant (rebalancing) ----------------------------------------------
    def export_state_rows(self, rows: np.ndarray) -> dict:
        """The state schema at ``rows`` (which must be owned rows), plus
        the replicated non-vertex state whole — the rebalancer's wire
        format."""
        return {name: array if name.startswith(REPLICATED_STATE)
                else array[rows]
                for name, array in self.state_arrays().items()}

    def adopt_state(self, rows_per_source: list[tuple[np.ndarray, dict]],
                    steps: int, dirty: np.ndarray) -> None:
        """Assemble this engine's state from per-source row exports.

        Each ``(rows, state)`` pair scatters one source shard's owned
        rows into the full-width arrays; together the sources must cover
        every vertex, and every row but the ``dirty`` ones (stale at
        their owners) is exact: ``restore_dirty`` re-marks the stale
        layers from those.  Leaves the engine primed, ready for
        refreshes and future advances.
        """
        for rows, state in rows_per_source:
            self.load_state(state, rows)
        self.steps = steps
        self._primed = True
        self.rebuild_halo()
        self.cache.restore_dirty(self._resident, dirty)
