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
ring-wise.

The Eq. 1 operator and the degree features reach the shard through the
engine's own :class:`~repro.graph.inc_laplacian.LaplacianMaintainer`,
advanced by each commit's GD delta.  Every layer's aggregation then
row-slices that operator over the shard's covered rows (owned block +
the live ghost rings), never the full vertex set.

What cannot be derived locally is the frozen temporal state of ghost
rows (LSTM carries entering the current timestep, M-product history
frames): those are *owned* by their home shard and mirrored here by the
router's halo exchange (:mod:`repro.serve.sharded.halo`) — once per
timestep boundary for the whole halo, and incrementally whenever an
edge event pulls a new vertex into the halo mid-step.  EvolveGCN has no per-vertex
recurrence; its weight LSTM is replicated and every shard evolves it
identically, so its halo exchange ships zero temporal bytes.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError
from repro.graph.snapshot import GraphSnapshot
from repro.models.base import DynamicGNN
from repro.serve.engine import InferenceEngine
from repro.serve.sharded.plan import block_distances, relax_distances

__all__ = ["ShardEngine"]


class ShardEngine(InferenceEngine):
    """Evaluates a dynamic GNN for one shard's vertex block.

    Parameters
    ----------
    model / snapshot / k_hops / telemetry / kernel_backend:
        As for :class:`InferenceEngine` (every shard packs the same
        weights — serving replicates weights, not state).
    block:
        Sorted vertex ids this shard owns and serves.
    """

    def __init__(self, model: DynamicGNN, snapshot: GraphSnapshot,
                 block: np.ndarray, k_hops: int | None = None, *,
                 telemetry=None, kernel_backend=None) -> None:
        self._block = np.asarray(block, dtype=np.int64)
        self._dist: np.ndarray | None = None
        super().__init__(model, snapshot, k_hops, telemetry=telemetry,
                         kernel_backend=kernel_backend)

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
        self._dist = block_distances(self.num_vertices, self._resident.edges,
                                     self._block, self.max_ring)

    def relax_halo(self, region: np.ndarray) -> np.ndarray:
        """Lower the distance field after edge additions touching
        ``region`` (the global dirty set); returns the rows that newly
        entered (or deepened into) the computed coverage and therefore
        need their frozen temporal state imported from their owner."""
        if self._dist is None:
            raise ConfigError("rebuild_halo() must run before relax_halo()")
        before = self._dist.copy()
        relax_distances(self._dist, self._resident.edges, region,
                        self.max_ring)
        return np.flatnonzero((self._dist < before)
                              & (self._dist <= self.max_ring))

    def restrict_to_coverage(self, rows: np.ndarray) -> np.ndarray:
        """Subset of ``rows`` this shard materializes."""
        return rows[self._dist[rows] <= self.max_ring]

    def _layer_rows(self, idx: int,
                    rows: np.ndarray | None) -> np.ndarray | None:
        if self._dist is None:  # not yet sharded-primed: behave unsharded
            return rows
        limit = self.model.num_layers - 1 - idx
        if rows is None:
            sched = np.flatnonzero(self._dist <= limit)
            # full coverage keeps the cached-Laplacian SpMM fast path
            return None if len(sched) == self.num_vertices else sched
        return rows[self._dist[rows] <= limit]

    # -- advance protocol -------------------------------------------------------------
    # A sharded advance is split in two so the router can run the halo
    # exchange between carry promotion and recomputation (all shards
    # promote, then ghosts sync, then all shards compute).
    def begin_advance(self, snapshot: GraphSnapshot | None = None, *,
                      diff=None) -> None:
        self._settle()  # every replica, not just the ones that served
        if snapshot is not None:
            self.set_snapshot(snapshot, seeds=None, diff=diff)
        self.rebuild_halo()
        if self._primed:
            self._promote_carries()
        if self.kind == "egcn":
            self._evolve_weights()

    def finish_advance(self) -> int:
        """Recompute the covered rows; returns how many were computed."""
        self.cache.invalidate_all()
        self.cache.clean()
        self._compute(None)
        self._primed = True
        self.steps += 1
        return len(self.coverage)

    def advance(self, snapshot: GraphSnapshot | None = None) -> np.ndarray:
        """Single-shard convenience (full halo sync is a no-op when no
        ghost row has remote temporal state — i.e. one shard)."""
        self.begin_advance(snapshot)
        self.finish_advance()
        return self.embeddings

    # -- temporal-state mirroring ----------------------------------------------------
    # The frozen per-vertex temporal state entering the current timestep
    # is what a ghost row cannot reproduce locally.  Rows are exported
    # by the owner (always exact for its block) and written into a
    # mirroring shard's arrays.
    def export_temporal(self, rows: np.ndarray) -> list[np.ndarray]:
        out: list[np.ndarray] = []
        if self.kind == "cdgcn":
            for h, c in self.cache.pre_carry:
                out.append(h[rows])
                out.append(c[rows])
        elif self.kind == "tmgcn":
            for frames in self._history:
                for frame in frames:
                    out.append(frame[rows])
        return out

    def import_temporal(self, rows: np.ndarray,
                        payload: list[np.ndarray]) -> int:
        """Install exported temporal rows; returns payload bytes."""
        nbytes = 0
        i = 0
        if self.kind == "cdgcn":
            for h, c in self.cache.pre_carry:
                h[rows] = payload[i]
                c[rows] = payload[i + 1]
                nbytes += payload[i].nbytes + payload[i + 1].nbytes
                i += 2
        elif self.kind == "tmgcn":
            for frames in self._history:
                for frame in frames:
                    frame[rows] = payload[i]
                    nbytes += payload[i].nbytes
                    i += 1
        return nbytes

    # -- state transplant (rebalancing) ----------------------------------------------
    def export_state_rows(self, rows: np.ndarray) -> dict:
        """Every per-vertex array this shard is authoritative for
        (``rows`` must be owned rows), plus the replicated non-vertex
        temporal state — the rebalancer's wire format."""
        state: dict = {
            "layer_outputs": [z[rows] for z in self.cache.layer_outputs],
        }
        if self.kind == "cdgcn":
            state["pre_carry"] = [(h[rows], c[rows])
                                  for h, c in self.cache.pre_carry]
            state["post_carry"] = [c[rows] for c in self.cache.post_carry]
        elif self.kind == "tmgcn":
            state["history"] = [[f[rows] for f in frames]
                                for frames in self._history]
            state["current_y"] = [None if y is None else y[rows]
                                  for y in self._current_y]
        elif self.kind == "egcn":
            state["weight_state"] = [(h.copy(), c.copy())
                                     for h, c in self._weight_state]
            state["current_weights"] = [w.copy()
                                        for w in self._current_weights]
        return state

    def adopt_state(self, rows_per_source: list[tuple[np.ndarray, dict]],
                    steps: int) -> None:
        """Assemble this engine's state from per-source row exports.

        Each ``(rows, state)`` pair scatters one source shard's owned
        rows into the full-width arrays; together the sources must cover
        every vertex this shard will read.  Leaves the engine primed
        with a clean cache, ready for refreshes and future advances.
        """
        for rows, state in rows_per_source:
            for idx, z in enumerate(state["layer_outputs"]):
                self.cache.layer_outputs[idx][rows] = z
            if self.kind == "cdgcn":
                for idx, (h, c) in enumerate(state["pre_carry"]):
                    self.cache.pre_carry[idx][0][rows] = h
                    self.cache.pre_carry[idx][1][rows] = c
                for idx, c in enumerate(state["post_carry"]):
                    self.cache.post_carry[idx][rows] = c
            elif self.kind == "tmgcn":
                for idx, frames in enumerate(state["history"]):
                    while len(self._history[idx]) < len(frames):
                        self._history[idx].append(
                            np.zeros((self.num_vertices,
                                      frames[len(self._history[idx])]
                                      .shape[1])))
                    for j, f in enumerate(frames):
                        self._history[idx][j][rows] = f
                for idx, y in enumerate(state["current_y"]):
                    if y is None:
                        continue
                    if self._current_y[idx] is None:
                        self._current_y[idx] = np.zeros(
                            (self.num_vertices, y.shape[1]))
                    self._current_y[idx][rows] = y
            elif self.kind == "egcn":
                self._weight_state = [(h.copy(), c.copy())
                                      for h, c in state["weight_state"]]
                self._current_weights = [w.copy()
                                         for w in state["current_weights"]]
        self.steps = steps
        self._primed = True
        self.rebuild_halo()
        self.cache.clean()
