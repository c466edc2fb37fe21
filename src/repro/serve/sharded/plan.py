"""Shard plans: vertex→shard ownership plus ghost-vertex halo geometry.

A :class:`ShardPlan` assigns every resident vertex to exactly one shard
worker, reusing the partitioners the trainer already has:

* :meth:`ShardPlan.uniform` — contiguous equal blocks
  (:class:`~repro.partition.base.VertexChunks`), the §4.2 layout;
* :meth:`ShardPlan.from_partition` — a hypergraph/random
  :class:`~repro.partition.vertex_part.VertexPartition` (§4.1), applied
  in the *original* id space (serving never renames live vertex ids);
* :meth:`ShardPlan.from_hybrid` — the row chunks of a §6.5
  :class:`~repro.partition.hybrid.HybridPlan` (shards play the role of
  group members cooperating on one resident graph);
* :meth:`ShardPlan.weighted` — contiguous blocks balanced against an
  observed per-vertex load vector (what the rebalancer builds).

The halo geometry is a truncated distance-to-block field: a shard with
an ``L``-layer model computes layer ``ℓ`` outputs for every vertex
within ``L-1-ℓ`` hops of its block, so rows at distance ``d`` are ghost
(halo) rows mirrored for ``d ∈ [1, L-1]`` and ring ``L`` contributes
degree features only.  The shared truncated BFS
(:func:`~repro.graph.traversal.undirected_distances`) builds the field
exactly at timestep boundaries; :func:`relax_distances` lowers it in
place after intra-step edge additions — lowering is the exactness-safe
direction, since an overestimate would shrink coverage below what
owned-row recomputation needs, while an underestimate merely recomputes
a few extra ghost rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import PartitionError
from repro.partition.base import VertexChunks
from repro.partition.hybrid import HybridPlan
from repro.partition.vertex_part import VertexPartition

__all__ = ["ShardPlan", "relax_distances"]


@dataclass(frozen=True)
class ShardPlan:
    """Vertex→shard assignment for the sharded serving tier."""

    owner: np.ndarray
    num_shards: int

    def __post_init__(self) -> None:
        owner = np.asarray(self.owner, dtype=np.int64)
        object.__setattr__(self, "owner", owner)
        if self.num_shards < 1:
            raise PartitionError("a shard plan needs at least one shard")
        if len(owner) == 0:
            raise PartitionError("shard plan over an empty vertex set")
        if owner.min() < 0 or owner.max() >= self.num_shards:
            raise PartitionError("shard ids out of range in owner array")

    @property
    def num_vertices(self) -> int:
        return len(self.owner)

    @classmethod
    def uniform(cls, num_vertices: int, num_shards: int) -> "ShardPlan":
        chunks = VertexChunks.uniform(num_vertices, num_shards)
        return cls(owner=chunks.owner_array(), num_shards=num_shards)

    @classmethod
    def from_chunks(cls, chunks: VertexChunks) -> "ShardPlan":
        return cls(owner=chunks.owner_array(), num_shards=chunks.num_ranks)

    @classmethod
    def from_partition(cls, partition: VertexPartition) -> "ShardPlan":
        """Adopt a §4.1 vertex partition (original id space)."""
        return cls(owner=partition.assignment.copy(),
                   num_shards=partition.num_ranks)

    @classmethod
    def from_hybrid(cls, plan: HybridPlan) -> "ShardPlan":
        """Adopt the row-split of a §6.5 hybrid plan (one shard per
        group member)."""
        return cls.from_chunks(plan.row_chunks)

    @classmethod
    def weighted(cls, loads: np.ndarray, num_shards: int) -> "ShardPlan":
        """Contiguous blocks with near-equal cumulative ``loads``.

        ``loads`` is a non-negative per-vertex weight (e.g. queries
        observed per vertex); block boundaries are placed at the load
        quantiles, which is how the rebalancer splits a skewed keyspace.
        """
        loads = np.asarray(loads, dtype=np.float64)
        if (loads < 0).any():
            raise PartitionError("vertex loads must be non-negative")
        n = len(loads)
        if num_shards > n:
            raise PartitionError(
                f"cannot spread {n} vertices over {num_shards} shards")
        # every vertex carries a floor weight so zero-load tails still
        # spread across shards
        weights = loads + max(loads.sum(), 1.0) / (10.0 * n)
        cum = np.cumsum(weights)
        targets = cum[-1] * np.arange(1, num_shards) / num_shards
        bounds = np.searchsorted(cum, targets, side="left")
        # concentrated load can collapse several quantiles onto one cut
        # point; force the cuts strictly increasing (and leave room for
        # the trailing shards) so every shard keeps at least one vertex
        for i in range(len(bounds)):
            lo = bounds[i - 1] + 1 if i else 0
            hi = n - (num_shards - 1 - i) - 1
            bounds[i] = min(max(bounds[i], lo), hi)
        owner = np.zeros(n, dtype=np.int64)
        for s, b in enumerate(bounds):
            owner[b + 1:] = s + 1
        return cls(owner=owner, num_shards=num_shards)

    def block(self, shard: int) -> np.ndarray:
        """Sorted vertex ids owned by ``shard``."""
        if not 0 <= shard < self.num_shards:
            raise PartitionError(f"shard {shard} out of range")
        return np.flatnonzero(self.owner == shard)

    def block_sizes(self) -> np.ndarray:
        return np.bincount(self.owner, minlength=self.num_shards)

    def imbalance(self) -> float:
        """max/mean shard size (1.0 = perfectly balanced)."""
        sizes = self.block_sizes().astype(np.float64)
        return float(sizes.max() / sizes.mean()) if sizes.mean() else 1.0


def relax_distances(dist: np.ndarray, edges: np.ndarray,
                    region: np.ndarray, max_dist: int) -> None:
    """Lower ``dist`` in place after edge additions touching ``region``.

    Runs ``max_dist`` rounds of bounded relaxation over the edges
    incident to the affected region — enough because any distance that
    genuinely decreased lies on a path of newly-dirty vertices of length
    at most ``max_dist``.  The update is monotone non-increasing, so
    stale entries after edge *removals* only over-cover (the exact field
    is rebuilt at the next timestep boundary).
    """
    if len(region) == 0 or len(edges) == 0 or max_dist <= 0:
        return
    mask = np.zeros(len(dist), dtype=bool)
    mask[region] = True
    inc = edges[mask[edges[:, 0]] | mask[edges[:, 1]]]
    if len(inc) == 0:
        return
    src, dst = inc[:, 0], inc[:, 1]
    for _ in range(max_dist):
        d_src = dist[src]
        d_dst = dist[dst]
        np.minimum.at(dist, dst, d_src + 1)
        np.minimum.at(dist, src, d_dst + 1)
