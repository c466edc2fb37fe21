"""Shared partitioning result types.

Two orthogonal assignments appear throughout the paper:

* a **timestep assignment** — which rank owns which snapshots
  (snapshot partitioning, §4.2, including its block-wise checkpoint
  variant);
* a **vertex assignment** — which rank owns which vertices (the
  redistribution target of §4.2 and the primary distribution of the
  vertex-partitioning baseline, §4.1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import PartitionError
from repro.graph.traversal import undirected_distances

__all__ = ["TimestepAssignment", "VertexChunks", "contiguous_chunks"]


def contiguous_chunks(total: int, parts: int) -> list[tuple[int, int]]:
    """Split ``range(total)`` into ``parts`` contiguous near-equal ranges.

    The first ``total % parts`` ranges get one extra element.  Ranges may
    be empty when ``parts > total`` (idle ranks — the §6.5 limitation).
    """
    if parts <= 0:
        raise PartitionError(f"parts must be positive, got {parts}")
    if total < 0:
        raise PartitionError(f"total must be non-negative, got {total}")
    base, extra = divmod(total, parts)
    out = []
    start = 0
    for p in range(parts):
        size = base + (1 if p < extra else 0)
        out.append((start, start + size))
        start += size
    return out


@dataclass(frozen=True)
class TimestepAssignment:
    """rank → sorted list of global timestep indices it owns."""

    owned: tuple[tuple[int, ...], ...]
    num_timesteps: int

    @property
    def num_ranks(self) -> int:
        return len(self.owned)

    def owner_map(self) -> np.ndarray:
        """Array mapping each timestep to its owning rank."""
        owners = np.full(self.num_timesteps, -1, dtype=np.int64)
        for rank, steps in enumerate(self.owned):
            for t in steps:
                owners[t] = rank
        if (owners < 0).any():
            raise PartitionError("assignment does not cover all timesteps")
        return owners

    def validate(self) -> None:
        seen: set[int] = set()
        for steps in self.owned:
            for t in steps:
                if t in seen:
                    raise PartitionError(f"timestep {t} assigned twice")
                if not 0 <= t < self.num_timesteps:
                    raise PartitionError(f"timestep {t} out of range")
                seen.add(t)
        if len(seen) != self.num_timesteps:
            raise PartitionError(
                f"{self.num_timesteps - len(seen)} timesteps unassigned")


@dataclass(frozen=True)
class VertexChunks:
    """Contiguous vertex ranges per rank (the §4.2 redistribution target).

    The paper partitions ``V`` into P contiguous chunks of N/P each;
    uneven N spills one extra vertex into the leading chunks.
    """

    ranges: tuple[tuple[int, int], ...]
    num_vertices: int

    @classmethod
    def uniform(cls, num_vertices: int, num_ranks: int) -> "VertexChunks":
        return cls(tuple(contiguous_chunks(num_vertices, num_ranks)),
                   num_vertices)

    @property
    def num_ranks(self) -> int:
        return len(self.ranges)

    def size(self, rank: int) -> int:
        lo, hi = self.ranges[rank]
        return hi - lo

    def owner_array(self) -> np.ndarray:
        owners = np.empty(self.num_vertices, dtype=np.int64)
        for rank, (lo, hi) in enumerate(self.ranges):
            owners[lo:hi] = rank
        return owners

    def fringe(self, edges: np.ndarray, rank: int,
               hops: int = 1) -> np.ndarray:
        """Vertices *outside* ``rank``'s range within ``hops`` undirected
        hops of it — the ghost-vertex halo a shard must mirror to compute
        its own rows exactly (serving) or the remote rows a rank reads in
        a row-split SpMM (training).

        ``edges`` is an ``(m, 2)`` array over this chunking's vertex
        space.  Returns a sorted array of outside vertex ids.
        """
        if hops < 0:
            raise PartitionError(f"hops must be >= 0, got {hops}")
        lo, hi = self.ranges[rank]
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        dist = undirected_distances(self.num_vertices, edges,
                                    np.arange(lo, hi), hops)
        return np.flatnonzero((dist >= 1) & (dist <= hops))
