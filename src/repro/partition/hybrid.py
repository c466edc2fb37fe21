"""Hybrid snapshot × vertex partitioning (paper §6.5).

When a single snapshot does not fit on one GPU — or when ``P > T`` would
leave ranks idle — ranks are organized into *groups*: snapshots are
partitioned across groups (as in §4.2), and within a group each snapshot
is split row-wise across the group's ranks, so the SpMM for one snapshot
is computed cooperatively (each rank holds a contiguous block of rows of
``Ã_t`` and gathers the full ``X_t`` from its peers).

The paper's §6.5 experiment trains TM-GCN on two large AML-Sim datasets
with each snapshot split across 2 GPUs; :func:`hybrid_partition` with
``group_size=2`` reproduces that setup.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import PartitionError
from repro.partition.base import TimestepAssignment, VertexChunks
from repro.partition.snapshot_part import (blockwise_snapshot_partition,
                                           snapshot_partition)

__all__ = ["HybridPlan", "hybrid_partition"]


@dataclass(frozen=True)
class HybridPlan:
    """Group layout + per-group assignments.

    Attributes
    ----------
    groups:
        Tuple of rank tuples; ``groups[g]`` lists the ranks cooperating
        on group ``g``'s snapshots.
    timestep_assignment:
        Group → owned timesteps (groups play the role §4.2 ranks play).
    row_chunks:
        Contiguous vertex (row) ranges within a group: member ``i`` of a
        group owns ``row_chunks.ranges[i]`` of every snapshot the group
        holds.
    """

    groups: tuple[tuple[int, ...], ...]
    timestep_assignment: TimestepAssignment
    row_chunks: VertexChunks

    @property
    def num_groups(self) -> int:
        return len(self.groups)

    @property
    def group_size(self) -> int:
        return len(self.groups[0])

    def group_of_rank(self, rank: int) -> int:
        for g, members in enumerate(self.groups):
            if rank in members:
                return g
        raise PartitionError(f"rank {rank} not in any group")


def hybrid_partition(num_timesteps: int, num_vertices: int, num_ranks: int,
                     group_size: int,
                     num_blocks: int | None = None) -> HybridPlan:
    """Build the §6.5 hybrid layout.

    Parameters
    ----------
    group_size:
        Ranks cooperating per snapshot; must divide ``num_ranks``.
    num_blocks:
        When set, snapshots are assigned to groups block-wise (checkpoint
        setting); otherwise contiguously.
    """
    if group_size <= 0:
        raise PartitionError("group_size must be positive")
    if num_ranks % group_size != 0:
        raise PartitionError(
            f"group_size {group_size} must divide num_ranks {num_ranks}")
    num_groups = num_ranks // group_size
    groups = tuple(tuple(range(g * group_size, (g + 1) * group_size))
                   for g in range(num_groups))
    if num_blocks is None:
        assignment = snapshot_partition(num_timesteps, num_groups)
    else:
        assignment = blockwise_snapshot_partition(num_timesteps, num_groups,
                                                  num_blocks)
    row_chunks = VertexChunks.uniform(num_vertices, group_size)
    return HybridPlan(groups=groups, timestep_assignment=assignment,
                      row_chunks=row_chunks)
