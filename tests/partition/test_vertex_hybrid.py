"""Tests for vertex partitioning (comm plans) and hybrid partitioning."""

import numpy as np
import pytest

from repro.errors import PartitionError
from repro.graph import DTDG, GraphSnapshot, evolving_dtdg, normalized_laplacian
from repro.partition import (SnapshotCommPlan, VertexPartition,
                             hybrid_partition, hypergraph_vertex_partition,
                             random_vertex_partition)


class TestVertexPartition:
    def test_from_assignment_renames_contiguously(self):
        assignment = np.array([1, 0, 1, 0, 1])
        vp = VertexPartition.from_assignment(assignment, 2)
        # rank 0 owns 2 vertices renamed to 0..1, rank 1 owns 3 → 2..4
        assert vp.chunks.ranges == ((0, 2), (2, 5))
        owners_by_new_id = vp.chunks.owner_array()
        for old in range(5):
            assert owners_by_new_id[vp.perm[old]] == assignment[old]

    def test_perm_is_permutation(self):
        vp = random_vertex_partition(50, 4, seed=0)
        assert sorted(vp.perm.tolist()) == list(range(50))

    def test_rename_edges(self):
        vp = VertexPartition.from_assignment(np.array([1, 0]), 2)
        renamed = vp.rename_edges(np.array([[0, 1], [1, 0]]))
        np.testing.assert_array_equal(renamed, [[1, 0], [0, 1]])

    def test_rename_empty(self):
        vp = random_vertex_partition(10, 2)
        out = vp.rename_edges(np.empty((0, 2), dtype=np.int64))
        assert len(out) == 0

    def test_out_of_range_assignment(self):
        with pytest.raises(PartitionError):
            VertexPartition.from_assignment(np.array([0, 3]), 2)

    def test_random_partition_balanced(self):
        vp = random_vertex_partition(100, 4, seed=1)
        assert vp.imbalance() <= 1.05

    def test_hypergraph_partition_end_to_end(self):
        dtdg = evolving_dtdg(80, 4, 200, churn=0.3, seed=0)
        vp = hypergraph_vertex_partition(dtdg, 4, seed=0)
        assert vp.num_ranks == 4
        assert vp.num_vertices == 80
        assert vp.imbalance() < 1.6


def _volume(plan) -> int:
    """Feature vectors the plan exchanges (the paper's per-snapshot
    volume): its payload matrix at one one-byte value per vector."""
    return int(plan.bytes_matrix(1, 1).sum())


class TestSnapshotCommPlan:
    def _plan(self, edges, assignment, p):
        n = len(assignment)
        snap = GraphSnapshot(n, edges)
        vp = VertexPartition.from_assignment(np.array(assignment), p)
        renamed = GraphSnapshot(n, vp.rename_edges(snap.edges))
        lap = normalized_laplacian(renamed)
        return SnapshotCommPlan.build(lap, vp), vp

    def test_no_comm_when_partition_respects_edges(self):
        # vertices {0,1} on rank 0, {2,3} on rank 1, edges only inside
        plan, _ = self._plan([[0, 1], [2, 3]], [0, 0, 1, 1], 2)
        assert _volume(plan) == 0

    def test_cross_edge_requires_send(self):
        # edge 0 -> 2 crosses ranks: owner of column 0 must send to the
        # rank owning row 2's block... rows needing col 0 = {0 (diag), 2}
        plan, vp = self._plan([[2, 0]], [0, 0, 1, 1], 2)
        # column 0 (renamed) has support {0, 2}: rank 0 sends to rank 1
        assert _volume(plan) == 1
        assert len(plan.send[0][1]) + len(plan.send[1][0]) == 1

    def test_volume_counts_lambda_minus_one(self):
        # star: vertex 0 feeds rows on both other ranks
        plan, _ = self._plan([[1, 0], [2, 0], [3, 0]], [0, 0, 1, 2], 3)
        # column 0 support {0,1,2,3} spans ranks {0,1,2}: λ−1 = 2 sends
        assert _volume(plan) == 2

    def test_bytes_matrix(self):
        plan, _ = self._plan([[2, 0]], [0, 0, 1, 1], 2)
        mat = plan.bytes_matrix(feature_dim=6)
        assert mat.sum() == 1 * 6 * 4  # fp32 wire values
        assert mat[0, 1] == 24.0

    def test_empty_graph_no_comm(self):
        n = 6
        snap = GraphSnapshot(n, np.empty((0, 2), dtype=np.int64))
        vp = random_vertex_partition(n, 3, seed=0)
        plan = SnapshotCommPlan.build(normalized_laplacian(snap), vp)
        assert _volume(plan) == 0

    def test_volume_increases_with_ranks(self):
        dtdg = evolving_dtdg(60, 1, 300, churn=0.0, seed=1)
        snap = dtdg.snapshots[0]
        volumes = []
        for p in (2, 4, 8):
            vp = random_vertex_partition(60, p, seed=0)
            renamed = GraphSnapshot(60, vp.rename_edges(snap.edges))
            plan = SnapshotCommPlan.build(normalized_laplacian(renamed), vp)
            volumes.append(_volume(plan))
        assert volumes[0] < volumes[1] < volumes[2]


class TestHybridPartition:
    def test_paper_sec65_layout(self):
        # 2 GPUs, one group of 2: every snapshot split between the two
        plan = hybrid_partition(num_timesteps=10, num_vertices=100,
                                num_ranks=2, group_size=2)
        assert plan.num_groups == 1
        assert plan.groups[0] == (0, 1)
        assert plan.timestep_assignment.owned[0] == tuple(range(10))
        assert plan.row_chunks.ranges == ((0, 50), (50, 100))

    def test_multi_group(self):
        plan = hybrid_partition(8, 40, num_ranks=4, group_size=2)
        assert plan.num_groups == 2
        assert plan.groups == ((0, 1), (2, 3))
        # groups split the timeline contiguously
        assert plan.timestep_assignment.owned == ((0, 1, 2, 3), (4, 5, 6, 7))

    def test_group_of_rank(self):
        plan = hybrid_partition(8, 40, num_ranks=4, group_size=2)
        assert plan.group_of_rank(3) == 1
        with pytest.raises(PartitionError):
            plan.group_of_rank(9)

    def test_blockwise_variant(self):
        plan = hybrid_partition(8, 40, num_ranks=4, group_size=2,
                                num_blocks=2)
        # 2 groups, 2 blocks of 4 steps: group 0 gets steps {0,1} and {4,5}
        assert plan.timestep_assignment.owned[0] == (0, 1, 4, 5)

    def test_invalid_group_size(self):
        with pytest.raises(PartitionError):
            hybrid_partition(8, 40, num_ranks=4, group_size=3)
        with pytest.raises(PartitionError):
            hybrid_partition(8, 40, num_ranks=4, group_size=0)

    def test_group_size_not_dividing_num_ranks(self):
        # every non-divisor in range must be rejected, divisors accepted
        for gs in range(1, 7):
            if 6 % gs == 0:
                assert hybrid_partition(6, 30, num_ranks=6,
                                        group_size=gs).group_size == gs
            else:
                with pytest.raises(PartitionError):
                    hybrid_partition(6, 30, num_ranks=6, group_size=gs)

    def test_single_snapshot_input(self):
        # T=1, two groups: group 0 owns the lone snapshot, group 1 idles
        # (the §6.5 idle-rank limitation), rows still split in-group
        plan = hybrid_partition(1, 20, num_ranks=4, group_size=2)
        assert plan.timestep_assignment.owned == ((0,), ())
        plan.timestep_assignment.validate()
        assert plan.row_chunks.ranges == ((0, 10), (10, 20))
        # single snapshot on a single group leaves nobody idle
        solo = hybrid_partition(1, 20, num_ranks=2, group_size=2)
        assert solo.timestep_assignment.owned == ((0,),)

    def test_more_ranks_than_timesteps(self):
        # P=8, T=3 with group_size 2 → 4 groups, one idle
        plan = hybrid_partition(3, 20, num_ranks=8, group_size=2)
        assert plan.timestep_assignment.owned == ((0,), (1,), (2,), ())
        plan.timestep_assignment.validate()
        owners = plan.timestep_assignment.owner_map()
        assert owners.tolist() == [0, 1, 2]
        # every rank still resolves to a group
        for rank in range(8):
            g = plan.group_of_rank(rank)
            assert rank in plan.groups[g]

    def test_group_wider_than_vertex_set(self):
        # group_size > V: trailing members own empty row ranges but the
        # ranges still tile the vertex set
        plan = hybrid_partition(2, 5, num_ranks=8, group_size=8)
        sizes = [plan.row_chunks.size(r) for r in range(8)]
        assert sum(sizes) == 5
        assert sizes[:5] == [1] * 5 and sizes[5:] == [0] * 3
