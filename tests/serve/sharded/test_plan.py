"""Shard plans, halo geometry, and the delta splitter."""

import numpy as np
import pytest

from repro.errors import DatasetError, PartitionError
from repro.graph import GraphSnapshot
from repro.graph.diff import diff_snapshots, split_diff_by_blocks
from repro.partition import (VertexChunks, hybrid_partition,
                             random_vertex_partition)
from repro.serve.sharded import ShardPlan
from repro.graph.traversal import undirected_distances
from repro.serve.sharded.plan import relax_distances


class TestShardPlan:
    def test_uniform_blocks_partition_the_vertex_set(self):
        plan = ShardPlan.uniform(10, 3)
        got = np.concatenate([plan.block(s) for s in range(3)])
        np.testing.assert_array_equal(np.sort(got), np.arange(10))
        assert plan.imbalance() <= 4 / 3 + 1e-9

    def test_from_partition_uses_original_ids(self):
        vp = random_vertex_partition(20, 4, seed=3)
        plan = ShardPlan.from_partition(vp)
        np.testing.assert_array_equal(plan.owner, vp.assignment)

    def test_from_hybrid_uses_row_chunks(self):
        h = hybrid_partition(num_timesteps=6, num_vertices=12, num_ranks=4,
                             group_size=2)
        plan = ShardPlan.from_hybrid(h)
        assert plan.num_shards == 2
        assert plan.num_vertices == 12

    def test_weighted_balances_cumulative_load(self):
        loads = np.zeros(100)
        loads[:10] = 30.0  # hot prefix
        plan = ShardPlan.weighted(loads, 4)
        sizes = plan.block_sizes()
        assert (sizes > 0).all()
        # the hot prefix is confined to small leading shards while the
        # cold tail aggregates into one big block
        assert sizes[0] < sizes[-1]
        per_shard = np.bincount(plan.owner, weights=loads, minlength=4)
        assert per_shard.max() / per_shard.mean() < 2.0

    def test_weighted_never_produces_empty_shards(self):
        # a single scorching-hot vertex collapses every load quantile
        # onto one cut point; the plan must still cover all shards
        loads = np.zeros(1000)
        loads[0] = 5000.0
        plan = ShardPlan.weighted(loads, 4)
        assert (plan.block_sizes() > 0).all()
        assert plan.block_sizes()[0] == 1   # the hot vertex is isolated
        with pytest.raises(PartitionError):
            ShardPlan.weighted(np.ones(3), 4)

    def test_rejects_bad_owner_arrays(self):
        with pytest.raises(PartitionError):
            ShardPlan(owner=np.array([0, 1, 2]), num_shards=2)
        with pytest.raises(PartitionError):
            ShardPlan(owner=np.array([], dtype=np.int64), num_shards=1)


class TestHaloGeometry:
    #  path graph 0-1-2-3-4-5
    edges = np.array([[0, 1], [1, 2], [2, 3], [3, 4], [4, 5]])

    def test_block_distances_truncated(self):
        dist = undirected_distances(6, self.edges, np.array([0, 1]), 2)
        np.testing.assert_array_equal(dist, [0, 0, 1, 2, 3, 3])

    def test_vertex_chunks_fringe(self):
        chunks = VertexChunks.uniform(6, 3)  # blocks {0,1} {2,3} {4,5}
        np.testing.assert_array_equal(chunks.fringe(self.edges, 0, hops=1),
                                      [2])
        np.testing.assert_array_equal(chunks.fringe(self.edges, 1, hops=1),
                                      [1, 4])
        np.testing.assert_array_equal(chunks.fringe(self.edges, 0, hops=2),
                                      [2, 3])
        assert len(chunks.fringe(self.edges, 0, hops=0)) == 0
        with pytest.raises(PartitionError):
            chunks.fringe(self.edges, 0, hops=-1)

    def test_relax_distances_lowers_after_addition(self):
        dist = undirected_distances(6, self.edges, np.array([0, 1]), 2)
        # new edge (1, 5) pulls 5 and 4 closer to the block
        new_edges = np.concatenate([self.edges, [[1, 5]]], axis=0)
        relax_distances(dist, new_edges, np.array([1, 4, 5]), max_dist=2)
        assert dist[5] == 1
        assert dist[4] == 2
        # untouched entries keep their values
        assert dist[2] == 1 and dist[3] == 2

    def test_relax_never_raises_distances(self):
        dist = undirected_distances(6, self.edges, np.array([0, 1]), 2)
        before = dist.copy()
        relax_distances(dist, self.edges, np.arange(6), max_dist=2)
        assert (dist <= before).all()


class TestSplitDiffByBlocks:
    def make(self):
        prev = GraphSnapshot(6, np.array([[0, 1], [2, 3], [4, 5]]))
        curr = GraphSnapshot(6, np.array([[0, 1], [0, 3], [4, 5], [5, 2]]))
        return prev, curr, diff_snapshots(prev, curr)

    def test_blocks_receive_incident_edges(self):
        prev, curr, diff = self.make()
        owners = np.array([0, 0, 1, 1, 2, 2])
        subs = split_diff_by_blocks(diff, curr, owners)
        assert len(subs) == 3
        # (2,3) removed: incident to block 1 only
        assert len(subs[1].removed) == 1
        assert len(subs[0].removed) == 0
        # (0,3) added spans blocks 0 and 1 → appears in both
        assert [0, 3] in subs[0].added.tolist()
        assert [0, 3] in subs[1].added.tolist()
        # (5,2) added spans blocks 1 and 2
        assert [5, 2] in subs[1].added.tolist()
        assert [5, 2] in subs[2].added.tolist()

    def test_union_covers_the_full_delta(self):
        prev, curr, diff = self.make()
        owners = np.array([0, 0, 1, 1, 2, 2])
        subs = split_diff_by_blocks(diff, curr, owners)
        added = {tuple(e) for s in subs for e in s.added.tolist()}
        removed = {tuple(e) for s in subs for e in s.removed.tolist()}
        assert added == {tuple(e) for e in diff.added.tolist()}
        assert removed == {tuple(e) for e in diff.removed.tolist()}
        # cross-block duplication makes fan-out at least the full delta
        assert sum(s.payload_nbytes for s in subs) >= diff.payload_nbytes

    def test_values_follow_incidence(self):
        prev, curr, diff = self.make()
        owners = np.array([0, 0, 1, 1, 2, 2])
        subs = split_diff_by_blocks(diff, curr, owners)
        # block 0's incident current edges: (0,1), (0,3)
        assert subs[0].nnz == 2
        # the added (0,3) carries its value into block 0
        np.testing.assert_array_equal(subs[0].added_values, [1.0])

    def test_owner_array_must_cover_vertices(self):
        prev, curr, diff = self.make()
        with pytest.raises(DatasetError):
            split_diff_by_blocks(diff, curr, np.array([0, 1]))
