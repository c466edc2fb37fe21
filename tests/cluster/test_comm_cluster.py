"""Tests for the collectives, link model and the Cluster facade."""

import numpy as np
import pytest

from repro.cluster import Cluster, ClusterSpec, Communicator, RankClock
from repro.errors import CommunicationError, ConfigError


def make_comm(p, gpus_per_node=8):
    nodes = max(1, -(-p // gpus_per_node))
    spec = ClusterSpec.aimos(num_nodes=nodes,
                             gpus_per_node=p if nodes == 1 else gpus_per_node)
    clocks = [RankClock(r) for r in range(p)]
    return Communicator(spec, clocks), clocks


class TestAllToAll:
    def test_uniform_exchange_barrier_sync(self):
        comm, clocks = make_comm(4)
        payload = np.full((4, 4), 1000.0)
        wall = comm.all_to_all_bytes(payload)
        assert wall > 0
        # bulk-synchronous: all clocks equal after the collective
        times = {c.now for c in clocks}
        assert len(times) == 1

    def test_volume_excludes_diagonal(self):
        comm, _ = make_comm(3)
        payload = np.full((3, 3), 10.0)
        comm.all_to_all_bytes(payload)
        assert comm.volume_bytes() == 60  # 9 cells minus 3 diagonal

    def test_wrong_shape_rejected(self):
        comm, _ = make_comm(3)
        with pytest.raises(CommunicationError):
            comm.all_to_all_bytes(np.zeros((2, 2)))

    def test_inter_node_slower_than_intra(self):
        intra_comm, _ = make_comm(8)           # one node
        inter_comm, _ = make_comm(16)          # two nodes
        payload8 = np.full((8, 8), 1e6)
        payload16 = np.full((16, 16), 1e6 / 4)  # same total volume
        t_intra = intra_comm.all_to_all_bytes(payload8)
        t_inter = inter_comm.all_to_all_bytes(payload16)
        assert t_inter > t_intra

    def test_volume_by_label(self):
        comm, _ = make_comm(2)
        comm.all_to_all_bytes(np.full((2, 2), 8.0), label="fwd")
        comm.all_to_all_bytes(np.full((2, 2), 8.0), label="bwd")
        assert comm.volume_bytes("fwd") == 16
        assert comm.volume_bytes() == 32
        assert comm.volume_units("fwd") == 4.0  # 16 bytes = 4 fp32


class TestAllReduce:
    def test_sum_correct(self):
        comm, _ = make_comm(4)
        arrays = [np.full((3,), float(r)) for r in range(4)]
        total = comm.all_reduce_sum(arrays)
        np.testing.assert_array_equal(total, np.full((3,), 6.0))

    def test_single_rank_free(self):
        comm, clocks = make_comm(1)
        comm.all_reduce_sum([np.ones(4)])
        assert clocks[0].now == 0.0

    def test_mismatched_buffers(self):
        comm, _ = make_comm(2)
        with pytest.raises(CommunicationError):
            comm.all_reduce_sum([np.ones(3)])
        with pytest.raises(CommunicationError):
            comm.all_reduce_sum([np.ones(3), np.ones(4)])

    def test_gradient_volume_separate_label(self):
        comm, _ = make_comm(4)
        comm.all_to_all_bytes(np.full((4, 4), 100.0), label="redistribution")
        comm.all_reduce_sum([np.ones(2) for _ in range(4)])
        assert comm.volume_bytes("redistribution") == 1200
        assert comm.volume_bytes("gradient") > 0
        assert comm.volume_bytes("gradient") < \
            comm.volume_bytes("redistribution")


class TestCommunicatorConstruction:
    def test_empty_rejected(self):
        with pytest.raises(CommunicationError):
            Communicator(ClusterSpec.single_node(2), [])

    def test_too_many_ranks_rejected(self):
        spec = ClusterSpec.single_node(2)
        with pytest.raises(CommunicationError):
            Communicator(spec, [RankClock(r) for r in range(3)])


class TestNodeBoundaryEffect:
    """The paper's §6.3 observation: crossing the node boundary hurts."""

    def test_fixed_volume_all_to_all_dips_at_node_boundary(self):
        # O(T·N) fixed total volume spread over P ranks, like snapshot
        # partitioning's redistribution
        total = 64e6
        times = {}
        for p in (4, 8, 16, 32):
            comm, _ = make_comm(p)
            per_pair = total / (p * p)
            times[p] = comm.all_to_all_bytes(np.full((p, p), per_pair))
        # within one node, more ranks help or stay flat
        assert times[8] <= times[4] * 1.2
        # crossing to two nodes is slower than one node
        assert times[16] > times[8]
        # more nodes -> more NICs -> recovery
        assert times[32] < times[16]


class TestCluster:
    def test_of_size_small(self):
        c = Cluster.of_size(4)
        assert c.num_ranks == 4
        assert c.spec.num_nodes == 1

    def test_of_size_multi_node(self):
        c = Cluster.of_size(24)
        assert c.spec.num_nodes == 3
        assert c.num_ranks == 24

    def test_of_size_invalid(self):
        with pytest.raises(ConfigError):
            Cluster.of_size(0)

    def test_num_ranks_bounds(self):
        spec = ClusterSpec.single_node(4)
        with pytest.raises(ConfigError):
            Cluster(spec, num_ranks=9)

    def test_breakdown_tracks_critical_path(self):
        c = Cluster.of_size(2)
        c.device(0).compute_dense(c.spec.dense_flops)  # 1s on rank 0
        assert c.breakdown.compute == pytest.approx(1.0)
        assert c.elapsed == pytest.approx(1.0)

    def test_barrier_aligns_clocks(self):
        """The facade's collectives barrier the devices' own clocks."""
        c = Cluster.of_size(2)
        c.device(0).compute_dense(c.spec.dense_flops)
        c.comm.all_to_all_bytes(np.zeros((2, 2)))
        assert c.clocks[0].now == pytest.approx(c.clocks[1].now)
        assert c.clocks[1].breakdown.comm == pytest.approx(1.0)

    def test_peak_memory(self):
        c = Cluster.of_size(2)
        c.device(1).alloc(12345)
        assert c.peak_memory() == 12345

    def test_reset(self):
        c = Cluster.of_size(2)
        c.device(0).alloc(100)
        c.device(0).compute_dense(1e12)
        c.comm.all_reduce_sum([np.ones(2), np.ones(2)])
        c.reset()
        assert c.elapsed == 0.0
        assert c.device(0).in_use == 0
        assert c.comm.events == []
