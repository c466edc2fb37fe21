"""Tests for ClusterSpec geometry and the simulated clocks."""

import pytest

from repro.cluster import ClusterSpec, RankClock, TimeBreakdown, max_breakdown
from repro.errors import ConfigError


class TestClusterSpec:
    def test_defaults_match_paper_testbed(self):
        spec = ClusterSpec.aimos()
        assert spec.total_gpus == 128
        assert spec.num_nodes == 16
        assert spec.gpus_per_node == 8

    def test_node_of(self):
        spec = ClusterSpec.aimos()
        assert spec.node_of(0) == 0
        assert spec.node_of(7) == 0
        assert spec.node_of(8) == 1
        assert spec.node_of(127) == 15

    def test_node_of_out_of_range(self):
        spec = ClusterSpec.single_node(4)
        with pytest.raises(ConfigError):
            spec.node_of(4)

    def test_same_node(self):
        spec = ClusterSpec.aimos()
        assert spec.same_node(0, 7)
        assert not spec.same_node(7, 8)

    def test_link_classes(self):
        spec = ClusterSpec.aimos()
        bw_self, lat_self = spec.link(3, 3)
        assert bw_self == float("inf") and lat_self == 0.0
        bw_intra, _ = spec.link(0, 1)
        bw_inter, _ = spec.link(0, 9)
        assert bw_intra == spec.intra_bandwidth
        assert bw_inter == spec.inter_bandwidth
        assert bw_intra > bw_inter

    def test_validation(self):
        with pytest.raises(ConfigError):
            ClusterSpec(num_nodes=0)
        with pytest.raises(ConfigError):
            ClusterSpec(gpu_memory_bytes=0)
        with pytest.raises(ConfigError):
            ClusterSpec(inter_bandwidth=-1.0)

    def test_single_node(self):
        spec = ClusterSpec.single_node(4)
        assert spec.total_gpus == 4
        assert spec.same_node(0, 3)


class TestTimeBreakdown:
    def test_total(self):
        b = TimeBreakdown(transfer=1.0, compute=2.0, comm=3.0)
        assert b.total == 6.0

    def test_add(self):
        a = TimeBreakdown(1.0, 2.0, 3.0)
        b = TimeBreakdown(0.5, 0.5, 0.5)
        c = a + b
        assert (c.transfer, c.compute, c.comm) == (1.5, 2.5, 3.5)

    def test_scaled(self):
        b = TimeBreakdown(2.0, 4.0, 6.0).scaled(0.5)
        assert (b.transfer, b.compute, b.comm) == (1.0, 2.0, 3.0)

    def test_as_millis(self):
        ms = TimeBreakdown(0.001, 0.002, 0.003).as_millis()
        assert ms["total_ms"] == pytest.approx(6.0)
        assert ms["transfer_ms"] == pytest.approx(1.0)


class TestRankClock:
    def test_advance_buckets(self):
        c = RankClock(0)
        c.advance("transfer", 1.0)
        c.advance("compute", 2.0)
        c.advance("comm", 3.0)
        assert c.now == 6.0
        assert c.breakdown.compute == 2.0

    def test_unknown_bucket(self):
        with pytest.raises(ValueError):
            RankClock(0).advance("gpu", 1.0)

    def test_negative_time(self):
        with pytest.raises(ValueError):
            RankClock(0).advance("compute", -1.0)

    def test_wait_until_charges_bucket(self):
        c = RankClock(0)
        c.advance("compute", 1.0)
        c.wait_until(3.0, "comm")
        assert c.now == 3.0
        assert c.breakdown.comm == 2.0

    def test_wait_until_past_is_noop(self):
        c = RankClock(0)
        c.advance("compute", 5.0)
        c.wait_until(1.0, "comm")
        assert c.now == 5.0

    def test_reset(self):
        c = RankClock(0)
        c.advance("compute", 5.0)
        c.reset()
        assert c.now == 0.0

    def test_max_breakdown_picks_slowest(self):
        a, b = RankClock(0), RankClock(1)
        a.advance("compute", 1.0)
        b.advance("transfer", 5.0)
        slowest = max_breakdown([a, b])
        assert slowest.transfer == 5.0
        assert slowest.compute == 0.0

    def test_max_breakdown_empty(self):
        assert max_breakdown([]).total == 0.0
