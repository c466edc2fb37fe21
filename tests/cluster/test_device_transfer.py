"""Tests for device memory accounting and the CPU→GPU transfer engine."""

import numpy as np
import pytest

from repro.cluster import ClusterSpec, Device, TransferEngine
from repro.errors import DeviceOOM
from repro.graph.generators import evolving_dtdg


def make_device(capacity=1000):
    spec = ClusterSpec.single_node(1, gpu_memory_bytes=capacity)
    return Device(0, spec)


class TestDeviceMemory:
    def test_alloc_free_cycle(self):
        d = make_device(100)
        h = d.alloc(60, "block")
        assert d.in_use == 60
        d.free(h)
        assert d.in_use == 0

    def test_oom_raised_with_context(self):
        d = make_device(100)
        d.alloc(80)
        with pytest.raises(DeviceOOM) as exc:
            d.alloc(30, "activations")
        assert exc.value.requested == 30
        assert exc.value.in_use == 80
        assert exc.value.capacity == 100

    def test_oom_leaves_state_unchanged(self):
        d = make_device(100)
        d.alloc(80)
        with pytest.raises(DeviceOOM):
            d.alloc(30)
        assert d.in_use == 80

    def test_peak_tracking(self):
        d = make_device(100)
        h = d.alloc(70)
        d.free(h)
        d.alloc(10)
        assert d.peak_in_use == 70

    def test_double_free_rejected(self):
        d = make_device(100)
        h = d.alloc(10)
        d.free(h)
        with pytest.raises(KeyError):
            d.free(h)

    def test_negative_alloc_rejected(self):
        with pytest.raises(ValueError):
            make_device().alloc(-5)

    def test_free_all_by_tag(self):
        d = make_device(100)
        d.alloc(10, "a")
        d.alloc(20, "b")
        d.alloc(30, "a")
        released = d.free_all("a")
        assert released == 40
        assert d.in_use == 20

    def test_available(self):
        d = make_device(100)
        d.alloc(30)
        assert d.available == 70

    def test_reset(self):
        d = make_device(100)
        d.alloc(30)
        d.compute_dense(1e9)
        d.reset()
        assert d.in_use == 0 and d.clock.now == 0.0


class TestDeviceCompute:
    def test_dense_rate(self):
        d = make_device()
        secs = d.compute_dense(d.spec.dense_flops)  # exactly 1 second
        assert secs == pytest.approx(1.0)
        assert d.clock.breakdown.compute == pytest.approx(1.0)

    def test_sparse_slower_than_dense(self):
        d = make_device()
        t_sparse = d.compute_sparse(1e9)
        t_dense = d.compute_dense(1e9)
        assert t_sparse > t_dense

    def test_zero_flops(self):
        d = make_device()
        assert d.compute_dense(0) == 0.0


class TestTransferEngine:
    def test_h2d_time_model(self):
        d = make_device()
        eng = TransferEngine()
        secs = eng.h2d(d, 11_000_000)
        expected = d.spec.h2d_latency + 11_000_000 / d.spec.h2d_bandwidth
        assert secs == pytest.approx(expected)
        assert d.clock.breakdown.transfer == pytest.approx(expected)

    def test_stats_accumulate(self):
        d = make_device()
        eng = TransferEngine()
        eng.h2d(d, 100)
        eng.h2d(d, 200)
        assert eng.stats.bytes_moved == 300
        assert eng.stats.num_transfers == 2

    def test_naive_block_charges_full_bytes(self):
        dtdg = evolving_dtdg(40, 6, 80, churn=0.1, seed=0)
        d = make_device()
        eng = TransferEngine()
        out = eng.send_block_naive(d, dtdg.snapshots)
        assert out == dtdg.snapshots
        assert eng.stats.bytes_moved == sum(s.nbytes for s in dtdg.snapshots)

    def test_gd_block_reconstructs_and_saves(self):
        dtdg = evolving_dtdg(40, 8, 80, churn=0.1, seed=1)
        naive = TransferEngine()
        gd = TransferEngine()
        d1, d2 = make_device(), make_device()
        naive.send_block_naive(d1, dtdg.snapshots)
        received = gd.send_block_gd(d2, dtdg.snapshots)
        # decoded snapshots are exactly the originals
        for got, want in zip(received, dtdg.snapshots):
            assert got == want
        assert gd.stats.bytes_moved < naive.stats.bytes_moved
        assert gd.gd_savings_ratio > 1.0
        assert d2.clock.breakdown.transfer < d1.clock.breakdown.transfer

    def test_gd_on_independent_snapshots_gains_nothing(self):
        from repro.graph.generators import random_dtdg
        dtdg = random_dtdg(60, 6, 1.5, seed=2)
        gd = TransferEngine()
        gd.send_block_gd(make_device(), dtdg.snapshots)
        # disjoint topologies: diffs carry ~2x the index data
        assert gd.gd_savings_ratio < 1.05

    def test_gd_empty_block(self):
        eng = TransferEngine()
        assert eng.send_block_gd(make_device(), []) == []

    def test_savings_ratio_defaults_to_one(self):
        assert TransferEngine().gd_savings_ratio == 1.0

    def test_reset(self):
        eng = TransferEngine()
        eng.h2d(make_device(), 100)
        eng.reset()
        assert eng.stats.bytes_moved == 0
