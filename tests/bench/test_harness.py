"""Tests for the benchmark harness: reporting, speedup math, workload
calibration and the run_point driver."""

import numpy as np
import pytest

from repro.bench import (DATASET_SCALE, DATASET_NAMES, PointSpec,
                         calibrated_overrides, fmt, hardware_scale,
                         render_table, run_point, speedup_series)
from repro.bench.workloads import bench_dtdg, raw_bench_dtdg
from repro.cluster import ClusterSpec
from repro.graph import evolving_dtdg
from repro.train.preprocess import degree_features


class TestReporting:
    def test_fmt_variants(self):
        assert fmt(None) == "DNR"
        assert fmt(float("nan")) == "-"
        assert fmt(1234.5) == "1,234"
        assert fmt(12.34) == "12.3"
        assert fmt(0.1234) == "0.123"
        assert fmt("x") == "x"
        assert fmt(7) == "7"

    def test_render_table_alignment(self):
        out = render_table(["a", "bb"], [[1, 2], [33, 44]], title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[2] and "bb" in lines[2]
        widths = {len(line) for line in lines[2:]}
        assert len(widths) == 1  # all rows aligned


class TestSpeedupSeries:
    def test_reference_is_p1(self):
        s = speedup_series({1: 100.0, 2: 50.0, 4: 25.0})
        assert s[1] == pytest.approx(1.0)
        assert s[4] == pytest.approx(4.0)

    def test_dnr_reference_shifts(self):
        # paper convention: when P=1 DNR'd, smallest running P gets
        # speedup = P
        s = speedup_series({1: None, 4: 100.0, 8: 50.0})
        assert s[4] == pytest.approx(4.0)
        assert s[8] == pytest.approx(8.0)

    def test_all_dnr(self):
        assert speedup_series({1: None}) == {}


class TestWorkloadCalibration:
    def test_bench_scales_cover_paper_datasets(self):
        assert set(DATASET_SCALE) == set(DATASET_NAMES)

    def test_timelines_cover_p128(self):
        for name in DATASET_NAMES:
            assert raw_bench_dtdg(name).num_timesteps >= 129

    def test_bench_dtdg_cached(self):
        assert bench_dtdg("epinions", "tmgcn") is \
            bench_dtdg("epinions", "tmgcn")

    def test_hardware_scale_factors(self):
        edge, feat = hardware_scale("amlsim", "tmgcn")
        assert 0 < edge < 1e-3
        assert 0 < feat < 1e-3

    def test_overrides_scale_rates(self):
        ov = calibrated_overrides("amlsim", "tmgcn")
        base = ClusterSpec()
        assert ov["dense_flops"] < base.dense_flops
        assert ov["inter_bandwidth"] < base.inter_bandwidth
        assert ov["gpu_memory_bytes"] >= 1024
        # overrides build a valid spec
        ClusterSpec(**ov)

    def test_memory_headroom_scales_budget(self):
        small = calibrated_overrides("amlsim", "tmgcn",
                                     memory_headroom=1.0)
        big = calibrated_overrides("amlsim", "tmgcn", memory_headroom=4.0)
        assert big["gpu_memory_bytes"] > small["gpu_memory_bytes"]


class TestRunPoint:
    def _dtdg(self):
        d = evolving_dtdg(24, 13, 60, churn=0.2, seed=0)
        d.set_features(degree_features(d))
        return d

    def test_runs_and_reports(self):
        result = run_point(self._dtdg(), PointSpec(model="tmgcn",
                                                   num_ranks=2))
        assert result is not None
        assert result.breakdown.total > 0

    def test_blocks_capped_by_ranks(self):
        # T=12 train steps, P=8 -> starting nb = 1 (every rank owns a
        # timestep per block); must run without idle-block distortion
        result = run_point(self._dtdg(), PointSpec(model="tmgcn",
                                                   num_ranks=8,
                                                   num_blocks=8))
        assert result is not None

    def test_oom_returns_none_without_tuning(self):
        spec = PointSpec(model="tmgcn", num_ranks=1, num_blocks=1,
                         tune_blocks=False,
                         spec_overrides=(("gpu_memory_bytes", 2048),))
        assert run_point(self._dtdg(), spec) is None

    def test_oom_tuning_raises_block_count(self):
        # generous enough for deep checkpointing, too small for nb=1
        spec_fail = PointSpec(model="tmgcn", num_ranks=1, num_blocks=1,
                              tune_blocks=False,
                              spec_overrides=(("gpu_memory_bytes",
                                               60_000),))
        assert run_point(self._dtdg(), spec_fail) is None
        spec_tuned = PointSpec(model="tmgcn", num_ranks=1, num_blocks=1,
                               tune_blocks=True,
                               spec_overrides=(("gpu_memory_bytes",
                                                60_000),))
        assert run_point(self._dtdg(), spec_tuned) is not None

    def test_epoch_averaging(self):
        result = run_point(self._dtdg(), PointSpec(model="tmgcn",
                                                   num_ranks=2, epochs=3))
        assert result is not None
        assert np.isfinite(result.total_ms)
