"""Benchmark harness regenerating every table and figure of the paper."""

from repro.bench.harness import (PointSpec, cached_point, run_point,
                                 speedup_series)
from repro.bench.reporting import fmt, render_table, results_dir, write_report
from repro.bench.workloads import (DATASET_NAMES, DATASET_SCALE, GPU_COUNTS,
                                   MODEL_LABELS, bench_dtdg,
                                   calibrated_overrides, hardware_scale,
                                   raw_bench_dtdg)

__all__ = [
    "PointSpec", "run_point", "speedup_series", "cached_point",
    "render_table", "write_report", "results_dir", "fmt",
    "GPU_COUNTS", "DATASET_NAMES", "MODEL_LABELS", "DATASET_SCALE",
    "bench_dtdg", "raw_bench_dtdg", "hardware_scale",
    "calibrated_overrides",
]
