"""Table 1 — dataset statistics (paper §6.1).

Regenerates the dataset table: N, T, raw nnz, nnz after M-product
smoothing and nnz after edge-life smoothing, for the calibrated
synthetic stand-ins, next to the paper's reference values.

Shape checks: smoothing must *grow* every dataset (the paper's smoothed
graphs are 6–80x denser) and must *increase* the consecutive-snapshot
overlap (the property the graph-difference transfer feeds on).
"""

from repro.bench import (DATASET_NAMES, bench_dtdg, raw_bench_dtdg,
                         render_table, write_report)
from repro.graph.datasets import DATASETS


def _rows():
    rows = []
    for name in DATASET_NAMES:
        raw = raw_bench_dtdg(name)
        mp = bench_dtdg(name, "tmgcn")
        el = bench_dtdg(name, "egcn")
        spec = DATASETS[name]
        rows.append((name, raw.num_vertices, raw.num_timesteps,
                     raw.total_nnz, mp.total_nnz, el.total_nnz,
                     f"{raw.mean_topology_overlap():.2f}",
                     f"{mp.mean_topology_overlap():.2f}"))
        rows.append((f"  (paper)", spec.paper_vertices,
                     spec.paper_timesteps, spec.paper_nnz,
                     spec.paper_nnz_mproduct, spec.paper_nnz_edgelife,
                     "-", "-"))
    return rows


def test_table1_dataset_statistics():
    rows = _rows()
    table = render_table(
        ["dataset", "N", "T", "nnz", "M-product", "edge-life",
         "raw overlap", "smoothed overlap"],
        rows, title="Table 1: datasets (bench scale vs paper reference)")
    write_report("table1_datasets", table)

    for name in DATASET_NAMES:
        raw = raw_bench_dtdg(name)
        mp = bench_dtdg(name, "tmgcn")
        el = bench_dtdg(name, "egcn")
        # smoothing grows the graphs ...
        assert mp.total_nnz > raw.total_nnz, name
        assert el.total_nnz > raw.total_nnz, name
        # ... and magnifies consecutive-snapshot overlap (paper §5.4)
        assert mp.mean_topology_overlap() > raw.mean_topology_overlap()
        assert el.mean_topology_overlap() > raw.mean_topology_overlap()
        # the smoothed overlap is in the regime that yields 3-4x GD gains
        assert mp.mean_topology_overlap() > 0.85, name
