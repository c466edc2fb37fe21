"""Figure 7 — weak scaling on random graphs (paper §6.3).

The paper's protocol: random DTDGs with T = 256 and edge density f = 3
(m = N·f edges per snapshot, snapshots independent), starting at
N = 2^14 for P = 1 and doubling N with P up to P = 128.  Throughput is
the aggregate edge count over the epoch time, and the speedup normalizes
throughput to P = 1.

Shape checks: TM-GCN and CD-GCN reach large (tens of x) weak-scaling
speedups with a brief dip crossing the node boundary at P = 16;
EvolveGCN, whose only communication is gradient aggregation, scales
best of the three (superlinear in the paper).
"""

from functools import lru_cache

from repro.bench import (GPU_COUNTS, MODEL_LABELS, PointSpec, render_table,
                         run_point, speedup_series, write_report)
from repro.cluster import GIB, ClusterSpec
from repro.graph.generators import random_dtdg
from repro.models import MODEL_NAMES
from repro.train.preprocess import degree_features, smooth_for_model

T_STEPS = 132          # ≥ P=128, mirroring the paper's T=256 ≥ P
DENSITY = 3.0          # paper's f
BASE_N = 48            # N at P=1; doubles with P (paper: 2^14)
SMOOTH_WINDOW = 8
PAPER_N0 = 2 ** 14


@lru_cache(maxsize=None)
def _workload(model_name, num_ranks):
    n = BASE_N * num_ranks
    raw = random_dtdg(n, T_STEPS, DENSITY, seed=7,
                      name=f"weak-{num_ranks}")
    raw.set_features(degree_features(raw))
    smoothed = smooth_for_model(raw, model_name, edge_life=SMOOTH_WINDOW,
                                window=SMOOTH_WINDOW)
    if smoothed is not raw and smoothed.features is None:
        smoothed.set_features(raw.features)
    return smoothed


@lru_cache(maxsize=None)
def _hardware(model_name):
    """One fixed hardware calibration per model, derived from the largest
    configuration (weak scaling keeps the machine constant as P grows)."""
    largest = _workload(model_name, GPU_COUNTS[-1])
    # paper's largest TM-GCN weak-scaling run: 2.1B aggregate edges
    edge_factor = largest.total_nnz / 2.1e9
    feature_factor = (largest.num_vertices * T_STEPS) / (1e6 * 256)
    base = ClusterSpec()
    return dict(
        dense_flops=base.dense_flops * edge_factor,
        sparse_flops=base.sparse_flops * edge_factor,
        h2d_bandwidth=base.h2d_bandwidth * edge_factor,
        intra_bandwidth=base.intra_bandwidth * feature_factor,
        inter_bandwidth=base.inter_bandwidth * feature_factor,
        gpu_memory_bytes=int(32 * GIB * edge_factor * 4.0),
    )


def _sweep(model_name):
    overrides = tuple(sorted(_hardware(model_name).items()))
    through = {}
    for p in GPU_COUNTS:
        dtdg = _workload(model_name, p)
        result = run_point(dtdg, PointSpec(
            model=model_name, num_ranks=p, use_gd=True, num_blocks=4,
            spec_overrides=overrides, seed=0))
        if result is None:
            through[p] = None
        else:
            through[p] = dtdg.total_nnz / (result.breakdown.total + 1e-12)
    return through


def test_fig7_weak_scaling():
    throughputs = {m: _sweep(m) for m in MODEL_NAMES}

    rows = []
    speedups = {}
    for model_name in MODEL_NAMES:
        series = throughputs[model_name]
        ran = {p: v for p, v in series.items() if v is not None}
        ref = ran[min(ran)] / min(ran)
        speedups[model_name] = {p: v / ref for p, v in ran.items()}
        for p in GPU_COUNTS:
            v = series.get(p)
            rows.append((MODEL_LABELS[model_name], p,
                         BASE_N * p,
                         _workload(model_name, p).total_nnz,
                         None if v is None else round(v / 1e6, 2),
                         None if v is None else
                         round(speedups[model_name][p], 1)))
    table = render_table(
        ["model", "P", "N", "aggregate nnz", "Medges/s", "speedup"],
        rows, title=f"Figure 7: weak scaling (random graphs, T={T_STEPS},"
                    f" f={DENSITY:g}, N={BASE_N}·P)")
    write_report("fig7_weak_scaling", table)

    for model_name in MODEL_NAMES:
        s = speedups[model_name]
        # weak scaling reaches large speedups at P=128
        assert s[128] > 10.0, (model_name, s)
        # EvolveGCN scales best (communication-free)
        assert speedups["egcn"][128] >= s[128] - 1e-9
    # communicating models dip crossing the node boundary (efficiency)
    for model_name in ("tmgcn", "cdgcn"):
        s = speedups[model_name]
        assert s[16] / 16 < s[8] / 8, model_name
