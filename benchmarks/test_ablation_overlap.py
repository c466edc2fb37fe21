"""Ablation — graph-difference gain vs temporal overlap (paper §3.2/§6.2).

The GD transfer's entire value proposition is the overlap between
consecutive snapshots.  Two sweeps:

1. churn sweep — synthetic DTDGs with controlled edge turnover; the GD
   byte savings must decay from ~3-5x (near-static topology) through
   ~1x (independent snapshots, where GD degenerates to shipping two
   full index lists);
2. smoothing sweep — the M-product window applied to a fixed raw graph;
   wider windows magnify overlap and therefore GD savings, which is why
   the smoothed models (TM-GCN, EvolveGCN) gain more than CD-GCN in the
   paper's Fig. 4.
"""

from repro.bench import render_table, write_report
from repro.graph import evolving_dtdg, sequence_transfer_stats
from repro.train import apply_mproduct_smoothing

N, T, M = 200, 40, 800


def _churn_sweep():
    out = {}
    for churn in (0.0, 0.05, 0.1, 0.2, 0.4, 0.8, 1.0):
        d = evolving_dtdg(N, T, M, churn=churn, seed=3)
        stats = sequence_transfer_stats(d.snapshots)
        out[churn] = (d.mean_topology_overlap(), stats.savings_ratio)
    return out


def _window_sweep():
    raw = evolving_dtdg(N, T, M, churn=0.5, seed=4)
    out = {}
    for window in (1, 2, 4, 8, 16):
        smoothed = apply_mproduct_smoothing(raw, window) \
            if window > 1 else raw
        stats = sequence_transfer_stats(smoothed.snapshots)
        out[window] = (smoothed.mean_topology_overlap(),
                       stats.savings_ratio)
    return out


def test_ablation_overlap_drives_gd_gains():
    churn = _churn_sweep()
    window = _window_sweep()

    rows = [("churn", f"{c:g}", round(ov, 3), round(sv, 2))
            for c, (ov, sv) in churn.items()]
    rows += [("M-window", w, round(ov, 3), round(sv, 2))
             for w, (ov, sv) in window.items()]
    table = render_table(
        ["sweep", "value", "overlap", "GD savings ratio"], rows,
        title="Ablation: snapshot overlap vs graph-difference savings")
    write_report("ablation_overlap", table)

    ratios = [sv for _, sv in churn.values()]
    # monotone decay with churn
    assert all(a >= b - 1e-9 for a, b in zip(ratios, ratios[1:]))
    # near-static graphs approach the wire-format ceiling (values only)
    assert churn[0.0][1] > 4.0
    # independent snapshots: GD is no better than naive
    assert churn[1.0][1] < 1.05

    w_ratios = [sv for _, sv in window.values()]
    # wider smoothing windows monotonically raise GD savings ...
    assert all(a <= b + 1e-9 for a, b in zip(w_ratios, w_ratios[1:]))
    # ... explaining the smoothed models' larger gains (paper §6.2)
    assert window[16][1] > 2.0 * window[1][1]
