"""Figure 4 — Base vs graph-difference snapshot transfer (paper §6.2).

For every dataset × model pair and P = 1…128, runs one epoch with the
naive (Base) and the graph-difference (GD) CPU→GPU transfer and reports
the transfer time next to everything else — the paper's stacked bars.

Shape checks (the paper's claims):
* GD never increases transfer time, and reduces it most for the models
  that train on smoothed graphs (TM-GCN, EvolveGCN) — up to ~4x vs ~2x
  for CD-GCN which trains on the raw snapshots;
* GD gains shrink as P grows ((bsize − P)/bsize beneficiaries);
* the overall epoch time improves by up to ~40%;
* the §6.2 memory claim: the non-checkpointed baseline does not run at
  small P, the checkpointed implementation does.
"""

from repro.bench import (DATASET_NAMES, GPU_COUNTS, MODEL_LABELS,
                         cached_point, render_table, write_report)
from repro.models import MODEL_NAMES

SMOOTHED_MODELS = ("tmgcn", "egcn")


def _sweep():
    rows = []
    results = {}
    for dataset in DATASET_NAMES:
        for model in MODEL_NAMES:
            for p in GPU_COUNTS:
                base = cached_point(dataset, model, p, use_gd=False)
                gd = cached_point(dataset, model, p, use_gd=True)
                results[(dataset, model, p)] = (base, gd)
                if base is None or gd is None:
                    rows.append((dataset, MODEL_LABELS[model], p,
                                 None, None, None, None, None))
                    continue
                speedup = (base.breakdown.transfer /
                           gd.breakdown.transfer
                           if gd.breakdown.transfer else float("inf"))
                overall = 1.0 - gd.total_ms / base.total_ms
                rows.append((
                    dataset, MODEL_LABELS[model], p,
                    round(base.breakdown.transfer * 1e3, 1),
                    round(gd.breakdown.transfer * 1e3, 1),
                    round(speedup, 2),
                    round(base.total_ms, 1),
                    f"{100 * overall:.0f}%",
                ))
    return rows, results


def test_fig4_graph_difference_transfer():
    rows, results = _sweep()
    table = render_table(
        ["dataset", "model", "P", "Base transfer ms", "GD transfer ms",
         "GD transfer speedup", "Base total ms", "overall reduction"],
        rows,
        title="Figure 4: Base vs graph-difference snapshot transfer")
    write_report("fig4_graph_difference", table)

    best_overall = 0.0
    for dataset in DATASET_NAMES:
        for model in MODEL_NAMES:
            gains = []
            for p in GPU_COUNTS:
                base, gd = results[(dataset, model, p)]
                if base is None or gd is None:
                    continue
                # GD never moves more bytes than Base (byte counts are
                # deterministic; slowest-rank seconds can jitter)
                assert gd.transfer_bytes <= \
                    base.transfer_bytes * 1.001, (dataset, model, p)
                gains.append(base.transfer_bytes /
                             max(gd.transfer_bytes, 1))
                best_overall = max(best_overall,
                                   1.0 - gd.total_ms / base.total_ms)
            # gains shrink as P grows (compare smallest vs largest ran)
            assert gains[0] >= gains[-1] - 1e-9, (dataset, model)

    # smoothed models gain more than CD-GCN (paper: up to 4.1x vs 2x);
    # on the densest dataset (AML-Sim) the smoothed gains clear 2.5x
    def small_p_gain(dataset, model):
        for p in GPU_COUNTS:
            base, gd = results[(dataset, model, p)]
            if base is not None and gd is not None:
                return base.transfer_bytes / max(gd.transfer_bytes, 1)
        return None

    for dataset in DATASET_NAMES:
        cd = small_p_gain(dataset, "cdgcn")
        for model in SMOOTHED_MODELS:
            sm = small_p_gain(dataset, model)
            if sm is not None and cd is not None:
                assert sm > cd * 0.95, (dataset, model, sm, cd)
    for model in SMOOTHED_MODELS:
        assert small_p_gain("amlsim", model) > 2.5, model

    # the paper's headline: up to ~40% overall reduction
    assert best_overall > 0.30, f"best overall reduction {best_overall}"


def test_fig4_memory_claim_baseline_vs_checkpoint():
    """§6.2: 'the baseline did not execute on a single node … the
    checkpoint based implementation was able to successfully run'."""
    baseline = cached_point("amlsim", "tmgcn", 1, use_gd=True,
                            num_blocks=1, tune_blocks=False)
    checkpointed = cached_point("amlsim", "tmgcn", 1, use_gd=True,
                                num_blocks=4, tune_blocks=True)
    assert baseline is None, "non-checkpointed baseline should OOM at P=1"
    assert checkpointed is not None, "checkpointed run should fit at P=1"
    rows = [("baseline (no checkpoint)", "DNR (out of memory)", "-"),
            ("gradient checkpoint", f"{checkpointed.total_ms:.0f} ms",
             f"{checkpointed.peak_memory_bytes:,} B peak")]
    write_report("fig4_memory_claim", render_table(
        ["implementation", "epoch time", "memory"], rows,
        title="§6.2 memory claim: AML-Sim / TM-GCN on 1 GPU"))
