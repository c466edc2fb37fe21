"""Ablation — checkpoint block count ``nb`` (paper §3.1).

The paper: "the parameter nb not only determines GPU memory usage, but
also influences the execution time … the two components can be balanced
by adjusting nb."  This bench sweeps nb on AML-Sim / TM-GCN at P = 1 and
reports peak memory and epoch-time components.

Shape checks: intra-block memory falls as nb grows while the carry
payload grows; checkpointing (nb > 1) pays the double CPU→GPU transfer;
and the overall memory at nb=8 is far below the nb=1 baseline.
"""

from repro.bench import (bench_dtdg, calibrated_overrides, PointSpec,
                         render_table, run_point, write_report)

BLOCK_COUNTS = (1, 2, 4, 8, 16)


def _sweep():
    dtdg = bench_dtdg("amlsim", "tmgcn")
    overrides = tuple(sorted(calibrated_overrides(
        "amlsim", "tmgcn", memory_headroom=100.0).items()))  # no OOM here
    out = {}
    for nb in BLOCK_COUNTS:
        out[nb] = run_point(dtdg, PointSpec(
            model="tmgcn", num_ranks=1, num_blocks=nb, tune_blocks=False,
            spec_overrides=overrides, seed=0))
    return out


def test_ablation_checkpoint_blocks():
    results = _sweep()
    rows = []
    for nb, r in results.items():
        rows.append((nb, f"{r.peak_memory_bytes:,}",
                     round(r.breakdown.transfer * 1e3, 1),
                     round(r.total_ms, 1)))
    table = render_table(
        ["nb", "peak memory B", "transfer ms", "total ms"],
        rows, title="Ablation: checkpoint block count (AML-Sim / TM-GCN, "
                    "P=1)")
    write_report("ablation_checkpoint", table)

    peak = {nb: r.peak_memory_bytes for nb, r in results.items()}
    transfer = {nb: r.breakdown.transfer for nb, r in results.items()}
    # memory strictly improves from baseline to deep checkpointing
    assert peak[8] < 0.5 * peak[1]
    # more blocks -> less resident state, monotone through the sweep
    assert peak[1] > peak[2] > peak[4] > peak[8]
    # checkpointing pays the forward + re-run double transfer
    assert transfer[2] > 1.5 * transfer[1]
    # smaller blocks shrink GD's benefit, so transfer keeps creeping up
    assert transfer[16] >= transfer[2]
