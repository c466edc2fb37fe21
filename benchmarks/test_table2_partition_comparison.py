"""Table 2 — snapshot vs hypergraph vertex partitioning (paper §6.4).

For the three models on AML-Sim at P ∈ {4, 16, 64}: the redistribution
communication volume (reported both in simulated float units and in
paper-equivalent billions of floats) and the per-epoch time under both
schemes.

Shape checks (the paper's Table 2 findings):
* snapshot partitioning's volume is essentially flat in P (fixed
  O(T·N) limit), while hypergraph volume grows with P;
* EvolveGCN under snapshot partitioning is communication-free (0);
* snapshot partitioning's per-epoch time beats hypergraph at every P
  (regular pattern, no packing/indexing overheads, GD transfer).
"""

from functools import lru_cache

from repro.bench import (bench_dtdg, calibrated_overrides, hardware_scale,
                         render_table, write_report)
from repro.cluster import Cluster
from repro.models import MODEL_NAMES, build_model
from repro.train import DistConfig, DistributedTrainer, LinkPredictionTask

RANKS = (4, 16, 64)


@lru_cache(maxsize=None)
def _run(model_name, partitioning, num_ranks):
    dtdg = bench_dtdg("amlsim", model_name)
    model = build_model(model_name, in_features=dtdg.feature_dim, seed=0)
    task = LinkPredictionTask(dtdg, embed_dim=model.embed_dim, theta=0.1,
                              seed=0)
    overrides = calibrated_overrides("amlsim", model_name,
                                     memory_headroom=2.0)
    cluster = Cluster.of_size(num_ranks, **overrides)
    # the irregular-exchange packing rate scales with the link bandwidths
    # (it is a per-byte GPU gather/scatter cost at paper scale)
    _, feature_factor = hardware_scale("amlsim", model_name)
    cfg = DistConfig(partitioning=partitioning, num_blocks=4,
                     use_graph_difference=(partitioning == "snapshot"),
                     packing_overhead_per_byte=1.5e-10 / feature_factor,
                     learning_rate=0.02, seed=0)
    trainer = DistributedTrainer(model, dtdg, task, cluster, cfg)
    return trainer.train_epoch()


def _paper_equivalent_volume(model_name, units):
    """Scale a simulated float count up to the paper's workload size."""
    _, feature_factor = hardware_scale("amlsim", model_name)
    return units / feature_factor / 1e9


def test_table2_snapshot_vs_hypergraph():
    results = {}
    for model_name in MODEL_NAMES:
        for partitioning in ("snapshot", "vertex"):
            for p in RANKS:
                results[(model_name, partitioning, p)] = _run(
                    model_name, partitioning, p)

    rows = []
    for model_name in MODEL_NAMES:
        for p in RANKS:
            snap = results[(model_name, "snapshot", p)]
            hyper = results[(model_name, "vertex", p)]
            rows.append((
                model_name, p,
                round(_paper_equivalent_volume(
                    model_name, snap.comm_volume_units), 1),
                round(_paper_equivalent_volume(
                    model_name, hyper.comm_volume_units), 1),
                round(snap.total_ms, 0),
                round(hyper.total_ms, 0),
            ))
    table = render_table(
        ["model", "ranks", "snapshot vol (B)", "hyper vol (B)",
         "snapshot ms", "hyper ms"],
        rows,
        title="Table 2: snapshot vs hypergraph partitioning (AML-Sim; "
              "volume in paper-equivalent billions of floats)")
    write_report("table2_partition_comparison", table)

    for model_name in MODEL_NAMES:
        snap_vol = [results[(model_name, "snapshot", p)].comm_volume_units
                    for p in RANKS]
        hyper_vol = [results[(model_name, "vertex", p)].comm_volume_units
                     for p in RANKS]
        snap_ms = [results[(model_name, "snapshot", p)].total_ms
                   for p in RANKS]
        hyper_ms = [results[(model_name, "vertex", p)].total_ms
                    for p in RANKS]
        # hypergraph volume grows with P ...
        assert hyper_vol[0] < hyper_vol[1] < hyper_vol[2], model_name
        # ... snapshot volume approaches a fixed limit (within 2x across
        # a 16x rank range, vs multi-x growth for hypergraph)
        if model_name != "egcn":
            assert max(snap_vol) < 2.0 * min(v for v in snap_vol if v), \
                model_name
            hyper_growth = hyper_vol[2] / hyper_vol[0]
            snap_growth = max(snap_vol) / min(snap_vol)
            assert hyper_growth > snap_growth, model_name
        else:
            # EvolveGCN under snapshot partitioning: communication free
            assert all(v == 0 for v in snap_vol)
        # snapshot partitioning wins on time at every P (paper Table 2)
        for s_ms, h_ms, p in zip(snap_ms, hyper_ms, RANKS):
            assert s_ms < h_ms, (model_name, p)
