"""Figure 6 — convergence under snapshot vs hypergraph partitioning
(paper §6.4).

Trains all three models on AML-Sim link prediction (θ = 0.1) under both
distribution schemes and compares the loss / test-accuracy curves.

The paper's claim: "both the schemes simulate the underlying sequential
algorithms faithfully … their convergence behaviors are identical,
except for floating point accumulation errors."  Our engines share one
autograd graph, so the curves must agree to numerical noise.
"""

import numpy as np

from repro.bench import (bench_dtdg, calibrated_overrides, render_table,
                         write_report)
from repro.cluster import Cluster
from repro.models import MODEL_NAMES, build_model
from repro.train import (ConvergenceCurve, DistConfig, DistributedTrainer,
                         LinkPredictionTask)

EPOCHS = 24
RANKS = 4


def _run_curve(model_name, partitioning):
    dtdg = bench_dtdg("amlsim", model_name)
    model = build_model(model_name, in_features=dtdg.feature_dim, seed=0)
    task = LinkPredictionTask(dtdg, embed_dim=model.embed_dim, theta=0.3,
                              seed=0)
    overrides = calibrated_overrides("amlsim", model_name,
                                     memory_headroom=2.0)
    cluster = Cluster.of_size(RANKS, **overrides)
    cfg = DistConfig(partitioning=partitioning, num_blocks=2,
                     learning_rate=0.01, seed=0)
    trainer = DistributedTrainer(model, dtdg, task, cluster, cfg)
    curve = ConvergenceCurve()
    for result in trainer.fit(EPOCHS):
        curve.record(result)
    return curve


def test_fig6_convergence_identical():
    curves = {}
    for model_name in MODEL_NAMES:
        curves[model_name] = {
            "snapshot": _run_curve(model_name, "snapshot"),
            "hypergraph": _run_curve(model_name, "vertex"),
        }

    rows = []
    for model_name in MODEL_NAMES:
        snap = curves[model_name]["snapshot"]
        hyper = curves[model_name]["hypergraph"]
        for epoch in range(0, EPOCHS, 4):
            rows.append((model_name, epoch + 1,
                         round(snap.losses[epoch], 6),
                         round(hyper.losses[epoch], 6),
                         round(snap.accuracies[epoch], 3),
                         round(hyper.accuracies[epoch], 3)))
    table = render_table(
        ["model", "epoch", "loss (snapshot)", "loss (hypergraph)",
         "acc (snapshot)", "acc (hypergraph)"],
        rows, title="Figure 6: convergence, snapshot vs hypergraph "
                    "partitioning (AML-Sim, link prediction)")
    write_report("fig6_convergence", table)

    for model_name in MODEL_NAMES:
        snap = curves[model_name]["snapshot"]
        hyper = curves[model_name]["hypergraph"]
        # identical up to float accumulation noise — the paper's claim
        assert snap.max_divergence(hyper) < 1e-6, model_name
        # training converges (min over the tail: the paper notes
        # EvolveGCN's loss "shows considerable fluctuations")
        assert min(snap.losses[-5:]) < snap.losses[0], model_name
        # link prediction reaches better than coin flipping
        assert max(snap.accuracies) > 0.5, model_name
        np.testing.assert_allclose(snap.accuracies, hyper.accuracies,
                                   atol=1e-6)
