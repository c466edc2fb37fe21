"""Cross-module integration tests: full pipelines end to end.

These exercise the same paths the benchmarks use, at smaller sizes, so
regressions in any seam (dataset → smoothing → features → model →
partitioning → trainer → metrics) surface in the unit suite.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import Cluster
from repro.graph import (AMLSimConfig, generate_amlsim, load_dataset)
from repro.models import MODEL_NAMES, build_model
from repro.tensor import Adam, Tensor
from repro.train import (CheckpointRunner, DistConfig, DistributedTrainer,
                         LinkPredictionTask, NodeClassificationTask,
                         compute_laplacians, degree_features,
                         smooth_for_model)
from tests.helpers import sequential_fit


@pytest.mark.parametrize("model_name", MODEL_NAMES)
def test_full_pipeline_calibrated_dataset(model_name):
    """dataset stand-in → §5.4 smoothing → distributed training →
    evaluation, like the paper's per-epoch studies."""
    raw = load_dataset("epinions", scale=1.5e-4, t_scale=0.024, seed=0)
    raw.set_features(degree_features(raw))
    dtdg = smooth_for_model(raw, model_name, edge_life=3, window=3)
    if dtdg.features is None:
        dtdg.set_features(raw.features)
    model = build_model(model_name, in_features=2, hidden=4, embed_dim=4,
                        seed=0)
    task = LinkPredictionTask(dtdg, embed_dim=4, theta=0.3, seed=0)
    cluster = Cluster.of_size(4)
    trainer = DistributedTrainer(model, dtdg, task, cluster,
                                 DistConfig(num_blocks=2,
                                            learning_rate=0.02))
    results = trainer.fit(4)
    assert results[-1].loss < results[0].loss + 1e-9
    assert results[-1].breakdown.total > 0
    assert 0.0 <= results[-1].test_accuracy <= 1.0


def test_amlsim_node_classification_pipeline():
    """AML simulator → node classification with checkpointing."""
    sim = generate_amlsim(AMLSimConfig(
        num_accounts=60, num_timesteps=8, background_per_step=150,
        num_fan_out=2, num_fan_in=2, num_cycles=2, num_scatter_gather=1,
        pattern_size=5, seed=1))
    dtdg = sim.dtdg
    dtdg.set_features(degree_features(dtdg))
    laps = compute_laplacians(dtdg)
    frames = [Tensor(f) for f in dtdg.features]
    model = build_model("cdgcn", in_features=2, hidden=4, embed_dim=4,
                        seed=0)
    task = NodeClassificationTask(sim.account_labels(),
                                  dtdg.num_timesteps, embed_dim=4, seed=0)
    opt = Adam(model.parameters() + task.head.parameters(), lr=0.05)
    runner = CheckpointRunner(model, num_blocks=2)
    losses = []
    for _ in range(8):
        opt.zero_grad()
        result = runner.run_epoch(laps, frames, task.loss_block)
        opt.step()
        losses.append(result.loss)
    assert losses[-1] < losses[0]


def test_single_device_and_distributed_agree():
    """The sequential checkpointed schedule on one device and the
    P-rank snapshot engine are the same algorithm: per-epoch losses must
    agree."""
    raw = load_dataset("amlsim", scale=1e-4, t_scale=0.05, seed=2)
    raw.set_features(degree_features(raw))

    def fresh():
        model = build_model("tmgcn", in_features=2, hidden=4, embed_dim=4,
                            seed=0)
        task = LinkPredictionTask(raw, embed_dim=4, theta=0.3, seed=0)
        return model, task

    model_a, task_a = fresh()
    losses_single = sequential_fit(model_a, raw, task_a, num_blocks=3,
                                   epochs=3, learning_rate=0.02).losses
    model_b, task_b = fresh()
    distributed = DistributedTrainer(
        model_b, raw, task_b, Cluster.of_size(3),
        DistConfig(num_blocks=3, learning_rate=0.02))
    losses_dist = [r.loss for r in distributed.fit(3)]
    np.testing.assert_allclose(losses_single, losses_dist, rtol=1e-8)


class TestBlockSplitInvariance:
    """Property: any way of cutting the timeline into blocks yields the
    same forward outputs — the invariant behind §3.1 and Fig. 3b."""

    @given(st.lists(st.integers(1, 4), min_size=1, max_size=4),
           st.sampled_from(list(MODEL_NAMES)))
    @settings(max_examples=12, deadline=None)
    def test_arbitrary_block_cuts(self, block_sizes, model_name):
        from repro.graph import evolving_dtdg
        t_total = sum(block_sizes)
        dtdg = evolving_dtdg(10, t_total, 25, churn=0.3, seed=t_total)
        dtdg.set_features(degree_features(dtdg))
        laps = compute_laplacians(dtdg)
        frames = [Tensor(f) for f in dtdg.features]
        model = build_model(model_name, in_features=2, hidden=3,
                            embed_dim=3, seed=0)
        full = model(laps, frames)
        carry = model.init_carry(10)
        outs = []
        start = 0
        for size in block_sizes:
            block_out, carry = model.forward_block(
                laps[start:start + size], frames[start:start + size],
                carry)
            outs.extend(block_out)
            start += size
        for got, want in zip(outs, full):
            np.testing.assert_allclose(got.data, want.data, atol=1e-10)
