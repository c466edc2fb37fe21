"""Tests for the distributed engines (paper §4, §6.3–§6.5).

The decisive property (paper §6.4): every distribution scheme must
*faithfully simulate the sequential algorithm* — identical losses and
gradients up to float accumulation — while charging the right time,
volume and memory per rank.
"""

import numpy as np
import pytest

from repro.cluster import Cluster
from repro.errors import ConfigError, DeviceOOM
from repro.graph import evolving_dtdg
from repro.models import MODEL_NAMES, build_model
from repro.train import DistConfig, DistributedTrainer, LinkPredictionTask
from repro.train.preprocess import degree_features
from tests.helpers import scatter_add_forbidden, sequential_fit


N, T = 18, 9


def make_dtdg(seed=0, n=N, t=T):
    d = evolving_dtdg(n, t, 45, churn=0.25, seed=seed)
    d.set_features(degree_features(d))
    return d


def sequential_reference(model_name, dtdg, epochs=1):
    """Per-epoch losses of the plain sequential run."""
    model = build_model(model_name, in_features=2, hidden=4, embed_dim=4,
                        seed=0)
    task = LinkPredictionTask(dtdg, embed_dim=4, theta=0.4, seed=0)
    return sequential_fit(model, dtdg, task, num_blocks=1, epochs=epochs,
                          learning_rate=0.02).losses


def make_distributed(model_name, dtdg, num_ranks, **cfg_kwargs):
    model = build_model(model_name, in_features=2, hidden=4, embed_dim=4,
                        seed=0)
    task = LinkPredictionTask(dtdg, embed_dim=4, theta=0.4, seed=0)
    cluster = Cluster.of_size(num_ranks)
    cfg = DistConfig(learning_rate=0.02, **cfg_kwargs)
    return DistributedTrainer(model, dtdg, task, cluster, cfg)


class TestSnapshotEngineFidelity:
    @pytest.mark.parametrize("model_name", MODEL_NAMES)
    def test_matches_sequential_losses(self, model_name):
        dtdg = make_dtdg()
        ref = sequential_reference(model_name, dtdg, epochs=3)
        trainer = make_distributed(model_name, dtdg, num_ranks=4,
                                   partitioning="snapshot")
        got = [r.loss for r in trainer.fit(3)]
        np.testing.assert_allclose(got, ref, rtol=1e-8)

    @pytest.mark.parametrize("model_name", MODEL_NAMES)
    def test_blockwise_matches_sequential(self, model_name):
        dtdg = make_dtdg(seed=1)
        ref = sequential_reference(model_name, dtdg, epochs=2)
        trainer = make_distributed(model_name, dtdg, num_ranks=2,
                                   partitioning="snapshot", num_blocks=2)
        got = [r.loss for r in trainer.fit(2)]
        np.testing.assert_allclose(got, ref, rtol=1e-8)

    def test_more_ranks_than_timesteps(self):
        dtdg = make_dtdg(seed=2, t=4)
        trainer = make_distributed("tmgcn", dtdg, num_ranks=6,
                                   partitioning="snapshot")
        result = trainer.train_epoch()
        assert np.isfinite(result.loss)


class TestOneRankIsTheSequentialAlgorithm:
    """One GPU is the one-rank trainer: its losses and gradients are the
    sequential loop's, full-tape at one block and the executed §3.1
    schedule at more."""

    @pytest.mark.parametrize("num_blocks", [1, 3])
    @pytest.mark.parametrize("model_name", MODEL_NAMES)
    def test_matches_sequential_fit(self, model_name, num_blocks):
        dtdg = make_dtdg(seed=9)
        model = build_model(model_name, in_features=2, hidden=4,
                            embed_dim=4, seed=0)
        task = LinkPredictionTask(dtdg, embed_dim=4, theta=0.4, seed=0)
        ref = sequential_fit(model, dtdg, task, num_blocks=num_blocks,
                             epochs=2, learning_rate=0.02)
        ref_grads = [p.grad for p in model.parameters() +
                     task.head.parameters()]
        trainer = make_distributed(model_name, dtdg, num_ranks=1,
                                   num_blocks=num_blocks)
        got = [r.loss for r in trainer.fit(2)]
        np.testing.assert_allclose(got, ref.losses, rtol=1e-8)
        got_grads = [p.grad for p in trainer.model.parameters() +
                     trainer.task.head.parameters()]
        for a, b in zip(got_grads, ref_grads):
            assert (a is None) == (b is None)
            if a is not None:
                np.testing.assert_allclose(a, b, rtol=1e-8)


class TestSnapshotEngineCosts:
    def test_gcn_rnn_models_have_fixed_redistribution_volume(self):
        """§4.2: volume is O(T·N) regardless of P."""
        dtdg = make_dtdg(seed=3)
        volumes = {}
        for p in (2, 4, 8):
            trainer = make_distributed("tmgcn", dtdg, num_ranks=p,
                                       partitioning="snapshot")
            volumes[p] = trainer.train_epoch().comm_volume_units
        # excluding self-communication, volume approaches the fixed limit
        assert volumes[4] <= volumes[8] <= volumes[4] * 1.5
        assert volumes[2] <= volumes[4]

    def test_evolvegcn_is_communication_free(self):
        dtdg = make_dtdg(seed=4)
        trainer = make_distributed("egcn", dtdg, num_ranks=4,
                                   partitioning="snapshot")
        result = trainer.train_epoch()
        assert result.comm_volume_units == 0.0
        assert result.gradient_volume_units > 0.0

    def test_compute_time_scales_down_with_ranks(self):
        dtdg = make_dtdg(seed=5)
        t1 = make_distributed("tmgcn", dtdg, 1).train_epoch()
        t8 = make_distributed("tmgcn", dtdg, 8).train_epoch()
        assert t8.breakdown.compute < t1.breakdown.compute / 4

    def test_gd_reduces_transfer(self):
        dtdg = make_dtdg(seed=6)
        base = make_distributed("tmgcn", dtdg, 2,
                                use_graph_difference=False).train_epoch()
        gd = make_distributed("tmgcn", dtdg, 2,
                              use_graph_difference=True).train_epoch()
        assert gd.breakdown.transfer < base.breakdown.transfer
        assert gd.loss == pytest.approx(base.loss, rel=1e-9)

    def test_gd_benefit_shrinks_with_ranks(self):
        """§6.2: beneficiaries are (bsize − P)/bsize of the snapshots."""
        dtdg = make_dtdg(seed=7, t=9)
        r2 = make_distributed("tmgcn", dtdg, 2).train_epoch()
        r8 = make_distributed("tmgcn", dtdg, 8).train_epoch()
        assert r2.gd_savings_ratio > r8.gd_savings_ratio

    def test_memory_oom_on_small_device(self):
        dtdg = make_dtdg(seed=8)
        model = build_model("tmgcn", in_features=2, hidden=4, embed_dim=4,
                            seed=0)
        task = LinkPredictionTask(dtdg, embed_dim=4, theta=0.4, seed=0)
        cluster = Cluster.of_size(1, gpu_memory_bytes=16_000)
        trainer = DistributedTrainer(model, dtdg, task, cluster,
                                     DistConfig(num_blocks=1))
        with pytest.raises(DeviceOOM):
            trainer.train_epoch()
        # checkpointing fits on the same device
        cluster2 = Cluster.of_size(1, gpu_memory_bytes=16_000)
        trainer2 = DistributedTrainer(
            build_model("tmgcn", in_features=2, hidden=4, embed_dim=4,
                        seed=0),
            dtdg, LinkPredictionTask(dtdg, embed_dim=4, theta=0.4, seed=0),
            cluster2, DistConfig(num_blocks=4))
        assert np.isfinite(trainer2.train_epoch().loss)

    def test_one_effective_block_is_not_checkpointing(self):
        """``num_blocks`` above the training timesteps clamps to them; a
        single effective block re-runs nothing, so it is charged no
        re-run transfer and keeps no π carry."""
        dtdg = make_dtdg(seed=10, t=2)          # one train step + held-out
        one = make_distributed("tmgcn", dtdg, 1, num_blocks=1)
        four = make_distributed("tmgcn", dtdg, 1, num_blocks=4)
        assert one.train_t == 1
        r1, r4 = one.train_epoch(), four.train_epoch()
        assert r4.transfer_bytes == r1.transfer_bytes
        assert r4.peak_memory_bytes == r1.peak_memory_bytes
        assert r4.breakdown.transfer == r1.breakdown.transfer


class TestVertexEngine:
    @pytest.mark.parametrize("model_name", MODEL_NAMES)
    def test_matches_sequential_losses(self, model_name):
        dtdg = make_dtdg(seed=9)
        ref = sequential_reference(model_name, dtdg, epochs=2)
        trainer = make_distributed(model_name, dtdg, num_ranks=3,
                                   partitioning="vertex",
                                   vertex_method="hypergraph")
        got = [r.loss for r in trainer.fit(2)]
        np.testing.assert_allclose(got, ref, rtol=1e-8)

    def test_random_method_also_faithful(self):
        dtdg = make_dtdg(seed=10)
        ref = sequential_reference("tmgcn", dtdg, epochs=1)
        trainer = make_distributed("tmgcn", dtdg, num_ranks=4,
                                   partitioning="vertex",
                                   vertex_method="random")
        assert trainer.train_epoch().loss == pytest.approx(ref[0],
                                                           rel=1e-8)

    def test_volume_grows_with_ranks(self):
        """§4.1: vertex-partitioning volume increases with P."""
        dtdg = make_dtdg(seed=11, n=40)
        volumes = {}
        for p in (2, 4, 8):
            trainer = make_distributed("tmgcn", dtdg, num_ranks=p,
                                       partitioning="vertex",
                                       vertex_method="random")
            volumes[p] = trainer.train_epoch().comm_volume_units
        assert volumes[2] < volumes[4] < volumes[8]

    def test_slower_than_snapshot_partitioning(self):
        """The paper's Table 2 outcome on a dense-ish graph."""
        dtdg = make_dtdg(seed=12, n=30)
        snap = make_distributed("tmgcn", dtdg, 4,
                                partitioning="snapshot").train_epoch()
        vert = make_distributed("tmgcn", dtdg, 4,
                                partitioning="vertex").train_epoch()
        assert vert.breakdown.total > snap.breakdown.total


class TestHybridEngine:
    def test_sec65_two_gpu_split_matches_sequential(self):
        dtdg = make_dtdg(seed=13)
        ref = sequential_reference("tmgcn", dtdg, epochs=2)
        trainer = make_distributed("tmgcn", dtdg, num_ranks=2,
                                   partitioning="hybrid", group_size=2)
        got = [r.loss for r in trainer.fit(2)]
        np.testing.assert_allclose(got, ref, rtol=1e-8)

    def test_allgather_volume_charged(self):
        dtdg = make_dtdg(seed=14)
        trainer = make_distributed("tmgcn", dtdg, num_ranks=2,
                                   partitioning="hybrid", group_size=2)
        result = trainer.train_epoch()
        assert result.comm_volume_units > 0

    def test_halves_per_rank_memory(self):
        dtdg = make_dtdg(seed=15)
        solo = make_distributed("tmgcn", dtdg, 1,
                                partitioning="hybrid",
                                group_size=1).train_epoch()
        split = make_distributed("tmgcn", dtdg, 2,
                                 partitioning="hybrid",
                                 group_size=2).train_epoch()
        assert split.peak_memory_bytes < solo.peak_memory_bytes

    def test_multi_group_gcn_rnn_rejected(self):
        dtdg = make_dtdg(seed=16)
        with pytest.raises(ConfigError):
            make_distributed("tmgcn", dtdg, num_ranks=4,
                             partitioning="hybrid", group_size=2)

    def test_multi_group_evolve_allowed(self):
        dtdg = make_dtdg(seed=17)
        trainer = make_distributed("egcn", dtdg, num_ranks=4,
                                   partitioning="hybrid", group_size=2)
        assert np.isfinite(trainer.train_epoch().loss)

    def test_accuracy_reported(self):
        dtdg = make_dtdg(seed=18)
        trainer = make_distributed("tmgcn", dtdg, num_ranks=2,
                                   partitioning="hybrid", group_size=2)
        results = trainer.fit(5)
        assert 0.0 <= results[-1].test_accuracy <= 1.0


class TestTapeSize:
    """A deterministic guard on the training dense path: the fused cell
    records 2 tape nodes per step, the fused projection 1 and the link
    head 1 (composed ops: 17, 3 and 5), so an edit that silently falls
    back fails a count, not a timing."""

    def test_cdgcn_epoch_stays_on_the_fused_path(self):
        dtdg = make_dtdg(seed=4, t=4)          # 3 train steps + held-out
        trainer = make_distributed("cdgcn", dtdg, num_ranks=2,
                                   partitioning="snapshot",
                                   reuse_aggregation=True)
        assert trainer.train_t == 3 and trainer.model.num_layers == 2

        with scatter_add_forbidden():
            result = trainer.train_epoch()
        # composed ops visited 156 (146 non-leaf); fused cell and
        # projection: 54 (44); and the fused link head: 42 (32)
        assert 0 < result.tape_nodes <= 48
        assert trainer.telemetry.registry.value("train_tape_nodes") == \
            result.tape_nodes


class TestOneForward:
    """A distribution is a cost plan over the sequential forward, never
    a forward of its own — checked by count, not by timing: every plan
    records exactly the tape the sequential loop records (vertex adds
    one gather per timestep, mapping renamed rows back to the task's
    vertex ids).  A plan that re-spells the numerics — say, the RNN per
    row block through slices and a concat — fails the count."""

    @pytest.mark.parametrize("model_name", MODEL_NAMES)
    def test_every_plan_records_the_sequential_tape(self, model_name):
        dtdg = make_dtdg(seed=4)
        model = build_model(model_name, in_features=2, hidden=4,
                            embed_dim=4, seed=0)
        task = LinkPredictionTask(dtdg, embed_dim=4, theta=0.4, seed=0)
        sequential = sequential_fit(model, dtdg, task, num_blocks=1,
                                    epochs=1,
                                    learning_rate=0.01).tape_nodes[0]

        def tape_nodes(partitioning):
            trainer = make_distributed(model_name, dtdg, num_ranks=2,
                                       partitioning=partitioning,
                                       group_size=2)
            return trainer.train_epoch().tape_nodes

        assert tape_nodes("snapshot") == sequential
        assert tape_nodes("hybrid") == sequential
        assert tape_nodes("vertex") == sequential + task.num_train_timesteps


class TestConfigValidation:
    def test_bad_partitioning(self):
        with pytest.raises(ConfigError):
            DistConfig(partitioning="columns")

    def test_bad_vertex_method(self):
        with pytest.raises(ConfigError):
            DistConfig(vertex_method="metis")

    def test_bad_blocks(self):
        with pytest.raises(ConfigError):
            DistConfig(num_blocks=0)

    def test_bad_group(self):
        with pytest.raises(ConfigError):
            DistConfig(group_size=0)
