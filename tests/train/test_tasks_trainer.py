"""Tests for tasks and the trainer on one GPU (a one-rank cluster)."""

import numpy as np
import pytest

from repro.cluster import Cluster, ClusterSpec
from repro.errors import ConfigError, DatasetError, DeviceOOM
from repro.graph import evolving_dtdg
from repro.models import build_model
from repro.tensor import Tensor
from repro.train import (DistConfig, DistributedTrainer, LinkPredictionTask,
                         NodeClassificationTask)
from repro.train.preprocess import degree_features
from tests.helpers import edge_set


def make_dtdg(n=16, t=7, seed=0):
    d = evolving_dtdg(n, t, 40, churn=0.25, seed=seed)
    d.set_features(degree_features(d))
    return d


class TestLinkPredictionTask:
    def test_construction(self):
        d = make_dtdg()
        task = LinkPredictionTask(d, embed_dim=4, theta=0.2, seed=0)
        assert task.num_train_timesteps == d.num_timesteps - 1
        assert len(task.samples) == task.num_train_timesteps

    def test_balanced_labels(self):
        task = LinkPredictionTask(make_dtdg(), embed_dim=4, theta=0.5,
                                  seed=0)
        for sample in task.samples:
            assert (sample.labels == 1).sum() == (sample.labels == 0).sum()

    def test_positive_pairs_are_edges(self):
        d = make_dtdg()
        task = LinkPredictionTask(d, embed_dim=4, theta=0.5, seed=0)
        for t, sample in enumerate(task.samples):
            edges = edge_set(d[t])
            pos = sample.pairs[sample.labels == 1]
            for u, v in pos:
                assert (u, v) in edges

    def test_theta_scales_sample_size(self):
        d = make_dtdg()
        small = LinkPredictionTask(d, embed_dim=4, theta=0.1, seed=0)
        large = LinkPredictionTask(d, embed_dim=4, theta=0.5, seed=0)
        assert len(large.samples[0].pairs) > len(small.samples[0].pairs)

    def test_invalid_theta(self):
        with pytest.raises(ConfigError):
            LinkPredictionTask(make_dtdg(), embed_dim=4, theta=0.0)

    def test_needs_two_timesteps(self):
        d = evolving_dtdg(10, 1, 20, churn=0.2, seed=0)
        with pytest.raises(DatasetError):
            LinkPredictionTask(d, embed_dim=4)

    def test_block_loss_additive(self):
        d = make_dtdg()
        task = LinkPredictionTask(d, embed_dim=4, theta=0.4, seed=0)
        g = np.random.default_rng(0)
        embeds = [Tensor(g.normal(size=(16, 4)))
                  for _ in range(task.num_train_timesteps)]
        full = task.loss_full(embeds).item()
        split = (task.loss_block(embeds[:3], 0).item() +
                 task.loss_block(embeds[3:], 3).item())
        assert split == pytest.approx(full, rel=1e-12)

    def test_block_loss_ignores_test_timestep(self):
        d = make_dtdg()
        task = LinkPredictionTask(d, embed_dim=4, theta=0.4, seed=0)
        g = np.random.default_rng(0)
        extra = [Tensor(g.normal(size=(16, 4)))]
        # block starting beyond the training range contributes nothing
        assert task.loss_block(extra, task.num_train_timesteps) is None

    def test_accuracies_in_range(self):
        d = make_dtdg()
        task = LinkPredictionTask(d, embed_dim=4, theta=0.4, seed=0)
        g = np.random.default_rng(0)
        embeds = [Tensor(g.normal(size=(16, 4)))
                  for _ in range(task.num_train_timesteps)]
        acc = task.test_accuracy(embeds[-1])
        assert 0.0 <= acc <= 1.0


class TestNodeClassificationTask:
    def test_1d_labels_tiled(self):
        labels = np.array([0, 1, 0, 1])
        task = NodeClassificationTask(labels, num_timesteps=3, embed_dim=4)
        assert task.labels.shape == (3, 4)

    def test_loss_and_accuracy(self):
        labels = np.array([0, 1, 0, 1])
        task = NodeClassificationTask(labels, num_timesteps=2, embed_dim=4)
        g = np.random.default_rng(0)
        embeds = [Tensor(g.normal(size=(4, 4))) for _ in range(2)]
        loss = task.loss_full(embeds)
        assert loss.item() > 0
        assert 0.0 <= task.accuracy(embeds) <= 1.0

    def test_label_validation(self):
        with pytest.raises(ConfigError):
            NodeClassificationTask(np.array([0, 5]), 2, 4, num_classes=2)
        with pytest.raises(ConfigError):
            NodeClassificationTask(np.zeros((3, 4), dtype=int), 2, 4)


def one_gpu(**spec_overrides):
    return Cluster(ClusterSpec.single_node(1, **spec_overrides))


class TestOneRankTrainer:
    def _trainer(self, num_blocks=1, use_gd=False, cluster=None, seed=0,
                 learning_rate=0.02):
        d = make_dtdg(seed=seed)
        model = build_model("tmgcn", in_features=2, hidden=4, embed_dim=4,
                            seed=0)
        task = LinkPredictionTask(d, embed_dim=4, theta=0.4, seed=0)
        cfg = DistConfig(num_blocks=num_blocks,
                         use_graph_difference=use_gd,
                         learning_rate=learning_rate)
        return DistributedTrainer(model, d, task,
                                  cluster if cluster is not None
                                  else one_gpu(), cfg)

    def test_baseline_epoch(self):
        trainer = self._trainer()
        result = trainer.train_epoch()
        assert np.isfinite(result.loss)
        assert 0.0 <= result.test_accuracy <= 1.0

    def test_checkpoint_matches_baseline_loss(self):
        a = self._trainer(num_blocks=1, seed=1)
        b = self._trainer(num_blocks=3, seed=1)
        loss_a = a.train_epoch().loss
        loss_b = b.train_epoch().loss
        assert loss_a == pytest.approx(loss_b, rel=1e-8)

    def test_fit_descends(self):
        trainer = self._trainer(num_blocks=2)
        results = trainer.fit(10)
        assert results[-1].loss < results[0].loss

    def test_device_memory_baseline_oom(self):
        cluster = one_gpu(gpu_memory_bytes=13_000)
        trainer = self._trainer(num_blocks=1, cluster=cluster)
        with pytest.raises(DeviceOOM):
            trainer.train_epoch()

    def test_checkpoint_fits_where_baseline_ooms(self):
        base = one_gpu(gpu_memory_bytes=13_000)
        ck = one_gpu(gpu_memory_bytes=13_000)
        with pytest.raises(DeviceOOM):
            self._trainer(num_blocks=1, cluster=base).train_epoch()
        result = self._trainer(num_blocks=6, cluster=ck).train_epoch()
        assert np.isfinite(result.loss)
        assert ck.device(0).peak_in_use < base.spec.gpu_memory_bytes

    def test_gd_reduces_transfer_time(self):
        base = self._trainer(num_blocks=2, use_gd=False, seed=2)
        gd = self._trainer(num_blocks=2, use_gd=True, seed=2)
        r_base = base.train_epoch()
        r_gd = gd.train_epoch()
        assert r_gd.breakdown.transfer < r_base.breakdown.transfer
        assert r_gd.gd_savings_ratio > 1.0
        # numerics identical regardless of transfer method
        assert r_gd.loss == pytest.approx(r_base.loss, rel=1e-9)

    def test_transfer_charged_twice_under_checkpoint(self):
        once = self._trainer(num_blocks=1, seed=3)
        twice = self._trainer(num_blocks=2, seed=3)
        r1 = once.train_epoch()
        r2 = twice.train_epoch()
        assert r2.transfer_bytes > 1.8 * r1.transfer_bytes

    def test_invalid_config(self):
        with pytest.raises(ConfigError):
            DistConfig(num_blocks=0)
        with pytest.raises(ConfigError):
            self._trainer(learning_rate=-1)
