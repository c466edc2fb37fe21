"""Trainers consuming GraphStore windows (out-of-core feeding).

Training from a lazy :class:`~repro.store.store.StoreView` must be
*numerically identical* to training from the equivalent in-memory DTDG
— the store is a representation change, not an approximation — on one
GPU (a one-rank cluster; baseline and checkpointed paths) and on a
multi-rank cluster.
"""

import numpy as np
import pytest

from repro.cluster import Cluster, ClusterSpec
from repro.graph import evolving_dtdg
from repro.models import build_model
from repro.obs import Telemetry
from repro.store import GraphStore, StoreView
from repro.tensor.backend.reference import ReferenceBackend
from repro.train import DistConfig, DistributedTrainer, LinkPredictionTask


def make_dtdg(n=16, t=7, seed=0):
    return evolving_dtdg(n, t, 40, churn=0.25, seed=seed)


@pytest.fixture
def stored(tmp_path):
    d = make_dtdg()
    store = GraphStore.from_dtdg(str(tmp_path / "s"), d, base_interval=3)
    return d, store


def _losses(trainer, epochs=2):
    return [r.loss for r in trainer.fit(epochs)]


@pytest.mark.parametrize("num_blocks", [1, 3])
def test_single_device_training_from_store_matches(stored, num_blocks):
    d, store = stored
    config = DistConfig(num_blocks=num_blocks)

    model_a = build_model("cdgcn", in_features=2, hidden=6, embed_dim=6,
                          seed=0)
    task_a = LinkPredictionTask(d, embed_dim=6, theta=0.5, seed=0)
    ref = DistributedTrainer(model_a, d, task_a, Cluster.of_size(1), config)

    model_b = build_model("cdgcn", in_features=2, hidden=6, embed_dim=6,
                          seed=0)
    got = DistributedTrainer.from_store(
        model_b, store,
        lambda view: LinkPredictionTask(view, embed_dim=6, theta=0.5,
                                        seed=0),
        Cluster.of_size(1), config)
    assert isinstance(got.dtdg, StoreView)

    np.testing.assert_allclose(_losses(got), _losses(ref), rtol=1e-10)


def test_from_store_window_slices_timeline(stored):
    d, store = stored
    model = build_model("cdgcn", in_features=2, hidden=6, embed_dim=6,
                        seed=0)
    trainer = DistributedTrainer.from_store(
        model, store,
        lambda view: LinkPredictionTask(view, embed_dim=6, theta=0.5,
                                        seed=0),
        Cluster.of_size(1), DistConfig(), start=2, stop=7)
    assert trainer.dtdg.num_timesteps == 5
    assert trainer.dtdg[0] == d[2]
    result = trainer.fit(1)[0]
    assert np.isfinite(result.loss)


def test_distributed_training_from_store_matches(stored):
    d, store = stored
    config = DistConfig(partitioning="snapshot", num_blocks=2)

    def boot(source, from_store):
        model = build_model("cdgcn", in_features=2, hidden=6,
                            embed_dim=6, seed=0)
        cluster = Cluster(ClusterSpec(num_nodes=1, gpus_per_node=2))
        if from_store:
            return DistributedTrainer.from_store(
                model, source,
                lambda view: LinkPredictionTask(view, embed_dim=6,
                                                theta=0.5, seed=0),
                cluster, config)
        task = LinkPredictionTask(source, embed_dim=6, theta=0.5, seed=0)
        return DistributedTrainer(model, source, task, cluster, config)

    ref = boot(d, from_store=False)
    got = boot(store, from_store=True)
    np.testing.assert_allclose(_losses(got), _losses(ref), rtol=1e-10)


@pytest.mark.parametrize("distributed", [False, True],
                         ids=["single", "distributed"])
def test_from_store_forwards_telemetry_and_kernel_backend(stored,
                                                          distributed):
    """A store-fed trainer can be traced and pinned to a kernel backend
    like a directly constructed one."""
    _, store = stored
    tel = Telemetry()
    pinned = ReferenceBackend()   # a private instance, not the singleton
    model = build_model("cdgcn", in_features=2, hidden=6, embed_dim=6,
                        seed=0)

    def task_factory(view):
        return LinkPredictionTask(view, embed_dim=6, theta=0.5, seed=0)

    if distributed:
        trainer = DistributedTrainer.from_store(
            model, store, task_factory,
            Cluster(ClusterSpec(num_nodes=1, gpus_per_node=2)),
            DistConfig(partitioning="vertex"),
            telemetry=tel, kernel_backend=pinned)
        # the renamed operators the vertex plan multiplies through too
        assert trainer.plan.laplacians[0].backend is pinned
    else:
        trainer = DistributedTrainer.from_store(
            model, store, task_factory, Cluster.of_size(1), DistConfig(),
            telemetry=tel, kernel_backend=pinned)
    assert trainer.telemetry is tel
    assert trainer.laplacians[0].backend is pinned
    result = trainer.train_epoch()
    assert tel.registry.value("train_tape_nodes") == result.tape_nodes
