"""Tests for timeline gradient checkpointing (paper §3.1).

The central property: the checkpointed backward must produce *exactly*
the gradients of the full-graph backward, for every model and any block
count — this is what lets the paper compare Base and checkpointed runs
purely on time/memory.
"""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.graph import GraphSnapshot, evolving_dtdg
from repro.models import MODEL_NAMES, build_model
from repro.tensor import Tensor
from repro.train import CheckpointRunner, LinkPredictionTask
from repro.train.checkpoint import carry_nbytes, flatten_tensors
from repro.train.preprocess import compute_laplacians, degree_features


N, T = 14, 8


def make_workload(seed=0):
    dtdg = evolving_dtdg(N, T + 1, 35, churn=0.25, seed=seed)
    dtdg.set_features(degree_features(dtdg))
    laps = compute_laplacians(dtdg)
    frames = [Tensor(f) for f in dtdg.features]
    return dtdg, laps, frames


def zero_grads(*modules):
    for module in modules:
        for p in module.parameters():
            p.zero_grad()


def full_gradients(model, task, laps, frames):
    zero_grads(model, task.head)
    outs = model(laps, frames)
    loss = task.loss_full(outs)
    loss.backward()
    grads = {name: p.grad.copy()
             for name, p in list(model.named_parameters()) +
             list(task.head.named_parameters())}
    return loss.item(), grads


class TestFlattenHelpers:
    def test_flatten_deterministic_order(self):
        a, b, c = Tensor([1.0]), Tensor([2.0]), Tensor([3.0])
        structure = [(a, b), {"z": c, "a": a}]
        flat = flatten_tensors(structure)
        assert flat == [a, b, a, c]  # dict walked in sorted key order

    def test_carry_nbytes(self):
        carry = [(Tensor(np.zeros((2, 3))), Tensor(np.zeros(4)))]
        assert carry_nbytes(carry) == 2 * 3 * 8 + 4 * 8


@pytest.mark.parametrize("model_name", MODEL_NAMES)
@pytest.mark.parametrize("num_blocks", [2, 4, 8])
class TestGradientEquivalence:
    def test_matches_full_backward(self, model_name, num_blocks):
        dtdg, laps, frames = make_workload()
        model = build_model(model_name, in_features=2, hidden=4,
                            embed_dim=4, seed=0)
        task = LinkPredictionTask(dtdg, embed_dim=4, theta=0.3, seed=0)
        t_train = task.num_train_timesteps

        ref_loss, ref_grads = full_gradients(model, task,
                                             laps[:t_train],
                                             frames[:t_train])

        zero_grads(model, task.head)
        runner = CheckpointRunner(model, num_blocks)
        result = runner.run_epoch(laps[:t_train], frames[:t_train],
                                  task.loss_block)

        assert result.loss == pytest.approx(ref_loss, rel=1e-9)
        for name, p in list(model.named_parameters()) + \
                list(task.head.named_parameters()):
            assert p.grad is not None, f"{name} missing grad"
            np.testing.assert_allclose(
                p.grad, ref_grads[name], rtol=1e-7, atol=1e-10,
                err_msg=f"gradient mismatch for {name} "
                        f"({model_name}, nb={num_blocks})")


class TestCheckpointMechanics:
    def test_single_block_equals_full(self):
        dtdg, laps, frames = make_workload(seed=1)
        model = build_model("cdgcn", in_features=2, hidden=4, embed_dim=4,
                            seed=0)
        task = LinkPredictionTask(dtdg, embed_dim=4, theta=0.3, seed=0)
        t_train = task.num_train_timesteps
        ref_loss, ref_grads = full_gradients(model, task, laps[:t_train],
                                             frames[:t_train])
        zero_grads(model, task.head)
        result = CheckpointRunner(model, 1).run_epoch(
            laps[:t_train], frames[:t_train], task.loss_block)
        assert result.loss == pytest.approx(ref_loss, rel=1e-9)

    def test_peak_live_timesteps_shrinks_with_blocks(self):
        dtdg, laps, frames = make_workload(seed=2)
        model = build_model("tmgcn", in_features=2, hidden=4, embed_dim=4,
                            seed=0)
        task = LinkPredictionTask(dtdg, embed_dim=4, theta=0.3, seed=0)
        t_train = task.num_train_timesteps
        peaks = {}
        for nb in (1, 2, 4):
            zero_grads(model)
            result = CheckpointRunner(model, nb).run_epoch(
                laps[:t_train], frames[:t_train], task.loss_block)
            peaks[nb] = result.peak_live_timesteps
        assert peaks[1] > peaks[2] > peaks[4]

    def test_carry_bytes_grow_with_blocks(self):
        dtdg, laps, frames = make_workload(seed=3)
        model = build_model("cdgcn", in_features=2, hidden=4, embed_dim=4,
                            seed=0)
        task = LinkPredictionTask(dtdg, embed_dim=4, theta=0.3, seed=0)
        t_train = task.num_train_timesteps
        bytes_by_nb = {}
        for nb in (2, 4):
            zero_grads(model)
            result = CheckpointRunner(model, nb).run_epoch(
                laps[:t_train], frames[:t_train], task.loss_block)
            bytes_by_nb[nb] = result.carry_bytes
        assert bytes_by_nb[4] > bytes_by_nb[2]

    def test_more_blocks_than_timesteps_clamped(self):
        dtdg, laps, frames = make_workload(seed=4)
        model = build_model("tmgcn", in_features=2, hidden=4, embed_dim=4,
                            seed=0)
        task = LinkPredictionTask(dtdg, embed_dim=4, theta=0.3, seed=0)
        t_train = task.num_train_timesteps
        result = CheckpointRunner(model, 100).run_epoch(
            laps[:t_train], frames[:t_train], task.loss_block)
        assert result.num_blocks == t_train

    def test_invalid_blocks(self):
        model = build_model("tmgcn", seed=0)
        with pytest.raises(ConfigError):
            CheckpointRunner(model, 0)

    def test_empty_timeline_rejected(self):
        model = build_model("tmgcn", seed=0)
        with pytest.raises(ConfigError):
            CheckpointRunner(model, 2).run_epoch([], [], lambda e, t: None)

    def test_forward_streaming_matches_forward(self):
        dtdg, laps, frames = make_workload(seed=5)
        model = build_model("cdgcn", in_features=2, hidden=4, embed_dim=4,
                            seed=0)
        full = model(laps, frames)
        streamed = CheckpointRunner(model, 3).forward_streaming(laps, frames)
        assert len(streamed) == len(full)
        for a, b in zip(streamed, full):
            np.testing.assert_allclose(a.data, b.data, atol=1e-10)

    def test_forward_streaming_empty(self):
        model = build_model("cdgcn", seed=0)
        assert CheckpointRunner(model, 2).forward_streaming([], []) == []

    def test_training_converges_with_checkpointing(self):
        from repro.tensor import Adam
        dtdg, laps, frames = make_workload(seed=6)
        model = build_model("tmgcn", in_features=2, hidden=4, embed_dim=4,
                            seed=0)
        task = LinkPredictionTask(dtdg, embed_dim=4, theta=0.5, seed=0)
        t_train = task.num_train_timesteps
        params = model.parameters() + task.head.parameters()
        opt = Adam(params, lr=0.02)
        runner = CheckpointRunner(model, 4)
        losses = []
        for _ in range(15):
            opt.zero_grad()
            result = runner.run_epoch(laps[:t_train], frames[:t_train],
                                      task.loss_block)
            opt.step()
            losses.append(result.loss)
        assert losses[-1] < losses[0]


class TestModelPersistence:
    """save/load of trained models — the train→serve hand-off."""

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_roundtrip_reproduces_embeddings(self, name, tmp_path):
        from repro.train import (load_model_checkpoint,
                                 save_model_checkpoint)
        _, laps, frames = make_workload(seed=2)
        model = build_model(name, in_features=2, seed=3)
        path = str(tmp_path / f"{name}.npz")
        save_model_checkpoint(path, model, name)
        # rebuild with a different seed: loaded weights must win
        loaded = load_model_checkpoint(path, seed=99)
        assert loaded.model_name == name
        want = model(laps, frames)
        got = loaded.model(laps, frames)
        for w, g in zip(want, got):
            np.testing.assert_allclose(g.data, w.data, atol=1e-12)

    def test_heads_roundtrip(self, tmp_path):
        from repro.nn.linear import EdgeScorer, Linear
        from repro.train import (load_model_checkpoint,
                                 save_model_checkpoint)
        rng = np.random.default_rng(0)
        model = build_model("cdgcn", in_features=2, seed=0)
        link = EdgeScorer(model.embed_dim, 2, rng)
        fraud = Linear(model.embed_dim, 2, rng)
        path = str(tmp_path / "full.npz")
        save_model_checkpoint(path, model, "cdgcn", link_head=link,
                              fraud_head=fraud,
                              extra={"dataset": "amlsim"})
        loaded = load_model_checkpoint(path)
        np.testing.assert_allclose(loaded.link_head.fc.weight.data,
                                   link.fc.weight.data)
        np.testing.assert_allclose(loaded.fraud_head.weight.data,
                                   fraud.weight.data)
        assert loaded.extra == {"dataset": "amlsim"}

    def test_checkpoint_of_the_concat_head_loads(self, tmp_path):
        """``checkpoint_parent.npz`` was written before the link head
        stopped concatenating (TM-GCN, seed 0, both heads drawn from
        ``default_rng(0)``).  It loads into today's ``EdgeScorer``, whose
        logits are the concatenated head's, and boots a server; today's
        writer still produces the same keys and arrays."""
        import os
        from repro.nn.linear import EdgeScorer, Linear
        from repro.serve import ModelServer
        from repro.train import (load_model_checkpoint,
                                 save_model_checkpoint)
        from tests.helpers import oracle_edge_logits
        path = os.path.join(os.path.dirname(__file__),
                            "checkpoint_parent.npz")
        loaded = load_model_checkpoint(path)
        head = loaded.link_head
        assert sorted(head.state_dict()) == ["fc.bias", "fc.weight"]
        rng = np.random.default_rng(1)
        z = rng.normal(size=(5, head.embed_dim))
        pairs = rng.integers(0, 5, size=(9, 2))
        np.testing.assert_allclose(
            head(z, pairs).data,
            oracle_edge_logits(z, head.fc.weight, head.fc.bias, pairs).data,
            rtol=1e-12, atol=1e-12)
        snapshot = GraphSnapshot(5, np.array([[0, 1], [1, 2], [3, 4]]))
        server = ModelServer.from_checkpoint(path, snapshot)
        np.testing.assert_array_equal(server.link_head.fc.weight.data,
                                      head.fc.weight.data)
        query = server.submit_link(0, 1)
        server.drain()
        assert query.done and 0.0 < query.result < 1.0

        model = build_model("tmgcn", in_features=2, seed=0)
        heads = np.random.default_rng(0)
        link = EdgeScorer(model.embed_dim, 2, heads)
        fraud = Linear(model.embed_dim, 2, heads)
        again = save_model_checkpoint(str(tmp_path / "now.npz"), model,
                                      "tmgcn", link_head=link,
                                      fraud_head=fraud)
        with np.load(path) as before, np.load(again) as now:
            assert before.files == now.files
            for key in before.files:
                np.testing.assert_array_equal(before[key], now[key])

    def test_suffixless_path_roundtrips(self, tmp_path):
        """np.savez appends '.npz' on its own; the checkpoint writer
        must not, so the returned path always exists."""
        import os
        from repro.train import (load_model_checkpoint,
                                 save_model_checkpoint)
        model = build_model("cdgcn", in_features=2, seed=0)
        path = save_model_checkpoint(str(tmp_path / "ckpt"), model,
                                     "cdgcn")
        assert os.path.exists(path)
        assert load_model_checkpoint(path).model_name == "cdgcn"

    def test_alias_resolves_to_canonical_name(self, tmp_path):
        from repro.train import (load_model_checkpoint,
                                 save_model_checkpoint)
        model = build_model("evolvegcn", in_features=2, seed=0)
        path = save_model_checkpoint(str(tmp_path / "e.npz"), model,
                                     "evolvegcn")
        assert load_model_checkpoint(path).model_name == "egcn"

    def test_unknown_model_name_rejected(self, tmp_path):
        from repro.train import save_model_checkpoint
        model = build_model("cdgcn", in_features=2, seed=0)
        with pytest.raises(ConfigError):
            save_model_checkpoint(str(tmp_path / "x.npz"), model, "gat")

    def test_missing_file_rejected(self):
        from repro.train import load_model_checkpoint
        with pytest.raises(ConfigError):
            load_model_checkpoint("/nonexistent/ckpt.npz")
