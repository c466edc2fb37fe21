"""Tests for the three dynamic-GNN architectures and the block protocol."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.graph import evolving_dtdg, normalized_laplacian
from repro.models import (CDGCN, EvolveGCN, MODEL_NAMES, TMGCN, build_model,
                          detach_carry)
from repro.tensor import Tensor
from repro.tensor import functional as F


N, T, F_IN = 12, 6, 2


@pytest.fixture(scope="module")
def workload():
    dtdg = evolving_dtdg(N, T, 30, churn=0.2, seed=0)
    laps = [normalized_laplacian(s) for s in dtdg.snapshots]
    g = np.random.default_rng(1)
    frames = [Tensor(g.normal(size=(N, F_IN))) for _ in range(T)]
    return laps, frames


ALL_MODELS = [
    lambda: TMGCN(F_IN, hidden=4, embed_dim=3, num_layers=2, window=3,
                  rng=np.random.default_rng(0)),
    lambda: CDGCN(F_IN, hidden=4, embed_dim=3, num_layers=2,
                  rng=np.random.default_rng(0)),
    lambda: EvolveGCN(F_IN, hidden=4, embed_dim=3, num_layers=2,
                      rng=np.random.default_rng(0)),
]


@pytest.mark.parametrize("factory", ALL_MODELS,
                         ids=["tmgcn", "cdgcn", "egcn"])
class TestCommonProtocol:
    def test_forward_shapes(self, factory, workload):
        laps, frames = workload
        model = factory()
        outs = model(laps, frames)
        assert len(outs) == T
        for z in outs:
            assert z.shape == (N, 3)

    def test_blockwise_equals_monolithic(self, factory, workload):
        """The carry protocol must make split execution exact (paper §3.1:
        checkpointed re-execution reproduces the forward pass)."""
        laps, frames = workload
        model = factory()
        full = model(laps, frames)
        carry = model.init_carry(N)
        outs_a, carry = model.forward_block(laps[:2], frames[:2], carry)
        outs_b, carry = model.forward_block(laps[2:5], frames[2:5], carry)
        outs_c, _ = model.forward_block(laps[5:], frames[5:], carry)
        rejoined = outs_a + outs_b + outs_c
        for got, want in zip(rejoined, full):
            np.testing.assert_allclose(got.data, want.data, atol=1e-10)

    def test_gradients_reach_all_parameters(self, factory, workload):
        laps, frames = workload
        model = factory()
        outs = model(laps, frames)
        total = outs[0].sum()
        for z in outs[1:]:
            total = total + z.sum()
        total.backward()
        for name, p in model.named_parameters():
            assert p.grad is not None, f"no grad for {name}"

    def test_empty_timeline(self, factory, workload):
        model = factory()
        assert model([], []) == []

    def test_mismatched_inputs_rejected(self, factory, workload):
        laps, frames = workload
        model = factory()
        with pytest.raises(ConfigError):
            model(laps[:2], frames[:3])

    def test_flop_model_positive(self, factory, workload):
        model = factory()
        assert model.rnn_flops_per_step(N) > 0
        assert model.activation_bytes_per_step(N) > 0

    def test_detached_carry_cuts_graph(self, factory, workload):
        laps, frames = workload
        model = factory()
        carry = model.init_carry(N)
        _, carry = model.forward_block(laps[:3], frames[:3], carry)
        detached = detach_carry(carry)

        def assert_leaf(obj):
            if isinstance(obj, Tensor):
                assert obj.is_leaf and not obj.requires_grad
            elif isinstance(obj, (list, tuple)):
                for item in obj:
                    assert_leaf(item)

        assert_leaf(detached)


class TestCDGCNSpecifics:
    def test_skip_concat_width(self):
        model = CDGCN(F_IN, hidden=4, embed_dim=3, num_layers=2,
                      rng=np.random.default_rng(0))
        assert model.gcn_layer(0).output_dim == F_IN + 4
        # second layer consumes the first LSTM's output width (4)
        assert model.gcn_layer(1).in_features == 4

    def test_invalid_layers(self):
        with pytest.raises(ConfigError):
            CDGCN(F_IN, num_layers=0)

    def test_temporal_dependence(self, ):
        """Shuffling earlier frames must change later outputs (LSTM)."""
        dtdg = evolving_dtdg(N, 4, 24, churn=0.2, seed=3)
        laps = [normalized_laplacian(s) for s in dtdg.snapshots]
        g = np.random.default_rng(2)
        frames = [Tensor(g.normal(size=(N, F_IN))) for _ in range(4)]
        model = CDGCN(F_IN, hidden=4, embed_dim=3,
                      rng=np.random.default_rng(0))
        base = model(laps, frames)[3].data.copy()
        frames2 = list(frames)
        frames2[0] = Tensor(frames[0].data + 1.0)
        changed = model(laps, frames2)[3].data
        assert not np.allclose(base, changed)


class TestTMGCNSpecifics:
    def test_window_validation(self):
        with pytest.raises(ConfigError):
            TMGCN(F_IN, window=0)

    def test_carry_is_frame_history(self, workload):
        laps, frames = workload
        model = TMGCN(F_IN, hidden=4, embed_dim=3, window=3,
                      rng=np.random.default_rng(0))
        carry = model.init_carry(N)
        _, carry = model.forward_block(laps[:4], frames[:4], carry)
        for layer_hist in carry:
            assert len(layer_hist) == 2  # window - 1 frames

    def test_window_smooths_outputs(self, workload):
        """Larger windows average more: outputs vary less across time."""
        laps, frames = workload

        def variation(window):
            model = TMGCN(F_IN, hidden=4, embed_dim=3, window=window,
                          rng=np.random.default_rng(0))
            outs = model(laps, frames)
            diffs = [np.abs(outs[t + 1].data - outs[t].data).mean()
                     for t in range(T - 1)]
            return np.mean(diffs[2:])  # skip warm-up steps

        assert variation(5) < variation(1)


class TestEvolveGCNSpecifics:
    def test_weights_evolve_over_time(self):
        model = EvolveGCN(F_IN, hidden=4, embed_dim=3,
                          rng=np.random.default_rng(0))
        state = model.weight_init(0)
        weights, _ = model.evolve_weights(0, 3, state)
        assert len(weights) == 3
        assert not np.allclose(weights[0].data, weights[1].data)

    def test_rnn_flops_independent_of_rows(self):
        model = EvolveGCN(F_IN, hidden=4, embed_dim=3,
                          rng=np.random.default_rng(0))
        assert model.rnn_flops_per_step(10) == model.rnn_flops_per_step(10000)


class TestRegistry:
    def test_all_names_buildable(self):
        for name in MODEL_NAMES:
            model = build_model(name, in_features=2, seed=0)
            assert model.num_layers == 2
            assert model.embed_dim == 6

    def test_alias(self):
        assert isinstance(build_model("evolvegcn"), EvolveGCN)

    def test_unknown_name(self):
        with pytest.raises(ConfigError):
            build_model("gat")

    def test_seed_reproducibility(self):
        a = build_model("cdgcn", seed=7)
        b = build_model("cdgcn", seed=7)
        for (na, pa), (nb, pb) in zip(a.named_parameters(),
                                      b.named_parameters()):
            assert na == nb
            np.testing.assert_array_equal(pa.data, pb.data)


class TestEndToEndTraining:
    """A small learning sanity check: the models can fit a toy signal."""

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_loss_decreases(self, name):
        from repro.tensor import Adam
        dtdg = evolving_dtdg(16, 4, 40, churn=0.1, seed=5)
        laps = [normalized_laplacian(s) for s in dtdg.snapshots]
        g = np.random.default_rng(3)
        frames = [Tensor(g.normal(size=(16, 2))) for _ in range(4)]
        labels = g.integers(0, 2, size=16)
        model = build_model(name, in_features=2, hidden=4, embed_dim=4,
                            seed=0)
        from repro.nn import Linear
        head = Linear(4, 2, np.random.default_rng(1))
        params = model.parameters() + head.parameters()
        opt = Adam(params, lr=0.02)
        losses = []
        for _ in range(25):
            opt.zero_grad()
            outs = model(laps, frames)
            loss = F.cross_entropy(head(outs[-1]), labels)
            loss.backward()
            opt.step()
            losses.append(loss.item())
        assert losses[-1] < losses[0]
