"""Tests for Module/Parameter discovery, state dicts, optimizers, init."""

import numpy as np
import pytest

from repro.errors import ConfigError, ShapeError
from repro.tensor import Adam, Module, Parameter, SGD, Tensor, clip_grad_norm
from repro.tensor import functional as F, init


class TinyLinear(Module):
    def __init__(self, n_in, n_out, rng):
        super().__init__()
        self.weight = Parameter(init.xavier_uniform((n_in, n_out), rng))
        self.bias = Parameter(np.zeros(n_out))

    def forward(self, x):
        return x @ self.weight + self.bias


class TinyNet(Module):
    def __init__(self, rng):
        super().__init__()
        self.fc1 = TinyLinear(3, 4, rng)
        self.fc2 = TinyLinear(4, 2, rng)

    def forward(self, x):
        return self.fc2(F.relu(self.fc1(x)))


@pytest.fixture
def net():
    return TinyNet(np.random.default_rng(0))


class TestModule:
    def test_named_parameters_recursive_sorted(self, net):
        names = [n for n, _ in net.named_parameters()]
        assert names == ["fc1.bias", "fc1.weight", "fc2.bias", "fc2.weight"]

    def test_zero_grad_recursive(self, net):
        x = Tensor(np.ones((2, 3)))
        net(x).sum().backward()
        assert all(p.grad is not None for p in net.parameters())
        net.zero_grad()
        assert all(p.grad is None for p in net.parameters())

    def test_train_eval_recursive(self, net):
        net.train(False)
        assert not net.training and not net.fc1.training
        net.train()
        assert net.training and net.fc2.training

    def test_named_modules(self, net):
        names = [n for n, _ in net.named_modules()]
        assert "" in names and "fc1" in names and "fc2" in names

    def test_state_dict_roundtrip(self, net):
        state = net.state_dict()
        other = TinyNet(np.random.default_rng(99))
        other.load_state_dict(state)
        x = Tensor(np.random.default_rng(1).normal(size=(5, 3)))
        np.testing.assert_allclose(net(x).data, other(x).data)

    def test_state_dict_is_a_copy(self, net):
        state = net.state_dict()
        state["fc1.weight"][:] = 0.0
        assert not (net.fc1.weight.data == 0.0).all()

    def test_load_state_dict_missing_key(self, net):
        state = net.state_dict()
        del state["fc1.weight"]
        with pytest.raises(ShapeError):
            net.load_state_dict(state)

    def test_load_state_dict_bad_shape(self, net):
        state = net.state_dict()
        state["fc1.weight"] = np.zeros((1, 1))
        with pytest.raises(ShapeError):
            net.load_state_dict(state)


class TestOptimizers:
    def _quadratic_problem(self):
        # minimize ||Wx - y||^2 over W
        rng = np.random.default_rng(5)
        w = Parameter(rng.normal(size=(3, 2)))
        x = rng.normal(size=(20, 3))
        target = x @ rng.normal(size=(3, 2))
        return w, x, target

    def test_sgd_descends(self):
        w, x, target = self._quadratic_problem()
        opt = SGD([w], lr=0.05)
        losses = []
        for _ in range(50):
            opt.zero_grad()
            loss = F.mse_loss(Tensor(x) @ w, target)
            loss.backward()
            opt.step()
            losses.append(loss.item())
        assert losses[-1] < losses[0] * 0.01

    def test_sgd_momentum_descends(self):
        w, x, target = self._quadratic_problem()
        opt = SGD([w], lr=0.02, momentum=0.9)
        for _ in range(120):
            opt.zero_grad()
            F.mse_loss(Tensor(x) @ w, target).backward()
            opt.step()
        final = F.mse_loss(Tensor(x) @ w, target).item()
        assert final < 1e-3

    def test_adam_descends(self):
        w, x, target = self._quadratic_problem()
        opt = Adam([w], lr=0.1)
        for _ in range(100):
            opt.zero_grad()
            F.mse_loss(Tensor(x) @ w, target).backward()
            opt.step()
        assert F.mse_loss(Tensor(x) @ w, target).item() < 1e-3

    def test_weight_decay_shrinks_weights(self):
        w = Parameter(np.ones((4, 4)) * 10.0)
        opt = SGD([w], lr=0.1, weight_decay=0.5)
        (Tensor(np.zeros((1, 4))) @ w).sum().backward()
        opt.step()
        assert (np.abs(w.data) < 10.0).all()

    def test_skips_params_without_grad(self):
        w = Parameter(np.ones(3))
        before = w.data.copy()
        SGD([w], lr=0.1).step()
        np.testing.assert_array_equal(w.data, before)

    def test_empty_params_rejected(self):
        with pytest.raises(ConfigError):
            SGD([], lr=0.1)

    def test_bad_lr_rejected(self):
        with pytest.raises(ConfigError):
            Adam([Parameter(np.ones(1))], lr=-1.0)

    def test_bad_momentum_rejected(self):
        with pytest.raises(ConfigError):
            SGD([Parameter(np.ones(1))], lr=0.1, momentum=1.5)

    def test_bad_betas_rejected(self):
        with pytest.raises(ConfigError):
            Adam([Parameter(np.ones(1))], lr=0.1, betas=(1.5, 0.9))

    def test_clip_grad_norm(self):
        p = Parameter(np.zeros(4))
        p.grad = np.full(4, 10.0)
        norm = clip_grad_norm([p], max_norm=1.0)
        assert norm == pytest.approx(20.0)
        assert np.linalg.norm(p.grad) == pytest.approx(1.0, rel=1e-6)

    def test_clip_grad_norm_no_clip_needed(self):
        p = Parameter(np.zeros(4))
        p.grad = np.full(4, 0.1)
        clip_grad_norm([p], max_norm=10.0)
        np.testing.assert_allclose(p.grad, 0.1)


class TestInit:
    def test_xavier_uniform_bounds(self):
        rng = np.random.default_rng(0)
        w = init.xavier_uniform((50, 30), rng)
        bound = np.sqrt(6.0 / 80)
        assert (np.abs(w) <= bound).all()
        assert w.std() > 0

    def test_xavier_normal_scale(self):
        rng = np.random.default_rng(0)
        w = init.xavier_normal((400, 400), rng)
        assert w.std() == pytest.approx(np.sqrt(2.0 / 800), rel=0.1)

    def test_orthogonal_columns(self):
        rng = np.random.default_rng(0)
        w = init.orthogonal((6, 4), rng)
        np.testing.assert_allclose(w.T @ w, np.eye(4), atol=1e-10)

    def test_orthogonal_wide(self):
        rng = np.random.default_rng(0)
        w = init.orthogonal((3, 5), rng)
        np.testing.assert_allclose(w @ w.T, np.eye(3), atol=1e-10)

    def test_deterministic_given_rng(self):
        a = init.xavier_uniform((4, 4), np.random.default_rng(7))
        b = init.xavier_uniform((4, 4), np.random.default_rng(7))
        np.testing.assert_array_equal(a, b)

    def test_zeros(self):
        np.testing.assert_array_equal(init.zeros((2, 2)), np.zeros((2, 2)))
