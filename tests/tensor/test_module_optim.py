"""Tests for Module/Parameter discovery, state dicts, optimizers, init."""

import numpy as np
import pytest

from repro.errors import ConfigError, ShapeError
from repro.tensor import Adam, Module, Parameter, Tensor, init
from tests.helpers import relu


def mse_loss(pred, target):
    """Mean squared error over the kept ops."""
    diff = pred + (-target)
    return (diff * diff).sum() * (1.0 / diff.size)


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
        return self.fc2(relu(self.fc1(x)))


@pytest.fixture
def net():
    return TinyNet(np.random.default_rng(0))


class TestModule:
    def test_named_parameters_recursive_sorted(self, net):
        names = [n for n, _ in net.named_parameters()]
        assert names == ["fc1.bias", "fc1.weight", "fc2.bias", "fc2.weight"]

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

    def test_adam_descends(self):
        w, x, target = self._quadratic_problem()
        opt = Adam([w], lr=0.1)
        for _ in range(100):
            opt.zero_grad()
            mse_loss(Tensor(x) @ w, target).backward()
            opt.step()
        assert mse_loss(Tensor(x) @ w, target).item() < 1e-3

    def test_weight_decay_shrinks_weights(self):
        w = Parameter(np.ones((4, 4)) * 10.0)
        opt = Adam([w], lr=0.1, weight_decay=0.5)
        (Tensor(np.zeros((1, 4))) @ w).sum().backward()
        opt.step()
        assert (np.abs(w.data) < 10.0).all()

    def test_skips_params_without_grad(self):
        w = Parameter(np.ones(3))
        before = w.data.copy()
        Adam([w], lr=0.1).step()
        np.testing.assert_array_equal(w.data, before)

    def test_empty_params_rejected(self):
        with pytest.raises(ConfigError):
            Adam([], lr=0.1)

    def test_bad_lr_rejected(self):
        with pytest.raises(ConfigError):
            Adam([Parameter(np.ones(1))], lr=-1.0)

    def test_bad_betas_rejected(self):
        with pytest.raises(ConfigError):
            Adam([Parameter(np.ones(1))], lr=0.1, betas=(1.5, 0.9))


class TestInit:
    def test_xavier_uniform_bounds(self):
        rng = np.random.default_rng(0)
        w = init.xavier_uniform((50, 30), rng)
        bound = np.sqrt(6.0 / 80)
        assert (np.abs(w) <= bound).all()
        assert w.std() > 0

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
