"""Tests for the cross-entropy loss and for the activations the
composed oracles build on (``tests/helpers.py``: ``relu``, ``sigmoid``,
``tanh``; the sigmoid is the fused cell's ``_sigmoid`` on the tape)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ShapeError
from repro.tensor import Tensor, functional as F
from tests.helpers import check_gradients, relu, sigmoid, tanh


def rng():
    return np.random.default_rng(42)


class TestActivations:
    def test_relu_values(self):
        x = Tensor([-1.0, 0.0, 2.0])
        np.testing.assert_array_equal(relu(x).data, [0.0, 0.0, 2.0])

    def test_relu_gradient(self):
        x = Tensor(rng().normal(size=(4, 3)) + 0.1, requires_grad=True)
        check_gradients(lambda: relu(x).sum(), [x])

    def test_sigmoid_range_and_symmetry(self):
        x = Tensor(np.linspace(-30, 30, 13))
        s = sigmoid(x).data
        assert (s > 0).all() and (s < 1).all()
        np.testing.assert_allclose(s + s[::-1], np.ones_like(s), atol=1e-12)

    def test_sigmoid_gradient(self):
        x = Tensor(rng().normal(size=(5,)), requires_grad=True)
        check_gradients(lambda: sigmoid(x).sum(), [x])

    def test_sigmoid_extreme_values_stable(self):
        x = Tensor([-1000.0, 1000.0])
        s = sigmoid(x).data
        assert np.isfinite(s).all()
        np.testing.assert_allclose(s, [0.0, 1.0], atol=1e-12)

    def test_tanh_gradient(self):
        x = Tensor(rng().normal(size=(5,)), requires_grad=True)
        check_gradients(lambda: tanh(x).sum(), [x])


class TestCrossEntropy:
    def test_perfect_prediction_low_loss(self):
        logits = Tensor(np.array([[20.0, 0.0], [0.0, 20.0]]))
        loss = F.cross_entropy(logits, np.array([0, 1]))
        assert loss.item() < 1e-6

    def test_uniform_prediction_log_c(self):
        logits = Tensor(np.zeros((5, 4)))
        loss = F.cross_entropy(logits, np.zeros(5, dtype=int))
        assert loss.item() == pytest.approx(np.log(4))

    def test_gradient(self):
        logits = Tensor(rng().normal(size=(6, 3)), requires_grad=True)
        labels = np.array([0, 1, 2, 0, 1, 2])
        check_gradients(lambda: F.cross_entropy(logits, labels), [logits])

    def test_rejects_1d_logits(self):
        with pytest.raises(ShapeError):
            F.cross_entropy(Tensor(np.zeros(3)), np.zeros(3, dtype=int))

    def test_rejects_mismatched_labels(self):
        with pytest.raises(ShapeError):
            F.cross_entropy(Tensor(np.zeros((3, 2))), np.zeros(4, dtype=int))

    def test_extreme_logits_finite(self):
        logits = Tensor(np.array([[1000.0, -1000.0]]))
        loss = F.cross_entropy(logits, np.array([1]))
        assert np.isfinite(loss.item())


class TestPropertyBased:
    @given(st.lists(st.floats(-5, 5, allow_nan=False), min_size=2,
                    max_size=8))
    @settings(max_examples=30, deadline=None)
    def test_sigmoid_tanh_identity(self, vals):
        # tanh(x) = 2*sigmoid(2x) - 1
        x = np.array(vals)
        lhs = tanh(Tensor(x)).data
        rhs = 2 * sigmoid(Tensor(2 * x)).data - 1
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    @given(st.integers(2, 6), st.integers(2, 5))
    @settings(max_examples=20, deadline=None)
    def test_cross_entropy_nonnegative(self, n, c):
        g = np.random.default_rng(n * 100 + c)
        logits = Tensor(g.normal(size=(n, c)))
        labels = g.integers(0, c, size=n)
        assert F.cross_entropy(logits, labels).item() >= 0.0
