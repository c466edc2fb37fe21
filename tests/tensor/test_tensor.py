"""Tests for the core Tensor/tape machinery."""

import numpy as np
import pytest

import repro.tensor
from repro.errors import GradientError, ShapeError
from repro.tensor import (Tensor, as_tensor, functional, init,
                          is_grad_enabled, no_grad, ops, optim)


class TestConstruction:
    def test_from_list(self):
        t = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert t.shape == (2, 2)
        assert t.dtype == np.float64

    def test_from_tensor_shares_semantics(self):
        base = Tensor([1.0, 2.0])
        t = Tensor(base)
        np.testing.assert_array_equal(t.data, base.data)

    def test_default_no_grad(self):
        assert not Tensor([1.0]).requires_grad

    def test_nbytes(self):
        t = Tensor(np.zeros((4, 8)))
        assert t.nbytes == 4 * 8 * 8

    def test_as_tensor_passthrough(self):
        t = Tensor([1.0])
        assert as_tensor(t) is t

    def test_as_tensor_coerces(self):
        t = as_tensor([1.0, 2.0])
        assert isinstance(t, Tensor)

    def test_len(self):
        assert len(Tensor(np.zeros((5, 2)))) == 5

    def test_item_scalar(self):
        assert Tensor(3.5).item() == 3.5


class TestBackwardBasics:
    def test_scalar_backward_default_grad(self):
        x = Tensor(2.0, requires_grad=True)
        y = x * x
        y.backward()
        assert x.grad == pytest.approx(4.0)

    def test_nonscalar_backward_requires_grad_arg(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = x * 2.0
        with pytest.raises(GradientError):
            y.backward()

    def test_backward_wrong_shape_grad(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = x * 2.0
        with pytest.raises(ShapeError):
            y.backward(np.ones((3,)))

    def test_backward_on_no_grad_tensor(self):
        x = Tensor([1.0])
        with pytest.raises(GradientError):
            x.backward()

    def test_grad_accumulates_across_backwards(self):
        x = Tensor(3.0, requires_grad=True)
        (x * 2.0).backward()
        (x * 2.0).backward()
        assert x.grad == pytest.approx(4.0)

    def test_zero_grad(self):
        x = Tensor(3.0, requires_grad=True)
        (x * 2.0).backward()
        x.zero_grad()
        assert x.grad is None

    def test_diamond_dag_accumulation(self):
        # x used twice: y = x*x + x*x => dy/dx = 4x
        x = Tensor(3.0, requires_grad=True)
        y = x * x + x * x
        y.backward()
        assert x.grad == pytest.approx(12.0)

    def test_deep_chain(self):
        x = Tensor(1.0, requires_grad=True)
        y = x
        for _ in range(100):
            y = y * 1.01
        y.backward()
        assert x.grad == pytest.approx(1.01 ** 100, rel=1e-9)

    def test_intermediate_has_no_grad_by_default(self):
        x = Tensor(2.0, requires_grad=True)
        mid = x * 3.0
        (mid * 2.0).backward()
        assert mid.grad is None
        assert x.grad == pytest.approx(6.0)

class TestNoGrad:
    def test_flag_toggles(self):
        assert is_grad_enabled()
        with no_grad():
            assert not is_grad_enabled()
        assert is_grad_enabled()

    def test_no_graph_recorded(self):
        x = Tensor(2.0, requires_grad=True)
        with no_grad():
            y = x * x
        assert not y.requires_grad
        assert y.is_leaf

    def test_nested(self):
        with no_grad():
            with no_grad():
                assert not is_grad_enabled()
            assert not is_grad_enabled()

    def test_restored_on_exception(self):
        try:
            with no_grad():
                raise ValueError("boom")
        except ValueError:
            pass
        assert is_grad_enabled()


class TestDetachClone:
    def test_detach_cuts_graph(self):
        x = Tensor(2.0, requires_grad=True)
        y = (x * 3.0).detach()
        z = y * 2.0
        assert not z.requires_grad

    def test_detach_shares_data(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        d = x.detach()
        assert d.data is x.data


class TestOperatorSugar:
    def test_radd_rsub_rmul_rdiv(self):
        # of the reflected operators only __radd__ and __rmul__ remain
        x = Tensor(4.0, requires_grad=True)
        y = 1.0 + x
        z = 3.0 * x
        assert y.item() == pytest.approx(5.0)
        assert z.item() == pytest.approx(12.0)
        (y * z).backward()
        # d/dx (1 + x)(3x) = 6x + 3
        assert x.grad == pytest.approx(27.0)

    def test_the_tape_keeps_five_ops(self):
        """``+``, ``*``, ``@``, indexing and ``sum`` are the operators;
        the general autograd's others are gone from the surface."""
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        for apply in (lambda: x - x, lambda: x / 2.0, lambda: -x,
                      lambda: x ** 2):
            with pytest.raises(TypeError):
                apply()
        for gone in ("mean", "reshape", "transpose", "T", "retain_grad"):
            assert not hasattr(x, gone)
        assert ops.__all__ == ["add", "mul", "matmul", "getitem", "sum_"]
        for module, names in (
                (repro.tensor, ("SGD", "Optimizer", "clip_grad_norm")),
                (optim, ("SGD", "Optimizer", "clip_grad_norm")),
                (functional, ("relu", "sigmoid", "tanh", "softmax",
                              "log_softmax", "mse_loss",
                              "binary_cross_entropy_with_logits")),
                (init, ("xavier_normal", "zeros"))):
            for name in names:
                assert not hasattr(module, name), name
