"""Gradient and semantics tests for primitive ops, incl. property-based
gradcheck with hypothesis."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.errors import ShapeError
from repro.tensor import Tensor, ops
from tests.helpers import check_gradients


def rng():
    return np.random.default_rng(1234)


class TestElementwise:
    def test_add_broadcast_bias(self):
        x = Tensor(rng().normal(size=(4, 3)), requires_grad=True)
        b = Tensor(rng().normal(size=(3,)), requires_grad=True)
        check_gradients(lambda: (x + b).sum(), [x, b])

    def test_sub(self):
        x = Tensor(rng().normal(size=(3, 3)), requires_grad=True)
        y = Tensor(rng().normal(size=(3, 3)), requires_grad=True)
        check_gradients(lambda: (x - y).sum(), [x, y])

    def test_mul_broadcast_scalar_tensor(self):
        x = Tensor(rng().normal(size=(2, 5)), requires_grad=True)
        s = Tensor(2.5, requires_grad=True)
        check_gradients(lambda: (x * s).sum(), [x, s])

    def test_div(self):
        x = Tensor(rng().normal(size=(4,)) + 3.0, requires_grad=True)
        y = Tensor(rng().normal(size=(4,)) + 3.0, requires_grad=True)
        check_gradients(lambda: (x / y).sum(), [x, y])

    def test_exp_log_sqrt(self):
        x = Tensor(np.abs(rng().normal(size=(5,))) + 0.5, requires_grad=True)
        check_gradients(lambda: ops.exp(x).sum(), [x])
        check_gradients(lambda: ops.log(x).sum(), [x])
        check_gradients(lambda: ops.sqrt(x).sum(), [x])

    def test_power(self):
        x = Tensor(np.abs(rng().normal(size=(5,))) + 1.0, requires_grad=True)
        check_gradients(lambda: ops.power(x, 3.0).sum(), [x])

    def test_abs(self):
        x = Tensor(np.array([-2.0, 3.0, -4.0]), requires_grad=True)
        ops.abs_(x).sum().backward()
        np.testing.assert_array_equal(x.grad, [-1.0, 1.0, -1.0])

    def test_maximum(self):
        a = Tensor(np.array([1.0, 5.0]), requires_grad=True)
        b = Tensor(np.array([2.0, 3.0]), requires_grad=True)
        out = ops.maximum(a, b)
        np.testing.assert_array_equal(out.data, [2.0, 5.0])
        out.sum().backward()
        np.testing.assert_array_equal(a.grad, [0.0, 1.0])
        np.testing.assert_array_equal(b.grad, [1.0, 0.0])

    def test_clip(self):
        x = Tensor(np.array([-2.0, 0.5, 2.0]), requires_grad=True)
        out = ops.clip(x, -1.0, 1.0)
        np.testing.assert_array_equal(out.data, [-1.0, 0.5, 1.0])
        out.sum().backward()
        np.testing.assert_array_equal(x.grad, [0.0, 1.0, 0.0])

    def test_where(self):
        cond = np.array([True, False, True])
        a = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
        b = Tensor(np.array([9.0, 8.0, 7.0]), requires_grad=True)
        out = ops.where(cond, a, b)
        np.testing.assert_array_equal(out.data, [1.0, 8.0, 3.0])
        out.sum().backward()
        np.testing.assert_array_equal(a.grad, [1.0, 0.0, 1.0])
        np.testing.assert_array_equal(b.grad, [0.0, 1.0, 0.0])


class TestMatmul:
    def test_2d_2d(self):
        a = Tensor(rng().normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng().normal(size=(4, 2)), requires_grad=True)
        check_gradients(lambda: (a @ b).sum(), [a, b])

    def test_matvec(self):
        a = Tensor(rng().normal(size=(3, 4)), requires_grad=True)
        v = Tensor(rng().normal(size=(4,)), requires_grad=True)
        check_gradients(lambda: (a @ v).sum(), [a, v])

    def test_vecmat(self):
        v = Tensor(rng().normal(size=(3,)), requires_grad=True)
        a = Tensor(rng().normal(size=(3, 4)), requires_grad=True)
        check_gradients(lambda: (v @ a).sum(), [v, a])

    def test_inner(self):
        u = Tensor(rng().normal(size=(5,)), requires_grad=True)
        v = Tensor(rng().normal(size=(5,)), requires_grad=True)
        check_gradients(lambda: u @ v, [u, v])

    def test_shape_mismatch_raises(self):
        a = Tensor(np.zeros((2, 3)))
        b = Tensor(np.zeros((4, 2)))
        with pytest.raises(ValueError):
            _ = a @ b


class TestShapeOps:
    def test_transpose_default(self):
        a = Tensor(rng().normal(size=(3, 5)), requires_grad=True)
        check_gradients(lambda: (a.T @ a).sum(), [a])

    def test_transpose_axes(self):
        a = Tensor(rng().normal(size=(2, 3, 4)), requires_grad=True)
        check_gradients(
            lambda: ops.transpose(a, (2, 0, 1)).sum(), [a])

    def test_reshape_roundtrip(self):
        a = Tensor(rng().normal(size=(6,)), requires_grad=True)
        check_gradients(lambda: a.reshape(2, 3).sum(), [a])

    def test_getitem_rows(self):
        a = Tensor(rng().normal(size=(5, 3)), requires_grad=True)
        check_gradients(lambda: a[1:4].sum(), [a])

    def test_getitem_fancy_repeated_index_accumulates(self):
        a = Tensor(np.zeros((4, 2)), requires_grad=True)
        idx = np.array([0, 0, 3])
        out = a[idx].sum()
        out.backward()
        np.testing.assert_array_equal(a.grad[:, 0], [2.0, 0.0, 0.0, 1.0])

    def test_concat_axis0(self):
        a = Tensor(rng().normal(size=(2, 3)), requires_grad=True)
        b = Tensor(rng().normal(size=(4, 3)), requires_grad=True)
        check_gradients(lambda: ops.concat([a, b], axis=0).sum(), [a, b])

    def test_concat_axis1(self):
        a = Tensor(rng().normal(size=(2, 3)), requires_grad=True)
        b = Tensor(rng().normal(size=(2, 5)), requires_grad=True)
        check_gradients(lambda: ops.concat([a, b], axis=1).sum(), [a, b])

    def test_concat_empty_raises(self):
        with pytest.raises(ShapeError):
            ops.concat([])

    def test_stack(self):
        a = Tensor(rng().normal(size=(2, 3)), requires_grad=True)
        b = Tensor(rng().normal(size=(2, 3)), requires_grad=True)
        out = ops.stack([a, b], axis=0)
        assert out.shape == (2, 2, 3)
        check_gradients(lambda: ops.stack([a, b]).sum(), [a, b])

    def test_stack_empty_raises(self):
        with pytest.raises(ShapeError):
            ops.stack([])


class TestReductions:
    def test_sum_all(self):
        a = Tensor(rng().normal(size=(3, 4)), requires_grad=True)
        check_gradients(lambda: a.sum(), [a])

    def test_sum_axis(self):
        a = Tensor(rng().normal(size=(3, 4)), requires_grad=True)
        check_gradients(lambda: a.sum(axis=0).sum(), [a])
        check_gradients(lambda: a.sum(axis=1, keepdims=True).sum(), [a])

    def test_mean_all(self):
        a = Tensor(rng().normal(size=(3, 4)), requires_grad=True)
        check_gradients(lambda: a.mean(), [a])

    def test_mean_axis(self):
        a = Tensor(rng().normal(size=(3, 4)), requires_grad=True)
        check_gradients(lambda: a.mean(axis=1).sum(), [a])

    def test_scale_rows(self):
        a = Tensor(rng().normal(size=(4, 3)), requires_grad=True)
        scales = np.array([1.0, 0.5, 2.0, 0.0])
        check_gradients(lambda: ops.scale_rows(a, scales).sum(), [a])

    def test_scale_rows_bad_length(self):
        a = Tensor(np.zeros((4, 3)))
        with pytest.raises(ShapeError):
            ops.scale_rows(a, np.ones(3))


@st.composite
def small_matrices(draw):
    rows = draw(st.integers(1, 4))
    cols = draw(st.integers(1, 4))
    elems = st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False)
    data = draw(st.lists(elems, min_size=rows * cols, max_size=rows * cols))
    return np.array(data).reshape(rows, cols)


class TestPropertyBased:
    @given(small_matrices())
    @settings(max_examples=30, deadline=None)
    def test_sum_linear_in_input(self, m):
        x = Tensor(m, requires_grad=True)
        x.sum().backward()
        np.testing.assert_array_equal(x.grad, np.ones_like(m))

    @given(small_matrices(), st.floats(-2.0, 2.0, allow_nan=False))
    @settings(max_examples=30, deadline=None)
    def test_scalar_mul_gradient(self, m, c):
        x = Tensor(m, requires_grad=True)
        (x * c).sum().backward()
        np.testing.assert_allclose(x.grad, np.full_like(m, c))

    @given(small_matrices())
    @settings(max_examples=30, deadline=None)
    def test_double_use_gradient_is_doubled(self, m):
        x = Tensor(m, requires_grad=True)
        (x + x).sum().backward()
        np.testing.assert_allclose(x.grad, np.full_like(m, 2.0))

    @given(small_matrices())
    @settings(max_examples=20, deadline=None)
    def test_transpose_involution(self, m):
        x = Tensor(m)
        np.testing.assert_array_equal(x.T.T.data, m)

    @given(small_matrices())
    @settings(max_examples=20, deadline=None)
    def test_concat_split_roundtrip(self, m):
        x = Tensor(m, requires_grad=True)
        y = Tensor(m.copy(), requires_grad=True)
        cat = ops.concat([x, y], axis=0)
        assert cat.shape == (2 * m.shape[0], m.shape[1])
        cat.sum().backward()
        np.testing.assert_array_equal(x.grad, np.ones_like(m))
        np.testing.assert_array_equal(y.grad, np.ones_like(m))

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_getitem_gradient_matches_scatter_add_oracle(self, data):
        """Basic indices scatter by assignment and a 1-D row gather by
        an ordered sparse product; both must equal ``np.add.at`` (the
        fallback for every other index form) bit for bit — duplicates
        add in index-position order, negatives wrap."""
        shape = data.draw(hnp.array_shapes(min_dims=1, max_dims=3,
                                           min_side=1, max_side=5))
        rows = st.integers(-shape[0], shape[0] - 1)
        index = data.draw(st.one_of(
            hnp.basic_indices(shape, allow_newaxis=True,
                              allow_ellipsis=True),
            rows,
            hnp.arrays(np.int64, st.integers(0, 12), elements=rows),
            hnp.arrays(np.int32, st.integers(1, 12), elements=rows),
            hnp.arrays(bool, shape[0]),
            hnp.integer_array_indices(shape)))
        g = np.random.default_rng(data.draw(st.integers(0, 99)))
        x = Tensor(g.normal(size=shape), requires_grad=True)
        out = x[index]
        upstream = g.normal(size=out.shape)
        out.backward(upstream)
        want = np.zeros(shape)
        np.add.at(want, index, upstream)
        np.testing.assert_array_equal(x.grad, want)
