"""Gradient and semantics tests for the five tape ops (``+``, ``*``,
``@``, indexing, ``sum``) and the oracles' ``concat``
(``tests/helpers.py``), incl. property-based gradcheck with
hypothesis."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.errors import ShapeError
from repro.tensor import Tensor
from tests.helpers import check_gradients, concat


def rng():
    return np.random.default_rng(1234)


class TestElementwise:
    def test_add_broadcast_bias(self):
        x = Tensor(rng().normal(size=(4, 3)), requires_grad=True)
        b = Tensor(rng().normal(size=(3,)), requires_grad=True)
        check_gradients(lambda: (x + b).sum(), [x, b])

    def test_mul_broadcast_scalar_tensor(self):
        x = Tensor(rng().normal(size=(2, 5)), requires_grad=True)
        s = Tensor(2.5, requires_grad=True)
        check_gradients(lambda: (x * s).sum(), [x, s])

    def test_diamond_dag_gradient(self):
        # x reaches the sum along paths that part and meet again
        x = Tensor(rng().normal(size=(3, 4)), requires_grad=True)
        w = Tensor(rng().normal(size=(4,)), requires_grad=True)
        check_gradients(lambda: ((x * w + x) * x).sum(), [x, w])


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
    def test_getitem_rows(self):
        a = Tensor(rng().normal(size=(5, 3)), requires_grad=True)
        check_gradients(lambda: a[1:4].sum(), [a])

    def test_getitem_fancy_repeated_index_accumulates(self):
        a = Tensor(np.zeros((4, 2)), requires_grad=True)
        idx = np.array([0, 0, 3])
        out = a[idx].sum()
        out.backward()
        np.testing.assert_array_equal(a.grad[:, 0], [2.0, 0.0, 0.0, 1.0])

    def test_getitem_repeated_index_gradient(self):
        a = Tensor(rng().normal(size=(4, 3)), requires_grad=True)
        idx = np.array([0, 2, 0, 3, 0])
        w = rng().normal(size=(5, 3))
        check_gradients(lambda: (a[idx] * w).sum(), [a])

    def test_concat_axis0(self):
        a = Tensor(rng().normal(size=(2, 3)), requires_grad=True)
        b = Tensor(rng().normal(size=(4, 3)), requires_grad=True)
        check_gradients(lambda: concat([a, b], axis=0).sum(), [a, b])

    def test_concat_axis1(self):
        a = Tensor(rng().normal(size=(2, 3)), requires_grad=True)
        b = Tensor(rng().normal(size=(2, 5)), requires_grad=True)
        check_gradients(lambda: concat([a, b], axis=1).sum(), [a, b])

    def test_concat_empty_raises(self):
        with pytest.raises(ShapeError):
            concat([])


class TestReductions:
    def test_sum_all(self):
        a = Tensor(rng().normal(size=(3, 4)), requires_grad=True)
        check_gradients(lambda: a.sum(), [a])

    def test_sum_axis(self):
        a = Tensor(rng().normal(size=(3, 4)), requires_grad=True)
        check_gradients(lambda: a.sum(axis=0).sum(), [a])
        check_gradients(lambda: a.sum(axis=1, keepdims=True).sum(), [a])


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
    def test_concat_split_roundtrip(self, m):
        x = Tensor(m, requires_grad=True)
        y = Tensor(m.copy(), requires_grad=True)
        cat = concat([x, y], axis=0)
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
