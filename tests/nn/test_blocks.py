"""Tests for GCN/LSTM/M-transform/linear building blocks."""

import numpy as np
import pytest

from repro.errors import ConfigError, ShapeError
from repro.graph import GraphSnapshot, normalized_laplacian
from repro.nn import (EdgeScorer, GCNLayer, Linear, LSTMCell, WeightLSTMCell,
                      m_matrix, m_transform_frames)
from repro.tensor import Tensor
from tests.helpers import check_gradients


def rng():
    return np.random.default_rng(0)


def small_laplacian(n=6, seed=0):
    g = np.random.default_rng(seed)
    edges = g.integers(0, n, size=(2 * n, 2))
    edges = edges[edges[:, 0] != edges[:, 1]]
    return normalized_laplacian(GraphSnapshot(n, edges))


class TestLinear:
    def test_shapes(self):
        lin = Linear(3, 5, rng())
        out = lin(Tensor(np.ones((4, 3))))
        assert out.shape == (4, 5)

    def test_no_bias(self):
        lin = Linear(3, 5, rng(), bias=False)
        assert len(lin.parameters()) == 1
        out = lin(Tensor(np.zeros((2, 3))))
        np.testing.assert_array_equal(out.data, np.zeros((2, 5)))

    def test_gradient_through(self):
        lin = Linear(3, 2, rng())
        x = Tensor(rng().normal(size=(4, 3)), requires_grad=True)
        check_gradients(lambda: lin(x).sum(), [x, lin.weight, lin.bias])

    def test_flops(self):
        assert Linear(3, 5, rng()).flops(10) == 2 * 10 * 3 * 5


class TestEdgeScorer:
    def test_scores_pairs(self):
        scorer = EdgeScorer(4, 2, rng())
        z = Tensor(rng().normal(size=(6, 4)))
        pairs = np.array([[0, 1], [2, 3], [4, 5]])
        logits = scorer(z, pairs)
        assert logits.shape == (3, 2)

    def test_concat_order_matters(self):
        scorer = EdgeScorer(2, 2, rng())
        z = Tensor(rng().normal(size=(3, 2)))
        fwd = scorer(z, np.array([[0, 1]])).data
        rev = scorer(z, np.array([[1, 0]])).data
        assert not np.allclose(fwd, rev)

    def test_gradients_flow_to_embeddings(self):
        scorer = EdgeScorer(3, 2, rng())
        z = Tensor(rng().normal(size=(4, 3)), requires_grad=True)
        out = scorer(z, np.array([[0, 1], [2, 3]])).sum()
        out.backward()
        assert z.grad is not None
        assert np.abs(z.grad).sum() > 0

    @pytest.mark.parametrize("pairs, named", [
        ([[0, 1], [2, -1], [-3, 0]], "pair 1 names vertex -1,"),
        ([[0, 1], [4, 2], [9, 0]], "pair 1 names vertex 4,"),
        ([[0, 1], [3, 2], [0, 7]], "pair 2 names vertex 7,"),
    ])
    def test_rejects_the_first_bad_vertex_id(self, pairs, named):
        """A negative id would wrap to vertex ``N − k`` through numpy
        indexing; it is refused, as is one past the last vertex."""
        scorer = EdgeScorer(3, 2, rng())
        z = Tensor(rng().normal(size=(4, 3)), requires_grad=True)
        with pytest.raises(ShapeError, match=named) as err:
            scorer(z, np.array(pairs))
        assert "outside [0, 4)" in str(err.value)


class TestGCNLayer:
    def test_plain_output_shape(self):
        lap = small_laplacian()
        gcn = GCNLayer(3, 5, rng())
        out = gcn(lap, Tensor(np.ones((6, 3))))
        assert out.shape == (6, 5)
        assert gcn.output_dim == 5

    def test_skip_concat_widens_output(self):
        lap = small_laplacian()
        gcn = GCNLayer(3, 5, rng(), skip_concat=True)
        out = gcn(lap, Tensor(np.ones((6, 3))))
        assert out.shape == (6, 8)
        assert gcn.output_dim == 8

    def test_relu_applied(self):
        lap = small_laplacian()
        gcn = GCNLayer(3, 5, rng())
        out = gcn(lap, Tensor(rng().normal(size=(6, 3))))
        assert (out.data >= 0).all()

    def test_no_activation_option(self):
        lap = small_laplacian()
        gcn = GCNLayer(3, 5, rng(), activation="none")
        out = gcn(lap, Tensor(rng().normal(size=(6, 3))))
        assert (out.data < 0).any()

    def test_bad_activation(self):
        with pytest.raises(ValueError):
            GCNLayer(3, 5, rng(), activation="gelu")

    def test_precomputed_path_matches_forward(self):
        from repro.tensor.sparse import spmm
        lap = small_laplacian()
        gcn = GCNLayer(3, 5, rng())
        x = Tensor(rng().normal(size=(6, 3)))
        direct = gcn(lap, x)
        pre = gcn.forward_precomputed(spmm(lap, x))
        np.testing.assert_allclose(direct.data, pre.data)

    def test_forward_with_weight_uses_external(self):
        lap = small_laplacian()
        gcn = GCNLayer(3, 5, rng())
        x = Tensor(rng().normal(size=(6, 3)))
        w_ext = Tensor(np.zeros((3, 5)))
        out = gcn.forward_with_weight(lap, x, w_ext)
        np.testing.assert_array_equal(out.data, np.zeros((6, 5)))

    def test_gradient_through_gcn(self):
        lap = small_laplacian()
        gcn = GCNLayer(3, 4, rng(), skip_concat=True)
        x = Tensor(rng().normal(size=(6, 3)), requires_grad=True)
        check_gradients(lambda: gcn(lap, x).sum(), [x, gcn.weight],
                        rtol=1e-4, atol=1e-6)

    def test_flops(self):
        gcn = GCNLayer(3, 5, rng())
        sparse, dense = gcn.flops(nnz=20, rows=6)
        assert sparse == 2 * 20 * 3
        assert dense == 2 * 6 * 3 * 5


class TestLSTMCell:
    def test_step_shapes(self):
        cell = LSTMCell(4, 3, rng())
        h, c = cell.init_state(5)
        y, (h2, c2) = cell(Tensor(np.ones((5, 4))), (h, c))
        assert y.shape == (5, 3) and h2.shape == (5, 3) and c2.shape == (5, 3)

    def test_output_is_hidden(self):
        cell = LSTMCell(4, 3, rng())
        y, (h, _) = cell(Tensor(np.ones((2, 4))), cell.init_state(2))
        np.testing.assert_array_equal(y.data, h.data)

    def test_state_propagates(self):
        cell = LSTMCell(2, 2, rng())
        x = Tensor(np.ones((1, 2)))
        _, s1 = cell(x, cell.init_state(1))
        y2a, _ = cell(x, s1)
        y2b, _ = cell(x, cell.init_state(1))
        assert not np.allclose(y2a.data, y2b.data)

    def test_run_sequence(self):
        cell = LSTMCell(2, 3, rng())
        xs = [Tensor(rng().normal(size=(4, 2))) for _ in range(5)]
        outs, state = cell.run_sequence(xs)
        assert len(outs) == 5
        assert state[0].shape == (4, 3)

    def test_forget_bias_initialized(self):
        cell = LSTMCell(2, 3, rng())
        np.testing.assert_array_equal(cell.bias.data[3:6], np.ones(3))

    def test_gradient_through_two_steps(self):
        cell = LSTMCell(2, 2, rng())
        x1 = Tensor(rng().normal(size=(3, 2)), requires_grad=True)
        x2 = Tensor(rng().normal(size=(3, 2)), requires_grad=True)

        def f():
            _, s = cell(x1, cell.init_state(3))
            y, _ = cell(x2, s)
            return y.sum()

        check_gradients(f, [x1, x2], rtol=1e-4, atol=1e-6)

    def test_bounded_outputs(self):
        cell = LSTMCell(3, 4, rng())
        xs = [Tensor(rng().normal(size=(5, 3)) * 100) for _ in range(3)]
        outs, _ = cell.run_sequence(xs)
        for y in outs:
            assert (np.abs(y.data) <= 1.0 + 1e-12).all()


class TestWeightLSTM:
    def test_initial_hidden_is_weight(self):
        from repro.tensor import Parameter
        cell = WeightLSTMCell(3, rng())
        w0 = Parameter(rng().normal(size=(4, 3)))
        h, c = cell.init_state(w0)
        assert h is w0
        np.testing.assert_array_equal(c.data, np.zeros((4, 3)))

    def test_evolution_changes_weight(self):
        from repro.tensor import Parameter
        cell = WeightLSTMCell(3, rng())
        w0 = Parameter(rng().normal(size=(4, 3)))
        state = cell.init_state(w0)
        w1, state = cell(state)
        w2, _ = cell(state)
        assert not np.allclose(w1.data, w0.data)
        assert not np.allclose(w2.data, w1.data)
        assert w1.shape == w0.shape


class TestMTransform:
    def test_m_matrix_rows_sum_to_one(self):
        m = m_matrix(8, 3)
        np.testing.assert_allclose(m.sum(axis=1), np.ones(8))

    def test_m_matrix_band_structure(self):
        m = m_matrix(6, 3)
        assert m[5, 2] == 0.0           # outside window
        assert m[5, 3] == pytest.approx(1 / 3)
        assert m[0, 0] == 1.0           # first step averages only itself
        assert np.triu(m, k=1).sum() == 0.0  # lower triangular

    def test_m_matrix_bad_window(self):
        with pytest.raises(ConfigError):
            m_matrix(4, 0)

    def test_frames_match_matrix_form(self):
        t_steps, n, f, w = 7, 4, 3, 3
        g = rng()
        frames = [Tensor(g.normal(size=(n, f))) for _ in range(t_steps)]
        outs, _ = m_transform_frames(frames, w)
        m = m_matrix(t_steps, w)
        stacked = np.stack([fr.data for fr in frames])
        expected = np.einsum("tk,knf->tnf", m, stacked)
        for t in range(t_steps):
            np.testing.assert_allclose(outs[t].data, expected[t],
                                       atol=1e-12)

    def test_window_one_is_identity(self):
        frames = [Tensor(rng().normal(size=(3, 2))) for _ in range(4)]
        outs, hist = m_transform_frames(frames, 1)
        for got, want in zip(outs, frames):
            np.testing.assert_array_equal(got.data, want.data)
        assert hist == []

    def test_history_carry_matches_contiguous_run(self):
        t_steps, w = 8, 4
        g = rng()
        frames = [Tensor(g.normal(size=(3, 2))) for _ in range(t_steps)]
        full, _ = m_transform_frames(frames, w)
        first, hist = m_transform_frames(frames[:5], w)
        second, _ = m_transform_frames(frames[5:], w, history=hist)
        rejoined = first + second
        for got, want in zip(rejoined, full):
            np.testing.assert_allclose(got.data, want.data, atol=1e-12)

    def test_history_length_bounded(self):
        frames = [Tensor(np.zeros((2, 2))) for _ in range(10)]
        _, hist = m_transform_frames(frames, 4)
        assert len(hist) == 3

    def test_gradient_through_transform(self):
        g = rng()
        frames = [Tensor(g.normal(size=(2, 2)), requires_grad=True)
                  for _ in range(3)]

        def f():
            outs, _ = m_transform_frames(frames, 2)
            total = outs[0].sum()
            for o in outs[1:]:
                total = total + o.sum()
            return total

        check_gradients(f, frames)
