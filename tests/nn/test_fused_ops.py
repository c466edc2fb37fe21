"""The fused tape nodes of the training dense path against the composed
ops they replaced (docs/kernels.md, "Training dense path: fused tape
nodes" and "Link head: half-logits per vertex").

``F.lstm_cell`` and ``F.gcn_project`` must match
``tests/helpers.py::oracle_lstm_cell`` / ``oracle_gcn_project`` across
the panel boundary, for both weight memory orders (``init.orthogonal``
returns F order), every ``requires_grad`` pattern and every way a loss
can consume the two outputs.  Their forwards run the serving engine's
kernels, every GEMM on fixed ``TILE_ROWS``-row tiles, where the oracle
issues one GEMM over all rows (a GEMV at one row): BLAS may pick
another kernel for a tile than for all rows at once, so values and
gradients are held to the training tier's tolerance contract —
summation order, 1e-12.  What the tiles buy is asserted exactly: a row
gets the same bits whatever rows share the call.  ``F.edge_logits``
must match ``oracle_edge_logits`` (the concatenated head) to the same
tolerance, on repeated vertices, self-pairs and zero pairs, with
``np.add.at`` forbidden.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.nn import EdgeScorer, GCNLayer, LSTMCell, WeightLSTMCell
from repro.tensor import Tensor, functional as F, no_grad
from tests.helpers import (oracle_edge_logits, oracle_gcn_project,
                           oracle_lstm_cell, scatter_add_forbidden)

PANEL = F.PANEL_ROWS
ROWS = [1, 2, PANEL - 1, PANEL, PANEL + 1, 3 * PANEL + 7]
SIZES = [1, 3, 16, 32]
STEPS = 3
TOL = dict(rtol=1e-12, atol=1e-12)


def _ordered(array: np.ndarray, order: str) -> np.ndarray:
    return np.asarray(array, order=order)


class _Case:
    """One cell, its frames and initial state, twice: the copy the fused
    cell runs on and the copy the oracle runs on (same values, separate
    leaves, so the two backward sweeps cannot touch each other)."""

    def __init__(self, rows, input_size, hidden, orders, needs, seed,
                 train_params=True):
        rng = np.random.default_rng(seed)
        shapes = [(input_size, 4 * hidden), (hidden, 4 * hidden)]
        params = [_ordered(rng.normal(scale=0.5, size=s), o)
                  for s, o in zip(shapes, orders)]
        params.append(rng.normal(scale=0.5, size=4 * hidden))
        frames = [rng.normal(size=(rows, input_size)) for _ in range(STEPS)]
        state = [rng.normal(scale=0.5, size=(rows, hidden)) for _ in "hc"]
        # loss weights: one per (step, output)
        self.weights = rng.normal(size=(STEPS, 2, rows, hidden))
        need_x, need_h, need_c = needs

        def leaves():
            return ([Tensor(p, requires_grad=train_params) for p in params],
                    [Tensor(f, requires_grad=need_x) for f in frames],
                    (Tensor(state[0], requires_grad=need_h),
                     Tensor(state[1], requires_grad=need_c)))

        self.fused, self.oracle = leaves(), leaves()

    @staticmethod
    def run(leaves, cell):
        params, frames, state = leaves
        hs, cs = [], []
        for x in frames:
            h, c = cell(x, *state, *params)
            state = (h, c)
            hs.append(h)
            cs.append(c)
        return hs, cs

    def loss(self, hs, cs, uses):
        """(a) every ``h``; (b) only the last ``c``, so the last ``h`` is
        consumed by nothing; (c) only the first ``h``, so the later
        steps never enter the sweep."""
        w = self.weights
        if uses == "all_h":
            terms = [(h * Tensor(w[t, 0])).sum() for t, h in enumerate(hs)]
        elif uses == "last_c":
            terms = [(cs[-1] * Tensor(w[-1, 1])).sum()]
        else:
            terms = [(hs[0] * Tensor(w[0, 0])).sum()]
        total = terms[0]
        for term in terms[1:]:
            total = total + term
        return total

    @staticmethod
    def tensors(leaves):
        params, frames, state = leaves
        return params + frames + list(state)


def _assert_same_values(got, want):
    np.testing.assert_allclose(got, want, **TOL)


def _assert_same_gradients(case):
    for got, want in zip(case.tensors(case.fused), case.tensors(case.oracle)):
        if want.grad is None:
            assert got.grad is None
        else:
            np.testing.assert_allclose(got.grad, want.grad, **TOL)


# -- the cell -------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(rows=st.sampled_from(ROWS), input_size=st.sampled_from(SIZES),
       hidden=st.sampled_from(SIZES),
       orders=st.tuples(st.sampled_from("CF"), st.sampled_from("CF")),
       needs=st.tuples(st.booleans(), st.booleans(), st.booleans()),
       uses=st.sampled_from(["all_h", "last_c", "first_h"]),
       seed=st.integers(0, 2 ** 16))
def test_cell_matches_composed_oracle(rows, input_size, hidden, orders,
                                      needs, uses, seed):
    case = _Case(rows, input_size, hidden, orders, needs, seed)
    got = case.run(case.fused, F.lstm_cell)
    want = case.run(case.oracle, oracle_lstm_cell)
    for fused, composed in zip(got[0] + got[1], want[0] + want[1]):
        _assert_same_values(fused.data, composed.data)
    case.loss(*got, uses).backward()
    case.loss(*want, uses).backward()
    _assert_same_gradients(case)


@pytest.mark.parametrize("needs",
                         list(itertools.product([False, True], repeat=3)))
@pytest.mark.parametrize("uses", ["all_h", "last_c", "first_h"])
def test_every_requires_grad_pattern_across_a_panel_boundary(needs, uses):
    case = _Case(PANEL + 1, 3, 16, "CF", needs, seed=7)
    got = case.run(case.fused, F.lstm_cell)
    want = case.run(case.oracle, oracle_lstm_cell)
    case.loss(*got, uses).backward()
    case.loss(*want, uses).backward()
    _assert_same_gradients(case)


def test_nothing_requires_grad_records_nothing():
    case = _Case(5, 3, 4, "CC", (False, False, False), seed=1,
                 train_params=False)
    hs, cs = case.run(case.fused, F.lstm_cell)
    for out in hs + cs:
        assert out.is_leaf and not out.requires_grad


def test_aliased_input_and_hidden_gradients_add():
    """``WeightLSTMCell`` feeds the evolving weight as ``x`` *and*
    ``h_prev``: one tensor, two parent slots, both gradients."""
    rng = np.random.default_rng(3)
    evolver = WeightLSTMCell(8, rng)
    cell = evolver.cell
    weight = rng.normal(size=(6, 8))
    mix = rng.normal(size=(6, 8))

    def run(step):
        w0 = Tensor(weight, requires_grad=True)
        state = (w0, Tensor(np.zeros((6, 8))))
        for _ in range(2):
            w, state = step(state)
        for p in cell.parameters():
            p.zero_grad()
        (w * Tensor(mix)).sum().backward()
        return w, w0.grad, [p.grad for p in cell.parameters()]

    def composed(state):
        h, c = oracle_lstm_cell(state[0], *state, cell.w_ih, cell.w_hh,
                                cell.bias)
        return h, (h, c)

    got, want = run(evolver.forward), run(composed)
    np.testing.assert_array_equal(got[0].data, want[0].data)
    np.testing.assert_allclose(got[1], want[1], **TOL)
    for a, b in zip(got[2], want[2]):
        np.testing.assert_allclose(a, b, **TOL)


def test_backward_twice_leaves_no_stale_output_gradient():
    """``h``'s backward parks ``dh`` for ``c``'s backward to take: a
    second sweep over the same graph, and a sweep over a rebuilt one,
    must see an empty slot again."""
    case = _Case(PANEL + 1, 3, 4, "CF", (True, True, True), seed=11)
    hs, cs = case.run(case.fused, F.lstm_cell)
    loss = case.loss(hs, cs, "all_h")
    loss.backward()
    first = [t.grad.copy() for t in case.tensors(case.fused)]
    loss.backward()                    # same graph: gradients accumulate
    for tensor, grad in zip(case.tensors(case.fused), first):
        np.testing.assert_array_equal(tensor.grad, grad + grad)
        tensor.zero_grad()
    # rebuilt graph, this time with an h nothing consumes
    hs, cs = case.run(case.fused, F.lstm_cell)
    case.loss(hs, cs, "last_c").backward()
    want = case.run(case.oracle, oracle_lstm_cell)
    case.loss(*want, "last_c").backward()
    _assert_same_gradients(case)


def test_no_grad_outputs_are_leaves_that_own_their_memory():
    rng = np.random.default_rng(5)
    cell = LSTMCell(3, 4, rng)
    rows = 2 * PANEL + 3
    x = Tensor(rng.normal(size=(rows, 3)), requires_grad=True)
    with no_grad():
        h, (_, c) = cell.forward(x, cell.init_state(rows))
    for out in (h, c):
        assert out.is_leaf and not out.requires_grad and out._parents == ()
        # a view of the per-call panel scratch would show as a base
        assert out.data.base is None and out.data.flags.owndata
    assert not np.shares_memory(h.data, c.data)
    # the arrays kept for backward exist only when a tape is recorded
    arrays = [t.data for t in (x, *cell.init_state(rows), cell.w_ih,
                               cell.w_hh, cell.bias)]
    assert F.lstm_cell_forward(*arrays)[2:] == (None, None)
    kept = F.lstm_cell_forward(*arrays, keep=True)
    assert kept[2].shape == (4, rows, 4) and kept[3].shape == (rows, 4)
    np.testing.assert_array_equal(kept[0], h.data)
    np.testing.assert_array_equal(kept[3], np.tanh(c.data))


def test_cell_records_two_tape_nodes_per_step():
    rng = np.random.default_rng(2)
    cell = LSTMCell(3, 4, rng)
    frames = [Tensor(rng.normal(size=(5, 3))) for _ in range(STEPS)]
    outs, _ = cell.run_sequence(frames)
    visited = outs[-1].sum().backward()
    # the sum, (h, c) per step, and the three parameters
    assert visited == 1 + 2 * STEPS + 3


# -- the GCN projection -----------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(rows=st.sampled_from(ROWS), f_in=st.sampled_from(SIZES),
       f_out=st.sampled_from(SIZES), order=st.sampled_from("CF"),
       skip_concat=st.booleans(), relu=st.booleans(),
       need_input=st.booleans(), seed=st.integers(0, 2 ** 16))
def test_projection_matches_composed_oracle(rows, f_in, f_out, order,
                                            skip_concat, relu, need_input,
                                            seed):
    rng = np.random.default_rng(seed)
    agg = rng.normal(size=(rows, f_in))
    weight = _ordered(rng.normal(size=(f_in, f_out)), order)
    upstream = rng.normal(size=(rows, f_in * skip_concat + f_out))

    def run(project):
        a = Tensor(agg, requires_grad=need_input)
        w = Tensor(weight, requires_grad=True)
        out = project(a, w, skip_concat, relu)
        out.backward(upstream)
        return out, a, w

    got, want = run(F.gcn_project), run(oracle_gcn_project)
    _assert_same_values(got[0].data, want[0].data)
    np.testing.assert_allclose(got[2].grad, want[2].grad, **TOL)
    if need_input:
        np.testing.assert_allclose(got[1].grad, want[1].grad, **TOL)
    else:
        assert got[1].grad is None


@pytest.mark.parametrize("skip_concat", [False, True])
@pytest.mark.parametrize("activation", ["relu", "none"])
def test_gcn_layer_is_one_tape_node(skip_concat, activation):
    rng = np.random.default_rng(4)
    layer = GCNLayer(3, 5, rng, skip_concat=skip_concat,
                     activation=activation)
    agg = Tensor(rng.normal(size=(PANEL + 2, 3)), requires_grad=True)
    out = layer.forward_precomputed(agg)
    want = oracle_gcn_project(agg, layer.weight, skip_concat,
                              activation == "relu")
    _assert_same_values(out.data, want.data)
    assert out.shape[1] == layer.output_dim
    # the projection, its input and the weight
    assert out.backward(np.ones(out.shape)) == 3


# -- the link head --------------------------------------------------------------------
def _run_head(head, z, weight, bias, pairs, upstream, need_z=True):
    leaves = (Tensor(z, requires_grad=need_z),
              Tensor(weight, requires_grad=True),
              Tensor(bias, requires_grad=True))
    out = head(*leaves, pairs)
    out.backward(upstream)
    return out, leaves


def _assert_head_matches_oracle(z, weight, bias, pairs, upstream,
                                need_z=True):
    with scatter_add_forbidden():
        got = _run_head(F.edge_logits, z, weight, bias, pairs, upstream,
                        need_z)
    want = _run_head(oracle_edge_logits, z, weight, bias, pairs, upstream,
                     need_z)
    _assert_same_values(got[0].data, want[0].data)
    for fused, composed in zip(got[1], want[1]):
        if composed.grad is None:
            assert fused.grad is None
        else:
            np.testing.assert_allclose(fused.grad, composed.grad, **TOL)


@settings(max_examples=80, deadline=None)
@given(data=st.data(), rows=st.integers(1, 12),
       dim=st.sampled_from([1, 3, 16]), classes=st.sampled_from([1, 2, 3]),
       order=st.sampled_from("CF"), need_z=st.booleans(),
       seed=st.integers(0, 2 ** 16))
def test_link_head_matches_concat_oracle(data, rows, dim, classes, order,
                                         need_z, seed):
    """Few vertices and up to 4× as many pairs: repeated vertices and
    self-pairs ``(v, v)`` come up all the time, zero pairs too."""
    vertex = st.integers(0, rows - 1)
    pairs = np.array(data.draw(st.lists(st.tuples(vertex, vertex),
                                        max_size=4 * rows)),
                     dtype=np.int64).reshape(-1, 2)
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(rows, dim))
    weight = _ordered(rng.normal(size=(2 * dim, classes)), order)
    bias = rng.normal(size=classes)
    upstream = rng.normal(size=(len(pairs), classes))
    _assert_head_matches_oracle(z, weight, bias, pairs, upstream, need_z)


@pytest.mark.parametrize("pairs", [
    [[2, 2], [2, 2], [0, 0]],            # self-pairs, one of them twice
    [[1, 3], [3, 1], [1, 3], [1, 1]],    # a vertex at both ends
    np.empty((0, 2), dtype=np.int64),    # zero pairs
], ids=["self", "repeats", "empty"])
def test_link_head_edge_cases(pairs):
    rng = np.random.default_rng(8)
    pairs = np.asarray(pairs, dtype=np.int64)
    z, weight = rng.normal(size=(5, 4)), rng.normal(size=(8, 2))
    upstream = rng.normal(size=(len(pairs), 2))
    _assert_head_matches_oracle(z, weight, rng.normal(size=2), pairs,
                                upstream)


def test_link_head_is_one_tape_node_and_none_under_no_grad():
    rng = np.random.default_rng(6)
    scorer = EdgeScorer(4, 2, rng)
    z = Tensor(rng.normal(size=(7, 4)), requires_grad=True)
    pairs = rng.integers(0, 7, size=(20, 2))
    out = scorer(z, pairs)
    # the sum, the head, the embeddings and fc's weight and bias
    assert out.sum().backward() == 5
    with no_grad():
        out = scorer(z, pairs)
    assert out.is_leaf and not out.requires_grad and out._parents == ()
    np.testing.assert_allclose(
        out.data, oracle_edge_logits(z, scorer.fc.weight, scorer.fc.bias,
                                     pairs).data, **TOL)


# -- the fixed tiles: a row's bits do not depend on its neighbours ------------------
@settings(max_examples=40, deadline=None)
@given(data=st.data(), input_size=st.sampled_from(SIZES),
       hidden=st.sampled_from(SIZES), orders=st.sampled_from(["CC", "FF"]),
       skip_concat=st.booleans(), seed=st.integers(0, 2 ** 16))
def test_row_subsets_match_the_full_call_bit_for_bit(
        data, input_size, hidden, orders, skip_concat, seed):
    """The cell and the projection on any subset of rows give those rows
    exactly the bits of one call over all rows, 1 row to several panels:
    the serving engine refreshes a few rows of what training computed
    over all of them."""
    rng = np.random.default_rng(seed)
    rows = 3 * PANEL + 7
    x = rng.normal(size=(rows, input_size))
    h, c = (rng.normal(scale=0.5, size=(rows, hidden)) for _ in "hc")
    w_ih, w_hh = (_ordered(rng.normal(scale=0.5, size=(k, 4 * hidden)), o)
                  for k, o in zip((input_size, hidden), orders))
    bias = rng.normal(scale=0.5, size=4 * hidden)
    w = _ordered(rng.normal(size=(input_size, hidden)), orders[0])
    full_cell = F.lstm_cell_forward(x, h, c, w_ih, w_hh, bias)[:2]
    full_proj = F.gcn_project(x, w, skip_concat).data
    sel = np.array(sorted(data.draw(st.sets(
        st.integers(0, rows - 1), min_size=1, max_size=PANEL + 9))))
    part_cell = F.lstm_cell_forward(x[sel], h[sel], c[sel], w_ih, w_hh,
                                    bias)[:2]
    for got, want in zip(part_cell, full_cell):
        np.testing.assert_array_equal(got, want[sel])
    np.testing.assert_array_equal(
        F.gcn_project(x[sel], w, skip_concat).data, full_proj[sel])
