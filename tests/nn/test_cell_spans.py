"""The LSTM cell's spans (docs/kernels.md, "Spans, not panels"): the
thread pool hands out ``SPAN_ROWS``-row spans, and every output and
gradient keeps the bits of the one-panel-at-a-time cell on one thread,
``tests/helpers.py::oracle_lstm_cell_panels``.

Row counts sit on and around the tile, panel and span edges; thread
counts 1–3 (3 is more threads than cores on a two-core host); the
requires-grad masks switch ``x``, ``h_prev`` and ``c_prev`` on and off,
with and without the parameters.  Everything is ``array_equal``.
"""

import itertools

import numpy as np
import pytest

from repro.tensor import Tensor, functional as F, no_grad
from tests.helpers import oracle_lstm_cell_panels

PANEL, SPAN = F.PANEL_ROWS, F.SPAN_ROWS
ROWS = [1, 63, 64, 255, 256, 257, SPAN - 1, SPAN, SPAN + 1,
        3 * SPAN + PANEL + 7]
# x, h_prev, c_prev in every combination with the parameters requiring
# a gradient; then all three inputs without them, and nothing at all
NEEDS = [xhc + (True,) * 3
         for xhc in itertools.product((False, True), repeat=3)] + [
    (True,) * 3 + (False,) * 3, (False,) * 6]


@pytest.fixture
def threads(monkeypatch):
    def pin(n):
        monkeypatch.setattr(F._PANEL_POOL, "threads", n)
    return pin


def _inputs(rows, seed):
    rng = np.random.default_rng(seed)
    hs, fin = 5, 7
    shapes = [(rows, fin), (rows, hs), (rows, hs), (fin, 4 * hs),
              (hs, 4 * hs), (4 * hs,)]
    data = [rng.normal(scale=0.7, size=s) for s in shapes]
    weights = rng.normal(size=(2, rows, hs))
    return data, weights


def _run(cell, data, weights, needs, uses_h):
    """Outputs, kept arrays and the six gradients of one step of
    ``cell`` under a loss on ``c`` (and on ``h`` when ``uses_h``)."""
    ins = [Tensor(a, requires_grad=n) for a, n in zip(data, needs)]
    h, c = cell(*ins)[:2]
    if c.requires_grad:
        loss = (c * Tensor(weights[1])).sum()
        if uses_h:
            loss = loss + (h * Tensor(weights[0])).sum()
        loss.backward()
    return [h.data, c.data] + [t.grad for t in ins]


def _assert_equal(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert (a is None) == (b is None)
        if a is not None:
            np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("count", [1, 2, 3])
@pytest.mark.parametrize("rows", ROWS)
def test_the_cell_has_the_one_panel_bits(threads, rows, count):
    threads(count)
    data, weights = _inputs(rows, rows)
    for k, needs in enumerate(NEEDS):
        uses_h = k % 2 == 0        # an unused h leaves do = 0
        _assert_equal(
            _run(F.lstm_cell, data, weights, needs, uses_h),
            _run(oracle_lstm_cell_panels, data, weights, needs, uses_h))

    # the forward with and without kept arrays, and under no_grad
    ins = [Tensor(a, requires_grad=True) for a in data]
    want = oracle_lstm_cell_panels(*ins)
    _assert_equal(F.lstm_cell_forward(*data, keep=True),
                  [want[0].data, want[1].data, want[2], want[3]])
    got = F.lstm_cell_forward(*data)
    assert got[2:] == (None, None)
    with no_grad():
        plain = oracle_lstm_cell_panels(*ins)
    assert plain[2:] == (None, None)
    _assert_equal(got[:2], [plain[0].data, plain[1].data])
