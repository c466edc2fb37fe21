"""The fused tape nodes of the three dynamic-GNN models and their loss.

The LSTM cell with its sigmoid/tanh gates (paper §5.1/§5.2), the GCN
projection with its ReLU (paper Eq. 2), the link head and the
cross-entropy used for link prediction and node classification (paper
§2.2, §6.4).

Each model step's dense arithmetic is written once here, on arrays:
the LSTM cell (:func:`lstm_panel`), the GCN projection
(:func:`project_panel`) and TM-GCN's window sum (:func:`window_mean`).
The serving engine runs them on its panel scratch; the fused tape
primitives :func:`lstm_cell` and :func:`gcn_project` run them for their
forward, O(1) tape nodes each with a hand-written backward
(``docs/kernels.md``, "Training dense path: fused tape nodes").  So a
served row has the bits of the trained one.  The §6.4 link head is one
more such node, :func:`edge_logits` (``docs/kernels.md``, "Link head:
half-logits per vertex").
"""

from __future__ import annotations

import functools
import os
import queue
import threading

import numpy as np

from repro.errors import ShapeError
from repro.tensor.tensor import Tensor, as_tensor, is_grad_enabled

__all__ = [
    "cross_entropy", "lstm_cell", "lstm_cell_forward", "lstm_panel",
    "gcn_project", "edge_logits", "project_panel", "window_mean",
    "TILE_ROWS", "PANEL_ROWS", "SPAN_ROWS",
]

# Every dense GEMM of a model step takes a tile of exactly TILE_ROWS rows
# (the last one zero-padded up to it), so a row count never selects a
# BLAS kernel: a row gets the same bits in a training forward, a full
# serving recompute and a one-row refresh.  The elementwise passes
# between the GEMMs run over a panel of tiles, on its live rows: numpy's
# per-call cost is spread over PANEL_ROWS rows while a few-row refresh
# pays for one tile.  PANEL_ROWS also fixes the partition of every sum
# across rows.  The training cell's thread pool hands out spans of
# SPAN_ROWS rows, whole panels each, so a thread runs long numpy calls
# between its turns at the GIL; a span never changes a bit.  The sweeps
# that chose all three are in docs/kernels.md ("Dense epilogue",
# "Training dense path", "Spans, not panels").
TILE_ROWS = 64
PANEL_ROWS = 4 * TILE_ROWS
SPAN_ROWS = 4 * PANEL_ROWS


def _sigmoid(z: np.ndarray, out: np.ndarray | None = None,
             e: np.ndarray | None = None) -> np.ndarray:
    """Logistic function on arrays, branch-free with a single ``exp``:
    ``e = exp(-|z|); max(e, [z >= 0]) / (1 + e)``.  Bit-identical to the
    masked two-branch form (``tests/helpers.py::oracle_sigmoid``) on
    every float64.  ``out`` (which may be ``z``) and the scratch ``e``
    make it allocation-free."""
    e = np.abs(z, out=e)
    np.exp(np.negative(e, out=e), out=e)
    if out is None:
        out = np.empty_like(e)
    np.greater_equal(z, 0.0, out=out)
    np.maximum(out, e, out=out)
    e += 1.0
    return np.divide(out, e, out=out)


# -- the model steps on arrays ---------------------------------------------------
def _tiled(rows: int) -> int:
    """``rows`` rounded up to whole tiles."""
    return -(-rows // TILE_ROWS) * TILE_ROWS


def _ranges(rows: int, size: int):
    """The ``(lo, hi)`` row ranges of at most ``size`` rows that cover
    ``rows``, in order (with ``PANEL_ROWS``, the order of every
    panel-wise sum)."""
    return ((lo, min(lo + size, rows)) for lo in range(0, rows, size))


class _PanelPool:
    """Runs a cell step's spans on every core the process may use.

    :meth:`run` hands the fixed partition into ``SPAN_ROWS``-row spans
    to the calling thread and ``threads − 1`` helper threads, each
    taking the next unclaimed span until none is left.  The partition
    does not depend on the thread count, and a span's result does not
    depend on which thread ran it, so any count gives the same bits; a
    caller that sums across rows keeps one partial per panel (a span
    holds whole panels) and adds them in panel order.  Helpers run numpy
    only: no kernel backend, no tracer span.

    The helpers start on the first step of two or more spans, and a
    forked child forgets its parent's (they do not survive the fork) and
    starts its own when it needs them.  ``threads`` is the CPU affinity
    unless set (tests pin it).
    """

    def __init__(self) -> None:
        self.threads: int | None = None
        self._inboxes: list[queue.SimpleQueue] = []
        self._grow = threading.Lock()
        os.register_at_fork(after_in_child=self._forget)

    def _forget(self) -> None:
        self._inboxes = []
        self._grow = threading.Lock()

    @staticmethod
    def _serve(inbox: queue.SimpleQueue) -> None:
        while True:
            share, done = inbox.get()
            error = None
            try:
                share()
            except BaseException as exc:   # handed to the caller
                error = exc
            # hold none of the step's arrays once its caller may go on
            share = None
            done.put(error)
            error = None

    def _helpers(self, count: int) -> list[queue.SimpleQueue]:
        with self._grow:
            while len(self._inboxes) < count:
                inbox = queue.SimpleQueue()
                threading.Thread(target=self._serve, args=(inbox,),
                                 name="repro-panel", daemon=True).start()
                self._inboxes.append(inbox)
            return self._inboxes[:count]

    def run(self, rows: int, share) -> None:
        """Call ``share(spans)`` once per thread; together the calls
        see each ``(lo, hi)`` of ``_ranges(rows, SPAN_ROWS)`` once.
        Returns when every share has; the first exception a share
        raised is raised here."""
        todo = _ranges(rows, SPAN_ROWS)
        threads = min(self.threads or len(os.sched_getaffinity(0)),
                      -(-rows // SPAN_ROWS))
        if threads < 2:
            share(todo)
            return
        claim, done = threading.Lock(), queue.SimpleQueue()
        helpers = self._helpers(threads - 1)
        for inbox in helpers:
            inbox.put((lambda: share(_claims(todo, claim)), done))
        try:
            share(_claims(todo, claim))
        finally:
            # no share may outlive the call: they write the step's arrays
            errors = [done.get() for _ in helpers]
        for error in errors:
            if error is not None:
                raise error


def _claims(todo, claim: threading.Lock):
    """The items of the shared iterator ``todo`` that this share
    claims, one at a time."""
    while True:
        with claim:
            item = next(todo, None)
        if item is None:
            return
        yield item


_PANEL_POOL = _PanelPool()


def _fill(dst: np.ndarray, src: np.ndarray) -> None:
    """Load ``src`` into the top of panel array ``dst``, zero-padding the
    rest: a short last tile still runs the full-shape GEMM."""
    dst[:len(src)] = src
    dst[len(src):] = 0.0


def _gemm(a: np.ndarray, w: np.ndarray, out: np.ndarray, m: int) -> None:
    """``out[..., :m, :] = a[:m] @ w`` on panel arrays (whole tiles of
    rows): one batched ``matmul`` over the tiles that hold a live row,
    so BLAS sees one GEMM of exactly ``TILE_ROWS`` rows per tile (and
    gate)."""
    tiles = -(-m // TILE_ROWS)
    a = a.reshape(-1, TILE_ROWS, a.shape[-1])
    out = out.reshape(out.shape[:-2] + (-1, TILE_ROWS) + out.shape[-1:])
    np.matmul(a[:tiles], w, out=out[..., :tiles, :, :])


def _gate_major(param: np.ndarray, hidden: int) -> np.ndarray:
    """``(..., 4·hidden)`` in the parameters' ``[i, f, g, o]`` column
    layout -> C-contiguous ``(4, 1, ..., hidden)`` in the order i, f, o,
    g (the unit axis broadcasts over a panel's tiles, or its rows)."""
    blocks = param.reshape(param.shape[:-1] + (4, hidden))
    return np.ascontiguousarray(
        np.moveaxis(blocks, -2, 0)[[0, 1, 3, 2], None])


def lstm_panel(x: np.ndarray, h: np.ndarray, c_prev: np.ndarray,
               w_ih: np.ndarray, w_hh: np.ndarray, bias: np.ndarray,
               gates: np.ndarray, scratch: np.ndarray, m: int, *,
               c: np.ndarray, h_out: np.ndarray,
               tanh_c: np.ndarray | None = None) -> None:
    """One LSTM cell step on one panel, ``m`` live rows:
    ``z = (x·W_ih + h·W_hh) + b``, ``c = f·c_prev + i·g``,
    ``h = o·tanh(c)``.

    ``x`` and ``h`` hold the inputs zero-padded to whole tiles; the
    weights and bias are packed by :func:`_gate_major`.  ``gates`` and
    ``scratch`` are ``(4, ≥ tiles·TILE_ROWS, hidden)`` planes: each
    gate's GEMM writes its own plane, and ``gates`` is left holding the
    activated i, f, o, g.  ``c`` and ``h_out`` (which may be ``h``'s
    live rows: its GEMM is done by then) receive the ``m`` new rows,
    ``tanh_c`` (default: scratch) ``tanh(c)``."""
    _gemm(x, w_ih, gates, m)
    _gemm(h, w_hh, scratch, m)
    z, e = gates[:, :m], scratch[:, :m]
    z += e
    z += bias
    i, f, o = _sigmoid(z[:3], z[:3], e[:3])
    g = np.tanh(z[3], out=z[3])
    np.multiply(f, c_prev, out=c)
    c += np.multiply(i, g, out=e[3])
    tanh_c = np.tanh(c, out=e[3] if tanh_c is None else tanh_c)
    np.multiply(o, tanh_c, out=h_out)


def project_panel(agg: np.ndarray, weight: np.ndarray, y: np.ndarray,
                  m: int, relu: bool = True) -> np.ndarray:
    """The GCN projection on ``m`` live rows held in whole tiles (a
    panel, or all rows): ``agg·W`` into the right-hand columns of ``y``,
    under CD-GCN's skip-concatenation ``agg`` into the left-hand ones,
    then ReLU in place.  Returns ``y``'s live rows."""
    skip = y.shape[1] - weight.shape[1]
    _gemm(agg, weight, y[:, skip:], m)
    if skip:
        y[:, :skip] = agg
    y = y[:m]
    if relu:
        np.maximum(y, 0.0, out=y)
    return y


def window_mean(frames: list[np.ndarray], out: np.ndarray,
                part: np.ndarray) -> np.ndarray:
    """TM-GCN's M-product window into ``out``: the mean of equally
    shaped ``frames``, each scaled by ``1/len`` and summed oldest frame
    first, current last (``part`` is scratch)."""
    scale = 1.0 / len(frames)
    np.multiply(frames[0], scale, out=out)
    for frame in frames[1:]:
        out += np.multiply(frame, scale, out=part)
    return out


# -- tape ops ---------------------------------------------------------------------
def lstm_cell_forward(x: np.ndarray, h_prev: np.ndarray, c_prev: np.ndarray,
                      w_ih: np.ndarray, w_hh: np.ndarray, bias: np.ndarray,
                      keep: bool = False):
    """One LSTM cell step on arrays: :func:`lstm_panel` on each span,
    the spans spread over the cores (:class:`_PanelPool`), the
    parameters in their ``[i, f, g, o]`` column layout.

    Returns ``(h, c, gates, tanh_c)``.  The activated gate planes
    ``(4, rows, hidden)`` (order i, f, o, g) and ``tanh(c)`` are all a
    backward needs beside the inputs and outputs; without ``keep`` they
    live on one span of scratch and come back as ``None``.
    """
    rows, hs = c_prev.shape
    packed = [_gate_major(p, hs) for p in (w_ih, w_hh, bias)]
    h, c = np.empty((rows, hs)), np.empty((rows, hs))
    gates, tanh_c = (np.empty((4, rows, hs)), np.empty((rows, hs))) if keep \
        else (None, None)
    span = min(_tiled(rows), SPAN_ROWS)

    def share(spans):
        xs, hp = np.empty((span, x.shape[1])), np.empty((span, hs))
        planes, scratch = np.empty((4, span, hs)), np.empty((4, span, hs))
        for lo, hi in spans:
            _fill(xs, x[lo:hi])
            _fill(hp, h_prev[lo:hi])
            lstm_panel(xs, hp, c_prev[lo:hi], *packed, planes, scratch,
                       hi - lo, c=c[lo:hi], h_out=h[lo:hi],
                       tanh_c=None if tanh_c is None else tanh_c[lo:hi])
            if keep:
                # the span ran on cache-resident planes; keep a copy
                gates[:, lo:hi] = planes[:, :hi - lo]

    _PANEL_POOL.run(rows, share)
    return h, c, gates, tanh_c


def lstm_cell(x, h_prev, c_prev, w_ih, w_hh, bias) -> tuple[Tensor, Tensor]:
    """One differentiable LSTM cell step, ``(h, c)``, as two tape nodes.

    ``c`` is the node over the six inputs; ``h`` is a node over ``c``.
    Backward runs a consumer before its producer, so ``h`` fires first:
    it hands ``c`` the ``dh·o·(1 − tanh²c)`` term and leaves ``dh``
    itself in ``pending`` for ``c``'s backward to take for the o-gate
    (an unused ``h`` leaves it empty: ``do = 0``).  ``c``'s backward
    forms ``dz`` (columns ``[i, f, g, o]``, the parameters' layout) one
    span at a time from the kept gate planes and issues each of
    ``dz·W_ihᵀ``, ``dz·W_hhᵀ``, ``xᵀ·dz``, ``h_prevᵀ·dz`` once per
    panel of the span, for the inputs that require a gradient.  Both
    backwards run their spans on :class:`_PanelPool`, and the weight
    and bias partials are added in panel order.
    """
    ins = tuple(as_tensor(t) for t in (x, h_prev, c_prev, w_ih, w_hh, bias))
    need = [t.requires_grad for t in ins]
    xd, hd, cd, wi, wh, bd = (t.data for t in ins)
    h, c, gates, tanh_c = lstm_cell_forward(
        xd, hd, cd, wi, wh, bd, keep=is_grad_enabled() and any(need))
    rows, hs = c.shape
    pending: list[np.ndarray] = []

    def backward_h(dh):
        pending.append(dh)
        d = np.empty((rows, hs))

        def share(spans):
            for lo, hi in spans:
                t, s = tanh_c[lo:hi], d[lo:hi]
                np.subtract(1.0, np.multiply(t, t, out=s), out=s)
                s *= dh[lo:hi] * gates[2, lo:hi]

        _PANEL_POOL.run(rows, share)
        return (d,)

    def backward_c(dc):
        dh = pending.pop() if pending else None
        dx, dhp, dcp = (np.zeros(t.shape) if n else None
                        for t, n in zip((xd, hd, cd), need))
        # one partial per panel of xᵀ·dz, h_prevᵀ·dz and Σdz, added
        # 0 + p₀ + p₁ + … below: the serial panel loop's own sum
        count = -(-rows // PANEL_ROWS)
        parts = [np.empty((count,) + t.shape) if n else None
                 for t, n in zip((wi, wh, bd), need[3:])]
        span = min(rows, SPAN_ROWS)

        def share(spans):
            dzs, slope = np.empty((span, 4 * hs)), np.empty((span, hs))
            for lo, hi in spans:
                i, f, o, g = gates[:, lo:hi]
                dz, s = dzs[:hi - lo], slope[:hi - lo]
                di, df, dg, do = (dz[:, j * hs:(j + 1) * hs]
                                  for j in range(4))
                d = dc[lo:hi]
                # through the activations: s·(1 − s) on i, f, o; 1 − g² on g
                np.multiply(d, g, out=di)
                di *= i
                di *= np.subtract(1.0, i, out=s)
                np.multiply(d, cd[lo:hi], out=df)
                df *= f
                df *= np.subtract(1.0, f, out=s)
                np.multiply(d, i, out=dg)
                dg *= np.subtract(1.0, np.multiply(g, g, out=s), out=s)
                if dh is None:
                    do[...] = 0.0
                else:
                    np.multiply(dh[lo:hi], tanh_c[lo:hi], out=do)
                    do *= o
                    do *= np.subtract(1.0, o, out=s)
                if need[2]:
                    np.multiply(d, f, out=dcp[lo:hi])
                # the products, one panel at a time: the one-panel bits
                for k, (a, b) in enumerate(_ranges(hi - lo, PANEL_ROWS),
                                           lo // PANEL_ROWS):
                    dzp, r = dz[a:b], slice(lo + a, lo + b)
                    if need[0]:
                        np.matmul(dzp, wi.T, out=dx[r])
                    if need[1]:
                        np.matmul(dzp, wh.T, out=dhp[r])
                    if need[3]:
                        np.matmul(xd[r].T, dzp, out=parts[0][k])
                    if need[4]:
                        np.matmul(hd[r].T, dzp, out=parts[1][k])
                    if need[5]:
                        dzp.sum(axis=0, out=parts[2][k])

        _PANEL_POOL.run(rows, share)
        dwi, dwh, db = (None if p is None
                        else sum(p, np.zeros(p.shape[1:])) for p in parts)
        return dx, dhp, dcp, dwi, dwh, db

    c_out = Tensor._make(c, ins, backward_c)
    return Tensor._make(h, (c_out,), backward_h), c_out


def gcn_project(aggregated, weight, skip_concat: bool = False,
                relu: bool = True) -> Tensor:
    """The parameterized half of a graph convolution over a pre-computed
    ``Y₀ = Ã·X``, as one tape node: ``σ(Y₀·W)``, or CD-GCN's
    skip-concatenation ``σ(Y₀ ∘ Y₀·W)`` of width ``F + F'`` (§5.1).
    ``σ`` is ReLU, or the identity with ``relu=False``.  The forward is
    :func:`project_panel` over all rows' tiles; backward re-derives the
    ReLU mask from the output, so nothing is saved."""
    a, w = as_tensor(aggregated), as_tensor(weight)
    ad, wd = a.data, np.ascontiguousarray(w.data)
    rows, f_in = ad.shape
    skip = f_in if skip_concat else 0
    agg = np.empty((_tiled(rows), f_in))
    _fill(agg, ad)
    out = project_panel(agg, wd, np.empty((len(agg), skip + wd.shape[1])),
                        rows, relu)

    def backward(g):
        if relu:
            g = g * (out > 0)
        da = dw = None
        if a.requires_grad:
            da = g[:, skip:] @ wd.T
            if skip:
                da += g[:, :skip]
        if w.requires_grad:
            dw = ad.T @ g[:, skip:]
        return da, dw

    return Tensor._make(out, (a, w), backward)


def edge_logits(embeddings, weight, bias, pairs) -> Tensor:
    """The §6.4 link head ``[z_u ‖ z_v]·W + b`` over ``(u, v)`` pairs, as
    one tape node paid per vertex rather than per pair.

    ``concat(z_u, z_v)·W = z_u·W[:d] + z_v·W[d:]``, so two GEMMs project
    every vertex to its half-logits ``P = Z·W[:d]`` and ``Q = Z·W[d:]``
    (``N × C`` each) and a pair's logits are ``P[u] + Q[v] + b``: the
    gathers move ``C``-wide rows, not ``d``-wide ones, and nothing is
    concatenated.  Backward scatters the ``C``-wide gradient over ``u``
    and over ``v`` with one ``np.bincount`` each (every cell summed in
    pair order), then ``dZ = dP·W[:d]ᵀ + dQ·W[d:]ᵀ``,
    ``dW = [Zᵀ·dP ; Zᵀ·dQ]`` and ``db = Σg``.

    ``pairs`` holds ``(m, 2)`` vertex ids in ``[0, N)``; a negative or
    too large id raises :class:`ShapeError` naming the first one.
    """
    z, w, b = as_tensor(embeddings), as_tensor(weight), as_tensor(bias)
    zd, wd = z.data, w.data
    rows, dim = zd.shape
    if wd.shape[0] != 2 * dim:
        raise ShapeError(f"edge_logits: weight {wd.shape} does not take "
                         f"two {dim}-wide endpoint embeddings")
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    if len(pairs) and (pairs.min() < 0 or pairs.max() >= rows):
        ids = pairs.ravel()
        k = int(np.argmax((ids < 0) | (ids >= rows)))
        raise ShapeError(f"pair {k // 2} names vertex {ids[k]}, outside "
                         f"[0, {rows})")
    u, v = pairs[:, 0], pairs[:, 1]
    w_u, w_v = wd[:dim], wd[dim:]
    p, q = zd @ w_u, zd @ w_v
    out = np.take(p, u, axis=0)
    out += np.take(q, v, axis=0)
    out += b.data

    def backward(g):
        dz = dw = None
        if z.requires_grad or w.requires_grad:
            # dP (dQ): g's row for each pair added into row u (v) of a
            # flat (N, C), in pair order
            width = g.shape[1]
            cells = np.arange(width)
            dp, dq = (np.bincount((ends[:, None] * width + cells).ravel(),
                                  g.ravel(), rows * width)
                      .reshape(rows, width) for ends in (u, v))
            if z.requires_grad:
                dz = dp @ w_u.T
                dz += dq @ w_v.T
            if w.requires_grad:
                dw = np.concatenate([zd.T @ dp, zd.T @ dq])
        return dz, dw, g.sum(axis=0) if b.requires_grad else None

    return Tensor._make(out, (z, w, b), backward)


def _stable_log_softmax(z: np.ndarray) -> np.ndarray:
    # the row max and row sum one column at a time: numpy reduces a short
    # last axis row by row, ~30x slower on the link head's (m, 2) logits;
    # the max is exact and the sum keeps numpy's order below 8 columns
    zmax = functools.reduce(np.maximum, np.moveaxis(z, -1, 0))
    shifted = z - zmax[..., None]
    total = functools.reduce(np.add, np.moveaxis(np.exp(shifted), -1, 0))
    return shifted - np.log(total)[..., None]


def cross_entropy(logits, labels: np.ndarray) -> Tensor:
    """Mean cross-entropy between row logits and integer labels.

    Parameters
    ----------
    logits:
        Tensor of shape ``(n, C)``.
    labels:
        Integer array of shape ``(n,)`` with values in ``[0, C)``.
    """
    logits = as_tensor(logits)
    labels = np.asarray(labels, dtype=np.int64)
    if logits.ndim != 2:
        raise ShapeError("cross_entropy expects 2-D logits")
    if labels.shape != (logits.shape[0],):
        raise ShapeError(
            f"labels shape {labels.shape} incompatible with logits "
            f"{logits.shape}")
    n = logits.shape[0]
    logp = _stable_log_softmax(logits.data)
    picked = logp[np.arange(n), labels]
    out = np.asarray(-picked.mean())
    soft = np.exp(logp)

    def backward(g):
        grad = soft.copy()
        grad[np.arange(n), labels] -= 1.0
        return (grad * (g / n),)

    return Tensor._make(out, (logits,), backward)
