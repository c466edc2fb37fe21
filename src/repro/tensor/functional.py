"""Differentiable activations and losses.

Everything needed by the three dynamic-GNN models: ReLU for GCN (paper
Eq. 2), sigmoid/tanh for the LSTM gates (paper §5.1/§5.2), and the
cross-entropy losses used for link prediction and node classification
(paper §2.2, §6.4).

The two dense stages the models spend their time in, one LSTM cell step
and the GCN projection, are fused primitives (:func:`lstm_cell`,
:func:`gcn_project`): O(1) tape nodes each and a hand-written backward
(``docs/kernels.md``, "Training dense path: fused tape nodes").
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError
from repro.tensor.tensor import Tensor, as_tensor, is_grad_enabled

__all__ = [
    "relu", "sigmoid", "tanh", "softmax", "log_softmax", "cross_entropy",
    "binary_cross_entropy_with_logits", "mse_loss",
    "lstm_cell", "lstm_cell_forward", "gcn_project", "PANEL_ROWS",
]

# Rows the fused cell works on at a time: one panel's gates and scratch
# stay cache-resident between its GEMMs and its elementwise passes (the
# sweep that chose it is in docs/kernels.md, "Training dense path").
PANEL_ROWS = 512


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


def relu(x) -> Tensor:
    x = as_tensor(x)
    mask = x.data > 0
    out = x.data * mask

    def backward(g):
        return (g * mask,)

    return Tensor._make(out, (x,), backward)


def sigmoid(x) -> Tensor:
    x = as_tensor(x)
    out = _sigmoid(x.data, np.empty_like(x.data), np.empty_like(x.data))

    def backward(g):
        return (g * out * (1.0 - out),)

    return Tensor._make(out, (x,), backward)


def tanh(x) -> Tensor:
    x = as_tensor(x)
    out = np.tanh(x.data)

    def backward(g):
        return (g * (1.0 - out * out),)

    return Tensor._make(out, (x,), backward)


def _panels(rows: int):
    """The ``(lo, hi)`` row ranges of at most ``PANEL_ROWS`` rows that
    cover ``rows``, in order (the order fixes every panel-wise sum)."""
    return ((lo, min(lo + PANEL_ROWS, rows))
            for lo in range(0, rows, PANEL_ROWS))


def lstm_cell_forward(x: np.ndarray, h_prev: np.ndarray, c_prev: np.ndarray,
                      w_ih: np.ndarray, w_hh: np.ndarray, bias: np.ndarray,
                      keep: bool = False):
    """One LSTM cell step on arrays, a row panel at a time:
    ``z = (x·W_ih + h_prev·W_hh) + b`` with gate columns ``[i, f, g, o]``,
    ``c = f·c_prev + i·g``, ``h = o·tanh(c)``.

    Returns ``(h, c, gates, tanh_c)``.  The activated gates
    ``(rows, 4·hidden)`` and ``tanh(c)`` are all a backward needs beside
    the inputs and outputs; without ``keep`` they live on one panel of
    scratch and come back as ``None``.
    """
    rows, hs = c_prev.shape
    h, c = np.empty((rows, hs)), np.empty((rows, hs))
    span = min(rows, PANEL_ROWS)
    held = rows if keep else span
    gates, tanh_c = np.empty((held, 4 * hs)), np.empty((held, hs))
    scratch = np.empty((span, 4 * hs))
    for lo, hi in _panels(rows):
        at = slice(lo, hi) if keep else slice(0, hi - lo)
        z, tc, e = gates[at], tanh_c[at], scratch[:hi - lo]
        np.matmul(x[lo:hi], w_ih, out=z)
        np.matmul(h_prev[lo:hi], w_hh, out=e)
        z += e
        z += bias
        i, f, g, o = (z[:, k * hs:(k + 1) * hs] for k in range(4))
        # one contiguous logistic pass over all four blocks beats three
        # strided ones; g's own activation is parked in tc meanwhile
        np.tanh(g, out=tc)
        _sigmoid(z, z, e)
        g[...] = tc
        c_new = np.multiply(f, c_prev[lo:hi], out=c[lo:hi])
        c_new += np.multiply(i, g, out=e[:, :hs])
        np.multiply(o, np.tanh(c_new, out=tc), out=h[lo:hi])
    return (h, c, gates, tanh_c) if keep else (h, c, None, None)


def lstm_cell(x, h_prev, c_prev, w_ih, w_hh, bias) -> tuple[Tensor, Tensor]:
    """One differentiable LSTM cell step, ``(h, c)``, as two tape nodes.

    ``c`` is the node over the six inputs; ``h`` is a node over ``c``.
    Backward runs a consumer before its producer, so ``h`` fires first:
    it hands ``c`` the ``dh·o·(1 − tanh²c)`` term and leaves ``dh``
    itself in ``pending`` for ``c``'s backward to take for the o-gate
    (an unused ``h`` leaves it empty: ``do = 0``).  ``c``'s backward
    forms ``dz`` one panel at a time and issues each of ``dz·W_ihᵀ``,
    ``dz·W_hhᵀ``, ``xᵀ·dz``, ``h_prevᵀ·dz`` once per panel, for the
    inputs that require a gradient.
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
        d = np.multiply(tanh_c, tanh_c)
        np.subtract(1.0, d, out=d)
        return (np.multiply(d, dh * gates[:, 3 * hs:], out=d),)

    def backward_c(dc):
        dh = pending.pop() if pending else None
        dx, dhp, dcp, dwi, dwh, db = (
            np.zeros(t.shape) if n else None
            for t, n in zip((xd, hd, cd, wi, wh, bd), need))
        span = min(rows, PANEL_ROWS)
        dzs, slopes = np.empty((span, 4 * hs)), np.empty((span, 4 * hs))
        for lo, hi in _panels(rows):
            a, dz, s = gates[lo:hi], dzs[:hi - lo], slopes[:hi - lo]
            i, f, g, o = (a[:, k * hs:(k + 1) * hs] for k in range(4))
            di, df, dg, do = (dz[:, k * hs:(k + 1) * hs] for k in range(4))
            d = dc[lo:hi]
            np.multiply(d, g, out=di)
            np.multiply(d, cd[lo:hi], out=df)
            np.multiply(d, i, out=dg)
            if dh is None:
                do[...] = 0.0
            else:
                np.multiply(dh[lo:hi], tanh_c[lo:hi], out=do)
            # through the activations: s·(1 − s) on i, f, o; 1 − g² on g
            np.subtract(1.0, a, out=s)
            sg = s[:, 2 * hs:3 * hs]
            np.subtract(1.0, np.multiply(g, g, out=sg), out=sg)
            dz[:, :2 * hs] *= a[:, :2 * hs]
            do *= o
            dz *= s
            if need[0]:
                np.matmul(dz, wi.T, out=dx[lo:hi])
            if need[1]:
                np.matmul(dz, wh.T, out=dhp[lo:hi])
            if need[2]:
                np.multiply(d, f, out=dcp[lo:hi])
            if need[3]:
                dwi += xd[lo:hi].T @ dz
            if need[4]:
                dwh += hd[lo:hi].T @ dz
            if need[5]:
                db += dz.sum(axis=0)
        return dx, dhp, dcp, dwi, dwh, db

    c_out = Tensor._make(c, ins, backward_c)
    return Tensor._make(h, (c_out,), backward_h), c_out


def gcn_project(aggregated, weight, skip_concat: bool = False,
                relu: bool = True) -> Tensor:
    """The parameterized half of a graph convolution over a pre-computed
    ``Y₀ = Ã·X``, as one tape node: ``σ(Y₀·W)``, or CD-GCN's
    skip-concatenation ``σ(Y₀ ∘ Y₀·W)`` of width ``F + F'`` (§5.1).
    ``σ`` is ReLU, or the identity with ``relu=False``.  The projection
    lands in the output's right-hand columns and the ReLU runs in place;
    backward re-derives the mask from the output, so nothing is saved."""
    a, w = as_tensor(aggregated), as_tensor(weight)
    ad, wd = a.data, w.data
    skip = ad.shape[1] if skip_concat else 0
    out = np.empty((ad.shape[0], skip + wd.shape[1]))
    if skip:
        out[:, :skip] = ad
    np.matmul(ad, wd, out=out[:, skip:])
    if relu:
        np.maximum(out, 0.0, out=out)

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


def _stable_log_softmax(z: np.ndarray) -> np.ndarray:
    zmax = z.max(axis=-1, keepdims=True)
    shifted = z - zmax
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def softmax(x) -> Tensor:
    x = as_tensor(x)
    out = np.exp(_stable_log_softmax(x.data))

    def backward(g):
        dot = (g * out).sum(axis=-1, keepdims=True)
        return (out * (g - dot),)

    return Tensor._make(out, (x,), backward)


def log_softmax(x) -> Tensor:
    x = as_tensor(x)
    out = _stable_log_softmax(x.data)
    soft = np.exp(out)

    def backward(g):
        return (g - soft * g.sum(axis=-1, keepdims=True),)

    return Tensor._make(out, (x,), backward)


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


def binary_cross_entropy_with_logits(logits, targets: np.ndarray) -> Tensor:
    """Mean BCE over arbitrary-shape logits against 0/1 targets."""
    logits = as_tensor(logits)
    targets = np.asarray(targets, dtype=np.float64)
    if targets.shape != logits.shape:
        raise ShapeError(
            f"targets shape {targets.shape} != logits shape {logits.shape}")
    z = logits.data
    # log(1 + exp(-|z|)) + max(z, 0) - z*t  (numerically stable)
    loss = np.maximum(z, 0) - z * targets + np.log1p(np.exp(-np.abs(z)))
    out = np.asarray(loss.mean())
    n = z.size

    def backward(g):
        sig = _sigmoid(z, np.empty_like(z), np.empty_like(z))
        return ((sig - targets) * (g / n),)

    return Tensor._make(out, (logits,), backward)


def mse_loss(pred, target: np.ndarray) -> Tensor:
    pred = as_tensor(pred)
    target = np.asarray(target, dtype=np.float64)
    diff = pred.data - target
    out = np.asarray((diff * diff).mean())
    n = diff.size

    def backward(g):
        return (2.0 * diff * (g / n),)

    return Tensor._make(out, (pred,), backward)
