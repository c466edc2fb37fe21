"""Incremental inference engine over a resident dynamic graph.

The engine evaluates a trained :class:`~repro.models.base.DynamicGNN`
in plain numpy (inference needs no tape) against the snapshot held by
the serving tier, with two entry points:

``advance()``
    A *timestep boundary*: temporal state moves forward one step — LSTM
    states advance for every vertex, EvolveGCN weights evolve once, the
    M-product history shifts — and every row is recomputed.  This is the
    periodic resync a production tier runs at window boundaries.

``refresh()``
    An *intra-step* update: edge events changed the resident graph, the
    temporal carry is frozen, and only the rows marked dirty by the
    :class:`~repro.serve.cache.EmbeddingCache` (the k-hop neighborhood
    of the touched endpoints) are recomputed.  Because embeddings at a
    fixed timestep are a pure function of (frozen carry, current graph),
    the refreshed rows are *numerically identical* to a full recompute —
    incremental serving trades no accuracy.

The Eq. 1 operator ``Ã`` is kept current by a
:class:`~repro.graph.inc_laplacian.LaplacianMaintainer`: each ingest
commit hands its GD delta to :meth:`set_snapshot`, which updates only
the touched rows/columns instead of rebuilding, and partial refreshes
compute the dirty rows' slice of ``Ã·X`` with the row-sliced SpMM
kernel (bit-identical to the same rows of the full multiply).

.. note::
   The engine evaluates the model on the **raw** event stream.  CD-GCN
   trains on raw snapshots (§5.1), so it is served exactly as trained.
   TM-GCN and EvolveGCN are conventionally trained on *smoothed* inputs
   (M-product / edge-life, §5.4); to serve those faithfully, train them
   on raw snapshots — the engine stays numerically exact w.r.t. its
   input stream either way, but it does not re-apply training-side
   smoothing to live events.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError
from repro.graph.diff import SnapshotDiff
from repro.graph.inc_laplacian import LaplacianMaintainer
from repro.tensor.backend import KernelBackend, resolve_backend
from repro.graph.snapshot import GraphSnapshot
from repro.models.base import DynamicGNN
from repro.models.cdgcn import CDGCN
from repro.models.evolvegcn import EvolveGCN
from repro.models.tmgcn import TMGCN
from repro.obs import Telemetry
from repro.serve.cache import EmbeddingCache

__all__ = ["InferenceEngine"]


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


@dataclass
class _Layer:
    """Numpy view of one model layer's parameters."""

    gcn_weight: np.ndarray
    skip_concat: bool
    out_dim: int
    # LSTM part (CD-GCN only)
    w_ih: np.ndarray | None = None
    w_hh: np.ndarray | None = None
    lstm_bias: np.ndarray | None = None
    hidden: int = 0


class InferenceEngine:
    """Evaluates a dynamic GNN incrementally against a resident snapshot.

    Parameters
    ----------
    model:
        A (trained) CD-GCN, EvolveGCN or TM-GCN instance.  Parameters
        are referenced, not copied — serving always sees current weights.
    snapshot:
        The initial resident graph.
    k_hops:
        Invalidation radius; defaults to ``model.num_layers`` (the
        minimum that keeps incremental inference exact).
    kernel_backend:
        Kernel backend (name or instance) the engine's SpMM calls and
        its ``Ã`` maintainer run on.  ``None`` applies the selection
        precedence (``REPRO_KERNEL_BACKEND`` env, then ``reference``).
    """

    def __init__(self, model: DynamicGNN, snapshot: GraphSnapshot,
                 k_hops: int | None = None, *,
                 cache_max_rows: int | None = None,
                 telemetry: Telemetry | None = None,
                 kernel_backend: str | KernelBackend | None = None) -> None:
        if model.in_features != 2:
            raise ConfigError(
                "serving computes in/out-degree features from the event "
                f"stream (F=2); model expects F={model.in_features}")
        self.model = model
        # spans flow into the owning server's telemetry when injected;
        # the default is a private, tracing-off (no-op) instance
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self.kind = self._detect_kind(model)
        self.layers = self._extract_layers(model)
        self.cache = EmbeddingCache(snapshot.num_vertices,
                                    model.num_layers, k_hops,
                                    max_rows=cache_max_rows)
        self.steps = 0
        self._primed = False
        self._resident: GraphSnapshot | None = None
        self._maintainer: LaplacianMaintainer | None = None
        self.kernel_backend = resolve_backend(kernel_backend)
        # temporal state that is not per-vertex
        self._weight_state: list[tuple[np.ndarray, np.ndarray]] = []
        self._current_weights: list[np.ndarray] = []
        self._history: list[list[np.ndarray]] = []
        self._current_y: list[np.ndarray | None] = []
        self._init_carries(snapshot.num_vertices)
        self.set_snapshot(snapshot, seeds=None)

    # -- model introspection -----------------------------------------------------
    @staticmethod
    def _detect_kind(model: DynamicGNN) -> str:
        if isinstance(model, CDGCN):
            return "cdgcn"
        if isinstance(model, EvolveGCN):
            return "egcn"
        if isinstance(model, TMGCN):
            return "tmgcn"
        raise ConfigError(
            f"unsupported model type {type(model).__name__}; the serving "
            f"engine knows CD-GCN, EvolveGCN and TM-GCN")

    def _extract_layers(self, model: DynamicGNN) -> list[_Layer]:
        layers = []
        for idx in range(model.num_layers):
            gcn = model.gcn_layer(idx)
            if gcn.activation != "relu":
                raise ConfigError("serving engine expects ReLU GCN layers")
            layer = _Layer(gcn_weight=gcn.weight.data,
                           skip_concat=gcn.skip_concat,
                           out_dim=gcn.output_dim)
            if self.kind == "cdgcn":
                lstm = model.lstm_layer(idx)
                layer.w_ih = lstm.w_ih.data
                layer.w_hh = lstm.w_hh.data
                layer.lstm_bias = lstm.bias.data
                layer.hidden = lstm.hidden_size
                layer.out_dim = lstm.hidden_size
            layers.append(layer)
        return layers

    def _init_carries(self, n: int) -> None:
        cache = self.cache
        if self.kind == "cdgcn":
            for layer in self.layers:
                cache.pre_carry.append(
                    (np.zeros((n, layer.hidden)), np.zeros((n, layer.hidden))))
                cache.post_carry.append(
                    (np.zeros((n, layer.hidden)), np.zeros((n, layer.hidden))))
        elif self.kind == "egcn":
            for idx in range(self.model.num_layers):
                base = self.model.gcn_layer(idx).weight.data
                self._weight_state.append((base.copy(),
                                           np.zeros_like(base)))
                self._current_weights.append(base.copy())
        else:  # tmgcn
            self.window = self.model.window
            for layer in self.layers:
                self._history.append([])
                self._current_y.append(None)
        cache.layer_outputs = [np.zeros((n, layer.out_dim))
                               for layer in self.layers]

    # -- resident graph ------------------------------------------------------------
    @property
    def resident(self) -> GraphSnapshot:
        return self._resident

    @property
    def embeddings(self) -> np.ndarray:
        """Served per-vertex embeddings for the current (step, graph)."""
        return self.cache.embeddings

    @property
    def maintainer(self) -> LaplacianMaintainer:
        """The engine's incremental ``Ã`` maintainer."""
        return self._maintainer

    def set_snapshot(self, snapshot: GraphSnapshot,
                     seeds: np.ndarray | None, *,
                     diff: SnapshotDiff | None = None) -> None:
        """Install a new resident snapshot.

        ``seeds`` are the vertices incident to changed edges (the
        ingestor's dirty frontier); ``None`` invalidates everything
        (initial install or an untracked graph swap).  ``diff`` is the
        GD delta from the previous resident to ``snapshot``: with it,
        the resident ``Ã`` — and the degree counts the features are
        read from — is maintained incrementally (O(delta) operator
        work); without it the operator rebuilds in full.
        """
        if self._resident is not None and \
                snapshot.num_vertices != self._resident.num_vertices:
            raise ConfigError("resident vertex set must stay fixed")
        self._resident = snapshot
        # the normalized operator follows the graph: incrementally when
        # the caller supplies the GD delta, by full rebuild otherwise
        with self.telemetry.trace("serve.maintainer",
                                  incremental=diff is not None):
            if self._maintainer is None:
                self._maintainer = LaplacianMaintainer(
                    snapshot, backend=self.kernel_backend)
            else:
                self._maintainer.update(snapshot, diff)
        # the maintainer owns everything derived from the resident
        # graph: the degree features come from its counts
        self.cache.features = self._maintainer.degree_features
        if seeds is None:
            self.cache.invalidate_all()
        elif len(seeds):
            self.cache.invalidate(snapshot, seeds)

    # -- stepping ---------------------------------------------------------------------
    def advance(self, snapshot: GraphSnapshot | None = None, *,
                diff: SnapshotDiff | None = None) -> np.ndarray:
        """Move the timeline one step forward and recompute every row.

        ``diff`` is the optional GD delta from the current resident to
        the rebase ``snapshot``; with it the maintained ``Ã`` advances
        incrementally instead of rebuilding in full."""
        self._settle()
        if snapshot is not None:
            self.set_snapshot(snapshot, seeds=None, diff=diff)
        if self._primed:
            self._promote_carries()
        if self.kind == "egcn":
            self._evolve_weights()
        self.cache.invalidate_all()
        self.cache.clean()
        self._compute(None)
        self._primed = True
        self.steps += 1
        return self.embeddings

    def _settle(self) -> None:
        """Consume any dirty rows still pending against the *current*
        resident before a timestep boundary.  The temporal carries a
        boundary promotes must reflect the end-of-step graph — skipping
        this (e.g. events ingested but never flushed before an advance)
        would promote carries computed against a mid-step topology.
        """
        if self._primed and self.cache.num_dirty:
            self.refresh()

    def refresh(self) -> int:
        """Recompute the dirty rows (frozen carry); returns row count."""
        if not self._primed:
            raise ConfigError("advance() must run once before refresh()")
        rows = self.cache.clean()
        if len(rows) == 0:
            return 0
        if len(rows) == self.cache.num_vertices:
            self._compute(None)
        else:
            self._compute(rows)
        return len(rows)

    # -- carry management ---------------------------------------------------------------
    def _promote_carries(self) -> None:
        cache = self.cache
        if self.kind == "cdgcn":
            cache.pre_carry = cache.post_carry
            cache.post_carry = [(np.empty_like(h), np.empty_like(c))
                                for h, c in cache.pre_carry]
        elif self.kind == "tmgcn":
            keep = self.window - 1
            for idx in range(len(self.layers)):
                if keep > 0:
                    self._history[idx].append(self._current_y[idx])
                    self._history[idx] = self._history[idx][-keep:]
                self._current_y[idx] = None

    def _evolve_weights(self) -> None:
        """One weight-LSTM step per layer (EvolveGCN's recurrence)."""
        for idx in range(self.model.num_layers):
            cell = self.model.evolver(idx).cell
            h_prev, c_prev = self._weight_state[idx]
            gates = (h_prev @ cell.w_ih.data + h_prev @ cell.w_hh.data
                     + cell.bias.data)
            hs = cell.hidden_size
            i = _sigmoid(gates[:, 0 * hs:1 * hs])
            f = _sigmoid(gates[:, 1 * hs:2 * hs])
            g = np.tanh(gates[:, 2 * hs:3 * hs])
            o = _sigmoid(gates[:, 3 * hs:4 * hs])
            c = f * c_prev + i * g
            h = o * np.tanh(c)
            self._weight_state[idx] = (h, c)
            self._current_weights[idx] = h

    # -- numerics -------------------------------------------------------------------------
    def _aggregate(self, x: np.ndarray,
                   rows: np.ndarray | None) -> np.ndarray:
        """Rows of ``Ã·x`` for the resident snapshot.

        ``rows=None`` runs the full SpMM through the maintained
        operator; otherwise only the requested output rows are computed
        by the backend's fused gather-then-GEMM kernel, which is
        bit-identical to the corresponding rows of the full product.
        """
        lap = self._maintainer.laplacian
        kb = self.kernel_backend
        if rows is None:
            return kb.spmm(lap.csr, x)
        out, _ = kb.spmm_rows(lap.csr, rows, x)
        return out

    def _layer_rows(self, idx: int,
                    rows: np.ndarray | None) -> np.ndarray | None:
        """Rows to compute at layer ``idx`` (``None`` = every vertex).

        The base engine computes the same row set at every layer; the
        sharded engine overrides this to shrink the halo ring as depth
        grows (layer ``ℓ`` outputs are only needed within ``L-1-ℓ`` hops
        of the owned block).
        """
        return rows

    def _compute(self, rows: np.ndarray | None) -> None:
        """(Re)compute model rows; ``rows=None`` means all vertices."""
        cache = self.cache
        x = cache.features
        for idx, layer in enumerate(self.layers):
            layer_rows = self._layer_rows(idx, rows)
            sel = slice(None) if layer_rows is None else layer_rows
            agg = self._aggregate(x, layer_rows)
            if self.kind == "egcn":
                y = np.maximum(agg @ self._current_weights[idx], 0.0)
            elif layer.skip_concat:
                proj = agg @ layer.gcn_weight
                y = np.maximum(np.concatenate([agg, proj], axis=1), 0.0)
            else:
                y = np.maximum(agg @ layer.gcn_weight, 0.0)
            out = self._temporal(idx, y, sel)
            cache.layer_outputs[idx][sel] = out
            x = cache.layer_outputs[idx]

    def _temporal(self, idx: int, y: np.ndarray, sel) -> np.ndarray:
        """Apply layer ``idx``'s RNN component to GCN rows ``y``."""
        if self.kind == "cdgcn":
            layer = self.layers[idx]
            h_pre, c_pre = self.cache.pre_carry[idx]
            gates = y @ layer.w_ih + h_pre[sel] @ layer.w_hh \
                + layer.lstm_bias
            hs = layer.hidden
            i = _sigmoid(gates[:, 0 * hs:1 * hs])
            f = _sigmoid(gates[:, 1 * hs:2 * hs])
            g = np.tanh(gates[:, 2 * hs:3 * hs])
            o = _sigmoid(gates[:, 3 * hs:4 * hs])
            c = f * c_pre[sel] + i * g
            h = o * np.tanh(c)
            h_post, c_post = self.cache.post_carry[idx]
            h_post[sel] = h
            c_post[sel] = c
            return h
        if self.kind == "tmgcn":
            if self._current_y[idx] is None:
                self._current_y[idx] = np.zeros(
                    (self.cache.num_vertices, y.shape[1]))
            self._current_y[idx][sel] = y
            active = (self._history[idx][-(self.window - 1):]
                      if self.window > 1 else [])
            scale = 1.0 / (len(active) + 1)
            out = y * scale
            for frame in active:
                out = out + frame[sel] * scale
            return out
        return y  # egcn: no vertex-level recurrence


    # -- bookkeeping -------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return self.cache.num_vertices
