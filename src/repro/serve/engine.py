"""Incremental inference engine over a resident dynamic graph.

The engine evaluates a trained :class:`~repro.models.base.DynamicGNN`
in plain numpy (inference needs no tape) against the snapshot held by
the serving tier, with two entry points:

``advance()``
    A *timestep boundary*: temporal state moves forward one step — LSTM
    states advance for every vertex, EvolveGCN weights evolve once, the
    M-product history shifts — and every row is recomputed.  This is the
    periodic resync a production tier runs at window boundaries (a
    sharded tier splits it to run its halo exchange in between).

``refresh(reads=None)``
    An *intra-step* update: edge events changed the resident graph, the
    temporal carry is frozen, and only rows the
    :class:`~repro.serve.cache.EmbeddingCache` holds stale are
    recomputed, each layer at the rows stale *at that layer* (layer 0
    runs the 1-hop region of the touched endpoints, not the k-hop one).
    With ``reads`` the refresh is lazier still: it recomputes only the
    in-cone of those vertices — the last layer at ``reads ∩ stale``,
    each earlier layer at the ``Ã``-row columns of the rows the layer
    above recomputes, intersected with that layer's stale rows — and
    leaves every other stale row for a later refresh.  Because
    embeddings at a fixed timestep are a pure function of (frozen carry,
    current graph), the refreshed rows are *numerically identical* to a
    full recompute — incremental serving trades no accuracy.

    The cone is exact by the cache's invariant: a row clean at layer ℓ
    has every column of its ``Ã`` row clean at ℓ − 1, so a clean row is
    an exact one and the descent stops there; ``Ã``'s self-loop (the
    identity of ``A + I`` is always stored) keeps each recomputed row in
    its own cone one layer down.
    :attr:`InferenceEngine.embeddings` refreshes whatever is still stale
    before it returns the matrix, so a whole-matrix reader always sees
    the exact state.

The Eq. 1 operator ``Ã`` is kept current by a
:class:`~repro.graph.inc_laplacian.LaplacianMaintainer`: each ingest
commit hands its GD delta to :meth:`set_snapshot`, which updates only
the touched rows/columns instead of rebuilding, and partial refreshes
compute the dirty rows' slice of ``Ã·X`` with the row-sliced SpMM
kernel (bit-identical to the same rows of the full multiply).

What runs on those rows afterwards — projection, skip-concat + ReLU,
the LSTM / M-product part — is the *dense epilogue*: the trained
model's own steps (:func:`~repro.tensor.functional.project_panel`,
:func:`~repro.tensor.functional.lstm_panel`,
:func:`~repro.tensor.functional.window_mean`; EvolveGCN's weights
evolve through ``lstm_cell_forward``), so a served row is
bit-identical to the trained model's forward.  The engine keeps only
the carry bookkeeping.  The steps run on an O(``PANEL_ROWS``) scratch
held by the engine, and every GEMM takes a tile of exactly
``TILE_ROWS`` rows however many rows are dirty: the working set stays
in cache, and a refreshed row is bit-identical to the same row of a
full recompute on every BLAS kernel family (``docs/kernels.md``,
"Dense epilogue: fixed-shape tiles").

Which temporal-state arrays each model keeps, and in what order, is
written down once, as a named schema (:meth:`_state_slots`): captures,
restores, the rebalance transplant and the halo exchange walk it.

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
from repro.graph.snapshot import GraphSnapshot, sorted_unique
from repro.models.base import DynamicGNN
from repro.models.cdgcn import CDGCN
from repro.models.evolvegcn import EvolveGCN
from repro.models.tmgcn import TMGCN
from repro.obs import Telemetry
from repro.serve.cache import EmbeddingCache
from repro.tensor.functional import (PANEL_ROWS, TILE_ROWS, _fill,
                                     _gate_major, lstm_cell_forward,
                                     lstm_panel, project_panel, window_mean)

__all__ = ["InferenceEngine", "REPLICATED_STATE"]

# state-schema name prefixes of the arrays that are not per-vertex:
# EvolveGCN's weight LSTM, which every shard evolves identically
REPLICATED_STATE = ("weight_state/", "current_weights/")


@dataclass
class _Layer:
    """One model layer's parameters, packed C-contiguous (so every GEMM
    on them is the same NN call whatever order the model holds them in)."""

    gcn_weight: np.ndarray
    skip_concat: bool
    out_dim: int
    # LSTM part (CD-GCN only), one (in, hidden) block per gate stacked
    # in the order i, f, o, g: each gate's GEMM writes its own
    # contiguous plane and the three sigmoids run as one pass
    w_ih: np.ndarray | None = None
    w_hh: np.ndarray | None = None
    lstm_bias: np.ndarray | None = None
    hidden: int = 0


class _Panel:
    """One layer's dense-epilogue scratch.  Every array has exactly
    ``PANEL_ROWS`` rows, is allocated once per engine, and never leaves
    ``_compute``: results reach the cache arrays by copy."""

    def __init__(self, kind: str, layer: _Layer) -> None:
        t, hs = PANEL_ROWS, layer.hidden
        in_dim, proj_dim = layer.gcn_weight.shape
        self.agg = np.zeros((t, in_dim))
        self.y = np.zeros((t, layer.skip_concat * in_dim + proj_dim))
        if kind == "cdgcn":
            self.h = np.zeros((t, hs))
            self.c = np.zeros((t, hs))
            # gate planes i, f, o, g; the h·W_hh term, then scratch
            self.gates = np.zeros((4, t, hs))
            self.hh = np.zeros((4, t, hs))
        elif kind == "tmgcn":
            self.out = np.zeros_like(self.y)
            self.frame = np.zeros_like(self.y)


class InferenceEngine:
    """Evaluates a dynamic GNN incrementally against a resident snapshot.

    Parameters
    ----------
    model:
        A (trained) CD-GCN, EvolveGCN or TM-GCN instance.  Parameters
        are read at construction: the GCN weights and CD-GCN's LSTM
        cells are packed C-contiguous once, so serving updated weights
        takes a new engine (EvolveGCN's tiny weight evolver alone is
        read from the model at each ``advance()``).
    snapshot:
        The initial resident graph.
    kernel_backend:
        Kernel backend (name or instance) the engine's SpMM calls and
        its ``Ã`` maintainer run on.  ``None`` applies the selection
        precedence (``REPRO_KERNEL_BACKEND`` env, then ``reference``).
    """

    def __init__(self, model: DynamicGNN, snapshot: GraphSnapshot, *,
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
        self._panels = [_Panel(self.kind, layer) for layer in self.layers]
        # rows / tiles the dense epilogue ran, all layers (export-time
        # counters, like the maintainer's)
        self.epilogue_rows = 0
        self.epilogue_tiles = 0
        # rows the latest refresh recomputed at each layer
        self.refresh_layer_rows: tuple[int, ...] = ()
        self.cache = EmbeddingCache(snapshot.num_vertices, model.num_layers)
        self.steps = 0
        self._primed = False
        self._resident: GraphSnapshot | None = None
        self._maintainer: LaplacianMaintainer | None = None
        self.kernel_backend = resolve_backend(kernel_backend)
        # temporal state that is not per-vertex
        self._weight_state: list[list[np.ndarray]] = []
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
            layer = _Layer(gcn_weight=np.array(gcn.weight.data, order="C"),
                           skip_concat=gcn.skip_concat,
                           out_dim=gcn.output_dim)
            if self.kind == "cdgcn":
                lstm = model.lstm_layer(idx)
                hs = lstm.hidden_size
                layer.w_ih = _gate_major(lstm.w_ih.data, hs)
                layer.w_hh = _gate_major(lstm.w_hh.data, hs)
                layer.lstm_bias = _gate_major(lstm.bias.data, hs)
                layer.hidden = layer.out_dim = hs
            layers.append(layer)
        return layers

    def _init_carries(self, n: int) -> None:
        cache = self.cache
        if self.kind == "cdgcn":
            # the post-step h of a layer is its output row, so the step
            # leaving carry keeps c alone (layer_outputs holds h)
            for layer in self.layers:
                cache.pre_carry.append(
                    [np.zeros((n, layer.hidden)), np.zeros((n, layer.hidden))])
                cache.post_carry.append(np.zeros((n, layer.hidden)))
        elif self.kind == "egcn":
            for idx in range(self.model.num_layers):
                base = self.model.gcn_layer(idx).weight.data
                self._weight_state.append([base.copy(),
                                           np.zeros_like(base)])
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
        """Served per-vertex embeddings for the current (step, graph).
        Rows still stale are refreshed first, so every row is exact."""
        if self._primed and self.cache.num_dirty:
            self.refresh()
        return self.cache.embeddings

    @property
    def maintainer(self) -> LaplacianMaintainer:
        """The engine's incremental ``Ã`` maintainer."""
        return self._maintainer

    def set_snapshot(self, snapshot: GraphSnapshot,
                     seeds: np.ndarray | None, *,
                     diff: SnapshotDiff | None = None) -> None:
        """Install a new resident snapshot.

        ``seeds`` are the vertices incident to changed edges (a
        commit's ``IngestResult.dirty``); ``None`` invalidates everything
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
        self.begin_advance(snapshot, diff=diff)
        self.finish_advance()
        return self.embeddings

    def begin_advance(self, snapshot: GraphSnapshot | None = None, *,
                      diff: SnapshotDiff | None = None) -> int:
        """First half of :meth:`advance`: settle, rebase, promote;
        returns how many rows the settle recomputed."""
        # rows still dirty against the current resident are consumed
        # first: the carries a boundary promotes must reflect the
        # end-of-step graph, not a mid-step one
        settled = self.refresh() if self._primed and self.cache.num_dirty \
            else 0
        if snapshot is not None:
            self.set_snapshot(snapshot, seeds=None, diff=diff)
        if self._primed:
            self._promote_carries()
        self._evolve_weights()
        return settled

    def finish_advance(self) -> int:
        """Second half of :meth:`advance`: recompute every row; returns
        how many rows that computed."""
        self.cache.invalidate_all()
        computed = self._run([np.arange(self.num_vertices)] * len(self.layers))
        self._primed = True
        self.steps += 1
        return computed

    def refresh(self, reads: np.ndarray | None = None) -> int:
        """Recompute stale rows against the frozen carry: every one, or
        with ``reads`` only those the rows of vertices ``reads`` depend
        on (module notes).  Returns how many distinct rows were
        recomputed; :attr:`refresh_layer_rows` holds the count per
        layer."""
        if not self._primed:
            raise ConfigError("advance() must run once before refresh()")
        if reads is not None:
            return self._run(self._cone(reads))
        dirty = self.cache.dirty
        stale = self.cache.stale[dirty]
        return self._run([dirty[stale <= idx]
                          for idx in range(len(self.layers))])

    def _run(self, plan: list[np.ndarray]) -> int:
        """Compute the stale rows ``plan`` schedules per layer, cut by
        :meth:`_layer_rows`, and record them clean; returns how many
        distinct rows ran (each runs first at its stale layer: ``Ã``'s
        self-loop puts a row among its own columns)."""
        plan = [self._layer_rows(idx, rows) for idx, rows in enumerate(plan)]
        self.refresh_layer_rows = tuple(map(len, plan))
        stale = self.cache.stale
        computed = sum(int(np.count_nonzero(stale[rows] == idx))
                       for idx, rows in enumerate(plan))
        if computed:
            n = self.num_vertices
            self._compute([None if len(rows) == n else rows
                           for rows in plan])
            self.cache.clean_layers(plan)
        return computed

    def _cone(self, reads: np.ndarray) -> list[np.ndarray]:
        """Rows to recompute per layer so the last-layer rows of
        ``reads`` are exact: ``reads ∩ stale`` at the last layer, then
        each layer down the stale ``Ã``-row columns of the rows above
        (sorted, unique).  The descent stops at clean rows, which are
        exact (the cache's invariant)."""
        stale = self.cache.stale
        csr = self._maintainer.laplacian.csr
        rows = sorted_unique(np.asarray(reads, dtype=np.int64))
        top = len(self.layers) - 1
        plan = []
        for idx in range(top, -1, -1):
            if idx < top:
                rows = self.kernel_backend.row_slice(csr, rows).indices
            rows = sorted_unique(rows[stale[rows] <= idx])
            plan.append(rows)
        return plan[::-1]

    # -- carry management ---------------------------------------------------------------
    def _promote_carries(self) -> None:
        cache = self.cache
        if self.kind == "cdgcn":
            # the step's output h enters the next step by copy into the
            # old pre-h buffer; the c buffers trade places, so a boundary
            # allocates no (N, H) array
            for idx, pair in enumerate(cache.pre_carry):
                h_pre, c_pre = pair
                np.copyto(h_pre, cache.layer_outputs[idx])
                pair[1] = cache.post_carry[idx]
                cache.post_carry[idx] = c_pre
        elif self.kind == "tmgcn":
            keep = self.window - 1
            for idx in range(len(self.layers)):
                if keep > 0:
                    self._history[idx].append(self._current_y[idx])
                    self._history[idx] = self._history[idx][-keep:]
                self._current_y[idx] = None

    def _evolve_weights(self) -> None:
        """One weight-LSTM step per layer (EvolveGCN's recurrence; the
        other models hold no weight state)."""
        for idx, (h_prev, c_prev) in enumerate(self._weight_state):
            cell = self.model.evolver(idx).cell
            h, c, _, _ = lstm_cell_forward(
                h_prev, h_prev, c_prev, cell.w_ih.data, cell.w_hh.data,
                cell.bias.data)
            self._weight_state[idx] = [h, c]
            self._current_weights[idx] = h

    # -- state schema --------------------------------------------------------------------
    def _state_slots(self):
        """``(name, list, index)`` per temporal-state array, in capture
        order: the array named ``name`` is ``list[index]``.  Every
        reader and writer of the state walks this one layout."""
        cache = self.cache
        for i in range(len(cache.layer_outputs)):
            yield f"layer_outputs/{i}", cache.layer_outputs, i
        for i, pair in enumerate(cache.pre_carry):
            yield f"pre_carry/{i}/h", pair, 0
            yield f"pre_carry/{i}/c", pair, 1
        # the post-step h is layer_outputs/{i}; only c is kept
        for i in range(len(cache.post_carry)):
            yield f"post_carry/{i}/c", cache.post_carry, i
        for i, pair in enumerate(self._weight_state):
            yield f"weight_state/{i}/h", pair, 0
            yield f"weight_state/{i}/c", pair, 1
        for i in range(len(self._current_weights)):
            yield f"current_weights/{i}", self._current_weights, i
        for i, frames in enumerate(self._history):
            for j in range(len(frames)):
                yield f"history/{i}/{j}", frames, j
        for i, y in enumerate(self._current_y):
            if y is not None:
                yield f"current_y/{i}", self._current_y, i

    def state_arrays(self) -> dict[str, np.ndarray]:
        """The engine's temporal state by schema name, in capture order.
        The arrays are the engine's own, not copies: valid until the
        engine next moves."""
        return {name: slots[idx] for name, slots, idx in self._state_slots()}

    def load_state(self, arrays: dict[str, np.ndarray],
                   rows: np.ndarray | None = None) -> None:
        """Install state named as :meth:`state_arrays` names it (other
        names are left unread).  ``rows=None`` adopts the arrays as they
        are, without a copy; otherwise the per-vertex arrays hold rows
        ``rows`` and are scattered in, the replicated ones copied."""
        self._fit_frames(arrays, rows)
        for name, slots, idx in self._state_slots():
            src = arrays[name]
            if rows is None:
                slots[idx] = src
            elif name.startswith(REPLICATED_STATE):
                slots[idx] = src.copy()
            else:
                slots[idx][rows] = src

    def _fit_frames(self, arrays: dict[str, np.ndarray],
                    rows: np.ndarray | None) -> None:
        """Size TM-GCN's frame lists to the frames ``arrays`` names: as
        those arrays (``rows=None``), or adding zero frames to scatter
        rows into."""
        def frame(name):
            return arrays[name] if rows is None else \
                np.zeros((self.num_vertices, arrays[name].shape[1]))

        for i, frames in enumerate(self._history):
            if rows is None:
                frames.clear()
            while (name := f"history/{i}/{len(frames)}") in arrays:
                frames.append(frame(name))
        for i, y in enumerate(self._current_y):
            name = f"current_y/{i}"
            if rows is None or (y is None and name in arrays):
                self._current_y[i] = frame(name) if name in arrays else None

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

    def _layer_rows(self, idx: int, rows: np.ndarray) -> np.ndarray:
        """Rows to compute at layer ``idx`` out of the ``rows`` scheduled
        there.

        The base engine computes what was scheduled; the sharded engine
        overrides this to shrink the halo ring as depth grows (layer
        ``ℓ`` outputs are only needed within ``L-1-ℓ`` hops of the owned
        block).
        """
        return rows

    def _compute(self, plan: list) -> None:
        """(Re)compute model rows: ``plan[ℓ]`` are the rows of layer ℓ
        (``None`` = every vertex).

        Per layer: one SpMM for the rows' slice of ``Ã·x`` (the only
        O(rows) temporary), then the dense epilogue one panel at a time
        on the layer's :class:`_Panel` — projection, skip-concat + ReLU,
        the RNN part, scatter into the cache.  Only the GEMMs run on
        zero-padded tiles; an elementwise pass gives a row the same bits
        whatever rows surround it, so those take the ``m`` live rows.
        """
        cache = self.cache
        x = cache.features
        for idx, (layer, panel, layer_rows) in enumerate(
                zip(self.layers, self._panels, plan)):
            n = self.num_vertices if layer_rows is None else len(layer_rows)
            tiles = -(-n // TILE_ROWS)
            with self.telemetry.trace("serve.aggregate", layer=idx, rows=n):
                agg = self._aggregate(x, layer_rows)
            weight = self._current_weights[idx] if self.kind == "egcn" \
                else layer.gcn_weight
            out = cache.layer_outputs[idx]
            with self.telemetry.trace("serve.epilogue", layer=idx, rows=n,
                                      tiles=tiles):
                for lo in range(0, n, PANEL_ROWS):
                    hi = min(lo + PANEL_ROWS, n)
                    m = hi - lo
                    sel = slice(lo, hi) if layer_rows is None \
                        else layer_rows[lo:hi]
                    _fill(panel.agg, agg[lo:hi])
                    project_panel(panel.agg, weight, panel.y, m)
                    out[sel] = self._temporal(idx, panel, sel, m)
            self.epilogue_rows += n
            self.epilogue_tiles += tiles
            x = out

    def _temporal(self, idx: int, panel: _Panel, sel,
                  m: int) -> np.ndarray:
        """Apply layer ``idx``'s RNN component to the GCN rows in
        ``panel.y`` (its first ``m`` rows are vertices ``sel``, the rest
        of their tile zero); returns the layer's ``m`` output rows, a
        view of the scratch."""
        y = panel.y[:m]
        if self.kind == "cdgcn":
            layer = self.layers[idx]
            h_pre, c_pre = self.cache.pre_carry[idx]
            _fill(panel.h, h_pre[sel])
            h, c = panel.h[:m], panel.c[:m]
            lstm_panel(panel.y, panel.h, c_pre[sel], layer.w_ih, layer.w_hh,
                       layer.lstm_bias, panel.gates, panel.hh, m, c=c,
                       h_out=h)
            self.cache.post_carry[idx][sel] = c
            return h
        if self.kind == "tmgcn":
            if self._current_y[idx] is None:
                self._current_y[idx] = np.zeros(
                    (self.cache.num_vertices, y.shape[1]))
            self._current_y[idx][sel] = y
            active = (self._history[idx][-(self.window - 1):]
                      if self.window > 1 else [])
            return window_mean([frame[sel] for frame in active] + [y],
                               panel.out[:m], panel.frame[:m])
        return y  # egcn: no vertex-level recurrence

    # -- bookkeeping -------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return self.cache.num_vertices
