"""Cross-timestep aggregation reuse for training (ReInc / InstantGNN).

The paper's thesis is that dynamic-graph work should be charged to what
*changed*; PR 4 delivered that for preprocessing and serving, but the
training loop still ran a full ``Ã_t · X`` aggregation at every timestep
of every epoch.  :class:`AggregationCache` closes the gap: it holds the
previous timestep's per-layer ``S @ X`` products, consumes each
timestep's :class:`~repro.graph.diff.SnapshotDiff` to derive the
**delta-touched row set**, and patches only those rows through the
row-sliced SpMM kernel — identical numerics, O(delta)-ish forward work.

Exactness is *structural*, not statistical.  For the transition
``t-1 → t`` at layer ``ℓ``, the rows of ``Ã_t X^ℓ_t`` that can differ
from ``Ã_{t-1} X^ℓ_{t-1}`` are bounded by

    touched = seeds ∪ dirty_in ∪ rows_reading(seeds ∪ dirty_in)

where ``seeds`` are the diff's endpoint vertices (added, removed and
value-changed edges, read off every diff in O(delta) by
``diff_touched_vertices``, store-decoded ones included; the same seed
set the serving tier expands)
and ``dirty_in`` are the input rows that changed across the timestep.
``rows_reading`` — the rows whose ``Ã_t`` row reads a changed column —
is one O(E) boolean scan of the snapshot's directed edge array (the
serving tier's frontier hop specialized to the operator, taken only
after the candidate set clears the crossover pre-check); applied once
per layer it compounds into exactly the serving tier's k-hop
expansion.  ``dirty_in`` propagates through the model's temporal
components per its :meth:`~repro.models.base.DynamicGNN.reuse_profile`:

* first-layer inputs are the (parameter-free) degree features — they
  change only at delta endpoints, for every model;
* TM-GCN's M-transform is a trailing-window average under time-shared
  weights, so a deeper row is dirty only if one of the last ``w``
  aggregations touched it — deeper layers stay patchable;
* CD-GCN's per-vertex LSTM and EvolveGCN's per-timestep weights dirty
  every row (``"dense"``), and the cache falls back to a full SpMM —
  the crossover guarantee also taken whenever the touched fraction
  exceeds ``crossover``.

Three kernel flavors back the scheme (:mod:`repro.tensor.sparse`):

``spmm_memo``
    the operand is bit-equal to a cached one (same timestep, previous
    pass or epoch — e.g. the checkpointed backward's forward re-run, or
    the parameter-free first layer across epochs): zero forward work,
    unconditional full-Jacobian backward;
``spmm_patch``
    delta-touched rows recomputed row-sliced, untouched rows copied
    from the previous timestep's product, gradients routed through the
    sliced recompute (and, for the untouched rows, through the previous
    product — exact because the structural bound certifies those rows
    are the same function of the parameters);
``spmm``
    the full kernel, whenever neither reuse is provably exact.

The cache also records, per call, the sparse FLOPs a delta-aware
execution actually pays plus the halo rows a distributed exchange must
still ship — the trainers charge the simulated cost model from these
instead of the full-graph formulas.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigError
from repro.graph.inc_laplacian import diff_touched_vertices
from repro.tensor import Tensor
from repro.tensor.sparse import SparseMatrix, spmm, spmm_memo, spmm_patch

__all__ = ["AggregationCache", "ReuseStats", "AggregateCall"]

_EMPTY = np.empty(0, dtype=np.int64)

# sentinel: dirty/touched sets are None when unknown (treat as "every
# row may have changed" — forbids patching); an *empty* array means a
# provably unchanged transition and allows a zero-row patch
_ALL = None


@dataclass
class ReuseStats:
    """Monotonic counters over a cache's lifetime (reset per epoch)."""

    calls: int = 0
    memo_hits: int = 0
    patches: int = 0
    full_spmm: int = 0
    crossover_fallbacks: int = 0
    rows_patched: int = 0
    rows_reused: int = 0
    forward_flops: float = 0.0
    backward_flops: float = 0.0
    full_equivalent_flops: float = 0.0


@dataclass(frozen=True)
class AggregateCall:
    """What the last :meth:`AggregationCache.aggregate` call did.

    The trainers read this record to charge the simulated cost model:
    ``forward_flops``/``backward_flops`` are the sparse FLOPs a
    delta-aware execution pays (backward estimated from whether the
    dense operand requires grad), ``rows`` the recomputed output rows
    (``None`` = all), and ``halo_rows`` the input rows whose values
    changed since the previous timestep — the only rows a distributed
    exchange still has to ship to mirrors (``None`` = unknown, ship
    everything).
    """

    mode: str                      # "memo" | "patch" | "full"
    rows: np.ndarray | None
    sub_nnz: int
    forward_flops: float
    backward_flops: float
    full_flops: float
    halo_rows: np.ndarray | None


@dataclass
class _Entry:
    """Cached state of one (layer, timestep) aggregation."""

    lap: SparseMatrix
    x: np.ndarray                  # operand the product was computed from
    product: np.ndarray            # = (lap @ x), bit-exact
    out_dirty: np.ndarray | None   # rows differing vs timestep t-1


@dataclass
class _LayerState:
    entries: dict = field(default_factory=dict)
    last_t: int | None = None      # chain head within the current pass
    last_tensor: Tensor | None = None


class AggregationCache:
    """Holds per-layer ``S @ X`` products and patches them across
    adjacent timesteps.

    Parameters
    ----------
    laplacians:
        Frozen per-timestep operators (``compute_laplacians`` output);
        callers must pass these exact objects to :meth:`aggregate`.
    diffs:
        ``diffs[t - 1]`` is the GD delta ``A_{t-1} → A_t`` (the
        ``compute_laplacians_with_diffs`` companion list).
    snapshots:
        The snapshots the diffs were encoded over (needed to resolve
        value-changed edge endpoints from the encoder hints).
    temporal:
        The model's :meth:`~repro.models.base.DynamicGNN.reuse_profile`.
    crossover:
        Touched-row fraction above which patching falls back to the
        full SpMM (row-gather overhead exceeds the saving).
    """

    def __init__(self, laplacians, diffs, snapshots, temporal, *,
                 crossover: float = 0.35) -> None:
        if len(laplacians) != len(snapshots):
            raise ConfigError("laplacian/snapshot count mismatch")
        if diffs and len(diffs) != len(laplacians) - 1:
            raise ConfigError(
                f"{len(diffs)} diffs cannot chain {len(laplacians)} "
                f"operators")
        if not 0.0 < crossover <= 1.0:
            raise ConfigError("crossover must be in (0, 1]")
        self.laps = list(laplacians)
        self.snaps = list(snapshots)
        self.crossover = crossover
        self.temporal = list(temporal)
        self.stats = ReuseStats()
        self.last_call: AggregateCall | None = None
        self._layers: dict[int, _LayerState] = {}
        # delta seed vertices per transition: seeds[t] are the endpoints
        # of every edge changed by A_{t-1} -> A_t (None at t = 0, which
        # has no predecessor)
        self._seeds: list[np.ndarray | None] = [None]
        for diff, snap in zip(diffs or [], snapshots[1:]):
            self._seeds.append(diff_touched_vertices(diff, snap))

    # -- bookkeeping -------------------------------------------------------------
    def begin_epoch(self) -> None:
        """Reset per-epoch stats and drop chain/tape references.

        Cached products survive — the parameter-free first layer (and
        any other operand that proves bit-equal) is reused across
        epochs through the memo path."""
        self.stats = ReuseStats()
        for state in self._layers.values():
            state.last_t = None
            state.last_tensor = None

    def release(self) -> None:
        """Drop the chain tensors (and with them the autograd tape the
        last pass built) without touching the memo entries."""
        for state in self._layers.values():
            state.last_t = None
            state.last_tensor = None

    @property
    def resident_nbytes(self) -> int:
        """Bytes of cached operands + products currently held — the
        memory the reuse trade spends; the trainers charge it against
        the simulated device ledgers so the cost model shows that
        patching/memoization buys compute with memory, not for free."""
        return sum(entry.x.nbytes + entry.product.nbytes
                   for state in self._layers.values()
                   for entry in state.entries.values())

    # -- dirty derivation ---------------------------------------------------------
    @staticmethod
    def _row_diff(prev: np.ndarray, curr: np.ndarray) -> np.ndarray:
        """Rows where two aligned operands differ (vectorized compare)."""
        return np.flatnonzero((prev != curr).any(axis=1))

    @staticmethod
    def _operands_equal(prev: np.ndarray, curr: np.ndarray) -> bool:
        """Bit-equality of two operands, cheap-failing: identity first
        (the trainers hand the same frame arrays across passes and
        epochs), then a strided row sample, then the full compare."""
        if prev is curr:
            return True
        if prev.shape != curr.shape:
            return False
        n = prev.shape[0]
        if n > 256:
            probe = slice(0, n, max(1, n // 64))
            if not np.array_equal(prev[probe], curr[probe]):
                return False
        return np.array_equal(prev, curr)

    def _input_dirty(self, layer: int, t: int,
                     x_now: np.ndarray | None) -> np.ndarray | None:
        """Rows where layer ``layer``'s input at ``t`` differs from its
        input at ``t-1`` (None = unknown, i.e. every row may differ).

        The first layer's set is established *numerically* against the
        cached ``t-1`` operand (exact for any feature source, degree
        features or otherwise); deeper layers derive it structurally
        from the layer below's touched sets through the model's
        temporal reuse profile — numeric equality of two recurrent
        states would not certify equal *functions* of the parameters,
        the structural bound does.
        """
        state = self._layers.get(layer)
        if layer == 0:
            prev = state.entries.get(t - 1) if state else None
            if prev is None or x_now is None or \
                    prev.x.shape != x_now.shape:
                return _ALL
            if prev.x is x_now:  # static feature table across timesteps
                return _EMPTY
            return self._row_diff(prev.x, x_now)
        kind = self.temporal[layer - 1]
        if kind == "dense":
            return _ALL
        below = self._layers.get(layer - 1)
        if below is None:
            return _ALL
        if kind == "local":
            window = 1
        elif isinstance(kind, tuple) and kind[0] == "window":
            window = int(kind[1])
        else:
            raise ConfigError(f"unknown reuse profile entry {kind!r}")
        parts = []
        for k in range(max(1, t - window + 1), t + 1):
            entry = below.entries.get(k)
            if entry is None or entry.out_dirty is None:
                return _ALL
            parts.append(entry.out_dirty)
        return np.unique(np.concatenate(parts)) if parts else _EMPTY

    def _touched(self, layer: int, t: int, lap: SparseMatrix,
                 x_now: np.ndarray | None) -> tuple[np.ndarray | None,
                                                    np.ndarray | None]:
        """(output rows to recompute, input rows changed) for the
        ``t-1 → t`` transition.  ``(None, dirty_in)`` marks a known-but-
        too-large delta (the crossover pre-check: expansion can only
        grow the candidate set, so there is no point walking the
        frontier); ``(None, None)`` an unknown one."""
        seeds = self._seeds[t] if t < len(self._seeds) else None
        if seeds is None:
            return _ALL, _ALL
        dirty_in = self._input_dirty(layer, t, x_now)
        if dirty_in is None:
            return _ALL, _ALL
        cand = np.union1d(seeds, dirty_in)
        if len(cand) == 0:
            return _EMPTY, dirty_in
        if len(cand) > self.crossover * lap.shape[0]:
            return _ALL, dirty_in
        # one frontier hop — the serving tier's expansion specialized to
        # the directed operator: rows of Ã_t reading a changed column
        # are the in-edge sources of `cand` (plus the diagonal, i.e.
        # `cand` itself).  One O(E) boolean scan of the snapshot's edge
        # array, no transpose materialization.
        edges = self.snaps[t].edges
        if len(edges):
            mark = np.zeros(lap.shape[0], dtype=bool)
            mark[cand] = True
            readers = edges[mark[edges[:, 1]], 0]
            touched = np.union1d(cand, readers)
        else:
            touched = cand
        return touched, dirty_in

    # -- the kernel --------------------------------------------------------------
    def aggregate(self, layer: int, t: int, lap: SparseMatrix,
                  x) -> Tensor:
        """Layer-``layer`` aggregation ``lap @ x`` at global timestep
        ``t``, reusing/patching cached products whenever provably exact.
        """
        x = x if isinstance(x, Tensor) else Tensor(x)
        feat = x.shape[1]
        full_flops = 2.0 * lap.nnz * feat
        state = self._layers.setdefault(layer, _LayerState())
        known = t < len(self.laps) and lap is self.laps[t]

        # ---- memo: same (layer, t) operand seen before -------------------
        entry = state.entries.get(t) if known else None
        if entry is not None and entry.lap is lap and \
                self._operands_equal(entry.x, x.data):
            out = spmm_memo(lap, x, entry.product)
            bwd = full_flops if x.requires_grad else 0.0
            halo = self._memo_halo(state, layer, t, lap)
            self._record("memo", None, 0, 0.0, bwd, full_flops, halo)
            self.stats.memo_hits += 1
            self.stats.rows_reused += lap.shape[0]
            state.last_t, state.last_tensor = t, out
            return out

        # ---- patch: chain from the previous timestep's product -----------
        # a grad-requiring operand needs a grad-carrying parent for the
        # untouched rows' gradient to flow; without one, patching would
        # silently drop it — fall through to the full kernel instead
        if known and state.last_t == t - 1 and \
                state.last_tensor is not None and \
                state.last_tensor.data.shape == (lap.shape[0], feat) and \
                (not x.requires_grad or state.last_tensor.requires_grad):
            touched, dirty_in = self._touched(layer, t, lap, x.data)
            if touched is not None and \
                    len(touched) <= self.crossover * lap.shape[0]:
                parent = state.last_tensor
                out = spmm_patch(lap, x, touched, parent.data,
                                 parent=parent if parent.requires_grad
                                 else None)
                sub_nnz = int(lap.csr.indptr[touched + 1].sum()
                              - lap.csr.indptr[touched].sum()) \
                    if len(touched) else 0
                fwd = 2.0 * sub_nnz * feat
                bwd = fwd if x.requires_grad else 0.0
                state.entries[t] = _Entry(lap=lap, x=x.data,
                                          product=out.data,
                                          out_dirty=touched)
                self._record("patch", touched, sub_nnz, fwd, bwd,
                             full_flops, dirty_in)
                self.stats.patches += 1
                self.stats.rows_patched += len(touched)
                self.stats.rows_reused += lap.shape[0] - len(touched)
                state.last_t, state.last_tensor = t, out
                return out
            if dirty_in is not None:
                # known delta, too large to pay off: full SpMM, but the
                # halo exchange still only needs the changed input rows
                self.stats.crossover_fallbacks += 1
                return self._full(state, layer, t, lap, x, full_flops,
                                  out_dirty=_ALL, halo=dirty_in,
                                  known=known)

        # ---- full SpMM ---------------------------------------------------
        return self._full(state, layer, t, lap, x, full_flops,
                          out_dirty=_ALL, halo=_ALL, known=known)

    def _memo_halo(self, state: _LayerState, layer: int, t: int,
                   lap: SparseMatrix) -> np.ndarray | None:
        """Input rows a mirror must still receive on a memo hit: the
        rows that changed vs the previous timestep (derivable only when
        the chain context is live)."""
        if state.last_t != t - 1:
            return _ALL
        entry = state.entries.get(t)
        return self._input_dirty(layer, t,
                                 entry.x if entry is not None else None)

    def _full(self, state: _LayerState, layer: int, t: int,
              lap: SparseMatrix, x: Tensor, full_flops: float, *,
              out_dirty, halo, known: bool) -> Tensor:
        out = spmm(lap, x)
        bwd = full_flops if x.requires_grad else 0.0
        if known:
            state.entries[t] = _Entry(lap=lap, x=x.data, product=out.data,
                                      out_dirty=out_dirty)
            state.last_t, state.last_tensor = t, out
        self._record("full", None, int(lap.nnz), full_flops, bwd,
                     full_flops, halo)
        self.stats.full_spmm += 1
        return out

    def _record(self, mode: str, rows, sub_nnz: int, fwd: float,
                bwd: float, full: float, halo) -> None:
        self.last_call = AggregateCall(
            mode=mode, rows=rows, sub_nnz=sub_nnz, forward_flops=fwd,
            backward_flops=bwd, full_flops=full, halo_rows=halo)
        self.stats.calls += 1
        self.stats.forward_flops += fwd
        self.stats.backward_flops += bwd
        self.stats.full_equivalent_flops += full

    # -- cost-model helpers -------------------------------------------------------
    @staticmethod
    def rank_sparse_flops(call: AggregateCall, lap: SparseMatrix,
                          ranges) -> np.ndarray:
        """Split a call's (forward + estimated backward) sparse FLOPs
        across contiguous row ranges of a partitioned execution —
        proportional to each range's share of the nnz actually
        multiplied, so delta-aware ranks are charged only for the rows
        they recompute."""
        total = call.forward_flops + call.backward_flops
        out = np.zeros(len(ranges))
        if total <= 0.0:
            return out
        indptr = lap.csr.indptr
        if call.rows is None:
            shares = np.array([float(indptr[hi] - indptr[lo])
                               for lo, hi in ranges])
            denom = float(lap.nnz)
        else:
            rows = call.rows
            row_nnz = (indptr[rows + 1] - indptr[rows]).astype(np.float64)
            bounds = np.array([lo for lo, _ in ranges] +
                              [ranges[-1][1]], dtype=np.int64)
            owner = np.clip(np.searchsorted(bounds, rows, side="right") - 1,
                            0, len(ranges) - 1)
            shares = np.bincount(owner, weights=row_nnz,
                                 minlength=len(ranges))
            denom = float(call.sub_nnz)
        if denom > 0:
            out = shares / denom * total
        return out
