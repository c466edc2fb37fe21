"""Incremental maintenance of the normalized Laplacian (Eq. 1).

The paper's graph-difference technique (§3.2) ships only the edges that
changed between consecutive snapshots — yet rebuilding the GCN operator

    Ã = D^{-1/2} · (A + I) · D^{-1/2},   D[u, u] = 1 + max(deg_out, deg_in)

from scratch at every timestep costs a cascade of sparse-algebra
allocations regardless of how small the delta was.  Instant Graph
Neural Networks (Zheng et al.) and ReInc (Guan et al.) both observe
that *operator maintenance* — updating only the rows and columns a
delta actually touches — is the dominant lever for dynamic-GNN
throughput.  :class:`LaplacianMaintainer` is that lever for this
codebase: it keeps a resident ``Ã`` and applies a
:class:`~repro.graph.diff.SnapshotDiff` by

1. recomputing degree deltas only for the touched endpoints (bincounts
   over the delta, not the graph),
2. structurally deleting/inserting exactly the diffed entries in the
   sorted CSR key representation (one shared-mask splice, no re-sort),
3. re-scaling only the entries whose row or column normalization
   ``D^{-1/2}`` changed, whose stored weight changed, or that were just
   inserted.

A diff carries the added edges' values and the positions and values of
the common edges whose weight changed, so the whole update runs in
O(delta + touched) plus the memcpy-class splice, whichever producer
built the diff (event fold, snapshot diff, store decode).

Every recomputed entry is evaluated with the *same* floating-point
expression the full rebuild uses (``(w · dinv_u) · dinv_v``), so the
maintained operator is bit-compatible with
:func:`~repro.graph.laplacian.laplacian_from_adjacency` — not merely
close.  Any inconsistency between the diff and the resident state
(wrong base checksum, an edge removed that is not present, entry
counts that do not reproduce the new snapshot) triggers a
checksum-guarded fallback to a full rebuild instead of silently
corrupting the operator.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.errors import DatasetError
from repro.graph.diff import (SnapshotDiff, _keys as _ekeys, _mix,
                              _read_delta)
from repro.graph.snapshot import GraphSnapshot, sorted_unique
from repro.tensor.backend import KernelBackend, resolve_backend
from repro.tensor.sparse import SparseMatrix

__all__ = ["LaplacianMaintainer", "diff_touched_vertices"]

_EMPTY_I = np.empty(0, dtype=np.int64)
_EMPTY_F = np.empty(0, dtype=np.float64)


class _Inconsistent(Exception):
    """Internal: the diff does not apply to the resident state."""


def _range_positions(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenated ``arange(starts[i], starts[i]+counts[i])`` ranges."""
    total = int(counts.sum())
    if total == 0:
        return _EMPTY_I
    rep_starts = np.repeat(starts, counts)
    offsets = np.arange(total, dtype=np.int64) \
        - np.repeat(np.cumsum(counts) - counts, counts)
    return rep_starts + offsets


def diff_touched_vertices(diff: SnapshotDiff,
                          curr: GraphSnapshot) -> np.ndarray:
    """Endpoints of every edge the transition structurally changed or
    re-weighted — the delta seed set from which the training tier's
    cross-timestep reuse (and the serving tier's invalidation) expand.

    Vertices incident to added or removed edges come from the diff's
    edge lists; vertices incident to value-changed common edges from
    its changed positions in ``curr``, the snapshot the diff produces.
    """
    if diff.nnz != curr.num_edges:
        raise DatasetError(f"diff produces {diff.nnz} edges, snapshot "
                           f"holds {curr.num_edges}")
    changed = curr.edges[np.asarray(diff.changed_pos, dtype=np.int64)]
    return sorted_unique(np.concatenate([
        np.asarray(edges, dtype=np.int64).reshape(-1)
        for edges in (diff.removed, diff.added, changed)]))


class LaplacianMaintainer:
    """Holds a resident ``Ã`` and applies GD deltas to it in place.

    Parameters
    ----------
    snapshot:
        The initial resident graph; ``Ã_0`` is built in full once.
    backend:
        Kernel backend (name or instance) the maintainer's
        degree/splice/rescale primitives — and every matrix it installs
        or exports — run on; ``None`` applies the selection precedence
        (``REPRO_KERNEL_BACKEND`` env, then ``reference``).

    Notes
    -----
    :attr:`laplacian` is a **live view**: its arrays are updated (and
    for structural deltas, replaced) by the next :meth:`update` call.
    Callers that need a frozen operator per timestep (e.g. training
    preprocessing, which accumulates one per snapshot) must use
    :meth:`export`.
    """

    def __init__(self, snapshot: GraphSnapshot, *,
                 backend: str | KernelBackend | None = None) -> None:
        self.backend = resolve_backend(backend)
        self.updates = 0
        self.incremental_updates = 0
        self.full_rebuilds = 0
        self.fallbacks = 0
        self._lap: SparseMatrix | None = None
        self._rebuild(snapshot)

    # -- views ----------------------------------------------------------------------
    @property
    def resident(self) -> GraphSnapshot:
        return self._snapshot

    @property
    def laplacian(self) -> SparseMatrix:
        """The maintained ``Ã`` (live view — see class notes)."""
        return self._lap

    @property
    def dinv(self) -> np.ndarray:
        """The maintained ``D^{-1/2}`` diagonal (live view)."""
        return self._dinv

    @property
    def degree_features(self) -> np.ndarray:
        """``(N, 2)`` float64 ``[in-degree, out-degree]`` of the
        resident graph, from the maintained counts (a fresh array)."""
        return np.stack([self._col_nnz, self._row_nnz],
                        axis=1).astype(np.float64)

    @property
    def base_checksum(self) -> int:
        """Integrity token of the resident edge set, maintained in
        O(delta); equals ``diff._checksum(resident.edges, n)``."""
        if self._edge_count == 0:
            return 0
        return (self._mix_acc + self._edge_count) & 0x7FFFFFFFFFFFFFFF

    def export(self) -> SparseMatrix:
        """An independent copy of the current ``Ã`` (frozen arrays)."""
        return SparseMatrix(self._csr(self._data.copy(),
                                      self._cols.copy(),
                                      self._indptr.copy()),
                            backend=self.backend)

    # -- construction helpers --------------------------------------------------------
    def _csr(self, data, indices, indptr) -> sp.csr_matrix:
        """CSR assembly without scipy's validation/canonicalization
        scans — the key representation guarantees sorted,
        duplicate-free int64 indices."""
        mat = sp.csr_matrix.__new__(sp.csr_matrix)
        mat.data = data
        mat.indices = indices
        mat.indptr = indptr
        mat._shape = (self._n, self._n)
        mat.has_sorted_indices = True
        mat.has_canonical_format = True
        return mat

    def _install(self) -> None:
        """(Re)point the live view at the current arrays."""
        if self._lap is None:
            self._lap = SparseMatrix(self._csr(self._data, self._cols,
                                               self._indptr),
                                     backend=self.backend)
        else:
            csr = self._lap.csr
            csr.data = self._data
            csr.indices = self._cols
            csr.indptr = self._indptr
            csr.has_sorted_indices = True
            csr.has_canonical_format = True
            self._lap._csr_t = None  # any cached transpose is stale

    # -- full rebuild ----------------------------------------------------------------
    def _rebuild(self, snapshot: GraphSnapshot) -> SparseMatrix:
        """Build ``Ã`` from scratch (initial install and fallback)."""
        n = snapshot.num_vertices
        edges = snapshot.edges
        kb = self.backend
        self._n = n
        self._row_nnz = kb.degree_counts(edges[:, 0], n) \
            if len(edges) else np.zeros(n, dtype=np.int64)
        self._col_nnz = kb.degree_counts(edges[:, 1], n) \
            if len(edges) else np.zeros(n, dtype=np.int64)
        self._neighbors = np.maximum(self._row_nnz, self._col_nnz)
        self._dinv = 1.0 / np.sqrt(1.0 + self._neighbors)

        # resident-edge bookkeeping, all maintained in O(delta) later
        edge_keys = _ekeys(edges, n) if len(edges) else _EMPTY_I
        self._edge_count = len(edges)
        self._mix_acc = _mix(edge_keys)
        self._num_loops = int((edges[:, 0] == edges[:, 1]).sum()) \
            if len(edges) else 0

        # merge the edge list with the identity diagonal into the sorted
        # key representation of A + I
        diag_keys = np.arange(n, dtype=np.int64) * np.int64(n + 1)
        if len(edges):
            all_keys = np.concatenate([edge_keys, diag_keys])
            all_w = np.concatenate([snapshot.values,
                                    np.ones(n, dtype=np.float64)])
            order = np.argsort(all_keys, kind="stable")
            sk = all_keys[order]
            sw = all_w[order]
            first = np.ones(len(sk), dtype=bool)
            first[1:] = sk[1:] != sk[:-1]
            self._keys = sk[first]
            # duplicate keys are self-loops merging with the identity
            self._w = np.add.reduceat(sw, np.flatnonzero(first))
        else:
            self._keys = diag_keys
            self._w = np.ones(n, dtype=np.float64)
        rows = self._keys // n
        self._cols = self._keys - rows * n
        self._row_counts = kb.degree_counts(rows, n)
        self._rebuild_indptr()
        self._data = (self._w * self._dinv[rows]) * self._dinv[self._cols]
        self._snapshot = snapshot
        self.full_rebuilds += 1
        self._install()
        return self._lap

    def _rebuild_indptr(self) -> None:
        self._indptr = np.zeros(self._n + 1, dtype=np.int64)
        np.cumsum(self._row_counts, out=self._indptr[1:])

    # -- incremental update ----------------------------------------------------------
    def update(self, curr: GraphSnapshot,
               diff: SnapshotDiff | None = None) -> SparseMatrix:
        """Advance the resident ``Ã`` to snapshot ``curr``.

        With a ``diff`` that verifiably applies to the resident base
        the update is incremental — O(delta) degree and structure work
        plus a rescale of the touched entries; otherwise —
        ``diff=None``, a base-checksum mismatch, or any structural
        inconsistency — the operator is rebuilt in full.
        """
        if curr.num_vertices != self._n:
            raise DatasetError("maintainer requires a fixed vertex set")
        self.updates += 1
        if curr is self._snapshot:
            return self._lap  # advance over an unchanged resident
        if diff is None:
            return self._rebuild(curr)
        if diff.base_checksum != -1 and \
                diff.base_checksum != self.base_checksum:
            self.fallbacks += 1
            return self._rebuild(curr)
        removed = np.asarray(diff.removed, dtype=np.int64).reshape(-1, 2)
        added = np.asarray(diff.added, dtype=np.int64).reshape(-1, 2)
        if self._edge_count - len(removed) + len(added) \
                != curr.num_edges or diff.nnz != curr.num_edges:
            self.fallbacks += 1
            return self._rebuild(curr)
        try:
            self._apply(curr, diff, removed, added)
        except _Inconsistent:
            self.fallbacks += 1
            return self._rebuild(curr)
        self.incremental_updates += 1
        self._snapshot = curr
        self._install()
        return self._lap

    def _apply(self, curr: GraphSnapshot, diff: SnapshotDiff,
               removed: np.ndarray, added: np.ndarray) -> None:
        n = self._n
        try:
            rm_keys, ad_keys, ad_vals, chg_pos, chg_vals = \
                _read_delta(diff, n, curr.num_edges)
        except DatasetError:
            raise _Inconsistent from None
        chg_keys = _ekeys(curr.edges[chg_pos], n)

        # -- 1. degree deltas: touched endpoints only ---------------------------
        kb = self.backend
        if len(removed):
            self._row_nnz -= kb.degree_counts(removed[:, 0], n)
            self._col_nnz -= kb.degree_counts(removed[:, 1], n)
        if len(added):
            self._row_nnz += kb.degree_counts(added[:, 0], n)
            self._col_nnz += kb.degree_counts(added[:, 1], n)
        neighbors = np.maximum(self._row_nnz, self._col_nnz)
        deg_changed = neighbors != self._neighbors
        self._neighbors = neighbors
        any_deg = bool(deg_changed.any())
        if any_deg:
            self._dinv[deg_changed] = \
                1.0 / np.sqrt(1.0 + neighbors[deg_changed])

        # -- 2. split diagonal from off-diagonal work ---------------------------
        # A self-loop shares its Ã entry with the identity diagonal, so
        # diagonal adds/removes are weight updates, not structural ones.
        def _dmask(keys: np.ndarray) -> np.ndarray:
            return keys % np.int64(n + 1) == 0

        rm_d = _dmask(rm_keys) if len(rm_keys) else None
        ad_d = _dmask(ad_keys) if len(ad_keys) else None
        chg_d = _dmask(chg_keys) if len(chg_keys) else None
        rm_off_keys = rm_keys[~rm_d] if rm_d is not None else _EMPTY_I
        ad_off_keys = ad_keys[~ad_d] if ad_d is not None else _EMPTY_I
        rm_loops = int(rm_d.sum()) if rm_d is not None else 0
        ad_loops = int(ad_d.sum()) if ad_d is not None else 0

        # -- 3. structural splice (shared masks across the arrays) --------------
        keys, w, data, cols = self._keys, self._w, self._data, self._cols
        structural = bool(len(rm_off_keys) or len(ad_off_keys))
        new_pos = _EMPTY_I
        if structural:
            if len(rm_off_keys):
                pos = np.searchsorted(keys, rm_off_keys)
                if not (keys[np.minimum(pos, len(keys) - 1)]
                        == rm_off_keys).all():
                    raise _Inconsistent
                self._row_counts -= kb.degree_counts(rm_off_keys // n, n)
                keys, w, data, cols = kb.splice_delete(
                    (keys, w, data, cols), pos)
            if len(ad_off_keys):
                ins = np.searchsorted(keys, ad_off_keys)
                present = ins < len(keys)
                if present.any() and \
                        (keys[np.minimum(ins, len(keys) - 1)][present]
                         == ad_off_keys[present]).any():
                    raise _Inconsistent
                ad_rows = ad_off_keys // n
                self._row_counts += kb.degree_counts(ad_rows, n)
                ad_off_vals = ad_vals[~ad_d] if ad_d is not None \
                    else _EMPTY_F
                (keys, w, data, cols), new_pos = kb.splice_insert(
                    (keys, w, data, cols), ins,
                    (ad_off_keys, ad_off_vals,
                     np.zeros(len(ad_off_keys)),
                     ad_off_keys - ad_rows * n))
            self._keys, self._w, self._data, self._cols = \
                keys, w, data, cols
            self._rebuild_indptr()

        # the structural invariant: nnz(A+I) = nnz(A) + N − #self-loops
        loops = self._num_loops - rm_loops + ad_loops
        if len(keys) != curr.num_edges + n - loops:
            raise _Inconsistent

        # -- 4. targeted weight writes ------------------------------------------
        recompute = [new_pos] if len(new_pos) else []
        upd_keys = []
        upd_vals = []
        if rm_loops:
            # the self-loop is gone; the identity contribution remains
            upd_keys.append(rm_keys[rm_d])
            upd_vals.append(np.ones(rm_loops))
        if ad_loops:
            upd_keys.append(ad_keys[ad_d])
            upd_vals.append(ad_vals[ad_d] + 1.0)
        if chg_d is not None:
            if chg_d.any():
                upd_keys.append(chg_keys[chg_d])
                upd_vals.append(chg_vals[chg_d] + 1.0)
            if (~chg_d).any():
                upd_keys.append(chg_keys[~chg_d])
                upd_vals.append(chg_vals[~chg_d])
        if upd_keys:
            uk = np.concatenate(upd_keys)
            pos = np.searchsorted(keys, uk)
            if not (keys[np.minimum(pos, len(keys) - 1)] == uk).all():
                raise _Inconsistent
            w[pos] = np.concatenate(upd_vals)
            recompute.append(pos)

        # -- 5. rescale only the affected entries -------------------------------
        pieces = recompute
        if any_deg:
            # all entries in a changed-degree vertex's rows (indptr
            # ranges, O(output)) and columns (one index-array gather)
            verts = np.flatnonzero(deg_changed)
            pieces = pieces + [
                _range_positions(self._indptr[verts],
                                 self._row_counts[verts]),
                np.flatnonzero(deg_changed[cols])]
        if pieces:
            pos = pieces[0] if len(pieces) == 1 else np.concatenate(pieces)
            if len(pos):
                kb.rescale(data, w, cols, self._indptr, pos, self._dinv)

        # -- 6. commit the resident edge bookkeeping ----------------------------
        self._edge_count = curr.num_edges
        self._mix_acc ^= _mix(rm_keys) ^ _mix(ad_keys)
        self._num_loops = loops
