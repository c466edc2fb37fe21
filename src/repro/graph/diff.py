"""Graph-difference snapshot encoding (paper §3.2) — core contribution.

Consecutive DTDG snapshots overlap heavily in topology.  Instead of
shipping snapshot ``A_{i+1}`` as full (index, value) pairs, the GD method
ships only:

* the indices of ``A_i^ext``   — edges in ``A_i`` but not ``A_{i+1}``,
* the indices of ``A_{i+1}^ext`` — edges in ``A_{i+1}`` but not ``A_i``,
* *all* values of ``A_{i+1}`` (values do not overlap even when topology
  does).

The receiver removes ``A_i^ext`` from its resident copy of ``A_i`` to get
the common part, then inserts ``A_{i+1}^ext`` to reconstruct ``A_{i+1}``'s
index structure, and attaches the freshly shipped values.

This module implements both directions plus the exact byte accounting the
transfer-time model consumes (index bytes are what GD saves).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import DatasetError
from repro.graph.snapshot import (GraphSnapshot, _edge_keys as _keys,
                                  _strictly_increasing)
from repro.tensor.sparse import INDEX_BYTES, VALUE_BYTES

__all__ = ["SnapshotDiff", "diff_snapshots", "apply_diff", "merge_delta",
           "fold_delta", "edge_checksum", "encode_sequence", "DiffDecoder",
           "sequence_transfer_stats", "split_diff_by_blocks"]


@dataclass(frozen=True)
class SnapshotDiff:
    """The GD wire format for one snapshot transition ``A_i → A_{i+1}``.

    Attributes
    ----------
    removed:
        Canonical ``(r, 2)`` edges present in ``A_i`` but not ``A_{i+1}``.
    added:
        Canonical ``(a, 2)`` edges present in ``A_{i+1}`` but not ``A_i``.
    values:
        All ``A_{i+1}`` values, aligned with its canonical edge order.
    """

    removed: np.ndarray
    added: np.ndarray
    values: np.ndarray
    # cheap integrity token over the *base* snapshot's edge keys, so a
    # receiver applying the diff to the wrong resident snapshot fails fast
    # instead of silently reconstructing garbage
    base_checksum: int = -1
    # receiver-side acceleration, derived (redundant) data computed at
    # encode time where both aligned value arrays are in hand: positions
    # into the *new* snapshot's canonical order of (a) the added edges
    # (aligned with ``added``'s row order) and (b) the common edges whose
    # value changed.  Lets an incremental operator maintainer work in
    # O(delta) instead of re-deriving the changed values with an O(nnz)
    # alignment pass.  Not part of the §3.2 wire payload accounting.
    value_hint: tuple | None = None

    @property
    def payload_nbytes(self) -> int:
        """Bytes on the wire under GD (paper §3.2's transfer list)."""
        index_bytes = 2 * INDEX_BYTES * (len(self.removed) + len(self.added))
        return index_bytes + VALUE_BYTES * len(self.values)

    @property
    def naive_nbytes(self) -> int:
        """Bytes a naive (index, value) transfer of ``A_{i+1}`` would use."""
        return (2 * INDEX_BYTES + VALUE_BYTES) * len(self.values)

    @property
    def savings_ratio(self) -> float:
        """naive / GD byte ratio (≥ 1 when snapshots overlap)."""
        payload = self.payload_nbytes
        return self.naive_nbytes / payload if payload else float("inf")


def _unkeys(keys: np.ndarray, n: int) -> np.ndarray:
    return np.stack([keys // n, keys % n], axis=1)


def _mix(keys: np.ndarray) -> int:
    """XOR of the multiplicatively mixed keys — the commutative core of
    the checksum, so it is maintainable under set xor: the mix of the
    next edge set is ``mix ^ _mix(removed) ^ _mix(added)``."""
    if len(keys) == 0:
        return 0
    mixed = keys.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    return int(np.bitwise_xor.reduce(mixed))


def _seal(mix: int, count: int) -> int:
    return (mix + count) & 0x7FFFFFFFFFFFFFFF if count else 0


def _checksum(edges: np.ndarray, n: int) -> int:
    """Order-independent integrity token of an edge set."""
    return _seal(_mix(_keys(edges, n)), len(edges))


def edge_checksum(snapshot: GraphSnapshot) -> int:
    """``_checksum`` of a snapshot's edge set.  The mix is cached on the
    snapshot and carried forward by :func:`merge_delta`, so a resident
    that advances by deltas pays O(E) once and O(delta) per step."""
    if snapshot._mix is None:
        snapshot._mix = _mix(snapshot.keys)
    return _seal(snapshot._mix, snapshot.num_edges)


def _locate(keys: np.ndarray, queries: np.ndarray
            ) -> tuple[np.ndarray, np.ndarray]:
    """``searchsorted`` positions of ``queries`` in sorted ``keys`` and
    whether each query is present there."""
    pos = np.searchsorted(keys, queries)
    inside = pos < len(keys)
    hit = np.zeros(len(queries), dtype=bool)
    hit[inside] = keys[pos[inside]] == queries[inside]
    return pos, hit


def merge_delta(prev: GraphSnapshot, removed_keys: np.ndarray,
                added_keys: np.ndarray,
                added_values: np.ndarray | None = None,
                values: np.ndarray | None = None
                ) -> tuple[GraphSnapshot, np.ndarray, np.ndarray]:
    """Advance a canonical snapshot by a sorted-key delta — the only way
    a snapshot moves by a delta (event fold, :func:`apply_diff`, store
    decode alike).

    ``removed_keys`` (strictly increasing, all present in ``prev``) are
    spliced out and ``added_keys`` (strictly increasing, none left in
    ``prev`` after the removal) spliced in: two ``searchsorted`` and one
    fused delete+insert splice per array, always into fresh arrays.
    Nothing is sorted; the canonical order of the result is verified by
    the trusted constructor and a delta that does not apply raises
    :class:`DatasetError`.  Values are ``values`` when the caller holds
    the complete new array (GD wire format), else ``prev``'s with
    ``added_values`` spliced in.  The keys and the checksum mix are
    carried onto the result.

    Returns ``(curr, removed_pos, inserts)``: the removed positions in
    ``prev``'s order and the insertion offsets into the order left by
    the removal, which place any surviving edge (:func:`_moved`) and
    the added ones (``inserts + arange``) in ``curr``'s order.
    """
    n = prev.num_vertices
    keys = prev.keys
    removed_pos, present = _locate(keys, removed_keys)
    if not (_strictly_increasing(removed_keys) and present.all()
            and _strictly_increasing(added_keys)):
        raise DatasetError("delta does not apply: it removes an edge the "
                           "resident snapshot does not hold, or is not in "
                           "canonical order")
    inserts = np.searchsorted(keys, added_keys)
    inserts -= np.searchsorted(removed_pos, inserts)
    # one gather index shared by the parallel arrays, one take each
    keep = np.ones(len(keys), dtype=bool)
    keep[removed_pos] = False
    gather = np.insert(np.flatnonzero(keep), inserts,
                       len(keys) + np.arange(len(inserts), dtype=np.int64))

    def splice(old: np.ndarray, new: np.ndarray) -> np.ndarray:
        return np.concatenate([old, new]).take(gather, axis=0)

    curr = GraphSnapshot.from_canonical(
        n, splice(prev.edges, _unkeys(added_keys, n)),
        values if values is not None else splice(prev.values, added_values),
        splice(keys, added_keys))
    if prev._mix is not None:
        curr._mix = prev._mix ^ _mix(removed_keys) ^ _mix(added_keys)
    return curr, removed_pos, inserts


def _moved(pos: np.ndarray, removed_pos: np.ndarray,
           inserts: np.ndarray) -> np.ndarray:
    """Where the surviving edges at ``pos`` of the previous order sit in
    the order :func:`merge_delta` produced."""
    left = pos - np.searchsorted(removed_pos, pos)
    return left + np.searchsorted(inserts, left, side="right")


def _delta_keys(edges: np.ndarray, n: int) -> np.ndarray:
    """Sorted unique keys of a diff's (delta-sized) edge list."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if len(edges) and (edges.min() < 0 or edges.max() >= n):
        raise DatasetError("edge endpoint out of vertex range")
    keys = _keys(edges, n)
    return keys if _strictly_increasing(keys) else np.unique(keys)


def fold_delta(prev: GraphSnapshot, dropped: np.ndarray, adds: np.ndarray,
               add_values: np.ndarray) -> tuple[GraphSnapshot, SnapshotDiff]:
    """Advance ``prev`` by a reduced event batch and encode the
    transition in the same pass — what ``diff_snapshots(prev, curr)``
    would re-derive, bit for bit, without looking at the graph again.

    ``dropped`` and ``adds`` are the strictly increasing keys the batch
    removed and (afterwards) added, ``add_values`` the accumulated add
    values.  An add either lands on an edge that stays (it accumulates,
    or replaces the value when the batch dropped the edge first) or
    enters the topology; a drop leaves the topology unless the edge is
    absent or added back.  A value it would write that is not finite
    (a NaN, an infinity, an accumulation that overflows) raises
    :class:`DatasetError` before anything is built.
    """
    base_checksum = edge_checksum(prev)
    add_pos, stays = _locate(prev.keys, adds)
    replaced = _locate(dropped, adds)[1][stays]
    leaves = _locate(prev.keys, dropped)[1] & ~_locate(adds, dropped)[1]
    stay_pos = add_pos[stays]
    stay_vals = np.where(replaced, add_values[stays],
                         prev.values[stay_pos] + add_values[stays])
    changed = stay_vals != prev.values[stay_pos]
    enter_vals = add_values[~stays]
    if not np.isfinite(np.concatenate((enter_vals,
                                       stay_vals[changed]))).all():
        raise DatasetError("event batch writes an edge value that is not "
                           "finite")

    curr, removed_pos, inserts = merge_delta(
        prev, dropped[leaves], adds[~stays], enter_vals)
    added_pos = inserts + np.arange(len(inserts), dtype=np.int64)
    changed_pos = _moved(stay_pos[changed], removed_pos, inserts)
    curr.values[changed_pos] = stay_vals[changed]  # fresh array: ours
    return curr, SnapshotDiff(removed=prev.edges[removed_pos],
                              added=curr.edges[added_pos],
                              values=curr.values,
                              base_checksum=base_checksum,
                              value_hint=(added_pos, changed_pos))


def _changed_positions(prev: GraphSnapshot, curr: GraphSnapshot,
                       removed_pos: np.ndarray,
                       added_pos: np.ndarray) -> np.ndarray:
    """Positions in ``curr`` of the common edges whose value changed:
    common edges sit at identical offsets once the diffed positions are
    pruned from either side's canonical order (one O(E) compare)."""
    keep_prev = np.ones(prev.num_edges, dtype=bool)
    keep_prev[removed_pos] = False
    keep_curr = np.ones(curr.num_edges, dtype=bool)
    keep_curr[added_pos] = False
    changed = prev.values[keep_prev] != curr.values[keep_curr]
    return np.flatnonzero(keep_curr)[changed]


def diff_snapshots(prev: GraphSnapshot,
                   curr: GraphSnapshot) -> SnapshotDiff:
    """Encode the snapshot-to-snapshot transition ``prev → curr`` in GD
    wire format (sequence encoding, store appends, rebases; a live
    commit gets its diff from the event fold instead)."""
    if prev.num_vertices != curr.num_vertices:
        raise DatasetError("diff requires snapshots over the same vertices")
    n = prev.num_vertices
    prev_keys = _keys(prev.edges, n)
    curr_keys = _keys(curr.edges, n)
    removed_keys = np.setdiff1d(prev_keys, curr_keys, assume_unique=True)
    added_keys = np.setdiff1d(curr_keys, prev_keys, assume_unique=True)
    added_pos = np.searchsorted(curr_keys, added_keys)
    changed_pos = _changed_positions(
        prev, curr, np.searchsorted(prev_keys, removed_keys), added_pos)
    return SnapshotDiff(removed=_unkeys(removed_keys, n),
                        added=_unkeys(added_keys, n),
                        values=curr.values.copy(),
                        base_checksum=_seal(_mix(prev_keys), len(prev_keys)),
                        value_hint=(added_pos, changed_pos))


def apply_diff(prev: GraphSnapshot, diff: SnapshotDiff) -> GraphSnapshot:
    """Reconstruct ``A_{i+1}`` from a resident ``A_i`` plus a diff."""
    n = prev.num_vertices
    if diff.base_checksum != -1 and \
            diff.base_checksum != edge_checksum(prev):
        raise DatasetError(
            "diff does not apply: resident snapshot is not the base the "
            "diff was encoded against")
    removed_keys = _delta_keys(diff.removed, n)
    added_keys = _delta_keys(diff.added, n)
    values = np.asarray(diff.values, dtype=np.float64).reshape(-1)
    count = prev.num_edges - len(removed_keys) + len(added_keys)
    if count != len(values):
        raise DatasetError(
            f"diff reconstruction produced {count} edges for "
            f"{len(values)} values — prev snapshot mismatch?")
    return merge_delta(prev, removed_keys, added_keys, values=values)[0]


def encode_sequence(snapshots: Sequence[GraphSnapshot]
                    ) -> tuple[GraphSnapshot, list[SnapshotDiff]]:
    """Encode a block of snapshots: first full, the rest as diffs.

    Mirrors the checkpoint implementation (paper §3.2): "the first
    snapshot ``A_{s(b)}`` is transferred … using standard sparse matrix
    representation", subsequent ones via GD.
    """
    snapshots = list(snapshots)
    if not snapshots:
        raise DatasetError("cannot encode an empty snapshot sequence")
    diffs = [diff_snapshots(snapshots[i], snapshots[i + 1])
             for i in range(len(snapshots) - 1)]
    return snapshots[0], diffs


class DiffDecoder:
    """Receiver-side streaming state: holds the resident snapshot.

    The GPU in the paper keeps the previous snapshot while the block is
    being processed; this class plays that role in the simulator.
    """

    def __init__(self, first: GraphSnapshot) -> None:
        self._resident = first

    @property
    def resident(self) -> GraphSnapshot:
        return self._resident

    def push(self, diff: SnapshotDiff) -> GraphSnapshot:
        """Apply the next diff and advance the resident snapshot."""
        self._resident = apply_diff(self._resident, diff)
        return self._resident


@dataclass(frozen=True)
class SequenceTransferStats:
    """Aggregate byte accounting for a snapshot sequence under Base vs GD."""

    naive_nbytes: int
    gd_nbytes: int
    num_full: int
    num_diffs: int

    @property
    def savings_ratio(self) -> float:
        return self.naive_nbytes / self.gd_nbytes if self.gd_nbytes else 1.0


def sequence_transfer_stats(snapshots: Sequence[GraphSnapshot],
                            chunk: int | None = None
                            ) -> SequenceTransferStats:
    """Byte totals for transferring ``snapshots`` naively vs via GD.

    Parameters
    ----------
    chunk:
        Transfer-chunk length: the first snapshot of each chunk goes out
        full (paper: the first snapshot of each per-processor block).
        ``None`` means one chunk covering the whole sequence.
    """
    snapshots = list(snapshots)
    if chunk is None:
        chunk = len(snapshots)
    if chunk <= 0:
        raise DatasetError(f"chunk must be positive, got {chunk}")
    naive = sum(s.nbytes for s in snapshots)
    gd = 0
    num_full = 0
    num_diffs = 0
    for start in range(0, len(snapshots), chunk):
        block = snapshots[start:start + chunk]
        gd += block[0].nbytes
        num_full += 1
        for i in range(len(block) - 1):
            gd += diff_snapshots(block[i], block[i + 1]).payload_nbytes
            num_diffs += 1
    return SequenceTransferStats(naive_nbytes=naive, gd_nbytes=gd,
                                 num_full=num_full, num_diffs=num_diffs)


def split_diff_by_blocks(diff: SnapshotDiff, curr: GraphSnapshot,
                         owners: np.ndarray,
                         num_blocks: int | None = None
                         ) -> list[SnapshotDiff]:
    """Split a GD delta into per-vertex-block sub-deltas.

    ``owners`` maps each vertex to its block (shard).  Block ``b``'s
    sub-delta contains every removed/added edge *incident* to a vertex
    it owns plus the new values of ``curr``'s edges incident to it —
    exactly what a shard mirroring only its vertex block (and ghost
    fringe) needs to stay current.  An edge whose endpoints live in two
    different blocks appears in both sub-deltas; the duplication is the
    cross-shard delta traffic the sharded serving tier accounts for.

    Sub-deltas carry no base checksum (they do not apply against the
    full resident base); their summed ``payload_nbytes`` is the total
    wire cost of fanning the delta out to all shards.

    When the parent diff carries an encoder-side ``value_hint``, each
    sub-delta's hint is **re-indexed into the block-local value order**:
    hinted positions point into that block's ``values`` array (the
    incident edges of ``curr`` in canonical order), never into the
    whole-graph canonical order — whole-graph positions in a shard-local
    diff would silently address the wrong edges.  A hint-less parent
    yields hint-less sub-deltas (the consumers' aligned fallback is
    exact either way).
    """
    owners = np.asarray(owners, dtype=np.int64)
    if len(owners) != curr.num_vertices:
        raise DatasetError(
            f"owners maps {len(owners)} vertices, snapshot has "
            f"{curr.num_vertices}")
    blocks = int(owners.max()) + 1 if num_blocks is None else num_blocks
    if len(owners) and (owners.min() < 0 or owners.max() >= blocks):
        raise DatasetError("owner block ids out of range")

    removed = np.asarray(diff.removed, dtype=np.int64).reshape(-1, 2)
    added = np.asarray(diff.added, dtype=np.int64).reshape(-1, 2)
    if diff.value_hint is not None:
        added_pos = np.asarray(diff.value_hint[0], dtype=np.int64)
        changed_pos = np.asarray(diff.value_hint[1], dtype=np.int64)
    else:
        added_pos = changed_pos = None

    def incident_mask(edges: np.ndarray, b: int) -> np.ndarray:
        return (owners[edges[:, 0]] == b) | (owners[edges[:, 1]] == b)

    out = []
    for b in range(blocks):
        if curr.num_edges:
            vmask = incident_mask(curr.edges, b)
            values = curr.values[vmask]
        else:
            vmask = np.zeros(0, dtype=bool)
            values = curr.values[:0]
        rmask = incident_mask(removed, b) if len(removed) \
            else np.zeros(0, dtype=bool)
        amask = incident_mask(added, b) if len(added) \
            else np.zeros(0, dtype=bool)
        hint = None
        if added_pos is not None:
            # global canonical position -> position within this block's
            # value array (the incident edges of curr, in order)
            local_of_global = np.cumsum(vmask) - 1
            sub_added_pos = local_of_global[added_pos[amask]] \
                if amask.any() else added_pos[:0]
            if len(changed_pos):
                cmask = vmask[changed_pos]
                sub_changed_pos = local_of_global[changed_pos[cmask]]
            else:
                sub_changed_pos = changed_pos[:0]
            hint = (sub_added_pos, sub_changed_pos)
        out.append(SnapshotDiff(removed=removed[rmask],
                                added=added[amask],
                                values=values,
                                value_hint=hint))
    return out
