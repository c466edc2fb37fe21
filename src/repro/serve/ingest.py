"""Live edge-event ingestion into a resident snapshot.

:class:`StreamIngestor` keeps the serving tier's resident graph: each
:meth:`~StreamIngestor.commit` folds one batch of edge events (payments,
new links, retractions) into the resident
:class:`~repro.graph.snapshot.GraphSnapshot` by building and applying a
:class:`~repro.graph.diff.SnapshotDiff` — the same GD delta machinery
the trainer uses for CPU→GPU transfer (paper §3.2), pointed at
a new job: keeping a server's resident graph current.

Each commit also names its **dirty vertices** (``IngestResult.dirty``):
every vertex incident to an edge the batch touched.  The embedding
cache expands this seed set by the model depth to decide which rows of
the model state must be recomputed.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import compress
from typing import Iterable, Sequence

import numpy as np

from repro.errors import ConfigError, DatasetError
from repro.graph.diff import (SnapshotDiff, diff_snapshots, edge_checksum,
                              fold_delta)
from repro.graph.snapshot import GraphSnapshot, sorted_unique

__all__ = ["EdgeEvent", "IngestResult", "StreamIngestor",
           "events_between", "fold_event_batch"]


@dataclass(frozen=True, slots=True)
class EdgeEvent:
    """One live graph mutation.

    ``op`` is ``"add"`` or ``"remove"``.  Adding an edge that already
    exists accumulates its value (repeated transactions between the same
    accounts add up, matching how AML-Sim snapshots merge duplicates);
    removing an edge that is absent is a no-op.  Slotted: a stream holds
    events by the ten thousand, and a per-instance ``__dict__`` would
    add a fifth to each one's size.
    """

    src: int
    dst: int
    op: str = "add"
    value: float = 1.0

    def __post_init__(self) -> None:
        if self.op not in ("add", "remove"):
            raise ConfigError(f"unknown edge-event op {self.op!r}")


def fold_event_batch(snapshot: GraphSnapshot, events: Iterable[EdgeEvent]
                     ) -> tuple[GraphSnapshot, np.ndarray, SnapshotDiff]:
    """Fold an event batch into a snapshot; returns the new snapshot,
    the sorted touched-vertex array and the GD delta between the two.

    This is THE event-fold semantics — repeated adds accumulate, a
    removal drops the base edge *and* any adds buffered before it
    (making remove+add an exact value replacement), removing an absent
    edge is a no-op — shared by the live :class:`StreamIngestor` and
    the temporal store's WAL replay (:mod:`repro.store.codec`), which
    must reconstruct bit-identical snapshots from the same batches.

    The reduced batch names exactly which keys leave, enter or change
    value, so :func:`~repro.graph.diff.fold_delta` advances the snapshot
    by one sorted-key merge and writes the delta down in the same pass:
    O(delta · log E) plus the splice, with no sort of the graph and no
    snapshot-to-snapshot diff.

    A batch with an endpoint that is not an integer, or one that would
    write an edge value that is not finite, raises
    :class:`~repro.errors.DatasetError` before anything moves.

    The batch is read once into columns (endpoints, op, add values) and
    reduced in numpy: each key's last remove by ``maximum.at``, the
    adds after it summed by ``add.at``, which is unbuffered and applies
    them in event order — the same left-to-right float sum, from
    ``0.0``, as a per-event dict fold, bit for bit.
    """
    n = snapshot.num_vertices
    events = events if isinstance(events, Sequence) else list(events)
    src, dst = _endpoint_columns([e.src for e in events],
                                 [e.dst for e in events], n)
    is_add = np.array([e.op == "add" for e in events], dtype=bool)
    # a remove's value is never read (nor converted)
    values = np.array([e.value for e in compress(events, is_add.tolist())],
                      dtype=np.float64)

    keys, at = np.unique(src * np.int64(n) + dst, return_inverse=True)
    order = np.arange(len(events), dtype=np.int64)
    last_remove = np.full(len(keys), -1, dtype=np.int64)
    np.maximum.at(last_remove, at[~is_add], order[~is_add])
    # the adds no later remove of their key dropped
    kept = order[is_add] > last_remove[at[is_add]]
    add_at = at[is_add][kept]
    sums = np.zeros(len(keys), dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        # a non-finite sum is fold_delta's to reject
        np.add.at(sums, add_at, values[kept])
    added = np.zeros(len(keys), dtype=bool)
    added[add_at] = True
    curr, diff = fold_delta(snapshot, keys[last_remove >= 0], keys[added],
                            sums[added])
    return curr, sorted_unique(np.concatenate((src, dst))), diff


def _endpoint_columns(src: list, dst: list, n: int
                      ) -> tuple[np.ndarray, np.ndarray]:
    """The endpoint columns as int64 arrays, every endpoint checked to
    be an integer vertex id in ``[0, n)``.  Validated on the arrays;
    only a batch that fails the check is walked event by event, to
    raise for the first offending event in batch order."""
    try:
        cols = np.array(src), np.array(dst)
    except (TypeError, ValueError, OverflowError):
        cols = None
    # an all-bool column takes the walk, where Python bools pass and
    # numpy bools do not (numpy casts either to int inside an int column)
    if cols is not None and all(
            col.dtype.kind in "iu" and col.shape == (len(src),)
            for col in cols):
        cols = tuple(col.astype(np.int64, copy=False) for col in cols)
        if not len(src) or (min(cols[0].min(), cols[1].min()) >= 0
                            and max(cols[0].max(), cols[1].max()) < n):
            return cols
    for raw in zip(src, dst):
        try:
            pair = operator.index(raw[0]), operator.index(raw[1])
        except TypeError:
            raise DatasetError(f"event endpoint {raw} is not an integer "
                               f"vertex id") from None
        if not (0 <= pair[0] < n and 0 <= pair[1] < n):
            raise DatasetError(f"event endpoint {pair} outside the "
                               f"vertex set of size {n}")
    # every endpoint is valid: Python bools, or objects with __index__
    # numpy would not type
    return tuple(np.array([operator.index(v) for v in col], dtype=np.int64)
                 for col in (src, dst))


@dataclass(frozen=True)
class IngestResult:
    """Outcome of one :meth:`StreamIngestor.commit`."""

    snapshot: GraphSnapshot        # the new resident snapshot
    diff: SnapshotDiff             # GD delta prev → new (wire format)
    dirty: np.ndarray              # vertices incident to changed edges
    num_events: int                # events folded by this commit

    @property
    def payload_nbytes(self) -> int:
        """Wire bytes the delta would cost under GD (§3.2 accounting)."""
        return self.diff.payload_nbytes


class StreamIngestor:
    """Folds edge events into a resident snapshot via GD deltas.

    Parameters
    ----------
    snapshot:
        The initial resident graph (e.g. the last training snapshot).
    """

    def __init__(self, snapshot: GraphSnapshot) -> None:
        self._resident = snapshot
        self.total_events = 0
        self.total_commits = 0
        self.total_payload_nbytes = 0

    # -- state ---------------------------------------------------------------------
    @property
    def resident(self) -> GraphSnapshot:
        return self._resident

    def rebase(self, snapshot: GraphSnapshot) -> None:
        """Swap the resident snapshot wholesale (e.g. a periodic resync
        from an authoritative store)."""
        if snapshot.num_vertices != self._resident.num_vertices:
            raise DatasetError("rebase must keep the vertex set fixed")
        self._resident = snapshot

    # -- commit ------------------------------------------------------------------------
    def commit(self, events: Sequence[EdgeEvent] = (),
               folded: tuple | None = None) -> IngestResult:
        """Fold the batch ``events`` into the resident snapshot.

        The new snapshot is materialized, the transition is encoded as a
        :class:`SnapshotDiff` (checksummed against the old resident, so
        the wire format stays replayable to any mirror holding the same
        base), and the touched endpoints are returned as ``dirty``.
        ``folded`` is ``fold_event_batch(resident, events)`` when the
        caller already computed it (a serving tier folds once, logs the
        batch, then commits; a WAL replay hands over its own fold): it
        is adopted instead of folding again, once its delta's base
        checksum proves it was folded over this resident.  The fold
        validates every event, so a bad endpoint raises
        :class:`~repro.errors.DatasetError` before anything moves.
        """
        prev = self._resident
        if not events:  # nothing changed: O(1), the resident stays
            empty = np.empty(0, dtype=np.int64)
            diff = SnapshotDiff(removed=empty.reshape(0, 2),
                                added=empty.reshape(0, 2),
                                added_values=np.empty(0),
                                changed_pos=empty,
                                changed_values=np.empty(0),
                                base_checksum=edge_checksum(prev),
                                nnz=prev.num_edges)
            return IngestResult(prev, diff, empty, 0)

        # the fold hands back the transition in the GD wire format — what
        # a remote mirror holding the same base replays
        if folded is None:
            folded = fold_event_batch(prev, events)
        elif folded[2].base_checksum != edge_checksum(prev):
            raise DatasetError("event batch was folded over a graph that "
                               "is not the resident")
        curr, dirty, diff = folded
        self._resident = curr
        self.total_events += len(events)
        self.total_commits += 1
        self.total_payload_nbytes += diff.payload_nbytes
        return IngestResult(curr, diff, dirty, len(events))


def events_between(prev: GraphSnapshot,
                   curr: GraphSnapshot) -> list[EdgeEvent]:
    """Express a snapshot transition as an edge-event list.

    Used by stream replays: a recorded DTDG timeline is turned back into
    the event stream a live system would have observed.  Topology changes
    become add/remove events; common edges whose value changed become a
    remove+add pair so the replayed resident matches ``curr`` exactly.
    """
    diff = diff_snapshots(prev, curr)
    events = [EdgeEvent(int(u), int(v), "remove") for u, v in diff.removed]
    events += [EdgeEvent(int(u), int(v), "add", float(value))
               for (u, v), value in zip(diff.added, diff.added_values)]
    # common edges whose value changed (compared exactly: edge values are
    # transaction amounts/counts, and a tolerance here would let the
    # replayed resident silently drift)
    for (u, v), value in zip(curr.edges[diff.changed_pos],
                             diff.changed_values):
        events.append(EdgeEvent(int(u), int(v), "remove"))
        events.append(EdgeEvent(int(u), int(v), "add", float(value)))
    return events
