"""Live edge-event ingestion into a resident snapshot.

:class:`StreamIngestor` is the front door of the serving subsystem: it
accepts individual edge events (a payment, a new link, a retraction),
buffers them, and on :meth:`commit` folds the pending batch into the
resident :class:`~repro.graph.snapshot.GraphSnapshot` by building and
applying a :class:`~repro.graph.diff.SnapshotDiff` — the same GD delta
machinery the trainer uses for CPU→GPU transfer (paper §3.2), pointed at
a new job: keeping a server's resident graph current.

Alongside the snapshot the ingestor maintains the **dirty-vertex
frontier**: every vertex incident to an edge that changed since the
frontier was last consumed.  The embedding cache expands this seed set
by k hops to decide which rows of the model state must be recomputed.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.errors import ConfigError, DatasetError
from repro.graph.diff import (SnapshotDiff, diff_snapshots, edge_checksum,
                              fold_delta)
from repro.graph.snapshot import GraphSnapshot

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
    """
    n = snapshot.num_vertices
    add_value: dict[int, float] = {}
    removed: set[int] = set()
    touched: set[int] = set()
    for event in events:
        try:
            src, dst = operator.index(event.src), operator.index(event.dst)
        except TypeError:
            raise DatasetError(f"event endpoint {(event.src, event.dst)} "
                               f"is not an integer vertex id") from None
        if not (0 <= src < n and 0 <= dst < n):
            raise DatasetError(f"event endpoint {(src, dst)} outside the "
                               f"vertex set of size {n}")
        touched.add(src)
        touched.add(dst)
        key = src * n + dst
        if event.op == "add":
            add_value[key] = add_value.get(key, 0.0) + event.value
        else:
            add_value.pop(key, None)
            removed.add(key)

    adds = sorted(add_value.items())
    curr, diff = fold_delta(
        snapshot, np.array(sorted(removed), dtype=np.int64),
        np.array([key for key, _ in adds], dtype=np.int64),
        np.array([value for _, value in adds], dtype=np.float64))
    return curr, np.array(sorted(touched), dtype=np.int64), diff


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
        self._pending: list[EdgeEvent] = []
        # one flag per vertex: a long-lived server touches most of the
        # graph, and a set of boxed ints would cost ~100 bytes a vertex
        self._frontier = np.zeros(snapshot.num_vertices, dtype=bool)
        self.total_events = 0
        self.total_commits = 0
        self.total_payload_nbytes = 0

    # -- state ---------------------------------------------------------------------
    @property
    def resident(self) -> GraphSnapshot:
        return self._resident

    @property
    def num_pending(self) -> int:
        return len(self._pending)

    @property
    def frontier(self) -> np.ndarray:
        """Dirty vertices accumulated since :meth:`take_frontier`."""
        return np.flatnonzero(self._frontier)

    def take_frontier(self) -> np.ndarray:
        """Return and clear the accumulated dirty-vertex frontier."""
        out = self.frontier
        self._frontier[out] = False
        return out

    def rebase(self, snapshot: GraphSnapshot) -> None:
        """Swap the resident snapshot wholesale (e.g. a periodic resync
        from an authoritative store).  Pending events are kept and will
        apply against the new base on the next commit."""
        if snapshot.num_vertices != self._resident.num_vertices:
            raise DatasetError("rebase must keep the vertex set fixed")
        self._resident = snapshot

    # -- event intake ----------------------------------------------------------------
    def push(self, event: EdgeEvent) -> None:
        n = self._resident.num_vertices
        if not (0 <= event.src < n and 0 <= event.dst < n):
            raise DatasetError(
                f"event endpoint ({event.src}, {event.dst}) outside the "
                f"resident vertex set of size {n}")
        self._pending.append(event)

    def push_batch(self, events: Iterable[EdgeEvent]) -> int:
        count = 0
        for event in events:
            self.push(event)
            count += 1
        return count

    # -- commit ------------------------------------------------------------------------
    def commit(self, folded: tuple | None = None) -> IngestResult:
        """Fold every pending event into the resident snapshot.

        The new snapshot is materialized, the transition is encoded as a
        :class:`SnapshotDiff` (checksummed against the old resident, so
        the wire format stays replayable to any mirror holding the same
        base), and the dirty frontier absorbs the touched endpoints.
        ``folded`` is ``fold_event_batch(resident, pending)`` when the
        caller already computed it (a serving tier folds once, logs the
        batch, then commits): it is adopted instead of folding again.
        """
        prev = self._resident
        events = self._pending
        self._pending = []
        if not events:  # nothing changed: O(1), the resident stays
            empty = np.empty(0, dtype=np.int64)
            diff = SnapshotDiff(removed=empty.reshape(0, 2),
                                added=empty.reshape(0, 2),
                                values=prev.values,
                                base_checksum=edge_checksum(prev),
                                value_hint=(empty, empty))
            return IngestResult(prev, diff, empty, 0)

        # the fold hands back the transition in the GD wire format — what
        # a remote mirror holding the same base replays
        curr, dirty, diff = folded if folded is not None \
            else fold_event_batch(prev, events)
        self._resident = curr
        self._frontier[dirty] = True
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
    added_pos, changed_pos = diff.value_hint
    events = [EdgeEvent(int(u), int(v), "remove") for u, v in diff.removed]
    events += [EdgeEvent(int(u), int(v), "add", float(value))
               for (u, v), value in zip(diff.added, curr.values[added_pos])]
    # common edges whose value changed (compared exactly: edge values are
    # transaction amounts/counts, and a tolerance here would let the
    # replayed resident silently drift)
    for (u, v), value in zip(curr.edges[changed_pos],
                             curr.values[changed_pos]):
        events.append(EdgeEvent(int(u), int(v), "remove"))
        events.append(EdgeEvent(int(u), int(v), "add", float(value)))
    return events
