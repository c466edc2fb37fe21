"""The temporal graph store front door.

A :class:`GraphStore` is a directory::

    <path>/
      wal.log            append-only delta log (repro.store.wal framing)
      bases/base_*.npz   compacted CSR snapshots (acceleration only)
      engine/state_*.cap serving-engine state captures (crash recovery)

The WAL is authoritative.  Its record stream defines a timeline: every
``DIFF`` record both mutates the graph and **seals** the next timestep;
``EVENTS`` records mutate the live state *within* the current timestep
(a serving tier's intra-step ingestion); a ``SEAL`` record closes a
timestep without changing topology (a timestep boundary crossed by
``advance_time()``).  Sealed timestep ``t`` is therefore the graph state
immediately after the ``t``-th sealing record — which is exactly the
in-memory ``DTDG`` snapshot when the store was built by
:meth:`append_snapshot` per timestep.

``materialize(t)`` decodes the nearest compacted base at or below ``t``
and replays only the log tail, so time-travel cost is bounded by the
compaction interval instead of ``t``.  ``window(t0, t1)`` returns a
:class:`StoreView` — a lazy ``DTDG`` whose snapshots decode on access
(with sequential-access hint chaining), which the trainers consume
out-of-core.
"""

from __future__ import annotations

import os
import re
from collections import OrderedDict
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.errors import DatasetError, StoreError
from repro.graph.diff import SnapshotDiff, apply_diff, diff_snapshots
from repro.graph.dtdg import DTDG, validate_feature_frames
from repro.graph.snapshot import GraphSnapshot
from repro.obs import Telemetry
from repro.obs.registry import Histogram
from repro.store import codec
from repro.store.compact import Compactor, list_bases, load_base
from repro.store.wal import (KIND_DIFF, KIND_EVENTS, KIND_FEATURES,
                             KIND_META, KIND_SEAL, DeltaLog)

__all__ = ["GraphStore", "StoreView"]

WAL_NAME = "wal.log"
ENGINE_DIR = "engine"
_STATE_RE = re.compile(r"^state_(\d{8})\.(cap|npz)$")  # .npz: legacy

_SEALING = (KIND_DIFF, KIND_SEAL)


def _empty_snapshot(n: int) -> GraphSnapshot:
    return GraphSnapshot(n, np.empty((0, 2), dtype=np.int64))


class GraphStore:
    """Durable, time-travelable home of one dynamic graph.

    Construct through :meth:`create`, :meth:`open` or
    :meth:`from_dtdg`; the raw constructor is shared plumbing.
    """

    def __init__(self, path: str, *, _meta: dict | None = None,
                 sync: bool = False,
                 telemetry: Telemetry | None = None) -> None:
        self.path = path
        # a serving tier that attaches this store rebinds ``telemetry``
        # to its own, so store spans nest under serving spans and store
        # counters export from one registry; standalone stores keep this
        # private tracing-off default
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self.replay_depth = Histogram(reservoir_size=1024, seed=0)
        creating = _meta is not None
        wal_path = os.path.join(path, WAL_NAME)
        if creating:
            if os.path.exists(wal_path) and os.path.getsize(wal_path):
                raise StoreError(f"store already exists at {path}")
            os.makedirs(path, exist_ok=True)
        elif not os.path.exists(wal_path):
            raise StoreError(f"no graph store at {path}")
        self.wal = DeltaLog(wal_path, sync=sync)
        self.records_replayed = 0
        self.captures = 0
        self.capture_bytes = 0
        self._mat_cache: OrderedDict[int, GraphSnapshot] = OrderedDict()
        self._mat_cache_size = 4
        if creating:
            self.wal.append(KIND_META, codec.pack_record(_meta, {}))
            meta = _meta
        else:
            if self.wal.num_records == 0 or \
                    self.wal.kind_of(0) != KIND_META:
                raise StoreError(f"store at {path} has no header record")
            meta, _ = codec.unpack_record(self.wal.read(0).payload)
        self.num_vertices = int(meta["num_vertices"])
        self.name = str(meta.get("name", "store"))
        self.compactor = Compactor(self, meta.get("base_interval"))
        self._index_log()
        # base index cached in memory: bases only appear through this
        # store's own Compactor (which registers them), so replay paths
        # avoid a directory scan per materialization
        self._base_index = list_bases(self.path)
        self._tip = self._state_at_record(self.wal.num_records - 1)

    # -- construction -------------------------------------------------------------------
    @classmethod
    def create(cls, path: str, num_vertices: int, *, name: str = "store",
               base_interval: int | None = 8, sync: bool = False,
               telemetry: Telemetry | None = None) -> "GraphStore":
        """Initialize an empty store (zero sealed timesteps)."""
        if num_vertices <= 0:
            raise StoreError(f"num_vertices must be positive, got "
                             f"{num_vertices}")
        meta = {"kind": "meta", "num_vertices": int(num_vertices),
                "name": name, "base_interval": base_interval,
                "version": 1}
        return cls(path, _meta=meta, sync=sync, telemetry=telemetry)

    @classmethod
    def open(cls, path: str, *, sync: bool = False,
             telemetry: Telemetry | None = None) -> "GraphStore":
        """Open an existing store, tolerating a torn WAL tail."""
        return cls(path, sync=sync, telemetry=telemetry)

    @classmethod
    def from_dtdg(cls, path: str, dtdg: DTDG, *,
                  base_interval: int | None = 8,
                  features: bool = True) -> "GraphStore":
        """Encode a whole in-memory DTDG: first snapshot as a full
        insert, the rest as GD deltas, features alongside."""
        store = cls.create(path, dtdg.num_vertices, name=dtdg.name,
                           base_interval=base_interval)
        for t, snap in enumerate(dtdg.snapshots):
            store.append_snapshot(snap)
            if features and dtdg.features is not None:
                store.append_features(dtdg.features[t])
        return store

    # -- log index ----------------------------------------------------------------------
    def _index_log(self) -> None:
        self._seals: list[int] = []
        self._features_rec: dict[int, int] = {}
        self._events_since_seal = 0
        for idx, kind in enumerate(self.wal.kinds()):
            if kind in _SEALING:
                self._seals.append(idx)
                self._events_since_seal = 0
            elif kind == KIND_EVENTS:
                self._events_since_seal += 1
            elif kind == KIND_FEATURES:
                # features always attach to the most recently sealed step
                self._features_rec[len(self._seals) - 1] = idx

    # -- geometry -----------------------------------------------------------------------
    @property
    def num_timesteps(self) -> int:
        """Number of sealed timesteps."""
        return len(self._seals)

    @property
    def tip(self) -> GraphSnapshot:
        """Live graph state after every record (sealed + live events)."""
        return self._tip

    @property
    def wal_nbytes(self) -> int:
        return self.wal.nbytes

    @property
    def base_nbytes(self) -> int:
        return sum(os.path.getsize(p) for _, p in self._base_index)

    def _register_base(self, step: int, path: str) -> None:
        """Fold a freshly written base into the cached index."""
        self._base_index = sorted(
            [(s, p) for s, p in self._base_index if s != step]
            + [(step, path)])

    def seal_record_index(self, step: int) -> int:
        if not 0 <= step < len(self._seals):
            raise StoreError(f"store holds {len(self._seals)} sealed "
                             f"timesteps, asked for step {step}")
        return self._seals[step]

    # -- appends ------------------------------------------------------------------------
    def append_snapshot(self, snapshot: GraphSnapshot) -> SnapshotDiff:
        """Seal the next timestep as ``snapshot`` (stored as a GD delta
        against the live tip)."""
        if snapshot.num_vertices != self.num_vertices:
            raise StoreError("snapshot vertex set does not match store")
        diff = diff_snapshots(self._tip, snapshot)
        self.append_diff(diff)
        return diff

    def append_diff(self, diff: SnapshotDiff) -> GraphSnapshot:
        """Seal the next timestep by applying ``diff`` to the live tip."""
        with self.telemetry.trace("store.append", kind="diff"):
            step = len(self._seals)
            try:
                curr = apply_diff(self._tip, diff)
            except DatasetError as exc:
                raise StoreError(f"delta does not apply to the live "
                                 f"tip: {exc}") from exc
            payload = codec.encode_diff(self._tip, curr, diff, step)
            idx = self.wal.append(KIND_DIFF, payload)
            self._seals.append(idx)
            self._events_since_seal = 0
            self._tip = curr
            self.compactor.maybe_compact(step)
        return curr

    def append_events(self, events: Iterable, folded=None) -> int:
        """Log one live edge-event batch (intra-step mutation); returns
        the WAL record index.  The fold is validated before the bytes
        are committed, so a bad batch never lands in the log.

        ``folded`` is a serving tier's own ``fold_event_batch(tip,
        events)`` result ``(curr, touched, diff)``: the tip adopts its
        ``curr`` instead of folding the batch a second time, once its
        diff's base checksum proves it was folded over this tip."""
        events = list(events)
        with self.telemetry.trace("store.append", kind="events",
                                  events=len(events)):
            if folded is None:
                new_tip = codec.fold_events(self._tip, events)[0]
            elif folded[2].base_checksum != codec.edge_checksum(self._tip):
                raise StoreError("event batch was folded over a graph "
                                 "that is not the store tip")
            else:
                new_tip = folded[0]
            idx = self.wal.append(KIND_EVENTS, codec.encode_events(events))
            self._tip = new_tip
            self._events_since_seal += 1
        return idx

    def seal_step(self) -> int:
        """Close the current timestep without a topology rebase (the
        serving tier's plain ``advance_time()``); returns the step."""
        with self.telemetry.trace("store.append", kind="seal"):
            step = len(self._seals)
            payload = codec.pack_record(
                {"kind": "seal", "step": step,
                 "result_checksum": codec.edge_checksum(self._tip)}, {})
            idx = self.wal.append(KIND_SEAL, payload)
            self._seals.append(idx)
            self._events_since_seal = 0
            self.compactor.maybe_compact(step)
        return step

    def append_features(self, frame: np.ndarray) -> int:
        """Attach a feature frame to the most recently sealed timestep."""
        if not self._seals:
            raise StoreError("no sealed timestep to attach features to")
        frame = np.asarray(frame, dtype=np.float64)
        if frame.ndim != 2 or frame.shape[0] != self.num_vertices:
            raise StoreError(
                f"feature frame shape {frame.shape} does not cover the "
                f"{self.num_vertices}-vertex set")
        step = len(self._seals) - 1
        idx = self.wal.append(KIND_FEATURES,
                              codec.encode_features(frame, step))
        self._features_rec[step] = idx
        return idx

    # -- replay engine -------------------------------------------------------------------
    @staticmethod
    def _replay(state: GraphSnapshot, records: Iterable
                ) -> Iterator[tuple[str | None, object, GraphSnapshot]]:
        """The one WAL replay loop: fold each ``EVENTS`` / ``DIFF``
        record into ``state``, check each ``SEAL`` against it (a
        mismatch raises :class:`StoreError`), and yield ``(op, payload,
        state)`` per record — :meth:`replay_tail`'s ops, or ``(None,
        None)`` for a record that leaves the graph alone."""
        for record in records:
            if record.kind == KIND_EVENTS:
                events = codec.decode_events(record.payload)
                folded = codec.fold_events(state, events)
                state = folded[0]
                yield "events", (events, folded), state
            elif record.kind == KIND_DIFF:
                diff, state, _ = codec.decode_diff(record.payload, state)
                yield "rebase", (state, diff), state
            elif record.kind == KIND_SEAL:
                meta, _ = codec.unpack_record(record.payload)
                if meta["result_checksum"] != codec.edge_checksum(state):
                    raise StoreError(
                        f"replay diverged: state at seal #{meta['step']} "
                        f"fails the sealed checksum")
                yield "advance", None, state
            else:
                yield None, None, state

    def _state_at_record(self, idx: int, *,
                         start: tuple[int, GraphSnapshot] | None = None
                         ) -> GraphSnapshot:
        """Graph state immediately after record ``idx``.

        The starting point is the best state at or before ``idx``: the
        caller's ``start`` hint (a ``(record_index, snapshot)`` pair
        sequential readers chain) when nothing newer exists, else the
        newest usable compacted base — seal record indices are known
        from the in-memory index, so a base file is only decoded when
        it would actually beat the hint.
        """
        if idx < 0 or self.wal.num_records == 0:
            return _empty_snapshot(self.num_vertices)
        base_idx, state = 0, None
        if start is not None and 0 <= start[0] <= idx:
            base_idx, state = start
        for step, path in reversed(self._base_index):
            if step >= len(self._seals):
                continue
            rec = self._seals[step]
            if rec > idx:
                continue
            if rec <= base_idx and state is not None:
                break  # the hint is at least as fresh as this base
            try:
                meta, snap = load_base(path)
            except StoreError:
                continue  # corrupt/partial base: fall back to older ones
            if meta["record_index"] != rec or \
                    snap.num_vertices != self.num_vertices:
                continue
            base_idx, state = rec, snap
            break
        if state is None:
            state = _empty_snapshot(self.num_vertices)
        depth = 0
        for op, _, state in self._replay(
                state, self.wal.scan_from(base_idx + 1, idx + 1)):
            if op in ("events", "rebase"):
                self.records_replayed += 1
                depth += 1
        # the distribution of tail-replay lengths is the store's
        # time-travel cost profile (bounded by the compaction interval)
        self.replay_depth.observe(depth)
        return state

    # -- time travel ---------------------------------------------------------------------
    def materialize(self, t: int, *, cached: bool = True,
                    hint: tuple[int, GraphSnapshot] | None = None
                    ) -> GraphSnapshot:
        """The graph at sealed timestep ``t``.

        ``hint=(t0, snapshot)`` short-circuits the base lookup when the
        caller already holds an earlier materialized step (sequential
        readers chain hints and pay one delta per step).
        """
        idx = self.seal_record_index(t)
        if cached and t in self._mat_cache:
            self._mat_cache.move_to_end(t)
            return self._mat_cache[t]
        if t == len(self._seals) - 1 and self._events_since_seal == 0:
            snap = self._tip
        else:
            start = None
            if hint is not None and 0 <= hint[0] <= t:
                start = (self._seals[hint[0]], hint[1])
            with self.telemetry.trace("store.materialize", step=t,
                                      hinted=start is not None):
                snap = self._state_at_record(idx, start=start)
        if cached:
            self._mat_cache[t] = snap
            while len(self._mat_cache) > self._mat_cache_size:
                self._mat_cache.popitem(last=False)
        return snap

    def replay_to(self, t: int) -> GraphSnapshot:
        """Decode sealed timestep ``t`` straight from disk (nearest base
        + log tail replay), bypassing the live-tip and LRU
        short-circuits — exactly the work a cold open or crash recovery
        pays."""
        return self._state_at_record(self.seal_record_index(t))

    def window(self, start: int = 0, stop: int | None = None, *,
               name: str | None = None) -> "StoreView":
        """Lazy DTDG view over sealed timesteps ``[start, stop)``."""
        stop = len(self._seals) if stop is None else stop
        return StoreView(self, start, stop, name=name)

    def features_for(self, step: int) -> np.ndarray | None:
        """Feature frame attached to sealed ``step`` (``None`` if absent)."""
        idx = self._features_rec.get(step)
        if idx is None:
            return None
        rec_step, frame = codec.decode_features(self.wal.read(idx).payload)
        if rec_step != step:
            raise StoreError(
                f"feature record for step {step} claims step {rec_step}")
        return frame

    def load_features(self, start: int,
                      stop: int) -> list[np.ndarray] | None:
        """Frames for ``[start, stop)``; ``None`` unless every step has
        one (a DTDG's features are all-or-nothing)."""
        if any(t not in self._features_rec for t in range(start, stop)):
            return None
        return [self.features_for(t) for t in range(start, stop)]

    # -- observability -------------------------------------------------------------------
    def collect_metrics(self, reg) -> None:
        """Sync the store's authoritative counters into ``reg``.

        A serving tier calls this with its own registry at export time;
        a standalone store can call it against any registry (e.g.
        ``store.collect_metrics(store.telemetry.registry)``).
        """
        reg.counter("store_wal_records_total",
                    "Valid records in the WAL").set_to(self.wal.num_records)
        reg.gauge("store_wal_bytes",
                  "Valid WAL bytes (torn tail excluded)").set(
            self.wal.nbytes)
        reg.counter("store_wal_appends_total",
                    "Appends issued by this process").set_to(
            self.wal.appends)
        reg.counter("store_wal_append_bytes_total",
                    "Framed bytes appended by this process").set_to(
            self.wal.append_bytes)
        reg.counter("store_wal_fsyncs_total",
                    "fsyncs forced by appends (sync=True only)").set_to(
            self.wal.fsyncs)
        reg.counter("store_timesteps_total",
                    "Sealed timesteps").set_to(self.num_timesteps)
        reg.counter("store_compaction_bases_total",
                    "Compacted bases written").set_to(
            self.compactor.bases_written)
        reg.gauge("store_base_bytes",
                  "Bytes across all compacted bases").set(self.base_nbytes)
        reg.counter("store_records_replayed_total",
                    "WAL records replayed by materializations").set_to(
            self.records_replayed)
        reg.counter("store_captures_total", "Engine-state captures "
                    "written by this process").set_to(self.captures)
        reg.counter("store_capture_bytes_total", "Bytes of those "
                    "captures").set_to(self.capture_bytes)
        reg.attach("store_replay_depth", self.replay_depth,
                   "WAL records replayed per materialization "
                   "(bounded by the compaction interval)")

    # -- integrity -----------------------------------------------------------------------
    def verify(self) -> int:
        """Replay the entire log from the head, checking every record
        CRC, delta checksum and seal checksum; returns the number of
        records verified.  Raises :class:`StoreError` on the first
        inconsistency."""
        state = _empty_snapshot(self.num_vertices)
        count = 0
        for _, _, state in self._replay(state, self.wal.scan()):
            count += 1
        if codec.edge_checksum(state) != codec.edge_checksum(self._tip):
            raise StoreError("verified log state disagrees with the "
                             "resident tip")
        return count

    # -- serving-engine state captures ----------------------------------------------------
    def _engine_dir(self) -> str:
        return os.path.join(self.path, ENGINE_DIR)

    def save_engine_state(self, meta: dict,
                          arrays: dict[str, np.ndarray], *,
                          keep: int = 2) -> str:
        """Persist a serving-engine state capture tied to the current
        end of the log; prunes captures beyond the newest ``keep``.
        ``arrays`` may be a live engine's own: they are written out,
        uncopied, before this returns."""
        record_index = self.wal.num_records - 1
        meta = dict(meta)
        meta["record_index"] = record_index
        os.makedirs(self._engine_dir(), exist_ok=True)
        path = os.path.join(self._engine_dir(),
                            f"state_{record_index:08d}.cap")
        tmp = path + ".tmp"
        with self.telemetry.trace("store.capture") as span:
            nbytes = codec.write_capture(tmp, meta, arrays)
            os.replace(tmp, path)
            span.set(bytes=nbytes)
        self.captures += 1
        self.capture_bytes += nbytes
        for _, old in self._engine_states()[:-keep]:
            if old != path:
                os.remove(old)
        return path

    def _engine_states(self) -> list[tuple[int, str]]:
        directory = self._engine_dir()
        if not os.path.isdir(directory):
            return []
        out = []
        for fname in os.listdir(directory):
            match = _STATE_RE.match(fname)
            if match:
                out.append((int(match.group(1)),
                            os.path.join(directory, fname)))
        return sorted(out)

    def latest_engine_state(self) -> tuple[dict, dict] | None:
        """Newest decodable engine-state capture as ``(meta, arrays)``
        (``meta['record_index']`` says where WAL tail replay resumes).
        Arrays of a ``.cap`` capture are writable views into one read
        buffer, which a restore adopts as they are."""
        for record_index, path in reversed(self._engine_states()):
            try:
                if path.endswith(".cap"):
                    meta, arrays = codec.read_capture(path)
                else:
                    with open(path, "rb") as fh:
                        meta, arrays = codec.unpack_record(fh.read())
            except (StoreError, OSError):
                continue  # torn capture: fall back to the previous one
            if meta.get("record_index") == record_index:
                return meta, arrays
        return None

    def replay_tail(self, after_record: int, *,
                    start: GraphSnapshot | None = None
                    ) -> Iterator[tuple[str, object]]:
        """Yield serving operations recorded after ``after_record``:
        ``("events", (events, folded))`` for intra-step batches — the
        batch and its :func:`~repro.serve.ingest.fold_event_batch`
        triple over the replayed state, which a recovering tier commits
        as it stands —
        ``("advance", None)`` for topology-free timestep seals, and
        ``("rebase", (snapshot, diff))`` for snapshot-sealed boundaries
        — the decoded GD delta rides along so a recovering server's
        :class:`~repro.graph.inc_laplacian.LaplacianMaintainer` can
        apply the rebase incrementally instead of rebuilding its
        operator at every replayed boundary.

        A recovering server replays these through its normal
        ``ingest_events`` / ``advance_time`` paths.  ``start`` is the
        graph state at ``after_record`` when the caller already
        materialized it (recovery always has — rebuilding it here would
        replay the log prefix a second time).  A seal whose checksum
        disagrees with the replayed graph raises :class:`StoreError`
        before its boundary is yielded.
        """
        state = start if start is not None \
            else self._state_at_record(after_record)
        for op, payload, _ in self._replay(
                state, self.wal.scan_from(after_record + 1)):
            if op is not None:
                yield op, payload

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"GraphStore(path={self.path!r}, N={self.num_vertices}, "
                f"T={self.num_timesteps}, records={self.wal.num_records})")


class _LazySnapshots(Sequence):
    """Sequence of store snapshots decoding on access.

    Holds a small LRU of decoded snapshots plus the last-returned step,
    so sequential scans (the trainers' access pattern) pay one delta
    per step instead of a replay from the nearest base.
    """

    def __init__(self, store: GraphStore, start: int, stop: int,
                 cache_size: int = 4) -> None:
        self._store = store
        self._start = start
        self._stop = stop
        self._cache: OrderedDict[int, GraphSnapshot] = OrderedDict()
        self._cache_size = max(1, cache_size)

    def __len__(self) -> int:
        return self._stop - self._start

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError(i)
        t = self._start + i
        if t in self._cache:
            self._cache.move_to_end(t)
            return self._cache[t]
        hint = None
        if t - 1 in self._cache:
            hint = (t - 1, self._cache[t - 1])
        snap = self._store.materialize(t, hint=hint)
        self._cache[t] = snap
        while len(self._cache) > self._cache_size:
            self._cache.popitem(last=False)
        return snap

    def __iter__(self):
        for i in range(len(self)):
            yield self[i]


class StoreView(DTDG):
    """A lazy, read-only DTDG over a store window ``[start, stop)``.

    Quacks like :class:`~repro.graph.dtdg.DTDG` (the trainers and
    preprocessing take it unchanged) but decodes snapshots on demand
    instead of holding the whole window in memory.  Feature frames come
    from the store's feature records when every step in the window has
    one; :meth:`set_features` overrides them in memory (e.g. the
    trainer attaching degree features).
    """

    def __init__(self, store: GraphStore, start: int, stop: int, *,
                 name: str | None = None, cache_size: int = 4) -> None:
        # deliberately skips DTDG.__init__: snapshots stay lazy
        if not 0 <= start < stop <= store.num_timesteps:
            raise StoreError(
                f"window [{start}, {stop}) outside the store's "
                f"{store.num_timesteps} sealed timesteps")
        self._store = store
        self._start = start
        self._stop = stop
        self.name = name or f"{store.name}[{start}:{stop}]"
        self._lazy = _LazySnapshots(store, start, stop, cache_size)
        self._features: list[np.ndarray] | None = None
        self._features_loaded = False

    @property
    def store(self) -> GraphStore:
        return self._store

    @property
    def snapshots(self):  # type: ignore[override]
        return self._lazy

    @property
    def num_vertices(self) -> int:
        return self._store.num_vertices

    @property
    def num_timesteps(self) -> int:
        return self._stop - self._start

    @property
    def features(self) -> list[np.ndarray] | None:  # type: ignore[override]
        if not self._features_loaded:
            self._features = self._store.load_features(self._start,
                                                       self._stop)
            self._features_loaded = True
        return self._features

    def set_features(self, features) -> None:
        self._features = validate_feature_frames(
            features, self.num_vertices, len(self))
        self._features_loaded = True

    def slice_time(self, start: int, stop: int,
                   name: str | None = None) -> DTDG:
        if self._features_loaded and self._features is not None:
            return DTDG(list(self._lazy[start:stop]),
                        self._features[start:stop],
                        name=name or f"{self.name}[{start}:{stop}]")
        return StoreView(self._store, self._start + start,
                         self._start + stop, name=name)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"StoreView({self._store.path!r}, "
                f"[{self._start}:{self._stop}), N={self.num_vertices})")
