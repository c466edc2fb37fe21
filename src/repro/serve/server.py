"""The serving front door and the batched model server: queries in,
fraud/link scores out.

:class:`QueryFrontend` is the one front door of both serving tiers;
:class:`ModelServer` is the single-worker tier on it, whose
:class:`~repro.serve.engine.InferenceEngine` keeps the embedding cache
fresh (incrementally or via full recompute — the ``incremental=False``
server is the exactness oracle).

The server is deliberately single-threaded and deterministic — the same
design as the simulated cluster: batching *policy* is what the paper's
style of system study cares about, and a thread pool would only blur
the measurements.  Wall time comes from an injectable ``clock`` so tests
can drive latency accounting deterministically.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, fields
from operator import attrgetter, index
from typing import Callable, Iterable

import numpy as np

from repro.errors import ConfigError, StoreError
from repro.graph.snapshot import GraphSnapshot
from repro.models.base import DynamicGNN
from repro.nn.linear import EdgeScorer, Linear
from repro.obs import SloEngine, Telemetry, render_dashboard
from repro.serve.cache import EmbeddingCache
from repro.serve.engine import InferenceEngine
from repro.serve.ingest import (EdgeEvent, IngestResult, StreamIngestor,
                                fold_event_batch)
from repro.serve.metrics import (FrontendCounters, FrontendStats,
                                 LatencyTracker, ServerCounters,
                                 ServerStats)
from repro.store.recovery import (capture_engine_state,
                                  restore_engine_state)
from repro.tensor.functional import _fill, _gemm, _tiled

__all__ = ["PendingQuery", "QueryBatch", "QueryFrontend", "ModelServer",
           "score_links", "score_fraud"]


# C-speed field readers: a flush decodes its handles through these
# instead of running a Python-level pass per query
_src, _dst = attrgetter("src"), attrgetter("dst")
_kind, _enqueued_at = attrgetter("kind"), attrgetter("enqueued_at")
_is_link = "link".__eq__


def _row_softmax(z: np.ndarray) -> np.ndarray:
    # row-wise on purpose: a flush scores at most max_batch_size rows, where
    # the column-wise form of functional._stable_log_softmax is slower
    # (4.3 against 7.6 µs at 32 rows, even at 128; same bits)
    shifted = z - z.max(axis=-1, keepdims=True)
    ez = np.exp(shifted)
    return ez / ez.sum(axis=-1, keepdims=True)


def _head_logits(head: Linear, x: np.ndarray) -> np.ndarray:
    """``x @ W + b`` on zero-padded tiles of ``TILE_ROWS`` rows (the
    model steps' padded-tile GEMM): the row count never picks the BLAS
    kernel, so a query's score does not depend on which queries share
    its flush (or its shard's group)."""
    m = len(x)
    tiles = np.empty((_tiled(m), x.shape[1]))
    _fill(tiles, x)
    logits = np.empty((len(tiles), head.out_features))
    _gemm(tiles, head.weight.data, logits, m)
    logits = logits[:m]
    if head.use_bias:
        logits += head.bias.data
    return logits


def score_links(z: np.ndarray, pairs: np.ndarray,
                link_head: EdgeScorer | None) -> np.ndarray:
    """Link-existence probabilities for ``(src, dst)`` pairs.

    With a trained head the concatenated endpoint embeddings go through
    its classifier; without one the sigmoid of the dot product serves as
    the untrained fallback.  ``z`` may be any row-aligned embedding
    matrix — the sharded tier passes gathered rows rather than the full
    resident matrix, so ``pairs`` index into whatever ``z`` is given.
    """
    if link_head is not None:
        feats = np.concatenate([z[pairs[:, 0]], z[pairs[:, 1]]], axis=1)
        return _row_softmax(_head_logits(link_head.fc, feats))[:, 1]
    dots = (z[pairs[:, 0]] * z[pairs[:, 1]]).sum(axis=1)
    return 1.0 / (1.0 + np.exp(-dots))


def score_fraud(z: np.ndarray, accounts: np.ndarray,
                fraud_head: Linear) -> np.ndarray:
    """Suspicious-account probabilities from the classification head."""
    return _row_softmax(_head_logits(fraud_head, z[accounts]))[:, 1]


@dataclass(slots=True)
class PendingQuery:
    """Handle returned by ``submit_link`` / ``submit_fraud``; resolved
    at flush time.  One heap object per query: the endpoints sit in two
    int slots (a fraud query's account in both), so the handle owns no
    tuple for the cyclic collector to track."""

    kind: str                     # "link" | "fraud"
    src: int
    dst: int
    enqueued_at: float
    done: bool = False
    result: float | None = None
    latency_ms: float = float("nan")
    # set by admission control (exec tier): the query was rejected at
    # submit time to protect latency; ``done`` is True, ``result`` None
    shed: bool = False
    # set by degraded serving (exec tier): how many timestep boundaries
    # behind the live tip the answering embeddings were.  0 means fully
    # fresh; None means the query never went through a degraded path.
    staleness: int | None = None

    @property
    def payload(self) -> tuple:
        """The query's vertices: ``(src, dst)`` or ``(account,)``."""
        return (self.src, self.dst) if self.kind == "link" else (self.src,)


@dataclass(slots=True, eq=False)
class QueryBatch:
    """Handle returned by ``submit_links`` / ``submit_fraud_many``: one
    chunk of queries of one kind, read through arrays of one row per
    query.  Rows resolve at flush time as :class:`PendingQuery` handles
    do (a flush may answer part of a chunk): ``scores`` and
    ``latency_ms`` are NaN until a row is answered and stay NaN for a
    shed row; ``staleness`` is -1 where the row never went through a
    degraded path (a handle's ``None``)."""

    kind: str                     # "link" | "fraud"
    ends: np.ndarray              # (m, 2) endpoints, an account in both
    enqueued_at: float            # one clock read for the chunk
    scores: np.ndarray
    done: np.ndarray
    latency_ms: np.ndarray
    shed: np.ndarray
    staleness: np.ndarray

    @classmethod
    def _open(cls, kind: str, ends: np.ndarray,
              enqueued_at: float) -> "QueryBatch":
        m = len(ends)
        return cls(kind, ends, enqueued_at, np.full(m, np.nan),
                   np.zeros(m, dtype=bool), np.full(m, np.nan),
                   np.zeros(m, dtype=bool), np.full(m, -1, dtype=np.int64))

    @property
    def src(self) -> np.ndarray:
        return self.ends[:, 0]

    @property
    def dst(self) -> np.ndarray:
        return self.ends[:, 1]

    def __len__(self) -> int:
        return len(self.ends)


def _resolve(parts: list, scores: np.ndarray, latency_ms: np.ndarray,
             shed: np.ndarray | None, staleness: np.ndarray | None) -> None:
    """Resolve every query of an answered batch, handles one by one and
    chunk spans by slice.  With ``shed`` (``None``: every query answered
    fresh) its positions resolve shed and the rest answered, stamped
    with their ``staleness`` where it is not -1."""
    pos = 0
    for part in parts:
        m = len(part) if type(part) is list else part[2] - part[1]
        at = slice(pos, pos + m)
        if type(part) is list and shed is None:
            for q, score, ms in zip(part, scores[at].tolist(),
                                    latency_ms[at].tolist()):
                q.result = score
                q.latency_ms = ms
                q.done = True
        elif type(part) is list:
            for q, score, ms, gone, lag in zip(
                    part, scores[at].tolist(), latency_ms[at].tolist(),
                    shed[at].tolist(), staleness[at].tolist()):
                if gone:
                    q.shed = True
                else:
                    q.result = score
                    q.latency_ms = ms
                    if lag >= 0:
                        q.staleness = lag
                q.done = True
        else:
            chunk, lo, hi = part
            if shed is None:
                chunk.scores[lo:hi] = scores[at]
                chunk.latency_ms[lo:hi] = latency_ms[at]
            else:
                chunk.scores[lo:hi] = np.where(shed[at], np.nan, scores[at])
                chunk.latency_ms[lo:hi] = np.where(shed[at], np.nan,
                                                   latency_ms[at])
                chunk.shed[lo:hi] = shed[at]
                chunk.staleness[lo:hi] = staleness[at]
            chunk.done[lo:hi] = True
        pos += m


def _unresolved(parts: list, shed: np.ndarray) -> list:
    """After a batch's answer raised: resolve the positions the tier
    shed and return the rest as queue entries, in order (a chunk span
    with shed rows splits into its runs of unresolved ones)."""
    out, pos = [], 0
    for part in parts:
        if type(part) is list:
            for q, gone in zip(part, shed[pos:pos + len(part)].tolist()):
                if gone:
                    q.shed = q.done = True
                else:
                    out.append(q)
            pos += len(part)
            continue
        chunk, lo, hi = part
        gone = shed[pos:pos + hi - lo]
        chunk.shed[lo:hi] |= gone
        chunk.done[lo:hi] |= gone
        keep = np.flatnonzero(~gone) + lo
        for run in np.split(keep, np.flatnonzero(np.diff(keep) > 1) + 1):
            if len(run):
                out.append((chunk, int(run[0]), int(run[-1]) + 1))
        pos += hi - lo
    return out


def _decode(parts: list, n: int) -> tuple:
    """The ``(ends, is_link, enqueued_at)`` arrays of a batch of ``n``
    queries, one row per query: runs of handles through the C-speed
    field readers (no Python-level pass per query), chunk spans by
    slice."""
    ends = np.empty((n, 2), dtype=np.int64)
    is_link = np.empty(n, dtype=bool)
    enqueued_at = np.empty(n)
    pos = 0
    for part in parts:
        if type(part) is list:
            m = len(part)
            at = slice(pos, pos + m)
            ends[at, 0] = np.fromiter(map(_src, part), np.int64, m)
            ends[at, 1] = np.fromiter(map(_dst, part), np.int64, m)
            is_link[at] = np.fromiter(map(_is_link, map(_kind, part)),
                                      bool, m)
            enqueued_at[at] = np.fromiter(map(_enqueued_at, part),
                                          np.float64, m)
        else:
            chunk, lo, hi = part
            m = hi - lo
            at = slice(pos, pos + m)
            ends[at] = chunk.ends[lo:hi]
            is_link[at] = chunk.kind == "link"
            enqueued_at[at] = chunk.enqueued_at
        pos += m
    return ends, is_link, enqueued_at


class QueryFrontend:
    """The one front door of both serving tiers (:class:`ModelServer`
    and the sharded :class:`~repro.exec.router.ExecRouter`): ingest,
    advance, flush, recover and stats are written here once, with the
    query queue (flushed when ``max_batch_size`` queries are queued or
    the oldest has waited ``flush_latency_ms``, checked by :meth:`tick`),
    the WAL and captures, the counters and the latency series.  The
    queue holds scalar handles and spans of array chunks and counts
    queries, not entries.

    A tier supplies only what touches its engines (``docs/execution.md``):

    * ``_apply_commit(result)`` — bring the engine(s) to a committed
      :class:`~repro.serve.ingest.IngestResult`;
    * ``_cross_boundary(snapshot, diff)`` — move every engine past a
      timestep boundary (onto ``snapshot`` when it rebases, ``diff``
      being the delta to it when known); returns the rows advanced;
    * ``_answer_batch(ends, is_link, cone, shed)`` — refresh by the
      flush rule (:meth:`flush`; the batch's read cone when ``cone``,
      every stale row otherwise) and score one decoded batch (``ends``
      holds a row of endpoints per query, a fraud query's account in
      both columns).  It reports by batch position and never touches a
      handle: it sets ``shed[i]`` for each query it resolves as shed
      (also when it raises), and returns ``(scores, fresh_at,
      staleness)`` — ``fresh_at`` is the clock once the rows the batch
      reads were fresh, where the answered queries' latency ends, and
      ``staleness`` is ``None`` or a row per query, -1 where the answer
      is fresh;
    * ``_admit(m)`` — admission control: how many of ``m`` queries
      offered in order join the queue (the rest resolve shed);
    * ``_capture_state()`` / ``_restore(model, resident, meta, arrays,
      kwargs)`` — the engine state as ``(meta, arrays)``, and a tier
      booted at ``resident`` holding a capture;

    plus ``num_vertices`` and ``_stats_type``.
    """

    def _init_frontend(self, model: DynamicGNN, snapshot: GraphSnapshot,
                       counters: FrontendCounters,
                       link_head: EdgeScorer | None,
                       fraud_head: Linear | None, max_batch_size: int,
                       flush_latency_ms: float, clock: Callable[[], float],
                       telemetry: Telemetry | None) -> None:
        if max_batch_size < 1:
            raise ConfigError("max_batch_size must be >= 1")
        if flush_latency_ms < 0:
            raise ConfigError("flush_latency_ms must be >= 0")
        self.model = model
        self.ingestor = StreamIngestor(snapshot)
        self.counters = counters
        self.link_head = link_head
        self.fraud_head = fraud_head
        self.max_batch_size = max_batch_size
        self.flush_latency_ms = flush_latency_ms
        self.clock = clock
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        # the reservoirs ARE the exported histograms — attaching them
        # keeps one source of truth between stats() and the exporters
        attach = self.telemetry.registry.attach
        self.latency = attach("serve_latency_ms", LatencyTracker(),
                              "Per-request latency (bounded reservoir)")
        self._queue_wait = attach(
            "serve_queue_wait_ms", LatencyTracker(),
            "Per-request wait from submit to the start of its flush")
        self._flush_compute = attach(
            "serve_compute_ms", LatencyTracker(),
            "Per-flush time from flush entry to the batch scored")
        # handles and chunk spans ``(chunk, lo, hi)``: the queue holds
        # len(_queue) + _extra queries
        self._queue: list = []
        self._extra = 0
        # the resident vertex set is fixed for the tier's life
        self._num_vertices = snapshot.num_vertices
        self._started_at: float | None = None
        self.slo = None              # attached SloEngine (attach_slo)
        self.store = None            # attached GraphStore (durability)
        # a commit since the last flush or boundary (the flush rule)
        self._fresh_commit = False
        self._store_state_interval = 1
        self._store_replaying = False

    def _tier_stats(self) -> dict:
        """Extra fields of the tier's stats type."""
        return {}

    @classmethod
    def from_checkpoint(cls, path: str, snapshot: GraphSnapshot,
                        **kwargs):
        """Boot a tier from a training checkpoint (model + heads
        rebuilt through the model registry); ``kwargs`` go to the
        tier's constructor."""
        from repro.train.checkpoint import load_model_checkpoint
        ckpt = load_model_checkpoint(path)
        kwargs.setdefault("link_head", ckpt.link_head)
        kwargs.setdefault("fraud_head", ckpt.fraud_head)
        return cls(ckpt.model, snapshot, **kwargs)

    # -- queries ----------------------------------------------------------------------
    def submit_link(self, src: int, dst: int) -> PendingQuery:
        """Probability that edge ``(src, dst)`` exists/appears."""
        n = self._num_vertices
        try:
            s, d = index(src), index(dst)
        except TypeError:
            s = d = -1
        if not (0 <= s < n and 0 <= d < n):
            self._reject_vertices((src, dst), n)
        return self._submit(PendingQuery("link", s, d, self.clock()))

    def submit_fraud(self, account: int) -> PendingQuery:
        """Probability that ``account`` is a suspicious (laundering)
        vertex, from the node-classification head."""
        if self.fraud_head is None:
            raise ConfigError("fraud queries need a fraud_head")
        n = self._num_vertices
        try:
            a = index(account)
        except TypeError:
            a = -1
        if not 0 <= a < n:
            self._reject_vertices((account,), n)
        return self._submit(PendingQuery("fraud", a, a, self.clock()))

    def submit_links(self, src, dst) -> QueryBatch:
        """:meth:`submit_link` for each pair of the equal-length integer
        arrays ``src`` / ``dst``, as one chunk behind one handle.

        A flush the chunk fills runs inside this call, as a scalar
        submit's does.  If it raises, the error carries the chunk as
        ``exc.batch``: its queued rows stay queued (or shed, as the tier
        resolved them), and the rows after them were never offered and
        resolve shed."""
        return self._submit_chunk("link", src, dst)

    def submit_fraud_many(self, accounts) -> QueryBatch:
        """:meth:`submit_fraud` for each of the integer array
        ``accounts``, as one chunk behind one handle (a flush that
        raises inside the call: as in :meth:`submit_links`)."""
        if self.fraud_head is None:
            raise ConfigError("fraud queries need a fraud_head")
        return self._submit_chunk("fraud", accounts, accounts)

    @staticmethod
    def _reject_vertices(ids: tuple, n: int) -> None:
        """Cold half of the submit-time id check: name the first bad id.
        A negative id would silently score the wrong vertex (numpy
        indexing), an oversized one would fail mid-flush with its
        co-batched queries, and a float would be truncated to some other
        vertex — ``operator.index`` admits ints, bools, numpy integers."""
        for v in ids:
            try:
                ok = 0 <= index(v) < n
            except TypeError:
                ok = False
            if not ok:
                raise ConfigError(
                    f"query vertex {v} outside the resident vertex set "
                    f"of size {n}")

    def _submit(self, query: PendingQuery) -> PendingQuery:
        if self._started_at is None:
            self._started_at = query.enqueued_at
        self.counters.queries_submitted += 1
        if self._admit(1):
            self._queue.append(query)
            if len(self._queue) + self._extra >= self.max_batch_size:
                self.flush()
        else:
            query.shed = query.done = True
        return query

    def _submit_chunk(self, kind: str, src, dst) -> QueryBatch:
        """Validate a chunk's ids with one comparison and enqueue it as
        the scalar calls would its queries one by one: admission and
        the full-queue flush fall at the same queries, so a sequence
        gets the same flushes, sheds and scores either way."""
        src, dst = np.asarray(src), np.asarray(dst)
        if src.ndim != 1 or src.shape != dst.shape:
            raise ConfigError(
                f"query id arrays must be 1-D and of one length, got "
                f"shapes {src.shape} and {dst.shape}")
        n, m = self._num_vertices, len(src)
        ends = np.empty((m, 2), dtype=np.int64)
        if m and not (src.dtype.kind in "biu" and dst.dtype.kind in "biu"):
            # a float would be truncated to some other vertex
            self._reject_vertices([v for pair in zip(src.tolist(),
                                                     dst.tolist())
                                   for v in pair], n)
        ends[:, 0], ends[:, 1] = src, dst
        # a negative (or wrapped) id reads as a huge unsigned one
        bad = np.flatnonzero(ends.view(np.uint64) >= n)
        if len(bad):
            first = int(bad[0])
            self._reject_vertices(((src, dst)[first % 2][first // 2],), n)
        chunk = QueryBatch._open(kind, ends, self.clock())
        if m and self._started_at is None:
            self._started_at = chunk.enqueued_at
        pos = 0
        while pos < m:
            queued = self._queued
            take = min(m - pos, max(1, self.max_batch_size - queued))
            admitted = self._admit(take)
            if admitted:
                self._queue.append((chunk, pos, pos + admitted))
                self._extra += admitted - 1
            if admitted < take:
                # the queue is at its bound and no flush comes: every
                # later query is refused too
                self._admit(m - pos - take)
                take = m - pos
            self.counters.queries_submitted += take
            chunk.shed[pos + admitted:pos + take] = True
            chunk.done[pos + admitted:pos + take] = True
            pos += take
            if admitted and queued + admitted >= self.max_batch_size:
                try:
                    self.flush()
                except BaseException as exc:
                    # the rows not yet offered never join the queue:
                    # they resolve shed, and the error carries the chunk
                    chunk.shed[pos:] = chunk.done[pos:] = True
                    exc.batch = chunk
                    raise
        return chunk

    def _admit(self, m: int) -> int:
        """Admission control: how many of ``m`` queries offered in
        order join the queue (the front door resolves the rest as
        shed)."""
        return m

    @property
    def _queued(self) -> int:
        """Queries waiting in the queue."""
        return len(self._queue) + self._extra

    def tick(self) -> int:
        """Event-loop hook: flush if the oldest request is past the
        latency budget.  Returns the number of completed queries."""
        if not self._queue:
            return 0
        head = self._queue[0]
        if type(head) is not PendingQuery:
            head = head[0]
        waited_ms = (self.clock() - head.enqueued_at) * 1e3
        if waited_ms >= self.flush_latency_ms:
            return self.flush()
        return 0

    def flush(self) -> int:
        """Answer every queued query, ``max_batch_size`` at a time;
        returns how many queries left the queue.

        What does not depend on the individual query is paid once per
        batch: it decodes into ``ends`` / ``is_link`` arrays, the tier
        answers it in one :meth:`_answer_batch` call, and each latency
        series takes one reservoir update.  A batch takes
        ``max_batch_size`` queries across the queue's entries and cuts
        a chunk where its boundary falls, so scalars and chunks of one
        sequence flush alike.  A batch leaves the queue once every query
        in it is resolved, answered or shed; a flush that raises leaves
        its unresolved queries at the head of the queue, so the next
        flush answers them.

        The refresh follows a ski-rental rule on both tiers.  The first
        batch after a commit recomputes only its read cone; a later one
        before the next commit recomputes every row still stale, so
        read-heavy steps pay at most two refreshes per commit, and the
        boundary settles whatever no flush read."""
        total = 0
        while self._queue:
            parts, n, k, rest = self._next_batch()
            with self.telemetry.trace("serve.query", batch=n):
                flushed_at = self.clock()
                ends, is_link, enqueued_at = _decode(parts, n)
                cone, self._fresh_commit = self._fresh_commit, False
                shed = np.zeros(n, dtype=bool)
                try:
                    scores, fresh_at, staleness = self._answer_batch(
                        ends, is_link, cone, shed)
                except BaseException:
                    self._replace_head(k, _unresolved(parts, shed) + rest,
                                       int(np.count_nonzero(shed)))
                    raise
                scored_at = self.clock()
                latency_ms = (fresh_at - enqueued_at) * 1e3
                answered = n - int(np.count_nonzero(shed))
                if answered == n and staleness is None:
                    _resolve(parts, scores, latency_ms, None, None)
                else:
                    if staleness is None:
                        staleness = np.full(n, -1, dtype=np.int64)
                    _resolve(parts, scores, latency_ms, shed, staleness)
                    latency_ms, enqueued_at = latency_ms[~shed], \
                        enqueued_at[~shed]
                if answered:
                    self._record_flush(latency_ms, enqueued_at, flushed_at,
                                       scored_at)
                self._replace_head(k, rest, n)
                self.counters.queries_completed += answered
                self.counters.batches_flushed += 1
            total += n
        return total

    # every flush empties the queue: the end-of-stream helper is one
    drain = flush

    def _next_batch(self) -> tuple:
        """The queue's head batch of up to ``max_batch_size`` queries:
        ``(parts, n, k, rest)`` — its parts (runs of handles and chunk
        spans) holding ``n`` queries, taken from the first ``k`` queue
        entries, and ``rest``, what stays queued of a span the batch
        boundary cuts."""
        queue, limit = self._queue, self.max_batch_size
        parts, n, k = [], 0, 0
        while n < limit and k < len(queue):
            entry = queue[k]
            if type(entry) is PendingQuery:
                # a run of handles ends at the limit or the next span
                run = queue[k:k + limit - n]
                types = list(map(type, run))
                if tuple in types:
                    run = run[:types.index(tuple)]
                parts.append(run)
                n += len(run)
                k += len(run)
                continue
            chunk, lo, hi = entry
            k += 1
            if n + hi - lo > limit:
                cut = lo + limit - n
                parts.append((chunk, lo, cut))
                return parts, limit, k, [(chunk, cut, hi)]
            parts.append(entry)
            n += hi - lo
        return parts, n, k, []

    def _replace_head(self, k: int, entries: list, resolved: int) -> None:
        """Put ``entries`` in place of the queue's first ``k``, which
        held ``resolved`` queries more than ``entries`` do."""
        self._extra += k - len(entries) - resolved
        self._queue[:k] = entries

    def _record_flush(self, latency_ms: np.ndarray, enqueued_at: np.ndarray,
                      flushed_at: float, scored_at: float) -> None:
        """Where the answered queries' time went, at one reservoir
        update per series per flush: latency from each submit to the
        batch's rows fresh, queue wait from each submit to the flush's
        entry, and one compute observation (entry → scored) the whole
        batch shares."""
        self.latency.record_many(latency_ms)
        self._queue_wait.record_many((flushed_at - enqueued_at) * 1e3)
        self._flush_compute.record((scored_at - flushed_at) * 1e3)

    # -- ingestion and time ------------------------------------------------------------
    def ingest_events(self, events: Iterable[EdgeEvent]) -> int:
        """Fold live edge events into the resident graph and hand the
        commit to the tier's engine(s); returns the batch size.

        With a store attached the batch is WAL-logged *before* anything
        moves (and before this method returns — ingestion is only
        acknowledged once durable).  The embedding rows the batch
        touches are invalidated but not recomputed: recomputation is
        deferred to the flushes that read them, so event bursts
        coalesce into partial recomputes.
        """
        events = list(events)
        self._ingest(events)
        return len(events)

    def _ingest(self, events: list, folded: tuple | None = None) -> None:
        """Fold the batch over the resident once, WAL it before anything
        moves or is acknowledged, commit that same fold (an empty batch
        commits in O(1), unfolded and unlogged) and hand the commit to
        the tier.  ``folded`` is the fold a WAL replay already made: it
        commits as it stands, unlogged."""
        with self.telemetry.trace("serve.ingest", events=len(events)):
            with self.telemetry.trace("serve.commit"):
                if folded is None and events:
                    folded = fold_event_batch(self.ingestor.resident, events)
                    if self.store is not None and not self._store_replaying:
                        self.store.append_events(events, folded=folded)
                result = self.ingestor.commit(events, folded)
            self._apply_commit(result)
            self._fresh_commit = True
            self.counters.events_ingested += result.num_events
            self.counters.commits += 1

    def advance_time(self, snapshot: GraphSnapshot | None = None, *,
                     diff=None) -> None:
        """Cross a timestep boundary: every engine settles the rows
        still stale against the ending step's graph, moves its temporal
        carries forward and recomputes every row.  With a store
        attached the boundary seals a WAL timestep (a rebase
        ``snapshot`` lands as a GD delta) and the engine state is
        captured every ``state_interval`` boundaries.  ``diff`` is the
        optional GD delta from the current resident to a rebase
        ``snapshot``: with it the Ã maintainers advance incrementally
        instead of rebuilding (recovery replay passes the store-decoded
        delta here)."""
        with self.telemetry.trace("serve.advance",
                                  rebase=snapshot is not None):
            if self.store is not None and not self._store_replaying:
                if snapshot is not None:
                    self.store.append_snapshot(snapshot)
                else:
                    self.store.seal_step()
            if snapshot is not None:
                self.ingestor.rebase(snapshot)
            # counted first: the tier's hook reads the boundary's ordinal
            self.counters.advances += 1
            self.counters.rows_advanced += self._cross_boundary(snapshot,
                                                                diff)
            self._fresh_commit = False
            self._store_maybe_capture()

    # -- stats ---------------------------------------------------------------------------
    def stats(self) -> FrontendStats:
        """Point-in-time view: counters, latency percentiles, elapsed
        time, and the tier's own fields."""
        now = self.clock()
        elapsed = (now - self._started_at) if self._started_at is not None \
            else 0.0
        return self._stats_type(counters=self.counters,
                                latency_p50_ms=self.latency.p50,
                                latency_p95_ms=self.latency.p95,
                                latency_p99_ms=self.latency.p99,
                                latency_mean_ms=self.latency.mean,
                                elapsed_s=elapsed, **self._tier_stats())

    # -- observability export ----------------------------------------------------------
    def _collect_metrics(self) -> None:
        """Sync the authoritative plain-int counters into the metrics
        registry.  Runs at export time, never on the hot path — the
        registry mirrors, it does not double-count."""
        reg = self.telemetry.registry
        for field in fields(self.counters):
            reg.counter(f"serve_{field.name}_total").set_to(
                getattr(self.counters, field.name))
        reg.gauge("serve_queue_depth",
                  "Pending queries awaiting a flush").set(self._queued)
        self._collect_tier_metrics(reg)
        if self.store is not None:
            self.store.collect_metrics(reg)

    def _collect_tier_metrics(self, reg) -> None:
        """Tier-specific registry sync (engine, maintainer, shards)."""

    def prometheus(self) -> str:
        """Live Prometheus text exposition (counters synced first)."""
        self._collect_metrics()
        return self.telemetry.prometheus()

    def export_jsonl(self, target, *, spans: bool = True) -> int:
        """Write the synced metrics (and retained span trees) as JSONL
        events; returns the number of events written."""
        self._collect_metrics()
        return self.telemetry.export_jsonl(target, spans=spans)

    def span_tree(self, *, min_ms: float = 0.0) -> str:
        """Human-readable dump of the retained span trees (empty unless
        the telemetry was built with ``tracing=True``)."""
        return self.telemetry.span_tree(min_ms=min_ms)

    def attach_slo(self, slo: SloEngine | None = None, *,
                   window: int = 60) -> SloEngine:
        """Attach (or build) an :class:`SloEngine` over this server's
        registry; :meth:`dashboard` renders its verdicts from then on.
        Returns the engine so callers can declare targets fluently::

            server.attach_slo().quantile(
                "p99-latency", "serve_latency_ms", q=99, threshold=5.0)
        """
        if slo is None:
            slo = SloEngine(self.telemetry.registry, window=window)
        self.slo = slo
        return slo

    def dashboard(self, *, title: str | None = None) -> str:
        """Live text dashboard of this tier (counters synced first; on
        an :class:`~repro.exec.router.ExecRouter` the sync also drains
        worker telemetry, so the view covers the whole cluster)."""
        self._collect_metrics()
        if title is None:
            title = f"{type(self).__name__} dashboard"
        return render_dashboard(self.telemetry, slo=self.slo,
                                title=title)

    # -- durability ------------------------------------------------------------------------
    def attach_store(self, store, *, state_interval: int = 1,
                     capture: bool = True) -> None:
        """Make ingestion durable through a
        :class:`~repro.store.store.GraphStore`.

        Every subsequent event batch is WAL-logged *before* it is
        acknowledged and every ``advance_time`` seals a timestep, so
        ``recover()`` can reboot an identical server after a crash.  A
        fresh store adopts the current resident snapshot as its sealed
        step 0; a non-empty store must already be at the resident state
        (its live tip is checked against the resident).
        ``state_interval`` controls how many timestep boundaries pass
        between engine-state captures (the recovery "bases"); the
        initial capture happens here unless ``capture=False``.
        """
        if store.num_vertices != self.num_vertices:
            raise ConfigError(
                f"store covers {store.num_vertices} vertices, server "
                f"resident has {self.num_vertices}")
        resident = self.ingestor.resident
        if store.num_timesteps == 0 and store.wal.num_records <= 1:
            store.append_snapshot(resident)
        elif not (store.tip == resident):
            raise ConfigError(
                "store tip does not match the resident snapshot; "
                "recover() from the store instead of attaching it")
        self.store = store
        # the store reports through the server's telemetry from now on:
        # its spans nest under the serving spans and its counters land
        # in the same registry the server exports
        store.telemetry = self.telemetry
        self._store_state_interval = max(1, int(state_interval))
        if capture:
            self._capture_store_state()

    def _capture_store_state(self) -> None:
        meta, arrays = self._capture_state()
        self.store.save_engine_state(meta, arrays)

    def _store_maybe_capture(self) -> None:
        """Capture engine state every ``state_interval`` boundaries."""
        if self.store is not None and not self._store_replaying and \
                self.counters.advances % self._store_state_interval == 0:
            self._capture_store_state()

    @classmethod
    def recover(cls, store, *, checkpoint: str | None = None,
                model: DynamicGNN | None = None,
                state_interval: int = 1, **kwargs):
        """Reboot a crashed tier from (model checkpoint, newest
        engine-state capture, WAL tail replay).

        The recovered tier's resident graph, temporal state and served
        embeddings equal the pre-crash tier's exactly: the capture
        restores the per-vertex arrays bit for bit and the tail ops
        re-run through the same ``ingest_events`` / ``advance_time``
        numerics.  ``kwargs`` go to the tier's constructor.
        """
        if checkpoint is not None:
            from repro.train.checkpoint import load_model_checkpoint
            ckpt = load_model_checkpoint(checkpoint)
            model = ckpt.model if model is None else model
            kwargs.setdefault("link_head", ckpt.link_head)
            kwargs.setdefault("fraud_head", ckpt.fraud_head)
        if model is None:
            raise ConfigError("recover needs a checkpoint path or a model")
        state = store.latest_engine_state()
        if state is None:
            raise StoreError(
                "store holds no engine-state capture; serve with "
                "attach_store(...) so recovery has a starting point")
        meta, arrays = state
        resident = store._state_at_record(meta["record_index"])
        tier = cls._restore(model, resident, meta, arrays, kwargs)
        tier._replay_store_tail(store, meta["record_index"], state_interval)
        return tier

    def _replay_store_tail(self, store, record_index: int,
                           state_interval: int) -> bool:
        """Re-run the WAL ops after ``record_index`` through the normal
        ingest/advance paths (with logging suspended) and re-attach the
        store.  Takes no capture: the one recovery started from plus the
        WAL still reproduce this state.  Returns whether the tail
        crossed a timestep boundary."""
        crossed = False
        self.store = store
        store.telemetry = self.telemetry
        self._store_state_interval = max(1, int(state_interval))
        self._store_replaying = True
        try:
            # the resident IS the state at record_index (recovery just
            # materialized it) — hand it over so the tail replay does
            # not rebuild the log prefix a second time
            for op, payload in store.replay_tail(
                    record_index, start=self.ingestor.resident):
                if op == "events":
                    self._ingest(*payload)
                elif op == "rebase":
                    # snapshot-sealed boundary: the decoded GD delta
                    # keeps the resident Ã maintainer incremental
                    snapshot, diff = payload
                    self.advance_time(snapshot, diff=diff)
                else:
                    self.advance_time(payload)
                crossed = crossed or op != "events"
        finally:
            self._store_replaying = False
        return crossed


class ModelServer(QueryFrontend):
    """Serves link-prediction and fraud-score queries over a live graph.

    Parameters
    ----------
    model:
        Trained dynamic GNN (CD-GCN / EvolveGCN / TM-GCN).
    snapshot:
        Initial resident graph (typically the last training snapshot).
    link_head:
        Optional trained :class:`EdgeScorer`; without it, link queries
        score by the sigmoid of the embedding dot product.
    fraud_head:
        Optional trained :class:`Linear` classifier (class 1 =
        suspicious); required for fraud queries.
    max_batch_size / flush_latency_ms:
        Micro-batching knobs: flush when the queue is full, or when the
        oldest queued request exceeds the latency budget.
    incremental:
        ``False`` recomputes every row on each refresh — the full
        recompute oracle incremental serving must equal.
    kernel_backend:
        Kernel backend (name or instance) the engine's sparse kernels
        run on; ``None`` applies the selection precedence
        (``REPRO_KERNEL_BACKEND`` env, then ``reference``).
    clock:
        Seconds-returning callable (default ``time.perf_counter``).
    """

    _stats_type = ServerStats

    def __init__(self, model: DynamicGNN, snapshot: GraphSnapshot, *,
                 link_head: EdgeScorer | None = None,
                 fraud_head: Linear | None = None,
                 max_batch_size: int = 64,
                 flush_latency_ms: float = 2.0,
                 incremental: bool = True,
                 telemetry: Telemetry | None = None,
                 kernel_backend=None,
                 clock: Callable[[], float] = time.perf_counter) -> None:
        self._init_frontend(model, snapshot, ServerCounters(), link_head,
                            fraud_head, max_batch_size, flush_latency_ms,
                            clock, telemetry)
        self.engine = InferenceEngine(model, snapshot,
                                      telemetry=self.telemetry,
                                      kernel_backend=kernel_backend)
        self.incremental = incremental
        self.engine.advance()  # prime embeddings for the initial snapshot
        self.counters.advances += 1

    @property
    def cache(self) -> EmbeddingCache:
        return self.engine.cache

    @property
    def num_vertices(self) -> int:
        return self.engine.num_vertices

    # -- tier hooks --------------------------------------------------------------------
    def _apply_commit(self, result: IngestResult) -> None:
        if self.incremental:
            # the GD delta rides along so the engine's Ã maintainer
            # applies it incrementally instead of rebuilding
            self.engine.set_snapshot(result.snapshot, seeds=result.dirty,
                                     diff=result.diff)
        else:
            # the full-recompute baseline keeps the pre-kernel cost
            # profile: no delta, full operator rebuild
            self.engine.set_snapshot(result.snapshot, seeds=None)

    def _cross_boundary(self, snapshot: GraphSnapshot | None,
                        diff) -> int:
        # rows still stale against the ending step settle first (one
        # full refresh, counted like any other)
        self._refresh()
        self.engine.advance(snapshot, diff=diff if self.incremental
                            else None)
        return self.engine.num_vertices

    def _answer_batch(self, ends: np.ndarray, is_link: np.ndarray,
                      cone: bool, shed: np.ndarray) -> tuple:
        """Refresh the cache (the batch's read cone when ``cone``) and
        score the batch from it; nothing is shed."""
        self._refresh(ends.ravel() if cone else None)
        fresh_at = self.clock()
        z = self.cache.embeddings
        scores = np.empty(len(ends))
        if is_link.any():
            scores[is_link] = score_links(z, ends[is_link], self.link_head)
        if not is_link.all():
            is_fraud = ~is_link
            scores[is_fraud] = score_fraud(z, ends[is_fraud, 0],
                                           self.fraud_head)
        return scores, fresh_at, None

    def _capture_state(self) -> tuple[dict, dict]:
        return capture_engine_state(self.engine)

    @classmethod
    def _restore(cls, model: DynamicGNN, resident: GraphSnapshot,
                 meta: dict, arrays: dict, kwargs: dict) -> "ModelServer":
        server = cls(model, resident, **kwargs)
        restore_engine_state(server.engine, meta, arrays)
        return server

    def _collect_tier_metrics(self, reg) -> None:
        maintainer = self.engine.maintainer
        for series, field in (("updates", "updates"),
                              ("incremental", "incremental_updates"),
                              ("full_rebuilds", "full_rebuilds"),
                              ("fallbacks", "fallbacks")):
            reg.counter(f"serve_maintainer_{series}_total").set_to(
                getattr(maintainer, field))
        reg.counter("serve_engine_steps_total",
                    "Timestep boundaries the engine crossed").set_to(
            self.engine.steps)
        reg.counter("serve_epilogue_rows_total",
                    "Rows the engine's dense epilogue computed, summed "
                    "over layers").set_to(self.engine.epilogue_rows)
        reg.counter("serve_epilogue_tiles_total",
                    "Fixed-shape tiles those rows ran in").set_to(
            self.engine.epilogue_tiles)
        reg.gauge("serve_cache_dirty_rows",
                  "Rows invalidated and awaiting recompute").set(
            self.cache.num_dirty)
        hit_rate = self.counters.cache_hit_rate
        if not math.isnan(hit_rate):
            reg.gauge("serve_cache_hit_rate",
                      "Fraction of rows served from the embedding "
                      "cache").set(hit_rate)

    # -- scoring ----------------------------------------------------------------------
    def _refresh(self, reads: np.ndarray | None = None) -> None:
        """Recompute the stale rows vertices ``reads`` depend on (every
        stale row when ``None``; every row at all without
        ``incremental``), counted as one refresh if any row ran."""
        cache = self.cache
        if cache.num_dirty == 0:
            return
        if not self.incremental:
            cache.invalidate_all()
            reads = None
        with self.telemetry.trace("serve.refresh",
                                  cone=reads is not None) as span:
            recomputed = self.engine.refresh(reads)
            span.set(rows=recomputed,
                     layer_rows=self.engine.refresh_layer_rows)
        if recomputed:
            self.counters.refreshes += 1
            self.counters.rows_recomputed += recomputed
            self.counters.rows_served_from_cache += \
                self.engine.num_vertices - recomputed
