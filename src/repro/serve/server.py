"""The batched model server: queries in, fraud/link scores out.

:class:`ModelServer` glues the serving subsystem together: a
:class:`~repro.serve.ingest.StreamIngestor` keeps the resident graph
current, an :class:`~repro.serve.engine.InferenceEngine` keeps the
embedding cache fresh (incrementally or via full recompute — the
``incremental=False`` server is the exactness oracle), and a micro-batching
request queue amortizes head evaluation: requests buffer until either
``max_batch_size`` is reached or the oldest request has waited
``flush_latency_ms`` (checked by :meth:`tick`, the event-loop hook).

The server is deliberately single-threaded and deterministic — the same
design as the simulated cluster: batching *policy* is what the paper's
style of system study cares about, and a thread pool would only blur
the measurements.  Wall time comes from an injectable ``clock`` so tests
can drive latency accounting deterministically.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from operator import attrgetter, index, itemgetter
from typing import Callable, Iterable

import numpy as np

from repro.errors import ConfigError, StoreError
from repro.graph.snapshot import GraphSnapshot
from repro.models.base import DynamicGNN
from repro.nn.linear import EdgeScorer, Linear
from repro.obs import SloEngine, Telemetry, render_dashboard
from repro.serve.cache import EmbeddingCache
from repro.serve.engine import TILE_ROWS, InferenceEngine
from repro.serve.ingest import (EdgeEvent, IngestResult, StreamIngestor,
                                fold_event_batch)
from repro.serve.metrics import LatencyTracker, ServerCounters, ServerStats
from repro.store.recovery import (capture_engine_state,
                                  restore_engine_state)

__all__ = ["PendingQuery", "QueryFrontend", "ModelServer", "score_links",
           "score_fraud"]


# C-speed field readers: a flush decodes its batch through these instead
# of running a Python-level pass per query
_payload, _enqueued_at = attrgetter("payload"), attrgetter("enqueued_at")
_first, _last = itemgetter(0), itemgetter(-1)


def _row_softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=-1, keepdims=True)
    ez = np.exp(shifted)
    return ez / ez.sum(axis=-1, keepdims=True)


def _head_logits(head: Linear, x: np.ndarray) -> np.ndarray:
    """``x @ W + b`` on zero-padded tiles of ``TILE_ROWS`` rows: the row
    count never picks the BLAS kernel, so a query's score does not
    depend on which queries share its flush (or its shard's group)."""
    m, k = x.shape
    tiles = np.zeros((-(-m // TILE_ROWS), TILE_ROWS, k))
    tiles.reshape(-1, k)[:m] = x
    logits = np.matmul(tiles, head.weight.data)
    logits = logits.reshape(-1, head.out_features)[:m]
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
    """Handle returned by ``submit_*``; resolved at flush time."""

    kind: str                     # "link" | "fraud"
    payload: tuple
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

    def _resolve(self, value: float, now: float) -> None:
        self.result = float(value)
        self.latency_ms = (now - self.enqueued_at) * 1e3
        self.done = True


class QueryFrontend:
    """The micro-batched request surface shared by the single-worker
    :class:`ModelServer` and the sharded router.

    Owns the pending-query queue and its batching policy: flush when
    ``max_batch_size`` requests are queued, or when the oldest request
    has waited ``flush_latency_ms`` (checked by :meth:`tick`).
    Subclasses implement :meth:`flush` (how a batch is answered) and
    ``num_vertices`` (the resident vertex set queries validate against),
    and provide ``counters`` with a ``queries_submitted`` field plus the
    optional ``fraud_head``.
    """

    def _init_frontend(self, max_batch_size: int, flush_latency_ms: float,
                       clock: Callable[[], float],
                       telemetry: Telemetry | None = None) -> None:
        if max_batch_size < 1:
            raise ConfigError("max_batch_size must be >= 1")
        if flush_latency_ms < 0:
            raise ConfigError("flush_latency_ms must be >= 0")
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
        self._queue: list[PendingQuery] = []
        self._started_at: float | None = None
        self.slo = None              # attached SloEngine (attach_slo)
        self.store = None            # attached GraphStore (durability)
        self._store_state_interval = 1
        self._store_replaying = False

    @property
    def num_vertices(self) -> int:
        raise NotImplementedError

    def flush(self) -> int:
        """Answer (up to) one micro-batch; returns completed queries."""
        raise NotImplementedError

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

    def submit_link(self, src: int, dst: int) -> PendingQuery:
        """Probability that edge ``(src, dst)`` exists/appears."""
        n = self.num_vertices
        try:
            s, d = index(src), index(dst)
        except TypeError:
            s = d = -1
        if not (0 <= s < n and 0 <= d < n):
            self._reject_vertices((src, dst), n)
        return self._submit(PendingQuery("link", (s, d), self.clock()))

    def submit_fraud(self, account: int) -> PendingQuery:
        """Probability that ``account`` is a suspicious (laundering)
        vertex, from the node-classification head."""
        if self.fraud_head is None:
            raise ConfigError("fraud queries need a fraud_head")
        n = self.num_vertices
        try:
            a = index(account)
        except TypeError:
            a = -1
        if not 0 <= a < n:
            self._reject_vertices((account,), n)
        return self._submit(PendingQuery("fraud", (a,), self.clock()))

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
        self._queue.append(query)
        self.counters.queries_submitted += 1
        if len(self._queue) >= self.max_batch_size:
            self.flush()
        return query

    def tick(self) -> int:
        """Event-loop hook: flush if the oldest request is past the
        latency budget.  Returns the number of completed queries."""
        if not self._queue:
            return 0
        waited_ms = (self.clock() - self._queue[0].enqueued_at) * 1e3
        if waited_ms >= self.flush_latency_ms:
            return self.flush()
        return 0

    def drain(self) -> int:
        """Flush until the queue is empty (end-of-stream helper)."""
        total = 0
        while self._queue:
            total += self.flush()
        return total

    def _record_flush(self, latency_ms: np.ndarray, enqueued_at: np.ndarray,
                      flushed_at: float, scored_at: float) -> None:
        """Where the answered queries' time went, at one reservoir
        update per series per flush: latency as the tier defines it,
        queue wait from each submit to the flush's entry, and one
        compute observation (entry → scored) the whole batch shares."""
        self.latency.record_many(latency_ms)
        self._queue_wait.record_many((flushed_at - enqueued_at) * 1e3)
        self._flush_compute.record((scored_at - flushed_at) * 1e3)

    # -- observability export (shared by both serving tiers) ---------------------------
    def _collect_metrics(self) -> None:
        """Sync the authoritative plain-int counters into the metrics
        registry.  Runs at export time, never on the hot path — the
        registry mirrors, it does not double-count."""
        import dataclasses
        reg = self.telemetry.registry
        for field in dataclasses.fields(self.counters):
            reg.counter(f"serve_{field.name}_total").set_to(
                getattr(self.counters, field.name))
        reg.gauge("serve_queue_depth",
                  "Pending queries awaiting a flush").set(len(self._queue))
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

    # -- durability plumbing (shared by ModelServer and ExecRouter) --------------
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

    def _capture_state(self) -> tuple[dict, dict]:
        """(meta, arrays) snapshot of the serving-engine state — the
        tier-specific half of the durability plumbing."""
        raise NotImplementedError

    def _capture_store_state(self) -> None:
        meta, arrays = self._capture_state()
        self.store.save_engine_state(meta, arrays)

    def _commit_events(self, events: list) -> tuple[int, IngestResult]:
        """Fold the batch over the resident once, WAL it before anything
        moves or is acknowledged, and commit that same fold (an empty
        batch commits in O(1), unfolded and unlogged)."""
        with self.telemetry.trace("serve.commit"):
            folded = fold_event_batch(self.ingestor.resident, events) \
                if events else None
            if folded is not None and self.store is not None and \
                    not self._store_replaying:
                self.store.append_events(events, folded=folded)
            count = self.ingestor.push_batch(events)
            return count, self.ingestor.commit(folded)

    def _store_log_boundary(self, snapshot) -> None:
        """Seal a WAL timestep at an ``advance_time`` boundary (a
        rebase snapshot lands as a GD delta record)."""
        if self.store is None or self._store_replaying:
            return
        if snapshot is not None:
            self.store.append_snapshot(snapshot)
        else:
            self.store.seal_step()

    def _store_maybe_capture(self) -> None:
        """Capture engine state every ``state_interval`` boundaries."""
        if self.store is not None and not self._store_replaying and \
                self.counters.advances % self._store_state_interval == 0:
            self._capture_store_state()

    @staticmethod
    def _recovery_state(store, checkpoint, model, kwargs):
        """Shared ``recover()`` prologue: resolve the model/heads from
        a checkpoint, fetch the newest engine capture, and materialize
        the resident graph at the capture point."""
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
        return model, meta, arrays, resident

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
                    self.ingest_events(payload)
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

    def __init__(self, model: DynamicGNN, snapshot: GraphSnapshot, *,
                 link_head: EdgeScorer | None = None,
                 fraud_head: Linear | None = None,
                 max_batch_size: int = 64,
                 flush_latency_ms: float = 2.0,
                 incremental: bool = True,
                 telemetry: Telemetry | None = None,
                 kernel_backend=None,
                 clock: Callable[[], float] = time.perf_counter) -> None:
        self._init_frontend(max_batch_size, flush_latency_ms, clock,
                            telemetry)
        self.model = model
        self.engine = InferenceEngine(model, snapshot,
                                      telemetry=self.telemetry,
                                      kernel_backend=kernel_backend)
        self.ingestor = StreamIngestor(snapshot)
        self.link_head = link_head
        self.fraud_head = fraud_head
        self.incremental = incremental
        self.counters = ServerCounters()
        # a commit since the last flush: the next flush refreshes only
        # its batch's cone (see flush)
        self._fresh_commit = False
        self.engine.advance()  # prime embeddings for the initial snapshot
        self.counters.advances += 1

    # -- durability ----------------------------------------------------------------
    # attach_store (WAL-before-ack, timestep seals, periodic captures)
    # is inherited from QueryFrontend; this class supplies the capture
    # payload and the recovery assembly.
    def _capture_state(self) -> tuple[dict, dict]:
        return capture_engine_state(self.engine)

    @classmethod
    def recover(cls, store, *, checkpoint: str | None = None,
                model: DynamicGNN | None = None,
                state_interval: int = 1, **kwargs) -> "ModelServer":
        """Reboot a crashed server from (model checkpoint, newest
        engine-state capture, WAL tail replay).

        The recovered server's resident graph, temporal state and
        served embeddings equal the pre-crash server's exactly: the
        capture restores the per-vertex arrays bit-for-bit and the tail
        ops re-run through the same ``ingest_events`` /
        ``advance_time`` numerics.
        """
        model, meta, arrays, resident = cls._recovery_state(
            store, checkpoint, model, kwargs)
        server = cls(model, resident, **kwargs)
        restore_engine_state(server.engine, meta, arrays)
        server._replay_store_tail(store, meta["record_index"],
                                  state_interval)
        return server

    # -- cache plumbing ------------------------------------------------------------
    @property
    def cache(self) -> EmbeddingCache:
        return self.engine.cache

    @property
    def num_vertices(self) -> int:
        return self.engine.num_vertices

    def _collect_tier_metrics(self, reg) -> None:
        maintainer = self.engine.maintainer
        reg.counter("serve_maintainer_updates_total").set_to(
            maintainer.updates)
        reg.counter("serve_maintainer_incremental_total").set_to(
            maintainer.incremental_updates)
        reg.counter("serve_maintainer_full_rebuilds_total").set_to(
            maintainer.full_rebuilds)
        reg.counter("serve_maintainer_fallbacks_total").set_to(
            maintainer.fallbacks)
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

    def stats(self) -> ServerStats:
        now = self.clock()
        elapsed = (now - self._started_at) if self._started_at is not None \
            else 0.0
        # copy the counters so the stats object really is point-in-time
        return ServerStats(counters=replace(self.counters),
                           latency_p50_ms=self.latency.p50,
                           latency_p95_ms=self.latency.p95,
                           latency_p99_ms=self.latency.p99,
                           latency_mean_ms=self.latency.mean,
                           elapsed_s=elapsed)

    # -- ingestion --------------------------------------------------------------------
    def ingest_events(self, events: Iterable[EdgeEvent]) -> int:
        """Fold live edge events into the resident graph.

        With a store attached the batch is WAL-logged *before* it is
        applied (and before this method returns — ingestion is only
        acknowledged once durable).  The embedding cache is invalidated
        (k-hop) but not refreshed — recomputation is deferred to the
        flushes that read it, so event bursts coalesce into partial
        recomputes.
        """
        events = list(events)
        with self.telemetry.trace("serve.ingest", events=len(events)):
            count, result = self._commit_events(events)
            self.counters.events_ingested += result.num_events
            self.counters.commits += 1
            if self.incremental:
                # the GD delta rides along so the engine's Ã maintainer
                # applies it incrementally instead of rebuilding
                self.engine.set_snapshot(result.snapshot,
                                         seeds=result.dirty,
                                         diff=result.diff)
                self._fresh_commit = True
            else:
                # the full-recompute baseline keeps the pre-kernel cost
                # profile: no delta, full operator rebuild
                self.engine.set_snapshot(result.snapshot, seeds=None)
        return count

    def advance_time(self, snapshot: GraphSnapshot | None = None, *,
                     diff=None) -> None:
        """Cross a timestep boundary: rows still stale against the ending
        step's graph are settled (one full refresh, counted like any
        other), then temporal carries move forward and every row
        recomputes (both serving modes pay this).  With a store attached
        the boundary seals a timestep in the WAL (a rebase snapshot
        lands as a GD delta) and the engine state is captured every
        ``state_interval`` boundaries.  ``diff`` is the optional GD
        delta from the current resident to a rebase ``snapshot`` — with
        it the engine's Ã maintainer advances incrementally instead of
        rebuilding (recovery replay passes the store-decoded delta
        here)."""
        with self.telemetry.trace("serve.advance",
                                  rebase=snapshot is not None):
            self._store_log_boundary(snapshot)
            self._refresh()
            self._fresh_commit = False
            self.engine.advance(snapshot, diff=diff if self.incremental
                                else None)
            if snapshot is not None:
                self.ingestor.rebase(snapshot)
            self.counters.advances += 1
            self.counters.rows_advanced += self.engine.num_vertices
            self._store_maybe_capture()

    # -- queries ----------------------------------------------------------------------
    def flush(self) -> int:
        """Refresh the cache and answer every queued query in one batch.

        What does not depend on the individual query is paid once per
        batch: it decodes into arrays, both heads score into one array
        and each latency series takes one reservoir update.  The batch
        leaves the queue only once answered, so a flush that raises (a
        failing refresh) loses nothing — the next flush answers it.

        The refresh follows a ski-rental rule.  The first flush after a
        commit recomputes only its batch's read cone; a second flush
        before the next commit recomputes every row still stale, so
        read-heavy steps pay at most two refreshes per commit, and the
        boundary settles whatever no flush read."""
        if not self._queue:
            return 0
        batch = self._queue[:self.max_batch_size]
        n = len(batch)
        with self.telemetry.trace("serve.query", batch=n):
            flushed_at = self.clock()
            payloads = list(map(_payload, batch))
            # a row of endpoints per query; a fraud query's account is both
            ends = np.empty((n, 2), dtype=np.int64)
            ends[:, 0] = np.fromiter(map(_first, payloads), np.int64, n)
            ends[:, 1] = np.fromiter(map(_last, payloads), np.int64, n)
            is_link = np.fromiter(map(len, payloads), np.int64, n) == 2
            enqueued_at = np.fromiter(map(_enqueued_at, batch),
                                      np.float64, n)
            self._refresh(ends.ravel() if self._fresh_commit else None)
            self._fresh_commit = False
            z = self.cache.embeddings
            now = self.clock()
            scores = np.empty(n)
            if is_link.any():
                scores[is_link] = self._score_links(z, ends[is_link])
            if not is_link.all():
                is_fraud = ~is_link
                scores[is_fraud] = self._score_fraud(z, ends[is_fraud, 0])
            latency_ms = (now - enqueued_at) * 1e3
            self._record_flush(latency_ms, enqueued_at, flushed_at,
                               self.clock())
            for q, score, ms in zip(batch, scores.tolist(),
                                    latency_ms.tolist()):
                q.result = score
                q.latency_ms = ms
                q.done = True
            del self._queue[:n]
            self.counters.queries_completed += n
            self.counters.batches_flushed += 1
        if self._queue:  # drained in max_batch_size chunks
            return n + self.flush()
        return n

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

    def _score_links(self, z: np.ndarray, pairs: np.ndarray) -> np.ndarray:
        return score_links(z, pairs, self.link_head)

    def _score_fraud(self, z: np.ndarray,
                     accounts: np.ndarray) -> np.ndarray:
        return score_fraud(z, accounts, self.fraud_head)
