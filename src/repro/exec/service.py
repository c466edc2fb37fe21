"""Worker-side RPC dispatch: one shard's engine behind a mailbox.

A :class:`WorkerService` is the half of the execution tier that lives
*with* the worker — in-process for the simulated backend, inside the
spawned process for the multiprocessing backend; the two backends host
the same service and differ by the transport only.  It owns one
:class:`~repro.serve.sharded.engine.ShardEngine` over its vertex block
plus the scoring heads, and everything derived from the resident graph
lives in that engine: each ``apply_delta`` / rebase folds the GD delta
into the engine's resident snapshot with
:func:`~repro.graph.diff.apply_diff` (checksum-verified before any
state mutates, bit-exact) and the engine's own ``Ã`` maintainer advances
by the same delta, degree features included.  Its cache keeps the
single-engine stale-layer rule (:mod:`repro.serve.sharded.engine`).

Every unit of model work is timed into ``busy_s`` — the per-worker busy
clock from which the tier's critical path is derived, exactly how the
training side charges per-rank :class:`~repro.cluster.clock.RankClock`
seconds.  Replication is the router-side
:class:`~repro.exec.channel.ShardChannel`'s business, not the worker's.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from typing import Callable

import numpy as np

from repro.errors import ConfigError, ExecError
from repro.graph.diff import apply_diff
from repro.graph.snapshot import GraphSnapshot
from repro.obs import Telemetry
from repro.serve.server import score_fraud, score_links
from repro.serve.sharded.engine import ShardEngine
from repro.exec.transport import WorkerBoot, WorkerStats, payload_nbytes

__all__ = ["WorkerService"]

_EMPTY = np.empty(0, dtype=np.int64)


class WorkerService:
    """One shard's serving worker (engine + heads + busy clock) and
    the RPC dispatch onto it."""

    def __init__(self, boot: WorkerBoot, *,
                 clock: Callable[[], float] = time.perf_counter,
                 on_embeddings: Callable[[], None] | None = None,
                 telemetry: Telemetry | None = None) -> None:
        self.boot = boot
        self.shard_id = boot.shard_id
        # the worker's own telemetry: its registry is harvested (and
        # its finished spans shipped) through the `telemetry` RPC verb;
        # node/source name this worker in span ids / harvest envelopes
        # replicas of one shard need distinct telemetry sources, or the
        # router's harvest dedup (keyed on source+seq) would collide
        name = f"worker{boot.shard_id}" if boot.replica_id == 0 else \
            f"worker{boot.shard_id}r{boot.replica_id}"
        self.telemetry = telemetry if telemetry is not None else \
            Telemetry(node=name, source=name)
        # per-verb RPC accounting (cheap load signal, see rpc_stats)
        self.rpc_calls: dict[str, int] = {}
        self.rpc_payload_bytes: dict[str, int] = {}
        # exactly-once dedup for sequenced (mutating) verbs: recently
        # applied call ids map to their cached replies, so an
        # at-least-once redelivery answers from here instead of
        # re-executing.  Retries are immediate and per-shard call ids
        # are monotonic, so a small window is plenty.
        self._applied: OrderedDict[int, object] = OrderedDict()
        self._dedup_window = 32
        self.rpc_deduped = 0
        self.engine = ShardEngine(boot.model, boot.snapshot, boot.block,
                                  telemetry=self.telemetry,
                                  kernel_backend=boot.kernel_backend)
        self.link_head = boot.link_head
        self.fraud_head = boot.fraud_head
        self.clock = clock
        self.busy_s = 0.0
        self.rows_recomputed = 0
        self.rows_advanced = 0
        self.queries_scored = 0
        self.deltas_applied = 0
        # backend hook run after every op that (re)writes embeddings —
        # the mp backend uses it to keep the shared-memory embedding
        # block bound to the engine's output array
        self.on_embeddings = on_embeddings or (lambda: None)
        self.on_embeddings()

    @property
    def resident(self) -> GraphSnapshot:
        """The worker's topology mirror (the engine's resident)."""
        return self.engine.resident

    def _charge(self, t0: float) -> None:
        self.busy_s += self.clock() - t0

    # -- RPC surface (dispatch targets) -----------------------------------------------
    def dispatch(self, method: str, args: tuple, ctx: tuple | None = None,
                 seq: int | None = None):
        """Serve one RPC.  ``ctx`` is the caller's trace context (a
        ``(trace_id, span_id)`` envelope); when present the handler
        runs under a ``worker.rpc`` > ``worker.<method>`` span pair
        parented beneath the router's ``exec.rpc`` span, and the
        finished spans ship back on the next telemetry drain.

        ``seq`` is the router's per-shard monotonic call id for
        mutating verbs.  A redelivered id (retry of a call whose reply
        was lost, or a duplicated wire frame) answers from the reply
        cache without touching worker state — at-least-once delivery
        plus this dedup is the tier's exactly-once application story.
        Only *successful* calls record their id: a failed apply leaves
        no state change, so the retry must genuinely re-execute."""
        handler = getattr(self, f"rpc_{method}", None)
        if handler is None:
            raise ExecError(f"unknown RPC method {method!r}")
        self.rpc_calls[method] = self.rpc_calls.get(method, 0) + 1
        self.rpc_payload_bytes[method] = \
            self.rpc_payload_bytes.get(method, 0) + payload_nbytes(args)
        if seq is not None and seq in self._applied:
            self.rpc_deduped += 1
            return self._applied[seq]
        if ctx is None:
            out = handler(*args)
        else:
            tracer = self.telemetry.tracer
            was_enabled = tracer.enabled
            tracer.enabled = True  # the caller traces, so this worker does
            try:
                with tracer.trace("worker.rpc", parent=ctx, method=method,
                                  shard=self.shard_id):
                    with tracer.trace(f"worker.{method}"):
                        out = handler(*args)
            finally:
                tracer.enabled = was_enabled
        if seq is not None:
            self._applied[seq] = out
            while len(self._applied) > self._dedup_window:
                self._applied.popitem(last=False)
        return out

    def rpc_begin_advance(self, snapshot, diff) -> None:
        """Cross into a boundary, rebasing onto ``snapshot`` or — the
        O(delta) wire — onto the resident advanced by ``diff``."""
        t0 = self.clock()
        if diff is not None:
            snapshot = apply_diff(self.resident, diff)
        self.engine.begin_advance(snapshot, diff=diff)
        self._charge(t0)

    def rpc_finish_advance(self) -> int:
        t0 = self.clock()
        advanced = self.engine.finish_advance()
        self.rows_advanced += advanced
        self._charge(t0)
        self.on_embeddings()
        return advanced

    def rpc_apply_delta(self, diff, dirty) -> tuple:
        """Fold one commit's GD delta into the mirror and mark the
        router's expansion ``dirty = (rows, hops)`` stale by hop count.
        ``apply_diff`` rejects a delta that does not extend the resident
        before anything mutates.  Returns the rows newly pulled into
        this shard's halo (whose frozen temporal state the exchange must
        import before the next refresh touches them) and the count of
        dirty ghost rows."""
        t0 = self.clock()
        engine = self.engine
        rows, hops = dirty
        engine.set_snapshot(apply_diff(self.resident, diff), seeds=_EMPTY,
                            diff=diff)
        entrants = engine.relax_halo(rows)
        engine.cache.mark_within(rows, hops)
        self.deltas_applied += 1
        self._charge(t0)
        return entrants, len(np.intersect1d(rows, engine.halo,
                                            assume_unique=True))

    def rpc_refresh(self) -> int:
        t0 = self.clock()
        recomputed = self.engine.refresh()
        self.rows_recomputed += recomputed
        self._charge(t0)
        self.on_embeddings()
        return recomputed

    def rpc_embedding_rows(self, rows) -> np.ndarray:
        """Served embedding rows (caller must route owned/covered rows;
        the engine is authoritative for its block only)."""
        t0 = self.clock()
        out = self.engine.embeddings[rows]
        self._charge(t0)
        return out

    def rpc_score(self, link_pairs, link_dst_rows, fraud_accounts) -> tuple:
        """Score a routed query group.

        ``link_pairs`` are ``(src, dst)`` vertex ids with every ``src``
        owned here; ``link_dst_rows`` carries the embedding rows of the
        ``dst`` column (gathered remotely by the router when the owner
        is another shard).  Returns (link scores, fraud scores).
        """
        t0 = self.clock()
        z = self.engine.embeddings
        link_scores = np.empty(0)
        fraud_scores = np.empty(0)
        if len(link_pairs):
            stacked = np.concatenate([z[link_pairs[:, 0]], link_dst_rows],
                                     axis=0)
            m = len(link_pairs)
            idx = np.stack([np.arange(m), np.arange(m, 2 * m)], axis=1)
            link_scores = score_links(stacked, idx, self.link_head)
        if len(fraud_accounts):
            if self.fraud_head is None:
                raise ConfigError("fraud queries need a fraud_head")
            fraud_scores = score_fraud(z, fraud_accounts, self.fraud_head)
        self.queries_scored += len(link_pairs) + len(fraud_accounts)
        self._charge(t0)
        return link_scores, fraud_scores

    def rpc_halo_rows(self) -> np.ndarray:
        return self.engine.halo

    def rpc_export_temporal(self, rows) -> list:
        return self.engine.export_temporal(rows)

    def rpc_import_temporal(self, rows, payload) -> int:
        return self.engine.import_temporal(rows, payload)

    def rpc_export_state(self) -> tuple:
        engine = self.engine
        block = engine.block
        return (engine.export_state_rows(block),
                block[engine.cache.stale[block] < engine.cache.num_layers],
                int(engine.steps))

    def rpc_adopt_state(self, exports, steps, dirty) -> None:
        t0 = self.clock()
        self.engine.adopt_state(exports, steps, dirty)
        self._charge(t0)
        self.on_embeddings()

    def rpc_stats(self) -> WorkerStats:
        return WorkerStats(busy_s=self.busy_s,
                           rows_recomputed=self.rows_recomputed,
                           rows_advanced=self.rows_advanced,
                           queries_scored=self.queries_scored,
                           deltas_applied=self.deltas_applied,
                           coverage_rows=len(self.engine.coverage),
                           rpc_calls=dict(self.rpc_calls),
                           rpc_payload_bytes=dict(self.rpc_payload_bytes))

    def _sync_worker_metrics(self) -> None:
        """Fold the authoritative plain counters into the worker's own
        registry (export-time sync, same discipline as the serving
        tiers — nothing double-counts on a hot path)."""
        reg = self.telemetry.registry
        reg.gauge("worker_busy_seconds",
                  "Worker busy clock (perf_counter inside the "
                  "process)").set(self.busy_s)
        reg.counter("worker_rows_recomputed_total").set_to(
            self.rows_recomputed)
        reg.counter("worker_rows_advanced_total").set_to(
            self.rows_advanced)
        reg.counter("worker_queries_scored_total").set_to(
            self.queries_scored)
        reg.counter("worker_deltas_applied_total").set_to(
            self.deltas_applied)
        reg.gauge("worker_coverage_rows",
                  "Rows this worker covers (owned + halo)").set(
            len(self.engine.coverage))
        m = self.engine.maintainer
        reg.counter("worker_maintainer_updates_total").set_to(m.updates)
        reg.counter("worker_maintainer_incremental_total").set_to(
            m.incremental_updates)
        reg.counter("worker_maintainer_full_rebuilds_total").set_to(
            m.full_rebuilds)
        reg.counter("worker_maintainer_fallbacks_total",
                    "Deltas this worker's maintainer could not apply "
                    "and rebuilt in full for").set_to(m.fallbacks)
        reg.counter("worker_epilogue_rows_total",
                    "Rows this worker's dense epilogue computed, summed "
                    "over layers").set_to(self.engine.epilogue_rows)
        reg.counter("worker_epilogue_tiles_total",
                    "Fixed-shape tiles those rows ran in").set_to(
            self.engine.epilogue_tiles)
        reg.counter("worker_rpc_deduped_total",
                    "Sequenced RPCs answered from the reply cache "
                    "(duplicate call ids)").set_to(self.rpc_deduped)
        for verb in sorted(self.rpc_calls):
            reg.counter("worker_rpc_calls_total",
                        "RPCs served, by verb",
                        verb=verb).set_to(self.rpc_calls[verb])
            reg.counter("worker_rpc_payload_bytes_total",
                        "Request payload bytes served, by verb",
                        verb=verb).set_to(
                self.rpc_payload_bytes.get(verb, 0))

    def rpc_telemetry(self) -> tuple:
        """Drain this worker's telemetry: a delta-encoded registry
        harvest plus the finished span trees (wire form).  The current
        `telemetry` call is already counted in ``rpc_calls`` (dispatch
        increments before the handler runs), so consecutive harvests
        stay consistent on both backends."""
        self._sync_worker_metrics()
        return (self.telemetry.registry.harvest(),
                self.telemetry.tracer.drain_finished())

    def rpc_ping(self) -> str:
        return "pong"

    def rpc_debug_sleep(self, seconds: float) -> None:
        time.sleep(seconds)
