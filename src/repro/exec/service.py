"""Worker-side RPC dispatch: one :class:`ShardWorker` behind a mailbox.

A :class:`WorkerService` is the half of the execution tier that lives
*with* the worker — in-process for the simulated backend, inside the
spawned process for the multiprocessing backend.  It owns the worker's
resident topology mirror and resolves each RPC's graph arguments:

* with a :class:`Substrate` (simulated backend), the snapshot /
  features / dinv are the router-published shared objects — zero-copy,
  the in-process oracle's memory-sharing fiction;
* without one (real worker), each ``apply_delta`` / rebase folds the GD
  delta into the local mirror with :func:`~repro.graph.diff.apply_diff`
  (checksum-verified, bit-exact) and re-derives the degree features
  locally — the fold is genuine worker work and is charged to the
  worker's busy clock.

Both paths drive the *same* :class:`ShardWorker` numerics, which is the
oracle-vs-real parity guarantee: the only difference between backends
is who materializes the snapshot, and :func:`apply_diff` reconstructs
it exactly.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from typing import Callable

import numpy as np

from repro.errors import ExecError
from repro.graph.diff import apply_diff
from repro.graph.snapshot import GraphSnapshot
from repro.obs import Telemetry
from repro.serve.engine import derive_serving_features
from repro.serve.sharded.worker import ShardWorker
from repro.exec.transport import WorkerBoot, WorkerStats, payload_nbytes

__all__ = ["Substrate", "WorkerService"]


class Substrate:
    """Router-published shared simulation substrate (simulated backend).

    Holds the one resident snapshot + derived features every in-process
    worker reads — the memory-sharing fiction the simulated tier has
    always used, made explicit so the RPC layer can swap it out."""

    def __init__(self, snapshot: GraphSnapshot) -> None:
        self.snapshot = snapshot
        self.features, self.dinv = derive_serving_features(snapshot)

    def publish(self, snapshot: GraphSnapshot, features: np.ndarray,
                dinv: np.ndarray) -> None:
        self.snapshot = snapshot
        self.features = features
        self.dinv = dinv


class WorkerService:
    """Hosts one shard worker and dispatches RPCs onto it."""

    def __init__(self, boot: WorkerBoot, *, substrate: Substrate | None = None,
                 maintainer=None,
                 clock: Callable[[], float] = time.perf_counter,
                 on_embeddings: Callable[[], None] | None = None,
                 telemetry: Telemetry | None = None) -> None:
        self.boot = boot
        self.substrate = substrate
        self.owner = np.asarray(boot.owner, dtype=np.int64)
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
        # the local resident mirror (real-worker path); the substrate
        # path reads the shared snapshot instead and never touches these
        self.resident = boot.snapshot
        if boot.features is not None:
            self._features, self._dinv = boot.features, boot.dinv
        else:
            self._features, self._dinv = derive_serving_features(
                boot.snapshot)
        self.worker = ShardWorker(
            boot.shard_id, boot.replica_id, boot.model, boot.snapshot,
            boot.block, link_head=boot.link_head, fraud_head=boot.fraud_head,
            k_hops=boot.k_hops, features=self._features, dinv=self._dinv,
            maintainer=maintainer, kernel_backend=boot.kernel_backend,
            clock=clock)
        # backend hook run after every op that (re)writes embeddings —
        # the mp backend uses it to keep the shared-memory embedding
        # block bound to the engine's output array
        self.on_embeddings = on_embeddings or (lambda: None)
        self.on_embeddings()

    # -- graph-argument resolution ----------------------------------------------------
    def _fold(self, diff) -> None:
        """Advance the local mirror by one GD delta (exact), re-deriving
        degree features; charged to the worker's busy clock — a real
        worker pays this fold, the substrate fiction never did."""
        t0 = self.worker.clock()
        self.resident = apply_diff(self.resident, diff)
        self._features, self._dinv = derive_serving_features(self.resident)
        self.worker.busy_s += self.worker.clock() - t0

    def _resolved(self) -> tuple:
        if self.substrate is not None:
            sub = self.substrate
            return sub.snapshot, sub.features, sub.dinv
        return self.resident, self._features, self._dinv

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
        if self.substrate is None:
            if diff is not None:
                self._fold(diff)
            elif snapshot is not None:
                t0 = self.worker.clock()
                self.resident = snapshot
                self._features, self._dinv = derive_serving_features(
                    snapshot)
                self.worker.busy_s += self.worker.clock() - t0
        snap, features, dinv = self._resolved()
        self.worker.begin_advance(snap, features, dinv, diff=diff)

    def rpc_finish_advance(self) -> int:
        advanced = self.worker.finish_advance()
        self.on_embeddings()
        return advanced

    def rpc_apply_delta(self, diff, dirty) -> tuple:
        if self.substrate is None:
            self._fold(diff)
        snap, features, dinv = self._resolved()
        entrants = self.worker.apply_delta(snap, features, dinv, dirty,
                                           diff=diff)
        covered = self.worker.engine.restrict_to_coverage(dirty)
        ghost_dirty = int((self.owner[covered] != self.shard_id).sum())
        return entrants, ghost_dirty

    def rpc_refresh(self) -> int:
        recomputed = self.worker.refresh()
        self.on_embeddings()
        return recomputed

    def rpc_embedding_rows(self, rows) -> np.ndarray:
        return self.worker.embedding_rows(rows)

    def rpc_score(self, link_pairs, link_dst_rows, fraud_accounts) -> tuple:
        return self.worker.score(link_pairs, link_dst_rows, fraud_accounts)

    def rpc_halo_rows(self) -> np.ndarray:
        return self.worker.engine.halo

    def rpc_export_temporal(self, rows) -> list:
        return self.worker.engine.export_temporal(rows)

    def rpc_import_temporal(self, rows, payload) -> int:
        return self.worker.engine.import_temporal(rows, payload)

    def rpc_export_state(self) -> tuple:
        engine = self.worker.engine
        block = self.worker.engine.block
        return (engine.export_state_rows(block),
                np.array(engine.cache.dirty, copy=True),
                int(engine.steps))

    def rpc_adopt_state(self, exports, steps, dirty) -> None:
        t0 = self.worker.clock()
        engine = self.worker.engine
        engine.adopt_state(exports, steps)
        if len(dirty):
            engine.cache.mark_dirty(engine.restrict_to_coverage(dirty))
        self.worker._charge(t0)
        self.on_embeddings()

    def rpc_stats(self) -> WorkerStats:
        w = self.worker
        return WorkerStats(busy_s=w.busy_s,
                           rows_recomputed=w.rows_recomputed,
                           rows_advanced=w.rows_advanced,
                           queries_scored=w.queries_scored,
                           deltas_applied=w.deltas_applied,
                           coverage_rows=len(w.engine.coverage),
                           rpc_calls=dict(self.rpc_calls),
                           rpc_payload_bytes=dict(self.rpc_payload_bytes))

    def _sync_worker_metrics(self) -> None:
        """Fold the authoritative plain counters into the worker's own
        registry (export-time sync, same discipline as the serving
        tiers — nothing double-counts on a hot path)."""
        reg = self.telemetry.registry
        w = self.worker
        reg.gauge("worker_busy_seconds",
                  "Worker busy clock (perf_counter inside the "
                  "process)").set(w.busy_s)
        reg.counter("worker_rows_recomputed_total").set_to(
            w.rows_recomputed)
        reg.counter("worker_rows_advanced_total").set_to(w.rows_advanced)
        reg.counter("worker_queries_scored_total").set_to(
            w.queries_scored)
        reg.counter("worker_deltas_applied_total").set_to(
            w.deltas_applied)
        reg.gauge("worker_coverage_rows",
                  "Rows this worker covers (owned + halo)").set(
            len(w.engine.coverage))
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
