"""The transport-agnostic worker RPC boundary.

The sharded tier's router/worker split was designed as a message
protocol (deltas and pre-expanded dirty frontiers with their hop
counts in, entrant rows and scores out) but executed as plain method
calls.  This module names that protocol: a :class:`WorkerTransport` is
one shard worker reachable through ``submit``/``result`` — submit posts
an RPC and returns immediately, result blocks for the reply — so a
router can *pipeline* a fan-out (submit to every shard, then collect)
regardless of whether the worker lives in this process
(:mod:`repro.exec.simulated`, the deterministic oracle) or in its own
OS process over pipes and shared memory (:mod:`repro.exec.mp`).

The RPC surface is deliberately the shard worker's verb set —
``begin_advance`` / ``finish_advance`` / ``apply_delta`` / ``refresh``
/ ``embedding_rows`` / ``score`` / ``import_temporal`` — plus the
state-transplant verbs recovery needs.  Payloads are GD deltas and row
sets, never snapshots: every worker folds each delta into its own
resident mirror (:func:`~repro.graph.diff.apply_diff` is exact), which
is what keeps the wire O(delta) and the two backends bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ExecError
from repro.graph.snapshot import GraphSnapshot
from repro.models.base import DynamicGNN
from repro.nn.linear import EdgeScorer, Linear

__all__ = ["WorkerBoot", "TransportStats", "WorkerStats",
           "WorkerTransport", "payload_nbytes"]


def payload_nbytes(obj) -> int:
    """Deterministic wire-cost measure of an RPC payload: array bytes
    (``ndarray.nbytes``), recursing through lists/tuples, plus any
    object that knows its own ``payload_nbytes`` (a
    :class:`~repro.graph.diff.SnapshotDiff`).  Scalars and ``None``
    count zero.  Both backends charge payloads through this — *not*
    through pickle length — so byte counters match bit for bit between
    the simulated oracle and real worker processes."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (list, tuple)):
        return sum(payload_nbytes(o) for o in obj)
    own = getattr(obj, "payload_nbytes", None)
    if own is not None:
        return int(own)
    return 0


@dataclass
class WorkerBoot:
    """Everything needed to construct one shard worker from scratch.

    Shipped once at spawn time (for the multiprocessing backend the
    array members travel through shared memory, not the pipe).  The
    ``owner`` array doubles as the worker's routing oracle: the block it
    serves is ``flatnonzero(owner == shard_id)`` and ghost-row
    accounting needs the full map.
    """

    shard_id: int
    model: DynamicGNN
    snapshot: GraphSnapshot
    owner: np.ndarray
    num_shards: int
    link_head: EdgeScorer | None = None
    fraud_head: Linear | None = None
    # which replica of the shard this worker is (0 = the initial
    # primary); only telemetry naming depends on it — replicas are
    # numerically identical by construction
    replica_id: int = 0
    # kernel backend *name* (a string pickles; compiled handles do
    # not) — the worker process resolves it locally at boot, falling
    # back to reference with a warning if the backend is unavailable
    # there.  None applies the worker-side selection precedence.
    kernel_backend: str | None = None

    @property
    def block(self) -> np.ndarray:
        return np.flatnonzero(
            np.asarray(self.owner, dtype=np.int64) == self.shard_id)


@dataclass
class TransportStats:
    """Wire-level accounting for one transport (router side)."""

    roundtrips: int = 0
    bytes_sent: int = 0
    bytes_received: int = 0
    send_seconds: float = 0.0
    shm_rows_read: int = 0         # embedding rows read via shared memory
    shm_bytes_read: int = 0


@dataclass(frozen=True)
class WorkerStats:
    """Worker-side counters fetched over RPC (point in time).

    ``rpc_calls`` / ``rpc_payload_bytes`` break the worker's served
    RPCs down per verb (``{"refresh": 12, ...}``; bytes measured by
    :func:`payload_nbytes`) — liveness polling doubles as a cheap load
    signal even when full telemetry harvesting is off."""

    busy_s: float = 0.0
    rows_recomputed: int = 0
    rows_advanced: int = 0
    queries_scored: int = 0
    deltas_applied: int = 0
    coverage_rows: int = 0
    rpc_calls: dict = field(default_factory=dict)
    rpc_payload_bytes: dict = field(default_factory=dict)


class WorkerTransport:
    """One shard worker reachable through submit/result RPC.

    Subclasses implement :meth:`submit` (post one RPC; never blocks on
    the worker's execution) and :meth:`result` (block for the pending
    reply).  At most one RPC may be pending per transport — the router
    pipelines across *shards*, not within one worker, which keeps every
    worker single-threaded and deterministic.

    Routers submit verbs by name; the protocol is the worker's
    ``rpc_<verb>`` set (:class:`~repro.exec.service.WorkerService`).
    The wrappers below are the verbs a backend serves its own way
    (:meth:`embedding_rows`, from shared memory in worker processes)
    or whose reply callers read typed.

    When the owning router traces, it sets :attr:`tracer` and every
    submit carries the innermost open span as a trace-context envelope
    (see :meth:`_trace_context`); with tracing off — the default — the
    context is ``None`` and the wire format is byte-identical to the
    untraced protocol, so the hot path allocates nothing extra.
    """

    shard_id: int
    stats: TransportStats
    # the router's Tracer (set at spawn); None = never propagate
    tracer = None

    def _trace_context(self) -> tuple | None:
        """The ``(trace_id, span_id)`` envelope this RPC should carry —
        ``None`` unless the router traces *and* a span is open."""
        if self.tracer is None:
            return None
        return self.tracer.current_context()

    def submit(self, method: str, *args, seq: int | None = None) -> None:
        """Post one RPC.  ``seq`` is the caller's per-shard monotonic
        call id for mutating verbs: the worker remembers the ids it has
        applied and answers a redelivery from its reply cache instead of
        re-executing (see :meth:`WorkerService.dispatch`), which is what
        makes at-least-once retry safe for non-idempotent verbs."""
        raise NotImplementedError

    def result(self):
        raise NotImplementedError

    def call(self, method: str, *args, seq: int | None = None):
        self.submit(method, *args, seq=seq)
        return self.result()

    # -- reads ----------------------------------------------------------------------
    def embedding_rows(self, rows: np.ndarray) -> np.ndarray:
        """Served embedding rows (backends may satisfy this from a
        shared-memory mapping instead of an RPC round-trip)."""
        return self.call("embedding_rows", rows)

    # -- introspection / liveness ----------------------------------------------------
    def worker_stats(self) -> WorkerStats:
        return self.call("stats")

    def telemetry(self) -> tuple:
        """Drain the worker's telemetry: ``(harvest, finished_spans)``
        — a delta-encoded :meth:`MetricsRegistry.harvest` envelope plus
        the worker's finished span trees in wire form.  Draining is
        idempotent on the receiving side (the envelope carries a
        source/seq, see :meth:`MetricsRegistry.merge`)."""
        return self.call("telemetry")

    def ping(self, timeout: float | None = None) -> bool:
        """Heartbeat: True iff the worker answered within ``timeout``."""
        raise NotImplementedError

    @property
    def alive(self) -> bool:
        raise NotImplementedError

    def close(self) -> None:
        """Release the worker (terminate its process, if it has one)."""

    # -- debug / fault injection (tests) ----------------------------------------------
    def debug_exit(self) -> None:
        """Ask the worker to die abruptly (no reply).  In-process
        backends mark themselves dead instead."""
        raise ExecError("this transport cannot simulate a crash")
