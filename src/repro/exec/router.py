"""The sharded tier's front door: routing, admission, coalescing, fan-out.

:class:`ExecRouter` is the one sharded router.  It serves the
:class:`~repro.serve.server.QueryFrontend` surface (``submit_link`` /
``submit_fraud`` / ``tick`` / ``flush`` / ``ingest_events`` /
``advance_time``) over ``N`` shard workers built from a
:class:`~repro.serve.sharded.plan.ShardPlan` and reached through
:class:`~repro.exec.transport.WorkerTransport` — so the same router
runs the in-process oracle (:class:`SimulatedBackend`) and real worker
processes (:class:`MultiprocessBackend`) with identical numerics.

* **ingestion** — the router keeps the authoritative topology mirror (a
  :class:`~repro.serve.ingest.StreamIngestor`), commits each event
  batch once, expands the dirty frontier once (k hops, k = model
  depth), splits the GD delta by vertex block for wire accounting, and
  fans delta + pre-expanded frontier out to the shards;
* **queries** — micro-batched exactly like ``ModelServer``, routed to
  the owner of the query's primary vertex; link queries whose endpoints
  live on different shards gather the remote endpoint's embedding row
  from its owner (counted as cross-shard row fetches);
* **halo exchange** — ghost rows' frozen temporal state (LSTM carries,
  M-product history) is mirrored owner → ghost in bulk at every
  timestep boundary and incrementally whenever an event pulls a vertex
  into a shard's halo mid-step (:class:`HaloTraffic` counts both);
* **rebalancing** — per-vertex query loads are tracked, and when the
  per-shard skew exceeds ``rebalance_skew`` at a timestep boundary the
  tier re-partitions onto load-weighted blocks and transplants the
  exact per-vertex state from the old owners
  (:meth:`ExecRouter.rebalance`, same ``export_state`` /
  ``adopt_state`` verbs as capture and recovery).

On top of the routing it adds what a real front door needs:

* **admission control** — a bounded in-flight queue
  (``max_inflight``): submits beyond the bound are *shed* (the query
  resolves immediately with ``shed=True`` and no result) so worker
  queues cannot grow without bound; crossing
  ``backpressure_ratio * max_inflight`` raises an edge-triggered
  backpressure signal callers can poll (:attr:`under_backpressure`);
* **micro-batch coalescing** — queued queries group per owner shard
  (span ``exec.coalesce``) and each flush issues one pipelined refresh
  + one score RPC per touched shard (span ``exec.rpc``), amortizing
  round-trips exactly as the single-process tier amortizes head
  evaluations;
* **pipelined fan-out** — writes submit to every shard before
  collecting any reply (``pipeline=False`` serializes, which keeps
  per-worker busy clocks clean on a single-core host);
* **robustness** — per-call timeouts and heartbeats (:meth:`heartbeat`)
  detect dead or hung workers; a dead worker is respawned from the
  latest store capture and the WAL tail
  replays through it (:meth:`_revive`), reusing the PR-3 recovery
  machinery worker-by-worker;
* **resilience** — every shard is reached through a
  :class:`~repro.exec.channel.ShardChannel`: ``replicas=R`` spawns R
  bit-identical workers per shard, idempotent reads retry with backoff
  and fail over to a live replica, sequenced writes fan to every
  replica exactly-once (worker-side dedup), and per-replica circuit
  breakers fail fast on repeatedly unresponsive workers.  With
  ``max_staleness`` set, a shard whose replicas are *all* gone degrades
  instead of failing: its queries answer from the last boundary's
  cached embeddings with an explicit ``staleness`` stamp (boundaries
  behind the tip) and shed once the bound is exceeded.  A seeded
  :class:`~repro.exec.faults.FaultPlan` injects deterministic wire
  chaos underneath all of it for tests and benches.

Instrumentation flows through the unified obs layer: spans
``exec.dispatch`` / ``exec.rpc`` / ``exec.coalesce`` nest under the
serving spans, counters export as ``serve_*_total`` /
``exec_rpc_*_total{shard=}``, and cross-shard payloads land in the
same ``comm_bytes_total{label=}`` family the simulated cluster's
:class:`~repro.cluster.comm.Communicator` exports.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass, replace
from typing import Callable, Iterable

import numpy as np

from repro.errors import ConfigError, ExecError, StoreError, \
    WorkerDeadError, WorkerTimeoutError
from repro.graph.diff import split_diff_by_blocks
from repro.graph.snapshot import GraphSnapshot
from repro.models.base import DynamicGNN
from repro.nn.linear import EdgeScorer, Linear
from repro.obs import Telemetry
from repro.serve.cache import expand_dirty
from repro.serve.engine import InferenceEngine
from repro.serve.ingest import EdgeEvent, StreamIngestor
from repro.serve.server import PendingQuery, QueryFrontend, \
    score_fraud, score_links
from repro.serve.sharded.halo import HaloTraffic
from repro.serve.sharded.plan import ShardPlan
from repro.exec.channel import RetryPolicy, ShardChannel
from repro.exec.faults import FaultPlan
from repro.exec.mp import MultiprocessBackend
from repro.exec.simulated import SimulatedBackend
from repro.exec.transport import WorkerBoot
from repro.store.recovery import pack_shard_export, unpack_sharded_state

__all__ = ["ExecCounters", "ExecStats", "ExecRouter"]

_EMPTY = np.empty(0, dtype=np.int64)


@dataclass
class ExecCounters:
    """Monotonic counters the exec router increments as it works."""

    queries_submitted: int = 0
    queries_completed: int = 0
    queries_shed: int = 0          # rejected by admission control
    batches_flushed: int = 0
    events_ingested: int = 0
    commits: int = 0
    advances: int = 0
    refreshes: int = 0
    rows_recomputed: int = 0
    rows_advanced: int = 0
    halo_dirty_rows: int = 0
    cross_shard_events: int = 0
    remote_row_fetches: int = 0
    remote_row_bytes: int = 0
    delta_bytes_fanout: int = 0
    score_rpcs: int = 0
    worker_restarts: int = 0       # crash recoveries performed
    heartbeats: int = 0
    heartbeat_failures: int = 0
    backpressure_events: int = 0   # queue crossed the high watermark
    rpc_retries: int = 0           # channel redeliveries (reads + writes)
    rpc_timeouts: int = 0          # RPCs that missed a reply deadline
    failovers: int = 0             # read-primary promotions
    breaker_trips: int = 0         # circuit breakers opened
    replica_deaths: int = 0        # replicas dropped from their shard
    degraded_queries: int = 0      # answered from stale cached rows
    queries_shed_stale: int = 0    # shed: staleness bound exceeded
    captures_skipped: int = 0      # state capture skipped, shard down
    rebalances: int = 0            # load-weighted re-partitions performed


@dataclass(frozen=True)
class ExecStats:
    """Point-in-time view of the execution tier."""

    counters: ExecCounters
    traffic: HaloTraffic
    num_shards: int
    replicas: int
    backend: str
    per_shard_queries: tuple
    per_shard_busy_s: tuple
    router_busy_s: float
    shm_bytes_mapped: int
    rpc_roundtrips: int
    rpc_bytes_sent: int
    rpc_bytes_received: int
    latency_p50_ms: float
    latency_p95_ms: float
    latency_p99_ms: float
    elapsed_s: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "counters", replace(self.counters))
        object.__setattr__(self, "traffic", self.traffic.copy())

    @property
    def load_skew(self) -> float:
        """max/mean queries per shard (1.0 = perfectly balanced)."""
        return _skew(self.per_shard_queries)

    @property
    def critical_path_s(self) -> float:
        """Router busy time plus the slowest worker's busy time — the
        tier's wall-clock under ideal parallelism.  For real worker
        processes this is measured (perf_counter inside each process);
        on a host with fewer cores than workers it is the honest
        scaling signal, since concurrent processes merely timeshare."""
        slowest = max(self.per_shard_busy_s) if self.per_shard_busy_s \
            else 0.0
        return self.router_busy_s + slowest

    @property
    def aggregate_qps(self) -> float:
        if self.critical_path_s <= 0:
            return float("nan")
        return self.counters.queries_completed / self.critical_path_s


def _skew(loads) -> float:
    """max/mean of per-shard loads (1.0 = perfectly balanced)."""
    loads = np.asarray(loads, dtype=np.float64)
    return float(loads.max() / loads.mean()) if loads.sum() else 1.0


def _resolve_backend(backend):
    if backend == "simulated":
        return SimulatedBackend()
    if backend in ("multiprocess", "mp"):
        return MultiprocessBackend()
    if isinstance(backend, str):
        raise ConfigError(f"unknown exec backend {backend!r}")
    return backend


class ExecRouter(QueryFrontend):
    """Admission-controlled router over transport-reached shard workers."""

    def __init__(self, model: DynamicGNN, snapshot: GraphSnapshot, *,
                 backend="simulated",
                 num_shards: int | None = None,
                 plan: ShardPlan | None = None,
                 link_head: EdgeScorer | None = None,
                 fraud_head: Linear | None = None,
                 max_batch_size: int = 64,
                 flush_latency_ms: float = 2.0,
                 max_inflight: int | None = None,
                 backpressure_ratio: float = 0.75,
                 pipeline: bool = True,
                 replicas: int = 1,
                 retry: RetryPolicy | None = None,
                 breaker_threshold: int = 5,
                 breaker_cooldown_s: float = 0.25,
                 fault_plan: FaultPlan | None = None,
                 max_staleness: int | None = None,
                 rebalance_skew: float | None = None,
                 rebalance_min_queries: int = 256,
                 telemetry: Telemetry | None = None,
                 kernel_backend: str | None = None,
                 clock: Callable[[], float] = time.perf_counter) -> None:
        if plan is None:
            if num_shards is None:
                raise ConfigError("pass num_shards or an explicit plan")
            plan = ShardPlan.uniform(snapshot.num_vertices, num_shards)
        if plan.num_vertices != snapshot.num_vertices:
            raise ConfigError("shard plan does not cover the vertex set")
        if max_inflight is not None and max_inflight < 1:
            raise ConfigError("max_inflight must be >= 1")
        if not 0.0 < backpressure_ratio <= 1.0:
            raise ConfigError("backpressure_ratio must be in (0, 1]")
        if replicas < 1:
            raise ConfigError("replicas must be >= 1")
        if max_staleness is not None and max_staleness < 0:
            raise ConfigError("max_staleness must be >= 0")
        self._init_frontend(max_batch_size, flush_latency_ms, clock,
                            telemetry)
        self.model = model
        self.plan = plan
        self.link_head = link_head
        self.fraud_head = fraud_head
        self.max_inflight = max_inflight
        self.backpressure_ratio = backpressure_ratio
        self.pipeline = pipeline
        self.replicas_per_shard = replicas
        self.fault_plan = fault_plan
        self.max_staleness = max_staleness
        self.rebalance_skew = rebalance_skew
        self.rebalance_min_queries = rebalance_min_queries
        # the sparse-kernel backend workers run on (`backend` above is
        # the *transport* backend — distinct seams, distinct names).
        # Shipped by name so each worker process resolves it at boot.
        self.kernel_backend = kernel_backend
        # degraded serving: per shard, (boundary embedding rows for the
        # shard's block, counters.advances at capture time)
        self._stale_cache: dict[int, tuple[np.ndarray, int]] = {}
        self._blocks = [plan.block(s) for s in range(plan.num_shards)]
        self.ingestor = StreamIngestor(snapshot)
        self.counters = ExecCounters()
        self.traffic = HaloTraffic()
        self.router_busy_s = 0.0
        # critical-path seconds retired with the workers a rebalance
        # replaced, so per-shard busy clocks stay monotone across it
        self._busy_base = 0.0
        self._vertex_load = np.zeros(snapshot.num_vertices)
        self._per_shard_queries = np.zeros(plan.num_shards, dtype=np.int64)
        self._backpressure = False
        # cross-shard payload ledger, exported in the Communicator's
        # comm_bytes_total{label=} family: labels "delta" (delta
        # fan-out), "halo" (temporal-state mirroring), "query_rows"
        # (remote embedding gathers)
        self._comm_bytes: dict = defaultdict(int)
        self._comm_full_bytes: dict = defaultdict(int)

        # router-observed RPC round-trip latency, one histogram per
        # shard (cached: _fanout records on every RPC)
        self._rpc_latency = [
            self.telemetry.registry.histogram(
                "exec_rpc_latency_ms",
                "Router-observed RPC round-trip latency",
                shard=str(s))
            for s in range(plan.num_shards)]

        self.backend = _resolve_backend(backend)
        self.channels = [
            ShardChannel(s, members, policy=retry,
                         breaker_threshold=breaker_threshold,
                         breaker_cooldown_s=breaker_cooldown_s,
                         clock=self.clock,
                         on_event=self._channel_observer(s))
            for s, members in enumerate(self._spawn_tier(snapshot))]
        self._advance()  # prime embeddings for the initial snapshot

    # -- introspection ---------------------------------------------------------------
    @property
    def num_shards(self) -> int:
        return self.plan.num_shards

    @property
    def num_vertices(self) -> int:
        return self.plan.num_vertices

    @property
    def under_backpressure(self) -> bool:
        """True while the queue sits above the high watermark."""
        return self._backpressure

    @property
    def transports(self) -> list:
        """Per-shard read primaries (back-compat view — the full
        replica sets live in :attr:`channels`)."""
        return [ch.primary for ch in self.channels]

    def shard_staleness(self, shard: int) -> int:
        """Boundaries behind the live tip this shard serves from:
        0 while any replica lives, the cached-boundary lag while the
        shard is down, -1 when down with nothing cached (unservable)."""
        if self.channels[shard].alive:
            return 0
        cached = self._stale_cache.get(shard)
        if cached is None:
            return -1
        return self.counters.advances - cached[1]

    def close(self) -> None:
        """Shut every worker down and release backend resources
        (shared-memory segments, processes)."""
        for ch in self.channels:
            ch.close()
        self.backend.close()

    def __enter__(self) -> "ExecRouter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- worker spawn ----------------------------------------------------------------
    def _spawn(self, shard: int, replica: int, snapshot: GraphSnapshot, *,
               stream: int = 0):
        """One worker of ``shard`` under the current plan, booted at
        ``snapshot`` and wrapped for tracing and chaos.  ``stream``
        names the incarnation: a respawn takes a fresh fault RNG
        stream, so a replayed storm stays deterministic per
        incarnation."""
        boot = WorkerBoot(shard_id=shard, model=self.model,
                          snapshot=snapshot, owner=self.plan.owner,
                          num_shards=self.num_shards,
                          link_head=self.link_head,
                          fraud_head=self.fraud_head, replica_id=replica,
                          kernel_backend=self.kernel_backend)
        transport = self.backend.spawn(boot, clock=self.clock)
        # RPCs carry the router's trace context once tracing is on
        transport.tracer = self.telemetry.tracer
        if self.fault_plan is not None:
            transport = self.fault_plan.wrap(transport, shard=shard,
                                             replica=replica, stream=stream)
        return transport

    def _spawn_tier(self, snapshot: GraphSnapshot,
                    stream: int = 0) -> list[list]:
        """Every shard's replica set under the current plan."""
        return [[self._spawn(s, r, snapshot, stream=stream)
                 for r in range(self.replicas_per_shard)]
                for s in range(self.num_shards)]

    @property
    def _next_incarnation(self) -> int:
        return self.counters.worker_restarts + self.counters.rebalances + 1

    # -- RPC fan-out ------------------------------------------------------------------
    def _channel_observer(self, shard: int):
        """Counter sink for one shard channel's resilience events."""
        label = str(shard)
        reg = self.telemetry.registry
        counters = self.counters

        def observe(event: str, **kw) -> None:
            if event == "retry":
                counters.rpc_retries += 1
                reg.counter("exec_rpc_retries_total",
                            "RPC redeliveries (idempotent retries and "
                            "sequenced write redeliveries)",
                            shard=label).inc()
            elif event == "timeout":
                counters.rpc_timeouts += 1
                reg.counter("exec_rpc_timeouts_total",
                            "RPCs that missed their reply deadline",
                            shard=label).inc()
            elif event == "failover":
                counters.failovers += 1
                reg.counter("exec_failovers_total",
                            "Read-primary promotions to a live replica",
                            shard=label).inc()
            elif event == "breaker_trip":
                counters.breaker_trips += 1
                reg.counter("exec_breaker_trips_total",
                            "Circuit breakers tripped open",
                            shard=label).inc()
            elif event == "replica_dead":
                counters.replica_deaths += 1
                reg.counter("exec_replica_deaths_total",
                            "Replicas dropped from their shard",
                            shard=label).inc()
        return observe

    def _fanout(self, method: str, args_fn, shards=None) -> tuple:
        """Issue one RPC per shard; returns ``({shard: result}, [dead])``.

        Pipelined mode submits everywhere before collecting anywhere —
        real workers overlap their execution.  Serialized mode
        (``pipeline=False``) finishes each worker before touching the
        next, so busy clocks never include co-scheduling noise.  Each
        per-shard call goes through that shard's channel, which owns
        retry, sequencing and replica failover; a shard lands in the
        ``dead`` list only when *no* replica could serve it."""
        shards = list(range(self.num_shards)) if shards is None \
            else list(shards)
        results: dict = {}
        dead: list[int] = []
        with self.telemetry.trace("exec.rpc", method=method,
                                  shards=len(shards)):
            if self.pipeline:
                submitted = []
                t0 = {}
                for s in shards:
                    try:
                        t0[s] = self.clock()
                        self.channels[s].submit(method, *args_fn(s))
                        submitted.append(s)
                    except (WorkerDeadError, WorkerTimeoutError):
                        dead.append(s)
                for s in submitted:
                    try:
                        results[s] = self.channels[s].result()
                        self._rpc_latency[s].observe(
                            (self.clock() - t0[s]) * 1e3)
                    except (WorkerDeadError, WorkerTimeoutError):
                        dead.append(s)
            else:
                for s in shards:
                    t0 = self.clock()
                    try:
                        results[s] = self.channels[s].call(
                            method, *args_fn(s))
                        self._rpc_latency[s].observe(
                            (self.clock() - t0) * 1e3)
                    except (WorkerDeadError, WorkerTimeoutError):
                        dead.append(s)
        return results, dead

    def _comm_charge(self, label: str, nbytes: int,
                     full_nbytes: int | None = None) -> None:
        self._comm_bytes[label] += int(nbytes)
        self._comm_full_bytes[label] += int(nbytes if full_nbytes is None
                                            else full_nbytes)

    # -- admission control -------------------------------------------------------------
    def _submit(self, query: PendingQuery) -> PendingQuery:
        if self._started_at is None:
            self._started_at = query.enqueued_at
        self.counters.queries_submitted += 1
        if self.max_inflight is not None and \
                len(self._queue) >= self.max_inflight:
            # shed: resolve immediately with no result so the caller
            # can retry/degrade instead of waiting behind a full queue
            self.counters.queries_shed += 1
            query.shed = True
            query.done = True
            return query
        self._queue.append(query)
        self._signal_backpressure()
        if len(self._queue) >= self.max_batch_size:
            self.flush()
        return query

    def _signal_backpressure(self) -> None:
        if self.max_inflight is None:
            return
        watermark = self.backpressure_ratio * self.max_inflight
        above = len(self._queue) >= watermark
        if above and not self._backpressure:
            self.counters.backpressure_events += 1  # edge-triggered
        self._backpressure = above

    # -- liveness ----------------------------------------------------------------------
    def heartbeat(self, timeout: float = 1.0) -> list[int]:
        """Ping every replica of every shard; returns the shards where
        *no* replica answered.  A shard whose primary died but whose
        replica ponged is healthy (the channel promotes on the next
        read) and does not appear here."""
        self.counters.heartbeats += 1
        dead = []
        for s, ch in enumerate(self.channels):
            if not ch.ping(timeout=timeout):
                self.counters.heartbeat_failures += 1
                dead.append(s)
        return dead

    # -- worker-telemetry harvest ------------------------------------------------------
    def harvest_telemetry(self) -> int:
        """Drain every live worker's registry and finished spans into
        the router's telemetry: series merge under ``worker=<id>``
        labels (counters sum, gauges last-write, histograms union —
        see :meth:`MetricsRegistry.merge`) and worker spans graft into
        the router's span trees beneath the ``exec.rpc`` spans that
        caused them.  Safe to call at any cadence: harvests are
        delta-encoded and deduplicated by (source, seq), so nothing
        double-counts.  Returns the number of series updated."""
        updated = 0
        for s, ch in enumerate(self.channels):
            for r, transport in enumerate(ch.replicas):
                if not transport.alive:
                    continue
                try:
                    harvest, spans = transport.telemetry()
                except (WorkerDeadError, WorkerTimeoutError):
                    continue
                # primaries keep the bare shard label; extra replicas
                # get "<shard>r<replica>" (their telemetry sources are
                # distinct, so harvests never collide)
                label = str(s) if r == 0 else f"{s}r{r}"
                updated += self.telemetry.registry.merge(
                    harvest, labels={"worker": label})
                if spans:
                    self.telemetry.tracer.graft(spans)
        return updated

    # -- ingestion --------------------------------------------------------------------
    def ingest_events(self, events: Iterable[EdgeEvent]) -> int:
        """Commit live edge events once, fan the GD delta out to every
        worker, sync halo entrants.  WAL-before-ack when a store is
        attached; a worker that dies during the fan-out is revived from
        the latest capture + WAL tail before the method returns."""
        events = list(events)
        with self.telemetry.trace("serve.ingest", events=len(events)):
            count, result = self._commit_events(events)
            snap = result.snapshot
            t0 = self.clock()
            dirty = expand_dirty(snap, result.dirty, self.model.num_layers)
            subs = split_diff_by_blocks(result.diff, snap, self.plan.owner,
                                        self.plan.num_shards)
            delta_bytes = sum(d.payload_nbytes for d in subs)
            self.counters.delta_bytes_fanout += delta_bytes
            self._comm_charge("delta", delta_bytes,
                              result.diff.naive_nbytes * self.num_shards)
            for edges in (result.diff.added, result.diff.removed):
                if len(edges):
                    self.counters.cross_shard_events += int(
                        (self.plan.owner[edges[:, 0]]
                         != self.plan.owner[edges[:, 1]]).sum())
            self.router_busy_s += self.clock() - t0
            with self.telemetry.trace("serve.fanout",
                                      shards=self.num_shards):
                results, dead = self._fanout(
                    "apply_delta", lambda s: (result.diff, dirty))
            entrants: dict = {}
            for s, (rows, ghost_dirty) in results.items():
                entrants[s] = rows
                self.counters.halo_dirty_rows += ghost_dirty
            for s in dead:
                revived = self._revive_or_degrade(s)
                if revived is not None:
                    entrants[s] = revived
            with self.telemetry.trace("serve.halo_sync", kind="entrants"):
                self._sync_entrants(entrants)
            self.counters.events_ingested += result.num_events
            self.counters.commits += 1
        return count

    def advance_time(self, snapshot: GraphSnapshot | None = None, *,
                     diff=None) -> None:
        """Cross a timestep boundary: promote carries everywhere, run
        the bulk halo exchange, recompute every covered row, then let
        the rebalancer look at the query skew.  With a store attached
        the boundary seals a WAL timestep and the tier state is
        captured every ``state_interval`` boundaries.  ``diff`` is the
        optional GD delta from the current resident to a rebase
        ``snapshot`` — with it workers fold the delta instead of
        receiving the snapshot, and their Ã maintainers advance
        incrementally (recovery replay passes the store-decoded delta
        through here)."""
        self._store_log_boundary(snapshot)
        if snapshot is not None:
            self.ingestor.rebase(snapshot)
        self._advance(rebase=snapshot, diff=diff)
        self._maybe_rebalance()
        self._store_maybe_capture()

    def _advance(self, rebase: GraphSnapshot | None = None,
                 diff=None) -> None:
        with self.telemetry.trace("serve.advance",
                                  rebase=rebase is not None):
            # workers fold the rebase diff into their own mirror; the
            # full snapshot ships only when there is no delta for it
            ship = rebase if (rebase is not None and diff is None) else None
            _, dead = self._fanout("begin_advance", lambda s: (ship, diff))
            down = self._tolerate_boundary_dead(dead, "begin_advance")
            if self.num_shards > 1:
                with self.telemetry.trace("serve.halo_sync",
                                          kind="boundary"):
                    self._sync_halos(down=down)
            live = [s for s in range(self.num_shards) if s not in down]
            results, dead = self._fanout("finish_advance", lambda s: (),
                                         shards=live)
            down |= self._tolerate_boundary_dead(dead, "finish_advance")
            self.counters.rows_advanced += sum(results.values())
            self.counters.advances += 1
            self._update_stale_cache(down)

    def _require_all_alive(self, dead: list[int], stage: str) -> None:
        if dead:
            # a boundary crossing cannot be replayed worker-by-worker
            # (the WAL tail would span the boundary) — the tier-level
            # recover() path is the correct restart
            raise WorkerDeadError(
                f"shards {dead} died during {stage}; recover() the tier "
                f"from its store")

    def _tolerate_boundary_dead(self, dead: list[int],
                                stage: str) -> set:
        """With degraded serving enabled, a shard lost at a boundary
        simply stops advancing (its staleness grows); without it — or
        with *every* shard gone — the boundary fails loudly."""
        if not dead:
            return set()
        if self.max_staleness is None or len(dead) >= self.num_shards:
            self._require_all_alive(dead, stage)
        return set(dead)

    def _update_stale_cache(self, down=frozenset()) -> None:
        """Refresh the degraded-serving cache at a boundary: each live
        shard's freshly advanced block embeddings, stamped with the
        boundary ordinal so staleness is measured in whole timesteps."""
        if self.max_staleness is None:
            return
        for s in range(self.num_shards):
            if s in down or not self.channels[s].alive:
                continue
            try:
                rows = self.channels[s].embedding_rows(self._blocks[s])
            except (WorkerDeadError, WorkerTimeoutError):
                continue
            self._stale_cache[s] = (rows, self.counters.advances)

    # -- halo exchange (over channels) -------------------------------------------------
    def _ship(self, target: int, rows: np.ndarray) -> None:
        if len(rows) == 0:
            return
        if self.max_staleness is not None and \
                not self.channels[target].alive:
            return  # degraded shard: it will resync on revival
        owners = self.plan.owner[rows]
        for src in np.unique(owners):
            src = int(src)
            if src == target:
                continue
            if self.max_staleness is not None and \
                    not self.channels[src].alive:
                continue  # the owner is down: its ghost rows freeze
            chunk = rows[owners == src]
            payload = self.channels[src].call("export_temporal", chunk)
            nbytes = self.channels[target].call("import_temporal",
                                                chunk, payload)
            self.traffic.rows_shipped += len(chunk)
            self.traffic.bytes_shipped += nbytes
            self.traffic.messages += 1
            self.traffic.rows_per_shard[target] += len(chunk)
            self.traffic.bytes_per_shard[target] += nbytes
            self._comm_charge("halo", nbytes)

    def _sync_halos(self, down=frozenset()) -> None:
        live = [s for s in range(self.num_shards) if s not in down]
        halos, dead = self._fanout("halo_rows", lambda s: (), shards=live)
        if self.max_staleness is None:
            self._require_all_alive(dead, "halo sync")
        for target in sorted(halos):
            self._ship(target, halos[target])
        self.traffic.boundary_syncs += 1

    def _sync_entrants(self, entrants: dict) -> None:
        shipped = False
        for target in sorted(entrants):
            if len(entrants[target]):
                self._ship(target, entrants[target])
                shipped = True
        if shipped:
            self.traffic.entrant_syncs += 1

    # -- queries ----------------------------------------------------------------------
    def flush(self) -> int:
        """Route and answer one micro-batch.  A worker death mid-batch
        triggers revival (or, with degraded serving enabled, leaves the
        shard down) and a single retry of the whole batch; a batch the
        tier still cannot answer is *aborted* — every unresolved query
        resolves shed — so admission slots always release instead of
        leaking with their callers parked forever."""
        if not self._queue:
            return 0
        batch, self._queue = self._queue[:self.max_batch_size], \
            self._queue[self.max_batch_size:]
        with self.telemetry.trace("serve.query", batch=len(batch)), \
                self.telemetry.trace("exec.dispatch", batch=len(batch)):
            flushed_at = self.clock()
            try:
                self._answer_batch(batch, flushed_at,
                                   down=self._down_shards())
            except (WorkerDeadError, WorkerTimeoutError):
                try:
                    down = set()
                    for s in range(self.num_shards):
                        if not self.channels[s].alive and \
                                self._revive_or_degrade(s) is None and \
                                not self.channels[s].alive:
                            down.add(s)
                    self._answer_batch(batch, flushed_at, down=down)
                except (ExecError, StoreError):
                    self._abort_batch(batch)
                    raise
        self._signal_backpressure()
        if self._queue:
            return len(batch) + self.flush()
        return len(batch)

    def _down_shards(self) -> set:
        if self.max_staleness is None:
            return set()
        return {s for s in range(self.num_shards)
                if not self.channels[s].alive}

    def _abort_batch(self, batch: list) -> None:
        """Resolve every unanswered query in a failed batch as shed:
        the caller gets a definitive (empty) answer and the admission
        slot it held is released.  Without this, a batch that died
        twice — e.g. on an RPC timeout with revival impossible — left
        its queries dangling and the in-flight queue permanently
        smaller."""
        for q in batch:
            if not q.done:
                q.shed = True
                q.done = True
                self.counters.queries_shed += 1

    def _answer_batch(self, batch: list, flushed_at: float,
                      down=frozenset()) -> None:
        with self.telemetry.trace("exec.coalesce", batch=len(batch)):
            link_by_shard: dict[int, list] = {}
            fraud_by_shard: dict[int, list] = {}
            needed = set()
            degraded: list = []
            touched: list = []
            for q in batch:
                if q.done:
                    continue  # resolved by an earlier batch attempt
                touched.extend(q.payload)
                if q.kind == "link":
                    src, dst = q.payload
                    s = int(self.plan.owner[src])
                    sd = int(self.plan.owner[dst])
                    self._per_shard_queries[s] += 1
                    if s in down or sd in down:
                        degraded.append(q)
                        # live endpoints still need a refresh before
                        # their rows are read for the stale answer
                        needed.update(e for e in (s, sd)
                                      if e not in down)
                        continue
                    link_by_shard.setdefault(s, []).append(q)
                    needed.add(s)
                    needed.add(sd)
                else:
                    s = int(self.plan.owner[q.payload[0]])
                    self._per_shard_queries[s] += 1
                    if s in down:
                        degraded.append(q)
                        continue
                    fraud_by_shard.setdefault(s, []).append(q)
                    needed.add(s)
            # the rebalancer's signal: queries per vertex, both link
            # endpoints included
            np.add.at(self._vertex_load, touched, 1.0)
        # every touched shard consumes its dirty set before any of its
        # embeddings are read — one pipelined refresh round-trip
        results, dead = self._fanout("refresh", lambda s: (),
                                     shards=sorted(needed))
        if dead:
            raise WorkerDeadError(f"shards {dead} died during refresh")
        for s, recomputed in results.items():
            if recomputed:
                self.counters.refreshes += 1
                self.counters.rows_recomputed += recomputed
        if degraded:
            self._answer_degraded(degraded, down)
        # gather the remote link endpoints first (shared-memory reads
        # for the real backend), then pipeline one score RPC per shard
        scoring = sorted(set(link_by_shard) | set(fraud_by_shard))
        calls = {}
        for s in scoring:
            links = link_by_shard.get(s, [])
            frauds = fraud_by_shard.get(s, [])
            pairs = np.array([q.payload for q in links],
                             dtype=np.int64).reshape(-1, 2)
            accounts = np.array([q.payload[0] for q in frauds],
                                dtype=np.int64)
            dst_rows = self._gather_rows(pairs[:, 1], home=s) \
                if len(pairs) else np.empty((0, self.model.embed_dim))
            calls[s] = (links, frauds, pairs, dst_rows, accounts)
        results, dead = self._fanout(
            "score", lambda s: (calls[s][2], calls[s][3], calls[s][4]),
            shards=scoring)
        if dead:
            raise WorkerDeadError(f"shards {dead} died during scoring")
        self.counters.score_rpcs += len(scoring)
        now = self.clock()
        for s in scoring:
            links, frauds = calls[s][0], calls[s][1]
            link_scores, fraud_scores = results[s]
            for q, score in zip(links, link_scores):
                q._resolve(score, now)
            for q, score in zip(frauds, fraud_scores):
                q._resolve(score, now)
        answered = [q for q in batch if not q.shed]
        if answered:
            # per flush, not per query: one reservoir update per series
            self._record_flush(
                np.array([q.latency_ms for q in answered]),
                np.array([q.enqueued_at for q in answered]),
                flushed_at, now)
        self.counters.queries_completed += len(answered)
        self.counters.batches_flushed += 1

    def _answer_degraded(self, queries: list, down) -> None:
        """Bounded-staleness serving for queries touching down shards:
        answer from the last boundary's cached embeddings, stamp each
        result with how many boundaries behind the tip it is, and shed
        anything staler than ``max_staleness`` (or unservable because
        nothing was ever cached)."""
        now = self.clock()
        for q in queries:
            if q.done:
                continue
            vertices = list(q.payload) if q.kind == "link" \
                else [q.payload[0]]
            staleness = 0
            vecs = []
            servable = True
            for v in vertices:
                s = int(self.plan.owner[v])
                if s in down:
                    cached = self._stale_cache.get(s)
                    lag = self.shard_staleness(s)
                    if cached is None or lag > self.max_staleness:
                        servable = False
                        break
                    rows, _ = cached
                    idx = int(np.searchsorted(self._blocks[s], v))
                    vecs.append(rows[idx])
                    staleness = max(staleness, lag)
                else:
                    vecs.append(self.channels[s].embedding_rows(
                        np.array([v], dtype=np.int64))[0])
            if not servable:
                q.shed = True
                q.done = True
                self.counters.queries_shed += 1
                self.counters.queries_shed_stale += 1
                continue
            z = np.stack(vecs)
            if q.kind == "link":
                score = score_links(
                    z, np.array([[0, 1]]), self.link_head)[0]
            else:
                score = score_fraud(
                    z, np.array([0], dtype=np.int64), self.fraud_head)[0]
            q.staleness = staleness
            q._resolve(score, now)
            self.counters.degraded_queries += 1

    def _gather_rows(self, rows: np.ndarray, home: int) -> np.ndarray:
        owners = self.plan.owner[rows]
        out = np.empty((len(rows), self.model.embed_dim))
        for s in np.unique(owners):
            s = int(s)
            mask = owners == s
            got = self.channels[s].embedding_rows(rows[mask])
            out[mask] = got
            if s != home:
                self.counters.remote_row_fetches += int(mask.sum())
                self.counters.remote_row_bytes += got.nbytes
                self._comm_charge("query_rows", got.nbytes)
        return out

    def gathered_embeddings(self) -> np.ndarray:
        """Full embedding matrix from each shard's owned rows (the
        parity oracle: both backends must produce identical matrices)."""
        _, dead = self._fanout("refresh", lambda s: ())
        self._require_all_alive(dead, "gather")
        out = np.empty((self.num_vertices, self.model.embed_dim))
        for s in range(self.num_shards):
            block = self._blocks[s]
            out[block] = self.channels[s].embedding_rows(block)
        return out

    # -- durability / recovery ---------------------------------------------------------
    def _gather_state(self, stage: str) -> tuple[list, int, np.ndarray]:
        """Every shard's owned-row export — the transplant payload
        captures, recovery and the rebalancer share: ``(exports,
        steps, dirty)`` with ``exports`` the ``[(block_rows, state),
        ...]`` list a rebuilt worker adopts and ``dirty`` the rows
        still stale at their owners."""
        replies, dead = self._fanout("export_state", lambda s: ())
        self._require_all_alive(dead, stage)
        exports = [(self._blocks[s], replies[s][0])
                   for s in range(self.num_shards)]
        # each shard reports its own block's stale rows: disjoint sets
        dirty = np.sort(np.concatenate([r[1] for r in replies.values()]))
        return exports, int(replies[0][2]), dirty

    def _capture_state(self) -> tuple[dict, dict]:
        exports, steps, dirty = self._gather_state("state capture")
        kind = InferenceEngine._detect_kind(self.model)
        meta: dict = {"type": "sharded", "engine_kind": kind,
                      "steps": steps, "num_shards": self.num_shards,
                      "replicas": self.replicas_per_shard,
                      "num_layers": self.model.num_layers, "shards": []}
        arrays: dict = {"owner": self.plan.owner, "dirty": dirty}
        for s, (_, state) in enumerate(exports):
            meta_shard: dict = {}
            pack_shard_export(f"shard/{s}/", state, kind, meta_shard,
                              arrays)
            meta["shards"].append(meta_shard)
        return meta, arrays

    @classmethod
    def recover(cls, store, *, checkpoint: str | None = None,
                model: DynamicGNN | None = None,
                state_interval: int = 1, **kwargs) -> "ExecRouter":
        """Reboot a crashed tier from (model checkpoint, newest
        per-shard state capture, WAL tail replay).

        The capture carries the shard plan that was live at crash time
        (rebalances included), the replica count, every shard's
        owned-row export, and the pending dirty rows; workers are
        reassembled over ``adopt_state`` RPCs and the WAL tail re-runs
        through the normal ingest/advance numerics."""
        model, meta, arrays, resident = cls._recovery_state(
            store, checkpoint, model, kwargs)
        owner, exports, dirty = unpack_sharded_state(meta, arrays)
        plan = ShardPlan(owner=owner, num_shards=meta["num_shards"])
        kwargs.setdefault("replicas", meta["replicas"])
        router = cls(model, resident, plan=plan, **kwargs)
        steps = int(meta["steps"])
        _, dead = router._fanout("adopt_state",
                                 lambda s: (exports, steps, dirty))
        router._require_all_alive(dead, "recovery transplant")
        if router._replay_store_tail(store, meta["record_index"],
                                     state_interval):
            # worker revival replays event-only tails: a tail that
            # crossed a boundary needs a capture past it
            router._capture_store_state()
        return router

    def _store_maybe_capture(self) -> None:
        # a capture needs every shard's export; with a shard down the
        # boundary still seals, but the capture waits for revival
        if any(not ch.alive for ch in self.channels):
            if self.store is not None and not self._store_replaying:
                self.counters.captures_skipped += 1
            return
        super()._store_maybe_capture()

    def _revive_or_degrade(self, shard: int) -> np.ndarray | None:
        """Try crash recovery for one down shard; with degraded serving
        enabled, a shard that cannot be revived (no store, no usable
        capture, boundary-spanning tail) is left down — its queries
        serve stale until it can be brought back — instead of failing
        the calling operation.  Returns the revival's entrant rows, or
        ``None`` when the shard stays down."""
        try:
            return self._revive(shard)
        except (ExecError, StoreError):
            if self.max_staleness is None:
                raise
            return None

    def _revive(self, shard: int) -> np.ndarray:
        """Respawn one dead worker from the latest capture + WAL tail.

        The capture's per-shard exports cover *every* vertex, so the
        revived worker's ghost temporal state is already exact; the
        tail (event batches only — boundaries force a tier-level
        recover) replays through its own apply_delta RPCs.  Returns the
        entrant rows of the final replayed batch, so the caller can run
        the entrant sync it was about to do when the worker died."""
        if self.store is None:
            raise WorkerDeadError(
                f"shard {shard} died with no store attached — revival "
                f"needs a capture; serve with attach_store(...)")
        state = self.store.latest_engine_state()
        if state is None:
            raise StoreError("store holds no engine-state capture")
        meta, arrays = state
        owner, exports, dirty = unpack_sharded_state(meta, arrays)
        if not np.array_equal(owner, self.plan.owner):
            raise ExecError(
                "latest capture was taken under a different shard plan; "
                "recover() the tier instead")
        channel = self.channels[shard]
        channel.close()
        resident = self.store._state_at_record(meta["record_index"])
        transport = self._spawn(shard, 0, resident,
                                stream=self._next_incarnation)
        channel.reset([transport])
        channel.call("adopt_state", exports, int(meta["steps"]), dirty)
        entrants = _EMPTY
        ingestor = StreamIngestor(resident)
        for op, payload in self.store.replay_tail(meta["record_index"],
                                                  start=resident):
            if op != "events":
                raise ExecError(
                    "WAL tail crosses a timestep boundary; single-worker "
                    "revival cannot replay it — recover() the tier")
            ingestor.push_batch(payload)
            result = ingestor.commit()
            dirty = expand_dirty(result.snapshot, result.dirty,
                                 self.model.num_layers)
            entrants, _ = channel.call("apply_delta", result.diff, dirty)
        self.counters.worker_restarts += 1
        return entrants

    # -- rebalancing ------------------------------------------------------------------
    def observed_skew(self) -> float:
        """max/mean per-shard query load since the last rebalance."""
        return _skew(np.bincount(self.plan.owner,
                                 weights=self._vertex_load,
                                 minlength=self.num_shards))

    def _maybe_rebalance(self) -> None:
        if self.rebalance_skew is None or self.num_shards < 2:
            return
        if self._vertex_load.sum() < self.rebalance_min_queries:
            return
        if self.observed_skew() <= self.rebalance_skew:
            return
        if any(not ch.alive for ch in self.channels):
            return  # a down shard cannot export; wait for its revival
        self.rebalance(ShardPlan.weighted(self._vertex_load,
                                          self.num_shards))

    def rebalance(self, plan: ShardPlan) -> None:
        """Re-partition onto ``plan``, transplanting exact per-vertex
        state from the old owners: gather every shard's export, respawn
        the tier under the new plan, adopt — the path :meth:`recover`
        takes, without the store in between."""
        if plan.num_vertices != self.num_vertices:
            raise ConfigError("rebalance plan does not cover the vertex set")
        if plan.num_shards != self.num_shards:
            raise ConfigError("rebalancing keeps the shard count fixed")
        self.drain()
        t0 = self.clock()
        exports, steps, dirty = self._gather_state("rebalance")
        self.router_busy_s += self.clock() - t0
        # the transplant is a tier-wide barrier: every new worker
        # resumes from the slowest old worker's clock
        self._busy_base = max(self._per_shard_busy())
        stream = self._next_incarnation
        for ch in self.channels:
            ch.close()
        self.plan = plan
        self._blocks = [plan.block(s) for s in range(plan.num_shards)]
        tier = self._spawn_tier(self.ingestor.resident, stream=stream)
        for ch, members in zip(self.channels, tier):
            ch.reset(members)
        _, dead = self._fanout("adopt_state",
                               lambda s: (exports, steps, dirty))
        self._require_all_alive(dead, "rebalance transplant")
        self._stale_cache.clear()
        self._update_stale_cache()
        self._vertex_load[:] = 0.0
        self.counters.rebalances += 1

    # -- observability ----------------------------------------------------------------
    def _collect_tier_metrics(self, reg) -> None:
        # fold in the latest worker-side telemetry first, so one
        # prometheus()/dashboard() call on the router exports the whole
        # cluster (worker series appear under worker=<id> labels)
        self.harvest_telemetry()
        reg.gauge("exec_shard_count", "Workers in the tier").set(
            self.num_shards)
        reg.gauge("shard_load_skew",
                  "max/mean per-shard query load").set(self.observed_skew())
        reg.gauge("serve_router_busy_seconds",
                  "Router busy clock").set(self.router_busy_s)
        reg.gauge("exec_shm_bytes_mapped",
                  "Shared-memory bytes mapped across workers").set(
            self.backend.shm_bytes_mapped)
        if self.max_inflight is not None:
            reg.gauge("exec_inflight_limit",
                      "Admission-control queue bound").set(
                self.max_inflight)
        reg.gauge("exec_replicas_configured",
                  "Replicas per shard the tier was built with").set(
            self.replicas_per_shard)
        for s, ch in enumerate(self.channels):
            label = str(s)
            reg.gauge("exec_replicas_live", "Live replicas per shard",
                      shard=label).set(len(ch._live()))
            reg.gauge("exec_shard_down",
                      "1 while the shard has no live replica",
                      shard=label).set(0.0 if ch.alive else 1.0)
            if self.max_staleness is not None:
                reg.gauge("exec_shard_staleness_steps",
                          "Boundaries behind the tip the shard serves "
                          "from (-1 = down and unservable)",
                          shard=label).set(self.shard_staleness(s))
        for s, t in enumerate(self.transports):
            label = str(s)
            reg.counter("exec_rpc_roundtrips_total",
                        "RPC round-trips per shard",
                        shard=label).set_to(t.stats.roundtrips)
            reg.counter("exec_rpc_bytes_sent_total",
                        "Request payload bytes per shard",
                        shard=label).set_to(t.stats.bytes_sent)
            reg.counter("exec_rpc_bytes_received_total",
                        "Reply payload bytes per shard",
                        shard=label).set_to(t.stats.bytes_received)
            reg.counter("exec_shm_rows_read_total",
                        "Embedding rows read via shared memory",
                        shard=label).set_to(t.stats.shm_rows_read)
            reg.counter("shard_queries_total",
                        "Queries routed to each shard",
                        shard=label).set_to(
                int(self._per_shard_queries[s]))
        traffic = self.traffic
        reg.counter("shard_halo_boundary_syncs_total").set_to(
            traffic.boundary_syncs)
        reg.counter("shard_halo_entrant_syncs_total").set_to(
            traffic.entrant_syncs)
        reg.counter("shard_halo_messages_total").set_to(traffic.messages)
        reg.counter("shard_halo_rows_total",
                    "Temporal-state rows shipped owner to ghost").set_to(
            traffic.rows_shipped)
        reg.counter("shard_halo_bytes_total",
                    "Halo payload bytes shipped owner to ghost").set_to(
            traffic.bytes_shipped)
        for s, nbytes in sorted(traffic.bytes_per_shard.items()):
            reg.counter("shard_halo_bytes_total", shard=str(s)).set_to(
                nbytes)
        for s, rows in sorted(traffic.rows_per_shard.items()):
            reg.counter("shard_halo_rows_total", shard=str(s)).set_to(rows)
        for label in sorted(self._comm_bytes):
            reg.counter("comm_bytes_total",
                        "Cross-shard payload bytes by traffic class",
                        label=label).set_to(self._comm_bytes[label])
            reg.counter("comm_full_equivalent_bytes_total",
                        "Bytes a non-delta-aware exchange would have "
                        "shipped", label=label).set_to(
                self._comm_full_bytes[label])

    def _per_shard_busy(self) -> tuple:
        """Each shard's busy clock as its serving worker reports it,
        continued across rebalances."""
        worker_stats, _ = self._fanout("stats", lambda s: ())
        return tuple(self._busy_base + worker_stats[s].busy_s
                     for s in sorted(worker_stats))

    def stats(self) -> ExecStats:
        now = self.clock()
        elapsed = (now - self._started_at) if self._started_at is not None \
            else 0.0
        return ExecStats(
            counters=self.counters,
            traffic=self.traffic,
            num_shards=self.num_shards,
            replicas=self.replicas_per_shard,
            backend=self.backend.name,
            per_shard_queries=tuple(int(q) for q in
                                    self._per_shard_queries),
            per_shard_busy_s=self._per_shard_busy(),
            router_busy_s=self.router_busy_s,
            shm_bytes_mapped=self.backend.shm_bytes_mapped,
            rpc_roundtrips=sum(t.stats.roundtrips for t in self.transports),
            rpc_bytes_sent=sum(t.stats.bytes_sent for t in self.transports),
            rpc_bytes_received=sum(t.stats.bytes_received
                                   for t in self.transports),
            latency_p50_ms=self.latency.p50,
            latency_p95_ms=self.latency.p95,
            latency_p99_ms=self.latency.p99,
            elapsed_s=elapsed)
