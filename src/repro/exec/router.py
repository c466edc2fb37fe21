"""The sharded tier: routing, admission, coalescing, fan-out.

:class:`ExecRouter` is the one sharded router.  It is a tier on the
shared :class:`~repro.serve.server.QueryFrontend` (the same
``ingest_events`` / ``advance_time`` / ``flush`` / ``recover`` /
``stats`` as ``ModelServer``) over ``N`` shard workers built from a
:class:`~repro.serve.sharded.plan.ShardPlan` and reached through
:class:`~repro.exec.transport.WorkerTransport` — so the same router
runs the in-process oracle (:class:`SimulatedBackend`) and real worker
processes (:class:`MultiprocessBackend`) with identical numerics.

* **ingestion** — the router keeps the authoritative topology mirror (a
  :class:`~repro.serve.ingest.StreamIngestor`), commits each event
  batch once, expands the dirty frontier once (k hops, k = model
  depth), splits the GD delta by vertex block for wire accounting, and
  fans delta + pre-expanded frontier out to the shards;
* **queries** — the same flush as ``ModelServer``, under its refresh
  rule: each batch groups its endpoints by owner with array operations
  (span ``exec.coalesce``) and sends each touched shard one pipelined
  ``refresh`` RPC (span ``exec.rpc``) — of its reads' cone on the first
  flush after a commit, of every stale row on a later one — then reads
  the endpoint rows from their owners (a shared-memory copy on the real
  backend) and scores them with ``ModelServer``'s own heads.  Every row
  read is charged to the ``query_rows`` comm label; a link whose
  endpoints live on different shards counts as a cross-shard row fetch;
* **halo exchange** — ghost rows' frozen temporal state never passes
  the router: owners publish it to the backend's frozen board and each
  shard pulls its halo from it (:mod:`repro.serve.sharded.halo`) — on
  an ``import_temporal`` doorbell at a boundary, inside ``apply_delta``
  mid-step; the router counts what the workers report pulled;
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
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.errors import ConfigError, ExecError, StoreError, \
    WorkerDeadError, WorkerTimeoutError
from repro.graph.diff import split_diff_by_blocks
from repro.graph.snapshot import GraphSnapshot, sorted_unique
from repro.models.base import DynamicGNN
from repro.nn.linear import EdgeScorer, Linear
from repro.obs import Telemetry
from repro.serve.cache import expand_dirty
from repro.serve.engine import InferenceEngine
from repro.serve.ingest import StreamIngestor
from repro.serve.metrics import FrontendCounters, FrontendStats
from repro.serve.server import QueryFrontend, score_fraud, score_links
from repro.serve.sharded.halo import HaloTraffic
from repro.serve.sharded.plan import ShardPlan
from repro.exec.channel import RetryPolicy, ShardChannel
from repro.exec.faults import FaultPlan
from repro.exec.mp import MultiprocessBackend
from repro.exec.simulated import SimulatedBackend
from repro.exec.transport import WorkerBoot
from repro.store.recovery import pack_shard_export, unpack_sharded_state

__all__ = ["ExecCounters", "ExecStats", "ExecRouter"]

@dataclass
class ExecCounters(FrontendCounters):
    """The exec router's counters: the front door's plus its own."""

    queries_shed: int = 0          # rejected by admission control
    halo_dirty_rows: int = 0
    cross_shard_events: int = 0
    remote_row_fetches: int = 0    # link endpoints off the home shard
    remote_row_bytes: int = 0
    delta_bytes_fanout: int = 0
    score_rpcs: int = 0            # flush RPCs: one per touched shard
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
class ExecStats(FrontendStats):
    """Point-in-time view of the execution tier (its ``counters`` are
    :class:`ExecCounters`)."""

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

    def __post_init__(self) -> None:
        super().__post_init__()
        object.__setattr__(self, "traffic", self.traffic.copy())

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


# channel event -> (counter field, registry series, its help text)
_CHANNEL_EVENTS = {
    "retry": ("rpc_retries", "exec_rpc_retries_total",
              "RPC redeliveries (idempotent retries and sequenced write "
              "redeliveries)"),
    "timeout": ("rpc_timeouts", "exec_rpc_timeouts_total",
                "RPCs that missed their reply deadline"),
    "failover": ("failovers", "exec_failovers_total",
                 "Read-primary promotions to a live replica"),
    "breaker_trip": ("breaker_trips", "exec_breaker_trips_total",
                     "Circuit breakers tripped open"),
    "replica_dead": ("replica_deaths", "exec_replica_deaths_total",
                     "Replicas dropped from their shard"),
}

# transport stat -> (registry series, its help text), one per shard
_TRANSPORT_SERIES = (
    ("roundtrips", "exec_rpc_roundtrips_total", "RPC round-trips per shard"),
    ("bytes_sent", "exec_rpc_bytes_sent_total",
     "Request payload bytes per shard"),
    ("bytes_received", "exec_rpc_bytes_received_total",
     "Reply payload bytes per shard"),
    ("shm_rows_read", "exec_shm_rows_read_total",
     "Embedding rows read via shared memory"),
)


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

    _stats_type = ExecStats

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
        self._init_frontend(model, snapshot, ExecCounters(), link_head,
                            fraud_head, max_batch_size, flush_latency_ms,
                            clock, telemetry)
        self.plan = plan
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
        self.traffic = HaloTraffic()
        self.router_busy_s = 0.0
        # critical-path seconds retired with the workers a rebalance
        # replaced, so per-shard busy clocks stay monotone across it
        self._busy_base = 0.0
        self._vertex_load = np.zeros(snapshot.num_vertices)
        self._per_shard_queries = np.zeros(plan.num_shards, dtype=np.int64)
        # cross-shard payload ledger, exported in the Communicator's
        # comm_bytes_total{label=} family: labels "delta" (delta
        # fan-out), "halo" (frozen rows the workers pulled), "query_rows"
        # (the endpoint rows a flush reads off the workers)
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
        self.advance_time()  # prime embeddings for the initial snapshot

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
        return self.max_inflight is not None and \
            self._queued >= self.backpressure_ratio * self.max_inflight

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
                          num_shards=self.num_shards, replica_id=replica,
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
            if event == "refresh":
                counters.refreshes += kw["rows"] > 0
                counters.rows_recomputed += kw["rows"]
                return
            field, series, help = _CHANNEL_EVENTS[event]
            setattr(counters, field, getattr(counters, field) + 1)
            reg.counter(series, help, shard=label).inc()
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
    def _admit(self, m: int) -> int:
        if self.max_inflight is None:
            return m
        depth = self._queued
        admitted = min(m, max(0, self.max_inflight - depth))
        # the rest is shed: resolved at once with no result, so the
        # caller can retry/degrade instead of waiting behind a full queue
        self.counters.queries_shed += m - admitted
        if depth < self.backpressure_ratio * self.max_inflight \
                <= depth + admitted:
            self.counters.backpressure_events += 1  # edge-triggered
        return admitted

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

    # -- commits and boundaries --------------------------------------------------------
    def _apply_commit(self, result) -> None:
        """Expand the dirty frontier once and fan the GD delta out to
        every worker (each pulls its halo entrants itself); a worker
        that dies during the fan-out is revived from the latest capture
        + WAL tail before the commit returns."""
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
        with self.telemetry.trace("serve.fanout", shards=self.num_shards):
            results, dead = self._fanout(
                "apply_delta", lambda s: (result.diff, dirty))
        pulled = False
        for s, (pull, ghost_dirty) in results.items():
            pulled |= self.traffic.count(s, pull)
            self.counters.halo_dirty_rows += ghost_dirty
        for s in dead:
            self._revive_or_degrade(s)
        self.traffic.entrant_syncs += pulled

    def _cross_boundary(self, rebase: GraphSnapshot | None, diff) -> int:
        """Settle the rows no flush read, promote and publish carries
        everywhere, let each shard pull its halo off the board and
        recompute every covered row, then let the rebalancer look at
        the query skew.  Workers fold a rebase ``diff`` into their own
        mirror; the full snapshot ships only when there is no delta for
        it."""
        ship = rebase if (rebase is not None and diff is None) else None
        settled, dead = self._fanout("begin_advance", lambda s: (ship, diff))
        self.counters.refreshes += sum(map(bool, settled.values()))
        self.counters.rows_recomputed += sum(settled.values())
        down = self._tolerate_boundary_dead(dead, "begin_advance")
        if self.num_shards > 1:
            pulls, dead = self._fanout(
                "import_temporal", lambda s: (),
                shards=[s for s in range(self.num_shards) if s not in down])
            down |= self._tolerate_boundary_dead(dead, "import_temporal")
            for s, pull in pulls.items():
                self.traffic.count(s, pull)
            self.traffic.boundary_syncs += 1
        live = [s for s in range(self.num_shards) if s not in down]
        results, dead = self._fanout("finish_advance", lambda s: (),
                                     shards=live)
        down |= self._tolerate_boundary_dead(dead, "finish_advance")
        self._update_stale_cache(down)
        self._maybe_rebalance()
        return sum(results.values())

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

    # -- queries ----------------------------------------------------------------------
    def _answer_batch(self, ends: np.ndarray, is_link: np.ndarray,
                      cone: bool, shed: np.ndarray) -> tuple:
        """Route and score one decoded batch.  A worker death mid-batch
        triggers revival (or, with degraded serving enabled, leaves the
        shard down) and a single retry of the queries still unresolved;
        a batch the tier still cannot answer is *aborted* — every
        unresolved query is marked shed, so the batch leaves the queue
        and its admission slots release instead of leaking with their
        callers parked."""
        with self.telemetry.trace("exec.dispatch", batch=len(ends)):
            home = self.plan.owner[ends[:, 0]]
            np.add.at(self._per_shard_queries, home, 1)
            # the rebalancer's signal: queries per vertex, both link
            # endpoints included
            np.add.at(self._vertex_load,
                      np.concatenate([ends[:, 0], ends[is_link, 1]]), 1.0)
            down = set() if self.max_staleness is None else {
                s for s in range(self.num_shards)
                if not self.channels[s].alive}
            try:
                return self._route(ends, is_link, cone, shed, down=down)
            except (WorkerDeadError, WorkerTimeoutError):
                try:
                    down = set()
                    for s in range(self.num_shards):
                        if not self.channels[s].alive:
                            self._revive_or_degrade(s)
                            if not self.channels[s].alive:
                                down.add(s)
                    return self._route(ends, is_link, cone, shed,
                                       down=down)
                except (ExecError, StoreError):
                    self.counters.queries_shed += int(
                        np.count_nonzero(~shed))
                    shed[:] = True
                    raise

    def _route(self, ends: np.ndarray, is_link: np.ndarray, cone: bool,
               shed: np.ndarray, *, down) -> tuple:
        """One attempt at the batch's queries not yet ``shed``: group
        their endpoints by owner, send every touched live shard one
        pipelined refresh (of its reads' cone when ``cone``), answer
        queries that touch a ``down`` shard from its boundary cache,
        then read the endpoint rows from their owners and score the
        rest."""
        n = len(ends)
        owner = self.plan.owner
        with self.telemetry.trace("exec.coalesce", batch=n):
            ok = ~shed
            # live endpoints of a degraded query are read too, for its
            # stale answer
            reads = sorted_unique(ends[ok])
            holder = owner[reads]
            home, other = owner[ends[:, 0]], owner[ends[:, 1]]
            degraded = np.zeros(n, dtype=bool)
            if down:
                dead = np.fromiter(down, np.int64, len(down))
                degraded = ok & (np.isin(home, dead) | np.isin(other, dead))
                ok &= ~degraded
                live = ~np.isin(holder, dead)
                reads, holder = reads[live], holder[live]
            mine = {s: holder == s
                    for s in sorted_unique(holder).tolist()}
        _, dead_shards = self._fanout(
            "refresh", lambda s: (reads[mine[s]],) if cone else (),
            shards=mine)
        if dead_shards:
            raise WorkerDeadError(f"shards {dead_shards} died during "
                                  f"refresh")
        fresh_at = self.clock()
        self.counters.score_rpcs += len(mine)
        stale = self._answer_degraded(ends, is_link,
                                      np.flatnonzero(degraded), down,
                                      shed) if degraded.any() else {}
        z = np.empty((len(reads), self.model.embed_dim))
        for s, rows in mine.items():
            z[rows] = self.channels[s].embedding_rows(reads[rows])
        at = np.searchsorted(reads, ends)
        links, frauds = ok & is_link, ok & ~is_link
        scores = np.empty(n)
        if links.any():
            scores[links] = score_links(z, at[links], self.link_head)
        if frauds.any():
            scores[frauds] = score_fraud(z, at[frauds, 0], self.fraud_head)
        self._comm_charge("query_rows", z.nbytes)
        cut = int(np.count_nonzero(links & (home != other)))
        self.counters.remote_row_fetches += cut
        self.counters.remote_row_bytes += cut * z.itemsize * z.shape[1]
        staleness = None
        if stale:
            staleness = np.full(n, -1, dtype=np.int64)
            for i, (score, lag) in stale.items():
                scores[i] = score
                staleness[i] = lag
        self.counters.degraded_queries += len(stale)
        return scores, fresh_at, staleness

    def _answer_degraded(self, ends: np.ndarray, is_link: np.ndarray,
                         rows: np.ndarray, down, shed: np.ndarray) -> dict:
        """Bounded-staleness serving for the queries at ``rows``, which
        touch down shards: score each from the last boundary's cached
        embeddings with how many boundaries behind the tip it is, and
        mark ``shed`` anything staler than ``max_staleness`` (or
        unservable because nothing was ever cached).  Returns ``{row:
        (score, staleness)}`` for the queries answered."""
        answers = {}
        for i in rows.tolist():
            vertices = ends[i].tolist() if is_link[i] else [int(ends[i, 0])]
            staleness = 0
            vecs = []
            for v in vertices:
                s = int(self.plan.owner[v])
                if s not in down:
                    vecs.append(self.channels[s].embedding_rows(
                        np.array([v], dtype=np.int64))[0])
                    continue
                cached = self._stale_cache.get(s)
                lag = self.shard_staleness(s)
                if cached is None or lag > self.max_staleness:
                    break
                vecs.append(cached[0][np.searchsorted(self._blocks[s], v)])
                staleness = max(staleness, lag)
            else:
                z = np.stack(vecs)
                score = score_links(z, np.array([[0, 1]]),
                                    self.link_head)[0] if is_link[i] \
                    else score_fraud(z, np.array([0], dtype=np.int64),
                                     self.fraud_head)[0]
                answers[i] = (score, staleness)
                continue
            shed[i] = True
            self.counters.queries_shed += 1
            self.counters.queries_shed_stale += 1
        return answers

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
    def _restore(cls, model: DynamicGNN, resident: GraphSnapshot,
                 meta: dict, arrays: dict, kwargs: dict) -> "ExecRouter":
        """The capture carries the shard plan that was live at crash
        time (rebalances included), the replica count, every shard's
        owned-row export, and the pending dirty rows; workers are
        reassembled over ``adopt_state`` RPCs."""
        owner, exports, dirty = unpack_sharded_state(meta, arrays)
        plan = ShardPlan(owner=owner, num_shards=meta["num_shards"])
        kwargs.setdefault("replicas", meta["replicas"])
        router = cls(model, resident, plan=plan, **kwargs)
        steps = int(meta["steps"])
        _, dead = router._fanout("adopt_state",
                                 lambda s: (exports, steps, dirty))
        router._require_all_alive(dead, "recovery transplant")
        return router

    def _replay_store_tail(self, store, record_index: int,
                           state_interval: int) -> bool:
        crossed = super()._replay_store_tail(store, record_index,
                                             state_interval)
        if crossed:
            # worker revival replays event-only tails: a tail that
            # crossed a boundary needs a capture past it
            self._capture_store_state()
        return crossed

    def _store_maybe_capture(self) -> None:
        # a capture needs every shard's export; with a shard down the
        # boundary still seals, but the capture waits for revival
        if any(not ch.alive for ch in self.channels):
            if self.store is not None and not self._store_replaying:
                self.counters.captures_skipped += 1
            return
        super()._store_maybe_capture()

    def _revive_or_degrade(self, shard: int) -> None:
        """Try crash recovery for one down shard; with degraded serving
        enabled, a shard that cannot be revived (no store, no usable
        capture, boundary-spanning tail) is left down — its queries
        serve stale until it can be brought back — instead of failing
        the calling operation."""
        try:
            self._revive(shard)
        except (ExecError, StoreError):
            if self.max_staleness is None:
                raise

    def _revive(self, shard: int) -> None:
        """Respawn one dead worker from the latest capture + WAL tail.

        The capture's per-shard exports cover *every* vertex, so the
        revived worker's ghost temporal state is already exact; the
        tail (event batches only — boundaries force a tier-level
        recover) replays through its own apply_delta RPCs, each pulling
        its entrants from the board."""
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
        ingestor = StreamIngestor(resident)
        for op, payload in self.store.replay_tail(meta["record_index"],
                                                  start=resident):
            if op != "events":
                raise ExecError(
                    "WAL tail crosses a timestep boundary; single-worker "
                    "revival cannot replay it — recover() the tier")
            result = ingestor.commit(*payload)
            dirty = expand_dirty(result.snapshot, result.dirty,
                                 self.model.num_layers)
            pull, _ = channel.call("apply_delta", result.diff, dirty)
            self.traffic.count(shard, pull)
        self.counters.worker_restarts += 1

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
            for field, series, help in _TRANSPORT_SERIES:
                reg.counter(series, help, shard=label).set_to(
                    getattr(t.stats, field))
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
        if traffic.rows_shipped:  # label "halo": the rows pulled
            self._comm_bytes["halo"] = self._comm_full_bytes["halo"] = \
                traffic.bytes_shipped
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

    def _tier_stats(self) -> dict:
        return dict(
            traffic=self.traffic,
            num_shards=self.num_shards,
            replicas=self.replicas_per_shard,
            backend=self.backend.name,
            per_shard_queries=tuple(self._per_shard_queries.tolist()),
            per_shard_busy_s=self._per_shard_busy(),
            router_busy_s=self.router_busy_s,
            shm_bytes_mapped=self.backend.shm_bytes_mapped,
            rpc_roundtrips=sum(t.stats.roundtrips for t in self.transports),
            rpc_bytes_sent=sum(t.stats.bytes_sent for t in self.transports),
            rpc_bytes_received=sum(t.stats.bytes_received
                                   for t in self.transports))
