"""Chaos suite: the resilience layer under deterministic fault storms.

The contract under test is *bit-exactness under chaos*: a seeded storm
of drops, delays, duplicates, corrupted payloads and scheduled crashes
must leave the served scores and final embeddings identical — divergence
exactly 0.0 — to a fault-free oracle, because every fault class maps to
a recovery mechanism that preserves the committed history:

* drops / delays  → deadline-bounded retry of idempotent reads
* duplicates      → per-shard sequence ids + worker-side dedup
* corruption      → checksum rejection before state mutation, then a
  pristine redelivery under the same sequence id
* crashes         → replica failover (reads promote, writes already
  fanned to every live replica)

When *every* replica of a shard is gone, the router degrades instead of
dying: bounded-staleness answers from the last boundary's cached rows,
stamped with their staleness, shedding anything beyond the bound.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.errors import DatasetError, WorkerDeadError, WorkerTimeoutError
from repro.exec import ExecRouter, FaultPlan, FaultSpec, RetryPolicy, \
    ShardChannel, TransportStats
from repro.models import build_model
from repro.nn.linear import Linear
from repro.serve import StreamIngestor, events_between, expand_dirty
from repro.serve.server import score_fraud, score_links
from tests.helpers import replay_stream


def make_router(world, **kwargs):
    model = build_model("cdgcn", in_features=2, seed=0)
    fraud = Linear(model.embed_dim, 2, np.random.default_rng(9))
    kwargs.setdefault("backend", "simulated")
    kwargs.setdefault("num_shards", 2)
    kwargs.setdefault("max_batch_size", 8)
    return ExecRouter(model, world.dtdg[0], fraud_head=fraud, **kwargs)


def replay(router, world, *, start=1, stop=None, crash_at=None):
    """Drive the stream like the parity suite; optionally hard-kill
    shard 0's primary right before timestep ``crash_at``'s queries."""
    dtdg = world.dtdg
    stop = dtdg.num_timesteps if stop is None else stop
    scores = []
    for t in range(start, stop):
        events = events_between(dtdg[t - 1], dtdg[t])
        half = len(events) // 2
        if half:
            router.ingest_events(events[:half])
        if t == crash_at:
            router.channels[0].replicas[0].debug_exit()
        q1 = router.submit_link(0, 119)
        q2 = router.submit_fraud(3 * t % 120)
        router.drain()
        scores += [q1.result, q2.result]
        if events[half:]:
            router.ingest_events(events[half:])
        router.advance_time(dtdg[t])
    return np.array(scores), router.gathered_embeddings()


@pytest.fixture(scope="module")
def oracle(world):
    """Fault-free simulated replay: the ground truth every chaotic run
    must match bit for bit."""
    router = make_router(world)
    scores, emb = replay(router, world)
    router.close()
    return scores, emb


# -- the acceptance storm ---------------------------------------------------------------

def storm_plan(seed):
    return FaultPlan(
        seed=seed,
        drop_rate=0.03, delay_rate=0.03, delay_s=2e-4,
        duplicate_rate=0.05, corrupt_rate=0.05,
        schedule=(
            # one primary crash per shard, mid-stream
            FaultSpec("crash", verb="apply_delta", shard=0, replica=0,
                      call_index=4),
            FaultSpec("crash", verb="refresh", shard=1, replica=0,
                      call_index=7),
        ))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fault_storm_replay_is_bit_exact(world, oracle, seed):
    """Drops + delays + duplicates + corruption + one primary crash per
    shard: with retries and 2-way replicas the full 20-timestep replay
    matches the fault-free oracle exactly."""
    plan = storm_plan(seed)
    router = make_router(world, replicas=2, fault_plan=plan,
                         retry=RetryPolicy(max_attempts=6,
                                           deadline_s=10.0))
    scores, emb = replay(router, world)
    counters = router.counters
    router.close()

    # the storm actually stormed, and recovery machinery engaged
    assert plan.injected["crash"] == 2
    assert plan.total_injected > 10
    assert counters.replica_deaths >= 2
    assert counters.failovers >= 1
    assert counters.rpc_retries >= 1

    s_ref, e_ref = oracle
    assert float(np.abs(scores - s_ref).max()) == 0.0
    assert float(np.abs(emb - e_ref).max()) == 0.0


@pytest.fixture(scope="module")
def storm_runs(world):
    """One seeded storm against three protections, driven by a replay
    that counts raising operations, plus the fault-free baseline.  The
    storm crashes shards 0 and 1; shard 2 stays up, so boundaries keep
    committing and a dead shard's staleness grows.  Each entry is
    ``(plan, counters, failed_ops, final_embeddings or None)``."""
    protections = {"baseline": None, "unprotected": {},
                   "degraded": {"max_staleness": 4},
                   "replicated": {"replicas": 2}}
    runs = {}
    for name, kwargs in protections.items():
        if kwargs is None:
            plan, kwargs = None, {}
        else:
            plan = storm_plan(0)
            kwargs = dict(kwargs, fault_plan=plan,
                          retry=RetryPolicy(max_attempts=6,
                                            deadline_s=10.0))
        router = make_router(world, num_shards=3, **kwargs)
        failed = replay_stream(router, world.dtdg, tolerate=True)
        # a tier with a dead shard cannot gather its embeddings
        emb = router.gathered_embeddings() \
            if name in ("baseline", "replicated") else None
        runs[name] = (plan, router.counters, failed, emb)
        router.close()
    return runs


def availability(runs, name):
    counters = runs[name][1]
    return counters.queries_completed / counters.queries_submitted


def test_storm_actually_stormed(storm_runs):
    for name in ("unprotected", "degraded", "replicated"):
        plan, counters, _, _ = storm_runs[name]
        assert plan.total_injected > 10, name
        assert counters.replica_deaths >= 1, name


def test_replicated_storm_is_bit_exact(storm_runs):
    """Retries + dedup + failover are lossless under the tolerant
    replay too: the replicated tier's final embeddings match the
    fault-free baseline exactly."""
    emb = storm_runs["replicated"][3]
    ref = storm_runs["baseline"][3]
    assert float(np.abs(emb - ref).max()) == 0.0


def test_replicated_availability_is_total(storm_runs):
    _, counters, failed, _ = storm_runs["replicated"]
    assert availability(storm_runs, "replicated") == 1.0
    assert counters.queries_shed == 0
    assert failed == 0
    assert counters.failovers >= 1


def test_unprotected_tier_loses_queries(storm_runs):
    """Without replicas the scheduled crashes take shards down for
    good: queries are shed and tier operations fail."""
    _, counters, failed, _ = storm_runs["unprotected"]
    assert availability(storm_runs, "unprotected") < 1.0
    assert counters.queries_shed > 0
    assert failed > 0


def test_degraded_serving_recovers_availability(storm_runs):
    """Bounded-staleness answers put degraded availability strictly
    between the unprotected and replicated tiers, at the cost of stale
    results, and fail nothing."""
    _, counters, failed, _ = storm_runs["degraded"]
    assert availability(storm_runs, "unprotected") \
        < availability(storm_runs, "degraded") < 1.0
    assert counters.degraded_queries > 0
    assert failed == 0


def test_availability_speedup_is_material(storm_runs):
    assert availability(storm_runs, "replicated") \
        >= 1.2 * availability(storm_runs, "unprotected")


def test_mp_replica_failover_mid_stream(world):
    """Real OS processes: killing shard 0's primary mid-stream promotes
    its replica with no lost commits — scores and embeddings stay
    bit-identical to the fault-free simulated oracle."""
    ref = make_router(world)
    s_ref, e_ref = replay(ref, world, stop=8)
    ref.close()

    router = make_router(world, backend="multiprocess", replicas=2)
    scores, emb = replay(router, world, stop=8, crash_at=4)
    counters = router.counters
    router.prometheus()
    live = router.telemetry.registry.value("exec_replicas_live",
                                           shard="0")
    router.close()

    assert counters.failovers >= 1
    assert counters.replica_deaths == 1
    assert live == 1.0
    assert float(np.abs(scores - s_ref).max()) == 0.0
    assert float(np.abs(emb - e_ref).max()) == 0.0


@pytest.mark.parametrize("backend", ["simulated", "multiprocess"])
def test_duplicated_apply_delta_is_noop(world, oracle, backend):
    """At-least-once wire, exactly-once application: every apply_delta
    delivered twice under the same sequence id must be absorbed by the
    worker dedup cache, leaving state bit-identical."""
    plan = FaultPlan(duplicate_rate=1.0, verbs={"apply_delta"})
    router = make_router(world, backend=backend, fault_plan=plan)
    scores, emb = replay(router, world)
    assert plan.injected["duplicate"] > 10

    router.harvest_telemetry()
    reg = router.telemetry.registry
    deduped = sum(reg.value("worker_rpc_deduped_total", worker=str(s))
                  for s in range(router.num_shards))
    router.close()

    # every duplicated delivery was answered from the reply cache, not
    # re-applied
    assert deduped == plan.injected["duplicate"]
    s_ref, e_ref = oracle
    assert float(np.abs(scores - s_ref).max()) == 0.0
    assert float(np.abs(emb - e_ref).max()) == 0.0


@pytest.mark.parametrize("backend", ["simulated", "multiprocess"])
def test_corrupted_delta_rejected_then_redelivered(world, oracle, backend):
    """A corrupted delta payload fails the base-checksum gate *before*
    worker state mutates; the retry redelivers pristine bytes under the
    same sequence id and the stream stays bit-exact."""
    plan = FaultPlan(schedule=(
        FaultSpec("corrupt", verb="apply_delta", shard=0, call_index=1),))
    router = make_router(world, backend=backend, fault_plan=plan)
    scores, emb = replay(router, world)
    counters = router.counters
    router.close()

    assert plan.injected["corrupt"] == 1
    assert counters.rpc_retries >= 1
    s_ref, e_ref = oracle
    assert float(np.abs(scores - s_ref).max()) == 0.0
    assert float(np.abs(emb - e_ref).max()) == 0.0


def test_wrong_base_checksum_leaves_worker_untouched(world):
    """The gate itself, on the in-process transport: a delta whose
    ``base_checksum`` does not match the worker's resident raises
    before the mirror, the dirty set or the counters move."""
    router = make_router(world)
    transport = router.transports[0]
    service = transport.service
    ingestor = StreamIngestor(world.dtdg[0])
    ingestor.push_batch(events_between(world.dtdg[0], world.dtdg[1]))
    commit = ingestor.commit()
    dirty = expand_dirty(commit.snapshot, commit.dirty,
                         router.model.num_layers)
    bad = replace(commit.diff,
                  base_checksum=commit.diff.base_checksum ^ 0x5A5A)
    resident = service.resident
    stale = service.engine.cache.stale.copy()
    with pytest.raises(DatasetError):
        transport.call("apply_delta", bad, dirty)
    assert service.resident is resident
    # a worker holds the rows it does not compute stale, so the gate
    # is that no stale layer moved, not that none is stale
    np.testing.assert_array_equal(service.engine.cache.stale, stale)
    assert service.deltas_applied == 0
    # the pristine delta still applies afterwards
    transport.call("apply_delta", commit.diff, dirty)
    assert service.resident == commit.snapshot
    assert service.deltas_applied == 1
    router.close()


# -- degraded serving -------------------------------------------------------------------

def test_degraded_mode_serves_stale_then_sheds(world):
    """With every replica of shard 0 down, queries touching it are
    answered from the last committed boundary's cached rows, stamped
    with their staleness — until the bound is exceeded, then shed."""
    router = make_router(world, max_staleness=3)
    dtdg = world.dtdg
    for t in range(1, 6):
        router.ingest_events(events_between(dtdg[t - 1], dtdg[t]))
        router.advance_time(dtdg[t])
    boundary = router.gathered_embeddings()

    for transport in router.channels[0].replicas:
        transport.debug_exit()
    assert not router.channels[0].alive
    # dead but freshly cached: zero boundaries behind, still servable
    assert router.shard_staleness(0) == 0
    # two boundaries pass without shard 0
    router.advance_time(dtdg[6])
    router.advance_time(dtdg[7])
    assert router.shard_staleness(0) == 2
    assert router.shard_staleness(1) == 0

    q_dead = router.submit_fraud(0)        # vertex 0 lives on shard 0
    q_live = router.submit_fraud(119)      # shard 1: normal path
    q_link = router.submit_link(0, 119)    # spans dead + live
    router.drain()

    assert q_dead.staleness == 2
    assert q_link.staleness == 2
    assert q_live.staleness is None
    assert router.counters.degraded_queries == 2

    # degraded answers come from the boundary-cached rows, exactly
    fraud = router.fraud_head
    exp_fraud = score_fraud(boundary, np.array([0]), fraud)[0]
    assert q_dead.result == exp_fraud
    live_row = router.channels[1].embedding_rows(
        np.array([119], dtype=np.int64))[0]
    exp_link = score_links(np.stack([boundary[0], live_row]),
                           np.array([[0, 1]]), router.link_head)[0]
    assert q_link.result == exp_link

    # past the staleness bound the shard sheds rather than lying
    router.advance_time(dtdg[8])
    router.advance_time(dtdg[9])
    assert router.shard_staleness(0) == 4
    q_stale = router.submit_fraud(0)
    q_fresh = router.submit_fraud(119)
    router.drain()
    assert q_stale.shed and q_stale.done and q_stale.result is None
    assert router.counters.queries_shed_stale == 1
    assert q_fresh.result is not None      # the live shard still serves

    router.prometheus()
    reg = router.telemetry.registry
    assert reg.value("exec_shard_down", shard="0") == 1.0
    assert reg.value("exec_shard_down", shard="1") == 0.0
    assert reg.value("exec_shard_staleness_steps", shard="0") == 4.0
    router.close()


def test_read_failover_promotes_replica(world):
    """A dead primary with a live replica is invisible to clients:
    reads promote, results keep flowing, and the gauges record it."""
    router = make_router(world, replicas=2)
    router.channels[0].replicas[0].debug_exit()
    q = router.submit_fraud(0)
    router.drain()
    assert q.result is not None and not q.shed
    assert router.counters.failovers == 1
    assert router.channels[0].alive
    router.prometheus()
    assert router.telemetry.registry.value(
        "exec_replicas_live", shard="0") == 1.0
    router.close()


# -- admission-slot hygiene under timeouts ----------------------------------------------

def test_timed_out_flush_releases_admission_slots(world):
    """A flush that dies on RPC timeouts must resolve its queries as
    shed — releasing their admission slots — and count the timeouts;
    previously the slots leaked and the router wedged shut."""
    plan = FaultPlan(drop_rate=1.0, verbs={"refresh"})
    router = make_router(world, fault_plan=plan, max_inflight=4,
                         max_batch_size=4, flush_latency_ms=1e6,
                         retry=RetryPolicy(max_attempts=2,
                                           base_backoff_s=1e-4,
                                           deadline_s=0.5))
    qs = [router.submit_fraud(i) for i in range(3)]
    with pytest.raises((WorkerDeadError, WorkerTimeoutError)):
        router.submit_fraud(3)     # fills the batch -> flush -> storm
    assert all(q.done and q.shed and q.result is None for q in qs)
    assert router.counters.queries_shed >= 4
    assert router.counters.rpc_timeouts >= 1

    # the slots are free again: a fresh batch is admitted in full
    qs2 = [router.submit_fraud(i) for i in range(3)]
    assert not any(q.shed for q in qs2)

    router.prometheus()
    reg = router.telemetry.registry
    timeouts = sum(reg.value("exec_rpc_timeouts_total", shard=str(s))
                   for s in range(router.num_shards))
    assert timeouts >= 1
    router.close()


# -- circuit breaker --------------------------------------------------------------------

class _ScriptedTransport:
    """Transport stub whose results follow a script: a value to return
    or an exception instance to raise."""

    def __init__(self, shard_id=0, script=()):
        self.shard_id = shard_id
        self.script = list(script)
        self.stats = TransportStats()
        self.tracer = None
        self.calls = 0

    @property
    def alive(self):
        return True

    def submit(self, method, *args, seq=None):
        pass

    def result(self):
        self.calls += 1
        out = self.script.pop(0) if self.script else "ok"
        if isinstance(out, Exception):
            raise out
        return out

    def call(self, method, *args, seq=None):
        self.submit(method, *args, seq=seq)
        return self.result()

    def ping(self, timeout=None):
        return True

    def close(self):
        pass


def test_breaker_trips_fails_fast_and_half_opens():
    clock = [0.0]
    transport = _ScriptedTransport(
        script=[WorkerTimeoutError("t"), WorkerTimeoutError("t")])
    events = []
    channel = ShardChannel(
        0, [transport],
        policy=RetryPolicy(max_attempts=1, deadline_s=1e6),
        breaker_threshold=2, breaker_cooldown_s=5.0,
        clock=lambda: clock[0],
        on_event=lambda event, **kw: events.append(event))

    with pytest.raises(WorkerDeadError):
        channel.call("refresh")
    with pytest.raises(WorkerDeadError):
        channel.call("refresh")
    assert "breaker_trip" in events
    assert transport.calls == 2

    # tripped: the next call fails fast without touching the wire
    with pytest.raises(WorkerDeadError):
        channel.call("refresh")
    assert transport.calls == 2

    # after the cooldown a half-open probe goes through and closes it
    clock[0] = 10.0
    assert channel.call("refresh") == "ok"
    assert channel.call("refresh") == "ok"
    assert transport.calls == 4
