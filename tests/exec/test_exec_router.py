"""Router behavior: admission control, coalescing, liveness, metrics."""

import numpy as np
import pytest

from repro.errors import ConfigError, WorkerTimeoutError
from repro.exec import ExecRouter, MultiprocessBackend
from repro.models import build_model
from repro.nn.linear import Linear
from repro.obs import Telemetry


def make_router(world, **kwargs):
    model = build_model("cdgcn", in_features=2, seed=0)
    fraud = Linear(model.embed_dim, 2, np.random.default_rng(9))
    kwargs.setdefault("backend", "simulated")
    kwargs.setdefault("num_shards", 2)
    return ExecRouter(model, world.dtdg[0], fraud_head=fraud, **kwargs)


class TestAdmissionControl:
    def test_sheds_above_the_inflight_bound(self, world):
        router = make_router(world, max_batch_size=64,
                             flush_latency_ms=1e6, max_inflight=8)
        queries = [router.submit_link(i, (i + 1) % 120)
                   for i in range(12)]
        shed = [q for q in queries if q.shed]
        assert len(shed) == 4
        # a shed query resolves immediately, with no result to wait on
        assert all(q.done and q.result is None for q in shed)
        assert router.counters.queries_shed == 4
        assert router.counters.queries_submitted == 12
        router.drain()
        # only admitted queries were answered
        assert router.counters.queries_completed == 8
        assert all(q.result is not None
                   for q in queries if not q.shed)
        router.close()

    def test_a_chunk_sheds_its_rows_above_the_bound(self, world):
        router = make_router(world, max_batch_size=64,
                             flush_latency_ms=1e6, max_inflight=8,
                             backpressure_ratio=0.5)
        first = router.submit_fraud(0)
        chunk = router.submit_links(np.arange(12), (np.arange(12) + 1) % 120)
        assert chunk.shed.tolist() == [False] * 7 + [True] * 5
        assert chunk.done.tolist() == chunk.shed.tolist()
        assert router.counters.queries_shed == 5
        assert router.counters.backpressure_events == 1
        assert router.under_backpressure
        router.drain()
        assert chunk.done.all() and not first.shed
        assert np.isnan(chunk.scores).tolist() == chunk.shed.tolist()
        assert router.counters.queries_completed == 8
        router.close()

    def test_backpressure_is_edge_triggered(self, world):
        router = make_router(world, max_batch_size=64,
                             flush_latency_ms=1e6, max_inflight=10,
                             backpressure_ratio=0.5)
        assert not router.under_backpressure
        for i in range(4):
            router.submit_fraud(i)
        assert not router.under_backpressure
        router.submit_fraud(4)          # crosses 0.5 * 10
        assert router.under_backpressure
        assert router.counters.backpressure_events == 1
        router.submit_fraud(5)          # still above: no second edge
        assert router.counters.backpressure_events == 1
        router.drain()
        assert not router.under_backpressure
        router.close()

    def test_no_bound_means_no_shedding(self, world):
        router = make_router(world, max_batch_size=4)
        queries = [router.submit_fraud(i) for i in range(20)]
        assert router.counters.queries_shed == 0
        router.drain()
        assert all(q.done and not q.shed for q in queries)
        router.close()

    def test_rejects_bad_configs(self, world):
        with pytest.raises(ConfigError):
            make_router(world, max_inflight=0)
        with pytest.raises(ConfigError):
            make_router(world, backpressure_ratio=0.0)
        with pytest.raises(ConfigError):
            make_router(world, backend="carrier-pigeon")
        with pytest.raises(ConfigError):
            make_router(world, num_shards=None)


class TestCoalescing:
    def test_one_score_rpc_per_touched_shard(self, world):
        router = make_router(world, max_batch_size=64)
        # all on shard 0 (vertices 0..59 with 2 uniform shards)
        for i in range(8):
            router.submit_fraud(i)
        router.flush()
        assert router.counters.score_rpcs == 1
        assert router.counters.batches_flushed == 1
        # now a mixed batch touches both shards: exactly 2 score RPCs
        router.submit_fraud(0)
        router.submit_fraud(119)
        router.flush()
        assert router.counters.score_rpcs == 3
        router.close()

    def test_cross_shard_link_gathers_remote_row(self, world):
        router = make_router(world, max_batch_size=4)
        q = router.submit_link(0, 119)   # endpoints on different shards
        router.drain()
        assert q.done
        assert router.counters.remote_row_fetches >= 1
        assert router.counters.remote_row_bytes > 0
        router.close()


class TestLiveness:
    def test_heartbeat_flags_dead_workers(self, world):
        router = make_router(world)
        assert router.heartbeat() == []
        router.transports[1].debug_exit()
        assert router.heartbeat() == [1]
        assert router.counters.heartbeat_failures == 1
        assert router.counters.heartbeats == 2
        router.close()

    def test_call_timeout_kills_and_raises(self, world):
        backend = MultiprocessBackend(call_timeout_s=0.5)
        router = make_router(world, backend=backend)
        with pytest.raises(WorkerTimeoutError):
            router.transports[0].call("debug_sleep", 30.0)
        assert not router.transports[0].alive
        router.close()

    def test_ping_roundtrip_on_real_worker(self, world):
        router = make_router(world, backend="multiprocess")
        assert router.heartbeat() == []
        router.close()
        # after close every transport reports dead
        assert all(not t.alive for t in router.transports)


class TestObservability:
    def test_exec_metrics_exported(self, world):
        router = make_router(world, max_inflight=16, max_batch_size=4)
        router.submit_link(0, 119)
        router.submit_fraud(5)
        router.drain()
        router._collect_metrics()
        reg = router.telemetry.registry
        assert reg.value("serve_queries_completed_total") == 2
        assert reg.value("exec_shard_count") == 2
        assert reg.value("exec_inflight_limit") == 16
        assert reg.value("exec_rpc_roundtrips_total", shard="0") > 0
        assert reg.value("comm_bytes_total", label="query_rows") > 0
        router.close()

    def test_latency_split_recorded_per_flush(self, world):
        """The router records the frontend's three latency series once
        per flush, over the answered (non-shed) queries only, and never
        through the scalar path."""
        router = make_router(world, max_inflight=6, max_batch_size=64,
                             flush_latency_ms=1e6)

        def scalar(value):
            raise AssertionError("per-query series observed one by one")

        for tracker in (router.latency, router._queue_wait):
            tracker.observe = scalar
        queries = [router.submit_link(i, 119 - i) for i in range(3)]
        queries += [router.submit_fraud(i) for i in range(7)]   # 4 shed
        router.drain()
        queries += [router.submit_fraud(i) for i in range(3)]
        router.drain()
        answered = [q for q in queries if not q.shed]
        flushes = router.counters.batches_flushed
        assert (len(answered), flushes) == (9, 2)
        assert router.counters.queries_shed == len(queries) - len(answered)
        assert router.counters.queries_completed == len(answered)
        assert router.latency.count == len(answered)
        assert sorted(router.latency._samples) == sorted(
            q.latency_ms for q in answered)
        text = router.prometheus()
        assert f"serve_latency_ms_count {len(answered)}" in text
        assert f"serve_queue_wait_ms_count {len(answered)}" in text
        assert f"serve_compute_ms_count {flushes}" in text
        router.close()

    def test_exec_spans_traced(self, world):
        router = make_router(world, telemetry=Telemetry(tracing=True))
        router.submit_fraud(3)
        router.drain()
        stages = router.telemetry.stage_seconds()
        assert "exec.dispatch" in stages
        assert "exec.coalesce" in stages
        assert "exec.rpc" in stages
        router.close()

    def test_shm_metrics_on_real_backend(self, world):
        router = make_router(world, backend="multiprocess")
        q = router.submit_link(0, 119)
        router.drain()
        assert q.done
        router._collect_metrics()
        reg = router.telemetry.registry
        assert reg.value("exec_shm_bytes_mapped") > 0
        assert reg.value("exec_shm_rows_read_total", shard="1") > 0
        router.close()

    def test_stats_surface(self, world):
        router = make_router(world, backend="multiprocess")
        router.submit_fraud(3)
        router.drain()
        stats = router.stats()
        assert stats.backend == "multiprocess"
        assert stats.num_shards == 2
        assert stats.counters.queries_completed == 1
        assert len(stats.per_shard_busy_s) == 2
        assert stats.critical_path_s > 0
        assert stats.shm_bytes_mapped > 0
        router.close()
