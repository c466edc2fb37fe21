"""Tests for the batched model server (queue policy, scoring, stats)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigError
from repro.graph import AMLSimConfig, generate_amlsim
from repro.models import build_model
from repro.nn.linear import EdgeScorer, Linear
from repro.serve import EdgeEvent, ModelServer, events_between
from repro.train import save_model_checkpoint
from tests.helpers import flush_oracle, replay_stream


class FakeClock:
    """Deterministic injectable clock (seconds) that counts its reads."""

    def __init__(self) -> None:
        self.now = 0.0
        self.reads = 0

    def __call__(self) -> float:
        self.reads += 1
        return self.now

    def tick(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture(scope="module")
def world():
    config = AMLSimConfig(num_accounts=80, num_timesteps=6,
                          background_per_step=120,
                          partner_persistence=0.8, num_fan_out=2,
                          num_fan_in=2, num_cycles=1, num_scatter_gather=1,
                          pattern_size=4, seed=5)
    sim = generate_amlsim(config)
    model = build_model("cdgcn", in_features=2, seed=0)
    rng = np.random.default_rng(1)
    return sim, model, EdgeScorer(model.embed_dim, 2, rng), \
        Linear(model.embed_dim, 2, rng)


def make_server(world, **kwargs):
    sim, model, link_head, fraud_head = world
    kwargs.setdefault("link_head", link_head)
    kwargs.setdefault("fraud_head", fraud_head)
    return ModelServer(model, sim.dtdg[0], **kwargs)


class TestQueue:
    def test_flush_on_max_batch(self, world):
        server = make_server(world, max_batch_size=4)
        queries = [server.submit_link(0, 1) for _ in range(3)]
        assert not any(q.done for q in queries)
        queries.append(server.submit_link(1, 2))
        assert all(q.done for q in queries)
        assert server.counters.batches_flushed == 1

    def test_tick_respects_latency_budget(self, world):
        clock = FakeClock()
        server = make_server(world, max_batch_size=100,
                             flush_latency_ms=5.0, clock=clock)
        q = server.submit_fraud(3)
        clock.tick(0.004)
        assert server.tick() == 0 and not q.done
        clock.tick(0.002)  # 6 ms > 5 ms budget
        assert server.tick() == 1 and q.done

    def test_drain_empties_queue(self, world):
        server = make_server(world, max_batch_size=100)
        for i in range(10):
            server.submit_fraud(i)
        assert server.drain() == 10
        assert server.counters.queries_completed == 10

    def test_oversized_burst_drains_in_chunks(self, world):
        server = make_server(world, max_batch_size=4)
        done = [server.submit_fraud(i % 8) for i in range(7)]
        server.submit_fraud(0)  # 8th fills the first batch, all flush
        assert all(q.done for q in done)
        assert server.counters.batches_flushed == 2


class TestScoring:
    def test_scores_are_probabilities(self, world):
        server = make_server(world, max_batch_size=2)
        a = server.submit_link(0, 1)
        b = server.submit_fraud(2)
        assert 0.0 <= a.result <= 1.0
        assert 0.0 <= b.result <= 1.0
        assert a.latency_ms >= 0.0

    def test_link_without_head_uses_dot_product(self, world):
        server = make_server(world, link_head=None, max_batch_size=1)
        q = server.submit_link(0, 1)
        assert 0.0 <= q.result <= 1.0

    def test_fraud_without_head_rejected(self, world):
        server = make_server(world, fraud_head=None)
        with pytest.raises(ConfigError):
            server.submit_fraud(0)

    def test_out_of_range_query_ids_rejected_at_submit(self, world):
        """Negative ids would silently score the wrong vertex and big
        ones would kill the whole batch at flush time."""
        server = make_server(world, max_batch_size=10)
        n = server.engine.num_vertices
        with pytest.raises(ConfigError):
            server.submit_fraud(-1)
        with pytest.raises(ConfigError):
            server.submit_fraud(n)
        with pytest.raises(ConfigError):
            server.submit_link(0, n)
        # a float id used to be truncated ((2.9, 1.2) scored the pair
        # (2, 1)) and NaN escaped as a bare ValueError
        for bad in (2.9, 1.0, float("nan"), np.float64(3.0), "3", None):
            with pytest.raises(ConfigError, match="query vertex"):
                server.submit_fraud(bad)
            with pytest.raises(ConfigError, match="query vertex"):
                server.submit_link(1, bad)
            with pytest.raises(ConfigError, match="query vertex"):
                server.submit_link(bad, 1)
        with pytest.raises(ConfigError, match=f"vertex {n} outside"):
            server.submit_link(np.int64(1), n)  # names the bad id
        assert server.counters.queries_submitted == 0
        assert not server._queue
        # every integer type is an id, and lands as a plain int
        for ids in ((np.int32(0), np.int64(1)), (np.uint8(2), True)):
            assert server.submit_link(*ids).payload == tuple(map(int, ids))
            assert all(type(v) is int for v in server._queue[-1].payload)
        assert type(server.submit_fraud(np.int64(n - 1)).payload[0]) is int
        ok = server.submit_link(0, 1)  # queue survived the rejections
        assert server.drain() == 4
        assert ok.done

    def test_scores_follow_ingested_events(self, world):
        """Identical queries straddling an ingest see refreshed rows."""
        sim, model, _, _ = world
        server = make_server(world, max_batch_size=1)
        before = server.submit_link(0, 1).result
        events = [EdgeEvent(0, 1), EdgeEvent(0, 2), EdgeEvent(1, 0)]
        server.ingest_events(events)
        after = server.submit_link(0, 1).result
        assert before != after  # degree features of 0/1 changed


class TestFlushFailure:
    def test_a_flush_that_raises_keeps_its_batch(self, world,
                                                 monkeypatch):
        """The batch used to be sliced off the queue before the refresh
        ran: one failing refresh and both handles dangled forever."""
        events = [EdgeEvent(0, 1), EdgeEvent(2, 3)]
        calm = make_server(world, max_batch_size=8)
        calm.ingest_events(events)
        want = [calm.submit_link(0, 1), calm.submit_fraud(2)]
        calm.drain()

        server = make_server(world, max_batch_size=8)
        first = server.submit_fraud(5)
        server.drain()
        server.ingest_events(events)        # dirty rows: flush must refresh
        handles = [server.submit_link(0, 1), server.submit_fraud(2)]
        refresh = server.engine.refresh
        monkeypatch.setattr(server.engine, "refresh",
                            lambda reads=None: (_ for _ in ()).throw(
                                RuntimeError("boom")))
        with pytest.raises(RuntimeError, match="boom"):
            server.flush()
        assert server._queue == handles     # back at the head, in order
        assert not any(q.done for q in handles)
        assert server.counters.queries_completed == 1
        assert server.counters.batches_flushed == 1
        assert server.latency.count == 1    # nothing recorded either
        monkeypatch.setattr(server.engine, "refresh", refresh)
        assert server.drain() == 2
        assert first.done and all(q.done for q in handles)
        assert [q.result for q in handles] == [q.result for q in want]
        assert server.counters.queries_submitted \
            == server.counters.queries_completed == 3


class TestPerFlushNotPerQuery:
    """The read path's fixed costs, pinned by counts rather than timing."""

    def test_clock_reads_per_flush_are_fixed(self, world):
        clock = FakeClock()
        server = make_server(world, max_batch_size=64, clock=clock)
        before = clock.reads
        for i in range(63):
            server.submit_link(i % 80, (i * 7) % 80)
        assert clock.reads - before == 63       # one per submit_*
        server.submit_fraud(3)                  # fills the batch: flushes
        assert server.counters.batches_flushed == 1
        assert clock.reads - before - 64 <= 3   # flushed / now / scored

    def test_latency_series_never_take_the_scalar_path(self, world,
                                                       monkeypatch):
        server = make_server(world, max_batch_size=16)

        def scalar(value):
            raise AssertionError("per-query series observed one by one")

        class CountingRng:
            def __init__(self, rng):
                self.rng, self.draws = rng, 0

            def random(self, size=None):
                self.draws += 1
                return self.rng.random(size)

        for tracker in (server.latency, server._queue_wait):
            monkeypatch.setattr(tracker, "observe", scalar)
            tracker.reservoir_size = 8      # full after the first flush
            tracker._rng = CountingRng(tracker._rng)
        handles = []
        for i in range(160):
            handles.append(server.submit_link(i % 80, (i * 3) % 80)
                           if i % 3 else server.submit_fraud(i % 80))
            if i == 70:
                server.ingest_events([EdgeEvent(1, 2)])
        server.drain()
        flushes = server.counters.batches_flushed
        assert flushes == 10 and all(q.done for q in handles)
        for tracker in (server.latency, server._queue_wait):
            assert tracker.count == 160 and tracker.sampled == 8
            assert 1 <= tracker._rng.draws <= flushes

    def test_queue_wait_and_compute_are_exported(self, world):
        """``serve_queue_wait_ms`` counts queries, ``serve_compute_ms``
        flushes; each brackets what its stamps say."""
        clock = FakeClock()
        server = make_server(world, max_batch_size=4, clock=clock)
        server.submit_link(0, 1)
        clock.tick(0.010)
        server.submit_fraud(1)
        clock.tick(0.005)
        assert server.drain() == 2
        for i in range(4):
            server.submit_fraud(i)              # a second, full batch
        reg = server.telemetry.registry
        wait = reg.get("serve_queue_wait_ms")
        assert wait.count == 6 and reg.get("serve_compute_ms").count == 2
        assert reg.get("serve_latency_ms") is server.latency
        assert sorted(wait._samples) == pytest.approx(
            [0.0, 0.0, 0.0, 0.0, 5.0, 15.0])
        text = server.prometheus()
        assert "serve_queue_wait_ms_count 6" in text
        assert "serve_compute_ms_count 2" in text
        assert "# TYPE serve_queue_wait_ms summary" in text
        board = server.dashboard()
        assert "queue wait ms  p50 0.00  p95 12.50" in board
        assert "compute ms  p50 0.00" in board and "(n=2)" in board


_vertex = st.integers(0, 79)
_query = st.one_of(st.tuples(_vertex, _vertex), st.tuples(_vertex))
_burst = st.tuples(
    st.lists(_query, max_size=14),                        # mixed
    st.sampled_from(["mixed", "links", "frauds"]),
    st.lists(st.tuples(_vertex, _vertex), max_size=3),    # ingest after
    st.integers(0, 3))                                    # ms between submits


class TestFlushMatchesThePerQueryOracle:
    @settings(max_examples=25, deadline=None)
    @given(st.lists(_burst, min_size=1, max_size=4), st.booleans(),
           st.sampled_from([1, 4, 64]))
    def test_twin_servers_agree_exactly(self, world, bursts, with_head,
                                        max_batch_size):
        """Random mixed batches (duplicates, self-pairs, one-kind
        batches) through ``ModelServer.flush`` and through
        ``flush_oracle`` on twin servers sharing a clock: handles,
        counters, stale layers and the latency reservoir agree
        exactly."""
        clock = FakeClock()
        kwargs = dict(clock=clock, max_batch_size=64, flush_latency_ms=1e9)
        if not with_head:
            kwargs["link_head"] = None
        live, twin = make_server(world, **kwargs), make_server(world,
                                                               **kwargs)
        for server in (live, twin):     # queue past one batch, then cut it
            server.latency.reservoir_size = 6
        pairs = []
        for queries, only, events, gap_ms in bursts:
            for ids in queries:
                if (only == "links" and len(ids) == 1) or \
                        (only == "frauds" and len(ids) == 2):
                    continue
                submit = "submit_link" if len(ids) == 2 else "submit_fraud"
                pairs.append((getattr(live, submit)(*ids),
                              getattr(twin, submit)(*ids)))
                clock.tick(gap_ms * 1e-3)
            for server in (live, twin):
                server.max_batch_size = max_batch_size
            assert live.flush() == flush_oracle(twin)
            for server in (live, twin):
                server.max_batch_size = 64
                server.ingest_events([EdgeEvent(u, v) for u, v in events])
        for got, want in pairs:
            assert got.done and want.done
            assert got.result == want.result
            assert type(got.result) is float
            assert got.latency_ms == want.latency_ms
            assert (got.kind, got.payload, got.enqueued_at) == \
                (want.kind, want.payload, want.enqueued_at)
        assert live.counters == twin.counters
        assert not live._queue and not twin._queue
        np.testing.assert_array_equal(live.cache.stale, twin.cache.stale)
        assert live.latency.count == twin.latency.count
        assert live.latency._samples == twin.latency._samples
        assert live.latency.sum == pytest.approx(twin.latency.sum,
                                                 rel=1e-12, abs=1e-12)


class TestIncrementalVsFull:
    def test_modes_agree_on_scores(self, world):
        sim = world[0]
        dtdg = sim.dtdg
        servers = [make_server(world, incremental=True, max_batch_size=3),
                   make_server(world, incremental=False, max_batch_size=3)]
        for t in range(1, dtdg.num_timesteps):
            events = events_between(dtdg[t - 1], dtdg[t])
            half = len(events) // 2
            for chunk in (events[:half], events[half:]):
                results = []
                for server in servers:
                    server.ingest_events(chunk)
                    qs = [server.submit_link(1, 2), server.submit_fraud(3),
                          server.submit_link(4, 0)]
                    server.drain()
                    results.append([q.result for q in qs])
                np.testing.assert_allclose(results[0], results[1],
                                           atol=1e-6)
            for server in servers:
                server.advance_time(dtdg[t])

    def test_incremental_recomputes_fewer_rows(self, world):
        sim = world[0]
        dtdg = sim.dtdg
        inc = make_server(world, incremental=True, max_batch_size=1)
        full = make_server(world, incremental=False, max_batch_size=1)
        events = events_between(dtdg[0], dtdg[1])[:4]
        for server in (inc, full):
            server.ingest_events(events)
            server.submit_fraud(0)
        assert inc.counters.rows_recomputed < full.counters.rows_recomputed
        assert inc.counters.rows_served_from_cache > 0
        assert full.counters.cache_hit_rate == 0.0

    def test_cache_advantage_grows_with_graph_size(self):
        """Deltas stay event-sized while full recompute scales with N:
        from a small resident graph to a larger one the hit rate rises
        and the share of full recompute's rows the cache recomputes
        falls."""
        def economics(num_accounts, background):
            dtdg = generate_amlsim(AMLSimConfig(
                num_accounts=num_accounts, num_timesteps=6,
                background_per_step=background, partner_persistence=0.95,
                activity_skew=0.4, seed=0)).dtdg
            counters = {}
            for incremental in (True, False):
                model = build_model("cdgcn", in_features=2, seed=0)
                fraud = Linear(model.embed_dim, 2, np.random.default_rng(7))
                server = ModelServer(model, dtdg[0], fraud_head=fraud,
                                     incremental=incremental)
                replay_stream(server, dtdg, start=3, batches_per_step=4)
                counters[incremental] = server.counters
            inc, full = counters[True], counters[False]
            return (inc.cache_hit_rate,
                    inc.rows_recomputed / full.rows_recomputed)

        small_hit, small_fraction = economics(200, 250)
        large_hit, large_fraction = economics(1200, 1500)
        assert large_hit > small_hit
        assert large_fraction < small_fraction


class TestStats:
    def test_counters_and_latency(self, world):
        clock = FakeClock()
        server = make_server(world, max_batch_size=2, clock=clock)
        server.ingest_events([EdgeEvent(1, 2)])
        server.submit_link(0, 1)
        clock.tick(0.010)
        server.submit_fraud(1)
        clock.tick(0.005)
        stats = server.stats()
        assert stats.counters.queries_completed == 2
        assert stats.counters.events_ingested == 1
        # first request waited 10 ms, second 0 ms
        assert stats.latency_p99_ms == pytest.approx(10.0, abs=0.5)
        assert stats.queries_per_second > 0
        assert stats.latency_p50_ms <= stats.latency_p95_ms \
            <= stats.latency_p99_ms
        assert len(stats.row()) == 6


class TestCheckpointBoot:
    def test_from_checkpoint_roundtrip(self, world, tmp_path):
        sim, model, link_head, fraud_head = world
        path = str(tmp_path / "ckpt.npz")
        save_model_checkpoint(path, model, "cdgcn", link_head=link_head,
                              fraud_head=fraud_head)
        booted = ModelServer.from_checkpoint(path, sim.dtdg[0],
                                             max_batch_size=1)
        direct = make_server(world, max_batch_size=1)
        assert booted.submit_link(0, 1).result == \
            pytest.approx(direct.submit_link(0, 1).result, abs=1e-9)
        assert booted.submit_fraud(2).result == \
            pytest.approx(direct.submit_fraud(2).result, abs=1e-9)
