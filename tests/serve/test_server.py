"""Tests for the batched model server (queue policy, scoring, stats)."""

import gc

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


class TestArraySubmits:
    def test_chunks_score_as_scalars(self, world):
        """A chunk's rows get the scalar calls' scores and stamps, also
        when flush boundaries cut it (batches of 5 over 12 + 9 rows)."""
        clock = FakeClock()
        kwargs = dict(max_batch_size=5, clock=clock)
        scalar, chunked = make_server(world, **kwargs), \
            make_server(world, **kwargs)
        src, dst = np.arange(12) * 5 % 80, np.arange(12) * 3 % 80
        handles = [scalar.submit_link(a, b) for a, b in zip(src, dst)]
        links = chunked.submit_links(src, dst)
        clock.tick(0.002)
        handles += [scalar.submit_fraud(a) for a in dst[:9]]
        frauds = chunked.submit_fraud_many(dst[:9])
        for server in (scalar, chunked):
            server.drain()
        assert chunked.counters == scalar.counters
        assert chunked.counters.batches_flushed == 5
        for rows, got in ((slice(0, 12), links), (slice(12, 21), frauds)):
            want = handles[rows]
            np.testing.assert_array_equal(got.scores,
                                          [q.result for q in want])
            np.testing.assert_array_equal(got.latency_ms,
                                          [q.latency_ms for q in want])
            assert got.done.all() and not got.shed.any()
            assert (got.staleness == -1).all()
        np.testing.assert_array_equal(links.src, src)
        np.testing.assert_array_equal(frauds.dst, dst[:9])
        assert (len(links), links.kind, frauds.kind) == (12, "link",
                                                         "fraud")

    def test_bad_ids_rejected_before_anything_moves(self, world):
        server = make_server(world, max_batch_size=10)
        n = server.engine.num_vertices
        bad = [([0, -1], [1, 2], "vertex -1 outside"),
               ([0, 1], [2, n], f"vertex {n} outside"),
               (np.array([1, 2**63 + 5], dtype=np.uint64), [0, 0],
                f"vertex {2**63 + 5} outside"),
               ([0, 2.5], [1, 1], "vertex 0.0 outside"),
               ([1, 2], [0.0, 1.0], "vertex 0.0 outside")]
        for src, dst, message in bad:
            with pytest.raises(ConfigError, match=message):
                server.submit_links(src, dst)
        with pytest.raises(ConfigError, match="1-D and of one length"):
            server.submit_links([0, 1], [1])
        with pytest.raises(ConfigError, match="1-D and of one length"):
            server.submit_fraud_many(3)
        with pytest.raises(ConfigError, match=f"vertex {n} outside"):
            server.submit_fraud_many([0, n])
        assert server.counters.queries_submitted == 0
        assert not server._queue
        # bools and every integer dtype are ids
        ok = server.submit_links(np.array([1, 0], np.int32),
                                 np.array([True, False]))
        empty = server.submit_fraud_many([])
        assert len(empty) == 0 and server.counters.queries_submitted == 2
        assert server.drain() == 2 and ok.done.all()
        with pytest.raises(ConfigError, match="fraud_head"):
            make_server(world, fraud_head=None).submit_fraud_many([0])

    def test_a_handle_derives_its_payload(self, world):
        server = make_server(world, max_batch_size=10)
        link, fraud = server.submit_link(3, 4), server.submit_fraud(5)
        assert (link.src, link.dst, link.payload) == (3, 4, (3, 4))
        assert (fraud.src, fraud.dst, fraud.payload) == (5, 5, (5,))


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

    def test_a_chunk_whose_flush_raises_says_where(self, world,
                                                   monkeypatch):
        """A chunk larger than a batch fills the queue inside its submit
        and that flush raises: the error carries the chunk, the rows it
        had queued stay queued as a scalar loop's would, and the rows it
        never offered resolve shed instead of reading as pending."""
        events = [EdgeEvent(0, 1), EdgeEvent(2, 3)]
        calm = make_server(world, max_batch_size=4)
        calm.ingest_events(events)
        want = [calm.submit_fraud(a) for a in range(4)]
        calm.drain()

        server = make_server(world, max_batch_size=4)
        server.ingest_events(events)        # dirty rows: flush must refresh
        refresh = server.engine.refresh
        monkeypatch.setattr(server.engine, "refresh",
                            lambda reads=None: (_ for _ in ()).throw(
                                RuntimeError("boom")))
        with pytest.raises(RuntimeError, match="boom") as err:
            server.submit_fraud_many(np.arange(10))
        chunk = err.value.batch
        never = [False] * 4 + [True] * 6
        assert chunk.shed.tolist() == chunk.done.tolist() == never
        assert server._queued == 4
        assert server.counters.queries_submitted == 4
        monkeypatch.setattr(server.engine, "refresh", refresh)
        assert server.drain() == 4
        assert chunk.done.all() and chunk.shed.tolist() == never
        assert chunk.scores[:4].tolist() == [q.result for q in want]
        assert np.isnan(chunk.scores[4:]).all()
        assert server.counters.queries_completed == 4


class TestDrainAfterFailedFlushes:
    def test_drain_loops_instead_of_recursing(self, world, monkeypatch):
        """Failed flushes keep their batches queued, so more batches can
        pile up than the stack could recurse through: the flush used to
        drain by ``return n + self.flush()`` and ``drain()`` died with
        ``RecursionError`` two thousand queries short."""
        server = make_server(world, max_batch_size=1)
        server.ingest_events([EdgeEvent(0, 1), EdgeEvent(2, 3)])
        refresh = server.engine.refresh
        monkeypatch.setattr(server.engine, "refresh",
                            lambda reads=None: (_ for _ in ()).throw(
                                RuntimeError("boom")))
        for i in range(3000):
            with pytest.raises(RuntimeError, match="boom"):
                server.submit_fraud(i % 80)
        queued = list(server._queue)
        assert len(queued) == 3000
        monkeypatch.setattr(server.engine, "refresh", refresh)
        assert server.drain() == 3000
        assert not server._queue and all(q.done for q in queued)
        assert server.counters.queries_completed == \
            server.counters.batches_flushed == 3000

    def test_a_failed_flush_keeps_the_rest_of_a_chunk(self, world,
                                                      monkeypatch):
        """A batch boundary cuts a chunk and the batch fails: the cut
        rows go back to the head, ahead of the chunk's rest and what
        came after it, and the next flush answers them as if nothing
        had failed."""
        events = [EdgeEvent(0, 1), EdgeEvent(2, 3)]
        calm = make_server(world, max_batch_size=4)
        calm.ingest_events(events)
        want = calm.submit_fraud_many(np.arange(6))
        calm.drain()

        server = make_server(world, max_batch_size=64)
        server.ingest_events(events)
        chunk = server.submit_fraud_many(np.arange(6))
        tail = server.submit_link(0, 1)
        refresh = server.engine.refresh
        monkeypatch.setattr(server.engine, "refresh",
                            lambda reads=None: (_ for _ in ()).throw(
                                RuntimeError("boom")))
        server.max_batch_size = 4           # the batch cuts the chunk
        with pytest.raises(RuntimeError, match="boom"):
            server.flush()
        assert server._queued == 7 and not chunk.done.any()
        assert server._queue[-1] is tail
        monkeypatch.setattr(server.engine, "refresh", refresh)
        assert server.drain() == 7
        np.testing.assert_array_equal(chunk.scores, want.scores)
        assert tail.done and not server._queued

    def test_a_failed_flush_resolves_what_the_tier_shed(self, world,
                                                        monkeypatch):
        """Rows the tier marked shed before it raised resolve shed; the
        rest of a chunk stays queued in its runs, in order."""
        server = make_server(world, max_batch_size=64)
        chunk = server.submit_fraud_many(np.arange(6))
        tail = server.submit_fraud(7)

        def answer(ends, is_link, cone, shed):
            shed[[1, 2, 4, 6]] = True
            raise RuntimeError("boom")

        monkeypatch.setattr(server, "_answer_batch", answer)
        with pytest.raises(RuntimeError, match="boom"):
            server.flush()
        gone = [False, True, True, False, True, False]
        assert chunk.shed.tolist() == chunk.done.tolist() == gone
        assert tail.shed and tail.done and tail.result is None
        assert server._queued == 3 and len(server._queue) == 3
        monkeypatch.undo()
        assert server.drain() == 3
        assert chunk.done.all() and chunk.shed.tolist() == gone
        assert np.isnan(chunk.scores).tolist() == gone
        assert server.counters.queries_completed == 3


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

    def test_a_chunk_reads_the_clock_once(self, world):
        clock = FakeClock()
        server = make_server(world, max_batch_size=64, clock=clock)
        before = clock.reads
        links = server.submit_links(np.arange(40), np.arange(40)[::-1])
        frauds = server.submit_fraud_many(np.arange(23))
        assert clock.reads - before == 2        # one per chunk
        assert server.counters.batches_flushed == 0
        assert "serve_queue_depth 63" in server.prometheus()
        server.submit_fraud(3)                  # fills the batch: flushes
        assert server.counters.batches_flushed == 1
        assert clock.reads - before - 3 <= 3
        assert links.done.all() and frauds.done.all()

    def test_a_query_costs_one_tracked_object(self, world):
        """Each object the cyclic collector tracks counts towards its
        next collection; a handle that owned a payload tuple too cost
        two per query, and one more per query brings back the full
        collections of a read-heavy replay.  A chunk costs O(1)."""
        server = make_server(world, max_batch_size=100_000)
        k = 512
        ids = [(i % 80, (i * 7) % 80) for i in range(k)]
        src, dst = np.array(ids).T.copy()
        handles = []
        gc.collect()
        gc.disable()
        try:
            before = len(gc.get_objects())
            for i, (a, b) in enumerate(ids):
                handles.append(server.submit_link(a, b) if i % 2
                               else server.submit_fraud(a))
            scalars = len(gc.get_objects())
            chunks = [server.submit_links(src, dst),
                      server.submit_fraud_many(src)]
            after = len(gc.get_objects())
        finally:
            gc.enable()
        assert server.counters.batches_flushed == 0
        assert scalars - before <= k + 8
        assert after - scalars <= 8
        assert server.drain() == 3 * k
        assert all(q.done for q in handles)
        assert all(c.done.all() for c in chunks)

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
