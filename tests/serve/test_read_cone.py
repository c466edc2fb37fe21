"""The read-cone refresh and the stale-layer cache (docs/kernels.md,
"Refresh: stale layers and the read cone").

The embedding cache holds, per vertex, the lowest layer whose row is
stale (a row ``d`` hops from a change is stale from layer ``d − 1``,
out to the model depth ``L``, the one invalidation radius); a refresh
recomputes each layer only where that layer is stale, and a flush's
first refresh after a commit only where its batch reads.
Everything here is pinned by exact equality against a full recompute
(``ModelServer(incremental=False)``) or the eager refresh oracle, and
by counting engine ``_compute`` calls — never by timing.  Few-row cones
are the shape that once split BLAS kernels, so CI reruns this module on
the Haswell kernel family too.
"""

import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graph import AMLSimConfig, generate_amlsim
from repro.models import MODEL_NAMES, build_model
from repro.nn.linear import EdgeScorer, Linear
from repro.obs import Telemetry
from repro.serve import (EdgeEvent, InferenceEngine, ModelServer,
                         StreamIngestor, events_between)
from repro.store import GraphStore
from tests.helpers import (assert_clean_rows_exact, assert_stale_invariant,
                           eager_refresh)

N = 60


@pytest.fixture(scope="module")
def small():
    dtdg = generate_amlsim(AMLSimConfig(
        num_accounts=N, num_timesteps=3, background_per_step=90,
        partner_persistence=0.8, seed=4)).dtdg
    parts = {}
    for name in MODEL_NAMES:
        model = build_model(name, in_features=2, seed=0)
        rng = np.random.default_rng(1)
        parts[name] = (model, EdgeScorer(model.embed_dim, 2, rng),
                       Linear(model.embed_dim, 2, rng))
    return dtdg[0], parts


@pytest.fixture(scope="module")
def stream():
    """A graph large enough that one batch's read cone is a small part
    of the rows its events dirty."""
    return generate_amlsim(AMLSimConfig(
        num_accounts=400, num_timesteps=4, background_per_step=500,
        partner_persistence=0.8, seed=8)).dtdg


def _kwargs(parts, name):
    model, link, fraud = parts[name]
    return model, dict(link_head=link, fraud_head=fraud, max_batch_size=64,
                       flush_latency_ms=1e9)


def _submit(server, query):
    return server.submit_link(*query) if len(query) == 2 \
        else server.submit_fraud(*query)


def _check(live, oracle):
    assert_stale_invariant(live.engine)
    oracle.engine.refresh()
    assert_clean_rows_exact(live.engine, oracle.engine)


# -- random schedules against the full-recompute oracle ---------------------------
_vertex = st.integers(0, N - 1)
_event = st.tuples(_vertex, _vertex, st.sampled_from(["add", "add", "remove"]))
_query = st.one_of(st.tuples(_vertex, _vertex), st.tuples(_vertex))
_commit = st.tuples(st.just("commit"),
                    st.lists(_event, min_size=1, max_size=6),
                    # 1-3 flushes per commit, each answering its own batch
                    st.lists(st.lists(_query, min_size=1, max_size=4),
                             min_size=1, max_size=3))
_op = st.one_of(_commit, _commit, st.tuples(st.just("advance")),
                # recover from a capture taken right now (mid-step), or
                # from the newest earlier one plus the WAL tail
                st.tuples(st.just("recover"), st.booleans()))


@pytest.mark.parametrize("name", MODEL_NAMES)
@settings(max_examples=15, deadline=None, derandomize=True)
@given(schedule=st.lists(_op, min_size=1, max_size=8))
def test_random_schedules_serve_the_oracle_bit_for_bit(small, name, schedule):
    """Every served score equals the full recompute's, bit for bit, and
    after every operation the cache keeps its invariant and every row
    it holds clean is exact."""
    snapshot, parts = small
    model, kwargs = _kwargs(parts, name)
    live = ModelServer(model, snapshot, **kwargs)
    oracle = ModelServer(model, snapshot, incremental=False, **kwargs)
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/store"
        live.attach_store(GraphStore.create(path, N))
        for op in schedule:
            if op[0] == "commit":
                batch = [EdgeEvent(u, v, kind) for u, v, kind in op[1]]
                for server in (live, oracle):
                    server.ingest_events(batch)
                _check(live, oracle)
                for queries in op[2]:
                    pairs = [(_submit(live, q), _submit(oracle, q))
                             for q in queries]
                    live.flush()
                    oracle.flush()
                    for got, want in pairs:
                        assert got.done and got.result == want.result
                    _check(live, oracle)
            elif op[0] == "advance":
                for server in (live, oracle):
                    server.advance_time()
                _check(live, oracle)
            else:
                if op[1]:
                    live._capture_store_state()
                live.store = None   # the crashed writer lets go of the WAL
                live = ModelServer.recover(GraphStore.open(path),
                                           model=model, **kwargs)
                _check(live, oracle)
        np.testing.assert_array_equal(live.engine.embeddings,
                                      oracle.engine.embeddings)
        assert live.cache.num_dirty == 0
        live.store = None


def test_repeated_seed_re_expands_after_its_cone_is_cleaned(small):
    """The dedup trap: a seed expanded once is skipped when it repeats,
    which is exact only while its whole region is still stale.  A cone
    that cleans part of the region ends that window: the repeat must
    re-expand, or the rows it changes are served stale."""
    snapshot, parts = small
    model, kwargs = _kwargs(parts, "cdgcn")
    live = ModelServer(model, snapshot, **kwargs)
    oracle = ModelServer(model, snapshot, incremental=False, **kwargs)
    s, t = (int(v) for v in snapshot.edges[0])
    top = live.cache.num_layers
    for value in (2.0, 3.0):     # the same edge twice: Ã[s, t] changes
        for server in (live, oracle):
            server.ingest_events([EdgeEvent(s, t, "add", value)])
        assert live.cache.stale[s] == 0
        got, want = live.submit_fraud(s), oracle.submit_fraud(s)
        live.flush()
        oracle.flush()
        assert got.result == want.result
        assert live.cache.stale[s] == top    # the cone cleaned the seed
    assert live.cache.seeds_deduplicated == 0


# -- the flush rule, by counting engine computes ----------------------------------
def _count_computes(server, monkeypatch) -> list:
    """Record each ``_compute`` call's rows per layer."""
    calls = []
    compute = server.engine._compute
    n = server.num_vertices

    def counting(plan):
        calls.append([n if rows is None else len(rows) for rows in plan])
        compute(plan)

    monkeypatch.setattr(server.engine, "_compute", counting)
    return calls


def _stream_server(stream, **kwargs):
    model = build_model("cdgcn", in_features=2, seed=0)
    fraud = Linear(model.embed_dim, 2, np.random.default_rng(7))
    return ModelServer(model, stream[0], fraud_head=fraud,
                       flush_latency_ms=1e9, **kwargs)


def _batches(stream, t, count=4):
    events = events_between(stream[t - 1], stream[t])
    chunk = -(-len(events) // count)
    return [events[lo:lo + chunk] for lo in range(0, len(events), chunk)]


def test_one_flush_per_commit_computes_only_its_cone(stream, monkeypatch):
    server = _stream_server(stream)
    calls = _count_computes(server, monkeypatch)
    rng = np.random.default_rng(2)
    for batch in _batches(stream, 1):
        server.ingest_events(batch)
        dirty = server.cache.num_dirty
        a, b = (int(v) for v in rng.integers(stream.num_vertices, size=2))
        reads_stale = int(np.count_nonzero(
            server.cache.stale[np.unique([a, b])] < server.cache.num_layers))
        before = len(calls)
        server.submit_link(a, b)
        server.flush()
        assert len(calls) - before == (1 if reads_stale else 0)
        if reads_stale:
            # the last layer runs at the reads, lower layers at their
            # stale in-neighborhood — a small part of what is dirty
            assert calls[-1][-1] == reads_stale
            assert sum(calls[-1]) < dirty
        assert server.cache.num_dirty > 0
    refreshes = server.counters.refreshes
    rows = server.counters.rows_recomputed
    left = server.cache.num_dirty
    server.advance_time()
    # the boundary settles what no flush read, counted like a refresh
    assert server.counters.refreshes == refreshes + 1
    assert server.counters.rows_recomputed == rows + left
    # and the boundary computes every row of every layer
    assert calls[-2][-1] == left
    assert calls[-1] == [server.num_vertices] * server.cache.num_layers


def test_second_flush_before_the_next_commit_consumes_every_dirty_row(
        stream, monkeypatch):
    server = _stream_server(stream)
    calls = _count_computes(server, monkeypatch)
    for batch in _batches(stream, 2):
        server.ingest_events(batch)
        server.submit_fraud(0)
        server.flush()                       # the cone
        assert server.cache.num_dirty > 0
        left = server.cache.num_dirty
        before = len(calls)
        server.submit_fraud(1)
        server.flush()                       # everything still stale
        assert len(calls) - before == 1 and calls[-1][-1] == left
        assert server.cache.num_dirty == 0
        server.submit_fraud(2)
        server.flush()                       # nothing left to compute
        assert len(calls) - before == 1


def test_many_flushes_per_commit_compute_at_most_twice(stream, monkeypatch):
    server = _stream_server(stream, max_batch_size=1)
    calls = _count_computes(server, monkeypatch)
    rng = np.random.default_rng(5)
    for batch in _batches(stream, 3):
        server.ingest_events(batch)
        before = len(calls)
        for v in rng.integers(stream.num_vertices, size=64):
            server.submit_fraud(int(v))      # a flush per query
        assert len(calls) - before <= 2
        assert server.cache.num_dirty == 0


def test_a_cone_refresh_counts_each_row_once(stream):
    """``refresh(reads)`` returns the distinct rows its cone recomputed,
    counted at each row's stale layer; ``np.unique`` over the plan, the
    count it replaced, is the oracle."""
    server = _stream_server(stream)
    rng = np.random.default_rng(4)
    engine = server.engine
    for t in (1, 2):
        server.advance_time()
        for batch in _batches(stream, t):
            server.ingest_events(batch)
            reads = np.array([batch[0].src, batch[0].dst,
                              *rng.integers(stream.num_vertices, size=6)])
            want = len(np.unique(np.concatenate(engine._cone(reads))))
            assert want > 0
            assert engine.refresh(reads) == want
            assert_stale_invariant(engine)


def test_refresh_span_records_the_cone_and_rows_per_layer(stream):
    server = _stream_server(stream, telemetry=Telemetry(tracing=True))
    batch = _batches(stream, 1)[0]
    server.ingest_events(batch)
    for v in (batch[0].src, batch[0].dst):   # stale reads: a real cone
        server.submit_fraud(v)
        server.flush()
    server.ingest_events(_batches(stream, 1)[1])
    server.advance_time()
    spans = [s for root in server.telemetry.tracer.roots
             for _, s in root.walk() if s.name == "serve.refresh"]
    assert [s.attrs["cone"] for s in spans] == [True, False, False]
    for span in spans:
        layer_rows = span.attrs["layer_rows"]
        assert len(layer_rows) == 2 and span.attrs["rows"] > 0
        assert span.attrs["rows"] >= max(layer_rows)
    # a full refresh runs each layer only where it is stale: layer 0
    # sees the 1-hop region, the last layer the whole L-hop one
    assert spans[-1].attrs["layer_rows"][0] < spans[-1].attrs["layer_rows"][1]


# -- stratified refresh vs the eager oracle ---------------------------------------
@pytest.mark.parametrize("name", MODEL_NAMES)
def test_stratified_refresh_matches_the_eager_oracle(stream, name):
    """``refresh()`` recomputes each layer only where it is stale; the
    eager oracle recomputes every dirty row at every layer.  Both leave
    every layer output and carry at the same bits, for fewer rows."""
    model = build_model(name, in_features=2, seed=0)
    lazy = InferenceEngine(model, stream[0])
    eager = InferenceEngine(model, stream[0])
    for engine in (lazy, eager):
        engine.advance()
    ingestor = StreamIngestor(stream[0])
    for t in (1, 2):
        for batch in _batches(stream, t):
            result = ingestor.commit(batch)
            for engine in (lazy, eager):
                engine.set_snapshot(result.snapshot, seeds=result.dirty,
                                    diff=result.diff)
            assert lazy.refresh() == eager_refresh(eager)
            assert_stale_invariant(lazy)
            for got, want in zip(lazy.cache.layer_outputs,
                                 eager.cache.layer_outputs):
                np.testing.assert_array_equal(got, want)
            for got, want in zip(lazy.cache.post_carry,
                                 eager.cache.post_carry):
                np.testing.assert_array_equal(got, want)
        for engine in (lazy, eager):
            engine.advance()
    assert lazy.epilogue_rows < eager.epilogue_rows
