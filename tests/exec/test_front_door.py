"""One front door, three tiers: the same stream and the same mixed
link/fraud query sequence through ``ModelServer``, a one-shard
``ExecRouter`` and a two-shard one (both ``backend="simulated"``).

``QueryFrontend`` writes ingest, advance, flush, recover and stats once
for every tier, so the tiers must agree bit for bit on every score and
exactly on the counters the front door keeps; a one-shard router also
recomputes exactly the rows ``ModelServer`` does.  The registry series
each tier exports are pinned against ``front_door_series_parent.json``,
first recorded before the front door was shared (the merge renamed,
dropped and added no series) and re-recorded once when workers stopped
scoring: the worker ``score`` verb's series and
``worker_queries_scored_total`` went, ``refresh`` gained a payload
series (it carries the flush's reads), and the one-shard router gained
the ``query_rows`` comm series (it reads every endpoint row off its
worker), and once more when workers began pulling ghost rows from the
frozen board themselves: the per-verb series of the deleted
``halo_rows`` / ``export_temporal`` verbs went, and so did the payload
series of ``import_temporal``, now a doorbell with no arguments; every
``shard_halo_*`` and ``comm_bytes_total{label="halo"}`` series stayed.

Re-record (deliberate series changes only, and say so in CHANGES.md):
``PYTHONPATH=src python tests/exec/test_front_door.py``.

The front door takes queries one by one (``submit_link`` /
``submit_fraud``) or as array chunks (``submit_links`` /
``submit_fraud_many``) into one queue; a generated query sequence
submitted either way, cut into chunks at random points, must leave
every tier in the same place: scores bit for bit, latencies, counters,
stale layers, the latency reservoir, and the shed and staleness marks of
admission control and degraded serving.
"""

import json
import pathlib
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.exec import ExecRouter
from repro.graph import AMLSimConfig, generate_amlsim
from repro.models import build_model
from repro.nn.linear import EdgeScorer, Linear
from repro.serve import ModelServer, PendingQuery, QueryBatch, \
    events_between

FIXTURE = pathlib.Path(__file__).with_name("front_door_series_parent.json")
TIERS = ("server", "router1", "router2")
SHARED_COUNTERS = ("queries_submitted", "queries_completed",
                   "batches_flushed", "events_ingested", "commits",
                   "advances")
_SAMPLE = re.compile(r"^([a-zA-Z_:][a-zA-Z0-9_:]*(?:\{[^}]*\})?) ")


class FakeClock:
    """Deterministic injectable clock (seconds)."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def tick(self, seconds: float) -> None:
        self.now += seconds


def _stream():
    config = AMLSimConfig(num_accounts=90, num_timesteps=7,
                          background_per_step=150,
                          partner_persistence=0.8, num_fan_out=2,
                          num_fan_in=2, num_cycles=1, pattern_size=4,
                          seed=13)
    return generate_amlsim(config).dtdg


def _tier(kind: str, stream, clock: FakeClock, **options):
    model = build_model("cdgcn", in_features=2, seed=0)
    rng = np.random.default_rng(3)
    kwargs = dict(link_head=EdgeScorer(model.embed_dim, 2, rng),
                  fraud_head=Linear(model.embed_dim, 2, rng),
                  max_batch_size=8, flush_latency_ms=3.0, clock=clock)
    kwargs.update(options)
    if kind == "server":
        return ModelServer(model, stream[0], **kwargs)
    return ExecRouter(model, stream[0], backend="simulated",
                      num_shards=int(kind[-1]), **kwargs)


def replay(kind: str, stream) -> tuple:
    """Drive one tier: a boundary per step, the step's transition in
    two event batches, eleven seeded queries after each (cross-shard
    links included), ``tick`` on a 1 ms clock, and a final drain.
    Returns ``(tier, scores)``."""
    clock = FakeClock()
    tier = _tier(kind, stream, clock)
    rng = np.random.default_rng(17)
    n = stream.num_vertices
    handles = []
    for t in range(1, stream.num_timesteps):
        tier.advance_time()
        events = events_between(stream[t - 1], stream[t])
        half = len(events) // 2
        for chunk in (events[:half], events[half:]):
            tier.ingest_events(chunk)
            for i in range(11):
                a, b = (int(v) for v in rng.integers(n, size=2))
                handles.append(tier.submit_fraud(a) if i % 3 == 0
                               else tier.submit_link(a, b))
                clock.tick(1e-3)
                tier.tick()
    tier.drain()
    assert all(q.done and not q.shed for q in handles)
    return tier, np.array([q.result for q in handles])


def series_names(tier) -> list[str]:
    """Every series ``prometheus()`` exports, name and labels, sorted."""
    names = {m.group(1) for line in tier.prometheus().splitlines()
             if (m := _SAMPLE.match(line))}
    return sorted(names)


@pytest.fixture(scope="module")
def runs():
    stream = _stream()
    out = {kind: replay(kind, stream) for kind in TIERS}
    yield out
    for tier, _ in out.values():
        if isinstance(tier, ExecRouter):
            tier.close()


def test_scores_are_bit_equal_across_tiers(runs):
    _, want = runs["server"]
    assert len(want) == 6 * 2 * 11
    for kind in TIERS[1:]:
        np.testing.assert_array_equal(runs[kind][1], want, err_msg=kind)


def test_front_door_counters_agree(runs):
    def shared(tier):
        return {name: getattr(tier.counters, name)
                for name in SHARED_COUNTERS}

    want = shared(runs["server"][0])
    assert want["queries_completed"] == want["queries_submitted"] == 132
    for kind in TIERS[1:]:
        assert shared(runs[kind][0]) == want, kind
    # one worker pays exactly ModelServer's refresh rule: each flush's
    # read cone after a commit, every stale row on a later flush, and
    # the boundary settle of what no flush read
    def work(tier):
        return tier.counters.rows_recomputed, tier.counters.refreshes

    assert work(runs["server"][0]) == (1012, 24)
    assert work(runs["router1"][0]) == work(runs["server"][0])


def test_exported_series_match_the_parent(runs):
    recorded = json.loads(FIXTURE.read_text())
    for kind in TIERS:
        assert series_names(runs[kind][0]) == recorded[kind], kind


# -- scalar and chunked submits -----------------------------------------------------

_query = st.tuples(st.booleans(), st.integers(0, 89), st.integers(0, 89))
_steps = st.lists(st.tuples(st.lists(_query, max_size=20),
                            st.lists(st.integers(1, 19), max_size=4)),
                  min_size=1, max_size=6)


@pytest.fixture(scope="module")
def stream():
    return _stream()


def _pieces(queries: list, cuts: list) -> list:
    """Cut ``queries`` at ``cuts`` and wherever the kind changes: each
    piece is one chunk."""
    bounds = {c for c in cuts if c < len(queries)}
    bounds |= {i for i in range(1, len(queries))
               if queries[i][0] != queries[i - 1][0]}
    edges = [0, *sorted(bounds), len(queries)]
    return [queries[a:b] for a, b in zip(edges, edges[1:]) if b > a]


def _submit_piece(tier, piece: list, chunked: bool) -> list:
    """Submit one piece as one chunk or as scalars; returns the
    handles."""
    is_link, a, b = zip(*piece)
    if chunked:
        a, b = np.array(a), np.array(b)
        return [tier.submit_links(a, b) if is_link[0]
                else tier.submit_fraud_many(a)]
    return [tier.submit_link(u, v) if is_link[0] else tier.submit_fraud(u)
            for u, v in zip(a, b)]


def _rows(handles: list) -> dict:
    """Every query's resolution as arrays, from handles or chunks (a
    handle's ``result`` / ``staleness`` of ``None`` read as a chunk's
    NaN / -1)."""
    def row(h):
        if not isinstance(h, PendingQuery):
            return h
        return QueryBatch(h.kind, None, h.enqueued_at,
                          np.array([np.nan if h.result is None
                                    else h.result]),
                          np.array([h.done]), np.array([h.latency_ms]),
                          np.array([h.shed]),
                          np.array([-1 if h.staleness is None
                                    else h.staleness]))

    chunks = [row(h) for h in handles]
    return {name: np.concatenate([getattr(c, name) for c in chunks])
            if chunks else np.array([])
            for name in ("done", "scores", "latency_ms", "shed",
                         "staleness")}


def _twin_replay(kind: str, stream, steps: list, *, down_at=None,
                 **options) -> tuple:
    """The same schedule through two tiers on one clock, one submitting
    scalars and the other chunks: per step half the transition's
    events, the step's query pieces with a clock tick and ``tick()``
    after each, the other half, then a boundary.  With ``down_at``
    every replica of shard 0 dies before that step's queries."""
    clock = FakeClock()
    tiers = [_tier(kind, stream, clock, **options) for _ in range(2)]
    handles = ([], [])
    for t, (queries, cuts) in enumerate(steps, 1):
        events = events_between(stream[t - 1], stream[t])
        half = len(events) // 2
        if t == down_at:
            for tier in tiers:
                for transport in tier.channels[0].replicas:
                    transport.debug_exit()
        for tier in tiers:
            tier.ingest_events(events[:half])
        for piece in _pieces(queries, cuts):
            for tier, chunked, out in zip(tiers, (False, True), handles):
                out.extend(_submit_piece(tier, piece, chunked))
            clock.tick(1e-3)
            for tier in tiers:
                tier.tick()
        for tier in tiers:
            tier.ingest_events(events[half:])
            tier.advance_time()
    for tier in tiers:
        tier.drain()
    return tiers, [_rows(h) for h in handles]


def _stale_layers(tier) -> list:
    if isinstance(tier, ModelServer):
        return [tier.cache.stale]
    return [replica.service.engine.cache.stale
            for channel in tier.channels for replica in channel.replicas]


def _assert_twins_agree(tiers: list, rows: list) -> None:
    scalar, chunked = tiers
    for name in rows[0]:
        np.testing.assert_array_equal(rows[1][name], rows[0][name],
                                      err_msg=name)
    assert rows[1]["done"].all()
    assert chunked.counters == scalar.counters
    for got, want in zip(_stale_layers(chunked), _stale_layers(scalar)):
        np.testing.assert_array_equal(got, want)
    for series in ("latency", "_queue_wait"):
        got, want = getattr(chunked, series), getattr(scalar, series)
        assert (got.count, got._samples) == (want.count, want._samples)
        assert got.sum == want.sum
    for tier in tiers:
        if isinstance(tier, ExecRouter):
            tier.close()


@settings(max_examples=25, deadline=None)
@given(steps=_steps, max_batch_size=st.sampled_from([1, 3, 8]))
@pytest.mark.parametrize("kind", TIERS)
def test_chunks_answer_as_scalars(stream, kind, steps, max_batch_size):
    """A flush cuts a chunk where its batch boundary falls, so scalars
    and chunks of one sequence share every flush, refresh cone and
    score."""
    tiers, rows = _twin_replay(kind, stream, steps,
                               max_batch_size=max_batch_size)
    assert not rows[0]["shed"].any()
    _assert_twins_agree(tiers, rows)


@settings(max_examples=25, deadline=None)
@given(steps=_steps, max_inflight=st.integers(1, 6))
@pytest.mark.parametrize("kind", TIERS[1:])
def test_chunks_shed_as_scalars_under_max_inflight(stream, kind, steps,
                                                   max_inflight):
    """Admission control sheds the same queries of a chunk that it
    sheds of the same sequence submitted one by one."""
    tiers, rows = _twin_replay(kind, stream, steps, max_batch_size=8,
                               max_inflight=max_inflight)
    _assert_twins_agree(tiers, rows)


@settings(max_examples=25, deadline=None)
@given(steps=_steps.filter(lambda s: len(s) >= 3))
def test_chunks_degrade_as_scalars_with_a_shard_down(stream, steps):
    """With shard 0 down from step 2, queries touching it answer from
    the boundary cache stamped with their staleness, then shed past
    the bound, row for row as the scalar twin's handles do."""
    tiers, rows = _twin_replay("router2", stream, steps, down_at=2,
                               max_staleness=1)
    _assert_twins_agree(tiers, rows)


if __name__ == "__main__":
    data = _stream()
    recorded = {}
    for kind in TIERS:
        tier, _ = replay(kind, data)
        recorded[kind] = series_names(tier)
        if isinstance(tier, ExecRouter):
            tier.close()
    FIXTURE.write_text(json.dumps(recorded, indent=1) + "\n")
    print(f"recorded {len(TIERS)} tiers to {FIXTURE}")
