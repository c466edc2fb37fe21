"""The frozen board: owners publish, ghosts pull, the router relays
nothing.

* generated schedules — commits whose edges pull vertices into halos,
  boundaries with and without a rebase, one owner killed (revived from
  the store mid-step, or left down through boundaries under degraded
  serving) and capture → recover — drive a simulated ``ExecRouter``
  beside ``tests/helpers.py::RelayRouter``, the router-relayed exchange
  the board replaced.  After every operation every live ghost's frozen
  rows of layers ``≤ L-2`` and every live shard's served rows equal the
  relay's, the board pulls exactly the rows the relay shipped (at the
  narrower row width), and while no owner has missed a boundary the
  served rows equal the full recompute;
* the board's layout is the state schema's, and a one-shard tier has
  no board;
* every worker verb is in exactly one delivery class, and of the
  relay's verbs only the boundary pull's doorbell is left;
* a replicated multiprocess tier that loses a primary, revives a worker
  and rebalances leaves no shared-memory segment behind.
"""

import inspect
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.exec import ExecRouter, IDEMPOTENT_VERBS, MUTATING_VERBS
from repro.exec.service import WorkerService
from repro.graph import AMLSimConfig, generate_amlsim
from repro.models import MODEL_NAMES, build_model
from repro.serve import EdgeEvent, InferenceEngine, ModelServer, \
    events_between
from repro.serve.sharded import ShardPlan, frozen_layout
from repro.store import GraphStore
from tests.helpers import RelayRouter

N = 48
STALENESS = 64  # degraded serving on, never shedding


@pytest.fixture(scope="module")
def dtdg():
    return generate_amlsim(AMLSimConfig(
        num_accounts=N, num_timesteps=4, background_per_step=70,
        partner_persistence=0.8, seed=4)).dtdg


def _live_engines(router, shard):
    channel = router.channels[shard]
    return [channel.replicas[i].service.engine for i in channel._live()]


def _assert_matches_relay(live, relay, model):
    """Ghost frozen rows (layers ≤ L-2) and served rows of every live
    shard equal the relay's, bit for bit."""
    names = [name for name, _ in frozen_layout(model)]
    for s in range(live.num_shards):
        assert live.channels[s].alive == relay.channels[s].alive
        for got, want in zip(_live_engines(live, s),
                             _live_engines(relay, s), strict=True):
            ghosts = got.halo
            np.testing.assert_array_equal(ghosts, want.halo)
            mine, theirs = got.state_arrays(), want.state_arrays()
            present = [name for name in names if name in mine]
            assert present == [name for name in names if name in theirs]
            for name in present:
                np.testing.assert_array_equal(
                    mine[name][ghosts], theirs[name][ghosts], err_msg=name)
            got.refresh()
            want.refresh()
            block = got.block
            np.testing.assert_array_equal(got.cache.embeddings[block],
                                          want.cache.embeddings[block])


def _assert_traffic_matches_relay(live, relay, layers):
    got, want = live.traffic, relay.traffic
    for field in ("rows_shipped", "messages", "boundary_syncs",
                  "entrant_syncs"):
        assert getattr(got, field) == getattr(want, field), field
    assert dict(got.rows_per_shard) == dict(want.rows_per_shard)
    # every layer is equally wide here: the board carries L-1 of the
    # relay's L layers per row
    assert got.bytes_shipped * layers == want.bytes_shipped * (layers - 1)


_vertex = st.integers(0, N - 1)
_event = st.tuples(_vertex, _vertex, st.sampled_from(["add", "add", "remove"]))
_commit = st.tuples(st.just("commit"), st.lists(_event, min_size=1,
                                                 max_size=8))
_op = st.one_of(_commit, _commit, _commit,
                # a boundary, onto the graph it reached or a rebase
                st.tuples(st.just("advance"),
                          st.sampled_from([None, 1, 2, 3])),
                st.tuples(st.just("kill"), st.integers(0, 2)),
                # recover from a capture taken now (when every shard is
                # up) or from the newest earlier one plus the WAL tail
                st.tuples(st.just("recover"), st.booleans()))


@pytest.mark.parametrize("name", MODEL_NAMES)
@settings(max_examples=25, deadline=None, derandomize=True)
@given(shards=st.sampled_from([2, 3]), layers=st.sampled_from([2, 3]),
       schedule=st.lists(_op, min_size=1, max_size=9))
def test_schedules_pull_what_the_relay_shipped(dtdg, name, shards, layers,
                                               schedule):
    model = build_model(name, in_features=2, num_layers=layers, seed=0)
    kwargs = dict(num_shards=shards, max_staleness=STALENESS)
    live = ExecRouter(model, dtdg[0], backend="simulated", **kwargs)
    relay = RelayRouter(model, dtdg[0], **kwargs)
    full = ModelServer(model, dtdg[0], incremental=False)
    # an owner down across a boundary freezes its ghosts elsewhere:
    # the tier stops equalling the full recompute until a recover
    frozen = False
    with tempfile.TemporaryDirectory() as tmp:
        paths = (f"{tmp}/live", f"{tmp}/relay")
        for router, path in zip((live, relay), paths):
            router.attach_store(GraphStore.create(path, N))
        for op in schedule:
            down = not all(ch.alive for ch in live.channels)
            if op[0] == "commit":
                batch = [EdgeEvent(u, v, kind) for u, v, kind in op[1]]
                for tier in (live, relay, full):
                    tier.ingest_events(batch)
            elif op[0] == "advance":
                frozen |= down
                snap = None if op[1] is None else dtdg[op[1]]
                for tier in (live, relay, full):
                    tier.advance_time(snap)
            elif op[0] == "kill":
                if down:
                    continue
                for router in (live, relay):
                    router.channels[op[1] % shards].primary.debug_exit()
            else:
                routers = []
                for router, path in zip((live, relay), paths):
                    if op[1] and not down:
                        router._capture_store_state()
                    router.store = None  # the crashed writer lets go
                    router.close()
                    cls = type(router)
                    extra = {"backend": "simulated"} \
                        if cls is ExecRouter else {}
                    routers.append(cls.recover(
                        GraphStore.open(path), model=model,
                        max_staleness=STALENESS, **extra))
                live, relay = routers
                frozen = False
            _assert_matches_relay(live, relay, model)
            if live.counters.worker_restarts == 0:
                _assert_traffic_matches_relay(live, relay, layers)
            if not frozen and all(ch.alive for ch in live.channels):
                served = live.gathered_embeddings()
                assert float(np.abs(served - full.engine.embeddings)
                             .max()) == 0.0
        for router in (live, relay):
            router.store = None
            router.close()


def test_an_edge_across_blocks_pulls_entrants(dtdg):
    """An edge joining the two blocks' far ends pulls new rows into
    both halos mid-step; the entrants' frozen rows come off the board
    and equal what the relay ships."""
    model = build_model("cdgcn", in_features=2, seed=0)
    live = ExecRouter(model, dtdg[0], backend="simulated", num_shards=2)
    relay = RelayRouter(model, dtdg[0], num_shards=2)
    for tier in (live, relay):
        tier.ingest_events(events_between(dtdg[0], dtdg[1]))
        tier.advance_time()
    halos = [set(live.channels[s].primary.service.engine.halo.tolist())
             for s in range(2)]
    blocks = [live.plan.block(s) for s in range(2)]
    u = next(v for v in blocks[0].tolist() if v not in halos[1])
    v = next(v for v in blocks[1].tolist() if v not in halos[0])
    synced = live.traffic.entrant_syncs
    for tier in (live, relay):
        tier.ingest_events([EdgeEvent(u, v)])
    assert live.traffic.entrant_syncs == synced + 1
    for s, w in ((0, v), (1, u)):
        assert w in live.channels[s].primary.service.engine.halo
    _assert_matches_relay(live, relay, model)
    _assert_traffic_matches_relay(live, relay, model.num_layers)
    live.close()
    relay.close()


@pytest.mark.parametrize("layers", [2, 3])
@pytest.mark.parametrize("name", MODEL_NAMES)
def test_board_layout_is_the_state_schema(dtdg, name, layers):
    """``frozen_layout`` names exactly the ``pre_carry/`` and
    ``history/`` arrays of layers ≤ L-2 a primed engine holds (TM-GCN's
    history full), at their widths and in schema order."""
    model = build_model(name, in_features=2, num_layers=layers, seed=0)
    engine = InferenceEngine(model, dtdg[0])
    for snap in dtdg:
        engine.advance(snap)
    want = [(key, array.shape[1])
            for key, array in engine.state_arrays().items()
            if key.startswith(("pre_carry/", "history/"))
            and int(key.split("/")[1]) <= layers - 2]
    assert list(frozen_layout(model)) == want
    assert (name == "egcn") == (want == [])


@pytest.mark.parametrize("backend", ["simulated", "multiprocess"])
def test_one_shard_has_no_board(dtdg, backend):
    model = build_model("cdgcn", in_features=2, seed=0)
    with ExecRouter(model, dtdg[0], backend=backend,
                    num_shards=1) as router:
        assert router.backend._board is None
        router.ingest_events(events_between(dtdg[0], dtdg[1]))
        router.advance_time()
        assert router.traffic.rows_shipped == 0
    with ExecRouter(model, dtdg[0], backend="simulated",
                    num_shards=2) as router:
        boards = {id(ch.primary.service.board) for ch in router.channels}
        assert len(boards) == 1 and router.backend._board is not None


def test_every_verb_is_in_exactly_one_class():
    handlers = {name[len("rpc_"):] for name, _ in
                inspect.getmembers(WorkerService, inspect.isfunction)
                if name.startswith("rpc_")}
    assert not IDEMPOTENT_VERBS & MUTATING_VERBS
    assert IDEMPOTENT_VERBS | MUTATING_VERBS == handlers
    for gone in ("halo_rows", "export_temporal"):
        assert gone not in handlers
    assert "import_temporal" in MUTATING_VERBS


def _segments() -> set:
    return {name for name in os.listdir("/dev/shm")
            if name.startswith("repro_")}


def test_no_segment_outlives_close(world, tmp_path):
    """Replicated multiprocess tier: a primary dies mid-stream, a whole
    shard dies and revives from the store, the tier rebalances once,
    and ``close()`` unlinks every segment the backend created."""
    model = build_model("cdgcn", in_features=2, seed=0)
    before = _segments()
    router = ExecRouter(model, world.dtdg[0], backend="multiprocess",
                        num_shards=2, replicas=2)
    router.attach_store(GraphStore.create(
        str(tmp_path / "store"), num_vertices=world.dtdg[0].num_vertices))
    events = events_between(world.dtdg[0], world.dtdg[1])
    half = len(events) // 2
    router.ingest_events(events[:half])
    router.channels[0].primary.debug_exit()
    router.ingest_events(events[half:])
    assert router.channels[0].alive
    for transport in router.channels[1].replicas:
        transport.debug_exit()
    router.ingest_events(events_between(world.dtdg[1], world.dtdg[2])[:8])
    assert router.counters.worker_restarts == 1
    owner = np.random.default_rng(3).permutation(
        np.arange(world.dtdg[0].num_vertices) % 2)
    router.rebalance(ShardPlan(owner=owner, num_shards=2))
    router.advance_time()
    created = {seg.name for seg in router.backend._segments}
    assert any(name.startswith("repro_board_") for name in created)
    assert created <= _segments() - before
    router.store = None
    router.close()
    assert not created & _segments()
