"""Crash recovery acceptance: recovered state == pre-crash state.

A server with an attached store is driven through a 20-timestep AML-Sim
event stream (micro-batched events, timestep boundaries, queries), then
"crashes" mid-stream: the process state is discarded and a fresh server
is rebuilt purely from (model checkpoint, newest engine capture, WAL
tail replay).  The recovered embeddings must equal the live pre-crash
server's to atol 1e-6 — for every supported model, on both the
single-worker and the sharded tier, including a crash point that lands
*mid-step* with unflushed dirty rows and a capture several boundaries
old.
"""

import os

import numpy as np
import pytest

from repro.exec import ExecRouter
from repro.graph import AMLSimConfig, generate_amlsim
from repro.models import MODEL_NAMES, build_model
from repro.nn.linear import Linear
from repro.serve import ModelServer, events_between
from repro.store import GraphStore
from repro.train.checkpoint import save_model_checkpoint


@pytest.fixture(scope="module")
def stream20():
    config = AMLSimConfig(num_accounts=150, num_timesteps=20,
                          background_per_step=240,
                          partner_persistence=0.85, seed=11)
    return generate_amlsim(config).dtdg


def _drive(server, dtdg, t_range, batches=3):
    """Advance + micro-batched event ingestion over ``t_range``."""
    for t in t_range:
        server.advance_time()
        events = events_between(dtdg[t - 1], dtdg[t])
        chunk = max(1, len(events) // batches)
        for i in range(0, len(events), chunk):
            server.ingest_events(events[i:i + chunk])


def _full_embeddings(server):
    server.cache.invalidate_all()
    server.engine.refresh()
    return server.engine.embeddings


def _model_and_head(name, seed=0):
    model = build_model(name, in_features=2, seed=seed)
    return model, Linear(model.embed_dim, 2, np.random.default_rng(7))


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_model_server_recovers_exactly(stream20, name, tmp_path):
    """Acceptance: post-crash recover() == pre-crash resident state."""
    dtdg = stream20
    model, fraud = _model_and_head(name)
    live = ModelServer(model, dtdg[0], fraud_head=fraud)
    store = GraphStore.create(str(tmp_path / "s"), dtdg.num_vertices,
                              base_interval=4)
    live.attach_store(store, state_interval=3)
    _drive(live, dtdg, range(1, 14))  # crash lands mid-step, unflushed

    model2, fraud2 = _model_and_head(name)
    recovered = ModelServer.recover(GraphStore.open(str(tmp_path / "s")),
                                    model=model2, fraud_head=fraud2)
    assert recovered.ingestor.resident == live.ingestor.resident
    assert recovered.engine.steps == live.engine.steps
    np.testing.assert_allclose(_full_embeddings(recovered),
                               _full_embeddings(live), atol=1e-6)

    # the recovered server keeps serving: continue both through the
    # rest of the stream (the recovered one re-attaches its own store)
    live.store = None  # two writers on one WAL is not a supported mode
    _drive(live, dtdg, range(14, 20))
    _drive(recovered, dtdg, range(14, 20))
    np.testing.assert_allclose(_full_embeddings(recovered),
                               _full_embeddings(live), atol=1e-6)


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_sharded_server_recovers_exactly(stream20, name, tmp_path):
    """Acceptance: the sharded tier (shards, replicas, halos) recovers
    to gathered embeddings equal to the pre-crash run."""
    dtdg = stream20
    model, fraud = _model_and_head(name)
    live = ExecRouter(model, dtdg[0], backend="simulated", num_shards=3,
                      replicas=2, fraud_head=fraud)
    store = GraphStore.create(str(tmp_path / "s"), dtdg.num_vertices,
                              base_interval=4)
    live.attach_store(store, state_interval=2)
    _drive(live, dtdg, range(1, 11), batches=2)

    model2, fraud2 = _model_and_head(name)
    recovered = ExecRouter.recover(
        GraphStore.open(str(tmp_path / "s")), model=model2,
        backend="simulated", fraud_head=fraud2)
    assert recovered.num_shards == 3
    assert recovered.replicas_per_shard == 2
    np.testing.assert_array_equal(recovered.plan.owner, live.plan.owner)
    np.testing.assert_allclose(recovered.gathered_embeddings(),
                               live.gathered_embeddings(), atol=1e-6)


def _drive_with_rebases(server, dtdg, t_range):
    """Boundary-rebase serving (the durable-serving example's drive):
    each timestep lands in the WAL as a GD-delta record, plus one
    intra-step event batch."""
    for t in t_range:
        server.advance_time(dtdg[t])
        server.ingest_events(
            events_between(dtdg[t], dtdg[min(t + 1, len(dtdg) - 1)])[:20])


def test_sharded_recovery_replays_incrementally_on_every_worker(
        stream20, tmp_path):
    """After a tier-level recover over a WAL with rebase-sealed
    boundaries, every worker's own LaplacianMaintainer replayed the
    tail (events AND rebase boundaries) through the O(delta)
    incremental path — no fallbacks, no per-boundary full rebuilds —
    and keeps that profile on the next ingest."""
    dtdg = stream20
    model, fraud = _model_and_head("cdgcn")
    live = ExecRouter(model, dtdg[0], backend="simulated", num_shards=3,
                      replicas=2, fraud_head=fraud)
    store = GraphStore.create(str(tmp_path / "s"), dtdg.num_vertices,
                              base_interval=4)
    live.attach_store(store, state_interval=3)
    _drive_with_rebases(live, dtdg, range(1, 9))

    model2, fraud2 = _model_and_head("cdgcn")
    recovered = ExecRouter.recover(
        GraphStore.open(str(tmp_path / "s")), model=model2,
        backend="simulated", fraud_head=fraud2)
    maintainers = [t.service.engine.maintainer
                   for ch in recovered.channels for t in ch.replicas]
    assert len(maintainers) == 6
    assert len({id(m) for m in maintainers}) == 6
    for m in maintainers:
        # the only full build is the boot-time construction
        assert m.incremental_updates > 0
        assert m.fallbacks == 0
        assert m.full_rebuilds == 1
    np.testing.assert_allclose(recovered.gathered_embeddings(),
                               live.gathered_embeddings(), atol=1e-6)

    before = [m.incremental_updates for m in maintainers]
    recovered.ingest_events(events_between(dtdg[8], dtdg[9]))
    for m, was in zip(maintainers, before):
        assert m.incremental_updates > was
        assert m.fallbacks == 0
        assert m.full_rebuilds == 1


def test_model_server_recovery_replays_rebases_incrementally(stream20,
                                                             tmp_path):
    """Snapshot-sealed boundaries replay with their store-decoded GD
    delta: the recovered engine's maintainer advances incrementally
    instead of rebuilding at every replayed boundary."""
    dtdg = stream20
    model, fraud = _model_and_head("tmgcn")
    live = ModelServer(model, dtdg[0], fraud_head=fraud)
    store = GraphStore.create(str(tmp_path / "s"), dtdg.num_vertices)
    live.attach_store(store, state_interval=4)
    _drive_with_rebases(live, dtdg, range(1, 8))

    model2, fraud2 = _model_and_head("tmgcn")
    recovered = ModelServer.recover(GraphStore.open(str(tmp_path / "s")),
                                    model=model2, fraud_head=fraud2)
    m = recovered.engine.maintainer
    assert m.incremental_updates > 0
    assert m.fallbacks == 0
    assert m.full_rebuilds == 1
    np.testing.assert_allclose(_full_embeddings(recovered),
                               _full_embeddings(live), atol=1e-6)


def test_recovery_from_model_checkpoint_file(stream20, tmp_path):
    """The documented production path: (checkpoint.npz, store) → server."""
    dtdg = stream20
    model, fraud = _model_and_head("cdgcn")
    ckpt_path = save_model_checkpoint(str(tmp_path / "model.npz"), model,
                                      "cdgcn", fraud_head=fraud)
    live = ModelServer(model, dtdg[0], fraud_head=fraud)
    store = GraphStore.create(str(tmp_path / "s"), dtdg.num_vertices)
    live.attach_store(store)
    _drive(live, dtdg, range(1, 6))

    recovered = ModelServer.recover(GraphStore.open(str(tmp_path / "s")),
                                    checkpoint=ckpt_path)
    assert recovered.fraud_head is not None
    np.testing.assert_allclose(_full_embeddings(recovered),
                               _full_embeddings(live), atol=1e-6)
    # the rebuilt fraud head scores like the original
    a = live.submit_fraud(5)
    b = recovered.submit_fraud(5)
    live.drain()
    recovered.drain()
    assert abs(a.result - b.result) < 1e-9


def test_recovery_replays_queries_identically(stream20, tmp_path):
    """Scores served after recovery match the uncrashed server's."""
    dtdg = stream20
    model, fraud = _model_and_head("tmgcn")
    live = ModelServer(model, dtdg[0], fraud_head=fraud)
    store = GraphStore.create(str(tmp_path / "s"), dtdg.num_vertices)
    live.attach_store(store, state_interval=4)
    _drive(live, dtdg, range(1, 9))

    model2, fraud2 = _model_and_head("tmgcn")
    recovered = ModelServer.recover(GraphStore.open(str(tmp_path / "s")),
                                    model=model2, fraud_head=fraud2)
    n = dtdg.num_vertices
    for u, v in [(1, 7), (n - 1, 3), (n // 2, n // 3)]:
        a = live.submit_link(u, v)
        b = recovered.submit_link(u, v)
        live.drain()
        recovered.drain()
        assert abs(a.result - b.result) < 1e-9


def test_wal_logged_before_acknowledgment(stream20, tmp_path):
    """Every acknowledged ingest is on disk before the call returns:
    a crash immediately after ingest_events loses nothing."""
    dtdg = stream20
    model, fraud = _model_and_head("cdgcn")
    live = ModelServer(model, dtdg[0], fraud_head=fraud)
    store = GraphStore.create(str(tmp_path / "s"), dtdg.num_vertices)
    live.attach_store(store)
    events = events_between(dtdg[0], dtdg[1])
    records_before = store.wal.num_records
    live.ingest_events(events)
    assert store.wal.num_records == records_before + 1
    # a store reopened from disk already holds the ingested state
    assert GraphStore.open(str(tmp_path / "s")).tip == \
        live.ingestor.resident


def test_recover_without_capture_is_an_error(stream20, tmp_path):
    from repro.errors import StoreError
    store = GraphStore.from_dtdg(str(tmp_path / "s"),
                                 stream20.slice_time(0, 3))
    model, _ = _model_and_head("cdgcn")
    with pytest.raises(StoreError):
        ModelServer.recover(store, model=model)


def test_attach_rejects_mismatched_store(stream20, tmp_path):
    from repro.errors import ConfigError
    dtdg = stream20
    model, _ = _model_and_head("cdgcn")
    server = ModelServer(model, dtdg[0])
    # store sealed at a different snapshot than the resident
    store = GraphStore.create(str(tmp_path / "s"), dtdg.num_vertices)
    store.append_snapshot(dtdg[5])
    with pytest.raises(ConfigError):
        server.attach_store(store)


def test_attach_rejects_store_whose_values_differ(stream20, tmp_path):
    """A store whose tip has the resident's edges but every value
    5e-6 off (inside ``np.allclose``'s tolerance) is another graph:
    attaching it would let a recovery serve embeddings that diverge
    from the live server's."""
    from repro.errors import ConfigError
    from repro.graph import GraphSnapshot
    resident = stream20[0]
    model, _ = _model_and_head("cdgcn")
    server = ModelServer(model, resident)
    store = GraphStore.create(str(tmp_path / "s"), resident.num_vertices)
    store.append_snapshot(GraphSnapshot(resident.num_vertices,
                                        resident.edges,
                                        resident.values + 5e-6))
    with pytest.raises(ConfigError, match="does not match"):
        server.attach_store(store)
