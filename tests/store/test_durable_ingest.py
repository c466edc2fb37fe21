"""Durable ingestion on both tiers: one fold per batch, WAL before any
state moves, and no redundant capture after recovery.

* A serving tier folds each event batch once (``fold_event_batch``),
  hands the fold to ``GraphStore.append_events`` and then commits the
  same fold — counted here by wrapping the function wherever ``repro``
  imported it, the way ``perf/tracer.py`` wraps it.  Recovery and worker
  revival commit the fold the WAL replay made: one per logged batch.
* If the WAL append raises, nothing has moved: resident, counters,
  engine and store tip are as before, and the same batch then ingests
  cleanly.
* A batch the fold rejects (an endpoint that is not an integer, an edge
  value that is not finite) raises before the WAL append: the resident
  graph, every cache and the log stay as they were.
* ``recover()`` takes no capture of its own on an event-only tail (the
  capture it started from plus the WAL still reproduce the state); the
  sharded tier takes one only when the tail crossed a boundary, because
  single-worker revival replays event-only tails.
* The tail replay checks every seal: a seal whose checksum disagrees
  with the replayed graph stops ``recover()``.
"""

import os
import sys

import numpy as np
import pytest

from repro.errors import DatasetError, StoreError
from repro.exec import ExecRouter
from repro.graph import AMLSimConfig, generate_amlsim
from repro.models import build_model
from repro.nn.linear import Linear
from repro.serve import EdgeEvent, ModelServer, events_between
from repro.serve import ingest
from repro.store import GraphStore, codec
from repro.store.wal import KIND_SEAL, DeltaLog


@pytest.fixture(scope="module")
def stream():
    config = AMLSimConfig(num_accounts=120, num_timesteps=8,
                          background_per_step=200,
                          partner_persistence=0.8, seed=5)
    return generate_amlsim(config).dtdg


def _tier(kind, dtdg, path=None, **kwargs):
    model = build_model("cdgcn", in_features=2, seed=0)
    fraud = Linear(model.embed_dim, 2, np.random.default_rng(9))
    if kind == "server":
        tier = ModelServer(model, dtdg[0], fraud_head=fraud)
    else:
        tier = ExecRouter(model, dtdg[0], backend="simulated",
                          num_shards=2, fraud_head=fraud)
    if path is not None:
        tier.attach_store(GraphStore.create(str(path), dtdg.num_vertices),
                          **kwargs)
    return tier


def _recover(kind, path, store=None):
    model = build_model("cdgcn", in_features=2, seed=0)
    fraud = Linear(model.embed_dim, 2, np.random.default_rng(9))
    cls = ModelServer if kind == "server" else ExecRouter
    extra = {} if kind == "server" else {"backend": "simulated"}
    if store is None:
        store = GraphStore.open(str(path))
    return cls.recover(store, model=model, fraud_head=fraud, **extra)


def _embeddings(tier):
    if isinstance(tier, ExecRouter):
        return tier.gathered_embeddings()
    tier.engine.refresh()
    return tier.engine.embeddings.copy()


def _close(*tiers):
    for tier in tiers:
        if isinstance(tier, ExecRouter):
            tier.close()


def _captures(path):
    return sorted(os.listdir(os.path.join(str(path), "engine")))


@pytest.fixture
def fold_calls(monkeypatch):
    """Count ``fold_event_batch`` calls through every repro module that
    holds a reference to it."""
    calls = []
    original = ingest.fold_event_batch

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("repro") and \
                getattr(module, "fold_event_batch", None) is original:
            monkeypatch.setattr(module, "fold_event_batch", counted)
    return calls


TIERS = ["server", "router"]


@pytest.mark.parametrize("kind", TIERS)
@pytest.mark.parametrize("durable", [True, False])
def test_one_fold_per_ingested_batch(stream, kind, durable, tmp_path,
                                     fold_calls):
    tier = _tier(kind, stream, tmp_path / "s" if durable else None)
    events = events_between(stream[0], stream[1])
    for chunk in (events[:40], events[40:], []):
        before = len(fold_calls)
        tier.ingest_events(chunk)
        assert len(fold_calls) - before == (1 if chunk else 0)
    if durable:
        # the store adopted the tier's fold: same tip, same snapshot
        assert tier.store.tip is tier.ingestor.resident
        assert GraphStore.open(str(tmp_path / "s")).tip == \
            tier.ingestor.resident
    _close(tier)


@pytest.mark.parametrize("kind", TIERS)
def test_failed_wal_append_moves_nothing(stream, kind, tmp_path,
                                         monkeypatch):
    tier = _tier(kind, stream, tmp_path / "s")
    clean = _tier(kind, stream, tmp_path / "ref")
    first = events_between(stream[0], stream[1])
    second = events_between(stream[1], stream[2])
    for t in (tier, clean):
        t.ingest_events(first)
    resident, tip = tier.ingestor.resident, tier.store.tip
    records = tier.store.wal.num_records
    folded = (tier.ingestor.total_events, tier.ingestor.total_commits)
    counters = (tier.counters.events_ingested, tier.counters.commits)

    def refuse(self, kind, payload):
        raise OSError("disk full")

    monkeypatch.setattr(DeltaLog, "append", refuse)
    with pytest.raises(OSError):
        tier.ingest_events(second)
    monkeypatch.undo()

    assert tier.ingestor.resident is resident
    assert tier.store.tip is tip
    assert tier.store.wal.num_records == records
    assert (tier.ingestor.total_events, tier.ingestor.total_commits) == \
        folded
    assert (tier.counters.events_ingested, tier.counters.commits) == \
        counters
    # the same batch then ingests cleanly, exactly once
    for t in (tier, clean):
        t.ingest_events(second)
    assert tier.ingestor.resident == clean.ingestor.resident
    assert GraphStore.open(str(tmp_path / "s")).tip == \
        clean.ingestor.resident
    np.testing.assert_array_equal(_embeddings(tier), _embeddings(clean))
    _close(tier, clean)


def _caches(tier):
    if isinstance(tier, ExecRouter):
        return [ch.replicas[0].service.engine.cache for ch in tier.channels]
    return [tier.cache]


BAD_BATCHES = {
    "float-endpoints": [EdgeEvent(3.7, 5.2)],
    "nan-value": [EdgeEvent(1, 2, "add", float("nan"))],
    "overflow": [EdgeEvent(1, 2, "add", -1e308)] * 2,
}


@pytest.mark.parametrize("bad", list(BAD_BATCHES))
@pytest.mark.parametrize("kind", TIERS)
def test_rejected_batch_moves_nothing(stream, kind, bad, tmp_path):
    """The whole batch is refused — its good events too — before the
    WAL append, and the tier then serves what a twin that never saw it
    serves, after the next boundary as well."""
    tier = _tier(kind, stream, tmp_path / "s")
    clean = _tier(kind, stream, tmp_path / "ref")
    first = events_between(stream[0], stream[1])
    for t in (tier, clean):
        t.ingest_events(first)
    resident, tip = tier.ingestor.resident, tier.store.tip
    records = tier.store.wal.num_records
    folded = (tier.ingestor.total_events, tier.ingestor.total_commits)
    stale = [cache.stale.copy() for cache in _caches(tier)]

    with pytest.raises(DatasetError):
        tier.ingest_events([EdgeEvent(0, 1)] + BAD_BATCHES[bad])

    assert tier.ingestor.resident is resident
    assert tier.store.tip is tip
    assert tier.store.wal.num_records == records
    assert (tier.ingestor.total_events, tier.ingestor.total_commits) == \
        folded
    for before, cache in zip(stale, _caches(tier)):
        np.testing.assert_array_equal(cache.stale, before)
    for t in (tier, clean):
        t.advance_time()
    accounts = range(stream.num_vertices)
    got = [tier.submit_fraud(v) for v in accounts]
    want = [clean.submit_fraud(v) for v in accounts]
    tier.drain()
    clean.drain()
    assert [q.result for q in got] == [q.result for q in want]
    assert np.isfinite([q.result for q in got]).all()
    np.testing.assert_array_equal(_embeddings(tier), _embeddings(clean))
    assert GraphStore.open(str(tmp_path / "s")).tip == \
        clean.ingestor.resident
    _close(tier, clean)


def test_append_rejects_a_fold_over_another_graph(stream, tmp_path):
    from repro.errors import StoreError
    store = GraphStore.create(str(tmp_path / "s"), stream.num_vertices)
    store.append_snapshot(stream[0])
    events = events_between(stream[1], stream[2])
    stale = ingest.fold_event_batch(stream[1], events)
    with pytest.raises(StoreError):
        store.append_events(events, folded=stale)
    assert store.tip == stream[0]


# ---------------------------------------------------------------------------
# recovery takes no redundant capture
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", TIERS)
def test_recover_on_event_only_tail_writes_no_capture(stream, kind,
                                                      tmp_path):
    path = tmp_path / "s"
    live = _tier(kind, stream, path)
    live.advance_time()
    live.ingest_events(events_between(stream[0], stream[1]))
    before = _captures(path)
    rec = _recover(kind, path)
    assert _captures(path) == before
    np.testing.assert_array_equal(_embeddings(rec), _embeddings(live))
    _close(rec, live)


@pytest.mark.parametrize("kind", TIERS)
def test_recovery_folds_each_tail_batch_once(stream, kind, tmp_path,
                                             fold_calls):
    """``recover()`` commits the fold its WAL replay made: a six-batch
    event tail costs six folds beyond ``GraphStore.open``'s own tip
    replay, not a second one per batch in ``ingest_events``."""
    path = tmp_path / "s"
    live = _tier(kind, stream, path)
    for t in range(1, 4):
        events = events_between(stream[t - 1], stream[t])
        live.ingest_events(events[:40])
        live.ingest_events(events[40:])
    store = GraphStore.open(str(path))
    before = len(fold_calls)
    rec = _recover(kind, None, store=store)
    assert len(fold_calls) - before == 6
    assert rec.ingestor.resident == live.ingestor.resident
    np.testing.assert_array_equal(_embeddings(rec), _embeddings(live))
    _close(rec, live)


def test_revival_folds_each_tail_batch_once(stream, tmp_path, fold_calls):
    """A revived worker replays the WAL tail through the replay's own
    folds: one per logged batch."""
    live = _tier("router", stream, tmp_path / "s")
    clean = _tier("router", stream)
    for t in range(1, 4):
        events = events_between(stream[t - 1], stream[t])
        for tier in (live, clean):
            tier.ingest_events(events[:40])
            tier.ingest_events(events[40:])
    live.transports[0].debug_exit()
    q = live.submit_fraud(0)
    want = clean.submit_fraud(0)
    before = len(fold_calls)
    live.drain()
    assert len(fold_calls) - before == 6
    assert live.counters.worker_restarts == 1
    clean.drain()
    assert q.result == want.result
    np.testing.assert_array_equal(_embeddings(live), _embeddings(clean))
    _close(live, clean)


def test_second_crash_right_after_recovery_is_exact(stream, tmp_path):
    path = tmp_path / "s"
    live = _tier("server", stream, path, state_interval=2)
    for t in range(1, 5):
        live.advance_time()
        live.ingest_events(events_between(stream[t - 1], stream[t]))
    first = _recover("server", path)
    second = _recover("server", path)
    assert first.ingestor.resident == second.ingestor.resident == \
        live.ingestor.resident
    assert first.engine.steps == second.engine.steps == live.engine.steps
    np.testing.assert_array_equal(_embeddings(second), _embeddings(first))
    np.testing.assert_array_equal(_embeddings(second), _embeddings(live))


def test_worker_revives_after_boundary_crossing_recovery(stream, tmp_path):
    """The sharded tier still captures when the replayed tail crossed a
    boundary, so a worker killed right after recovery can revive."""
    path = tmp_path / "s"
    live = _tier("router", stream, path, state_interval=5)
    live.ingest_events(events_between(stream[0], stream[1]))
    live.advance_time()
    live.ingest_events(events_between(stream[1], stream[2]))
    before = _captures(path)
    live.close()
    rec = _recover("router", path)
    assert _captures(path) != before
    rec.transports[1].debug_exit()
    rec.ingest_events(events_between(stream[2], stream[3]))
    assert rec.counters.worker_restarts == 1

    clean = _tier("router", stream)
    clean.ingest_events(events_between(stream[0], stream[1]))
    clean.advance_time()
    for t in (2, 3):
        clean.ingest_events(events_between(stream[t - 1], stream[t]))
    np.testing.assert_array_equal(_embeddings(rec), _embeddings(clean))
    _close(rec, clean)


@pytest.mark.parametrize("kind", TIERS)
def test_recover_refuses_a_seal_the_tail_disagrees_with(stream, kind,
                                                        tmp_path):
    """A seal recorded over another graph than the one the tail replays
    to stops recovery, as it stops materialization: the tail used to
    replay past it."""
    live = _tier(kind, stream, tmp_path / "s")
    live.ingest_events(events_between(stream[0], stream[1]))
    store = live.store
    store.wal.append(KIND_SEAL, codec.pack_record(
        {"kind": "seal", "step": store.num_timesteps,
         "result_checksum": codec.edge_checksum(stream[0])}, {}))
    with pytest.raises(StoreError, match="seal"):
        _recover(kind, None, store=store)
    _close(live)
