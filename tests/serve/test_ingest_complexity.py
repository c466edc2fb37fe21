"""Deterministic complexity guard for the commit path (not a timing
assert, so it cannot flake on a loaded host).

The regression fence for "no sort and no re-diff on the commit path":
``diff_snapshots``, ``canonical_edges``, ``numpy.lexsort`` and
``numpy.union1d`` raise when called, and ``isin`` / ``setdiff1d`` /
``sort`` / ``argsort`` / ``unique`` raise when handed an array as large
as the graph (set algebra over a delta or a vertex set is fine, by sort:
numpy 2.x's ``union1d`` hashes).  Every front door that
advances a resident snapshot by a delta must then pass untouched.
"""

import sys

import numpy as np
import pytest

from repro.exec import ExecRouter
from repro.exec.service import WorkerService
from repro.exec.transport import WorkerBoot
from repro.graph import AMLSimConfig, generate_amlsim
from repro.graph import diff as graph_diff
from repro.graph import snapshot as graph_snapshot
from repro.models import build_model
from repro.nn.linear import Linear
from repro.serve import ModelServer, StreamIngestor, events_between, \
    expand_dirty
from repro.store import GraphStore

GRAPH_SIZED = 300      # every snapshot below holds more edges than this,
                       # and more than it has vertices (120)


@pytest.fixture(scope="module")
def stream():
    dtdg = generate_amlsim(AMLSimConfig(
        num_accounts=120, num_timesteps=4, background_per_step=600,
        partner_persistence=0.9, seed=3)).dtdg
    assert min(s.num_edges for s in dtdg.snapshots) > GRAPH_SIZED
    batches = []
    for prev, curr in zip(dtdg.snapshots, dtdg.snapshots[1:]):
        events = events_between(prev, curr)
        batches += [events[:len(events) // 2], events[len(events) // 2:]]
    assert max(len(b) for b in batches) < GRAPH_SIZED // 2
    return dtdg[0], batches


@pytest.fixture
def arm(monkeypatch):
    """``arm()`` raises the fence; a test calls it once its server is
    booted (a boot builds the operator in full, sort included — it is
    the commits after it that must stay O(delta))."""
    def forbidden(name):
        def raiser(*args, **kwargs):
            raise AssertionError(f"{name} called on the commit path")
        return raiser

    def sized(name):
        original = getattr(np, name)

        def guarded(*args, **kwargs):
            if any(np.size(a) >= GRAPH_SIZED for a in args):
                raise AssertionError(
                    f"numpy.{name} over a graph-sized array on the "
                    f"commit path")
            return original(*args, **kwargs)
        return guarded

    def raise_fence():
        for module, name in ((graph_diff, "diff_snapshots"),
                             (graph_snapshot, "canonical_edges")):
            original = getattr(module, name)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.startswith("repro") and \
                        getattr(mod, name, None) is original:
                    monkeypatch.setattr(mod, name, forbidden(name))
        monkeypatch.setattr(np, "lexsort", forbidden("numpy.lexsort"))
        # hashes its input on numpy 2.x: id sets on this path sort
        monkeypatch.setattr(np, "union1d", forbidden("numpy.union1d"))
        for name in ("isin", "setdiff1d", "sort", "argsort", "unique"):
            monkeypatch.setattr(np, name, sized(name))

    return raise_fence


def _heads(model):
    return Linear(model.embed_dim, 2, np.random.default_rng(9))


def test_the_fence_is_live(stream, arm):
    first, _ = stream
    arm()
    with pytest.raises(AssertionError, match="lexsort"):
        np.lexsort((first.edges[:, 1], first.edges[:, 0]))
    with pytest.raises(AssertionError, match="graph-sized"):
        np.isin(first.keys, first.keys[:3])
    with pytest.raises(AssertionError, match="union1d"):
        np.union1d(first.keys[:3], first.keys[3:6])
    with pytest.raises(AssertionError, match="diff_snapshots"):
        events_between(first, first)


def test_model_server_ingest(stream, arm):
    first, batches = stream
    model = build_model("cdgcn", in_features=2, seed=0)
    server = ModelServer(model, first, fraud_head=_heads(model))
    arm()
    for batch in batches:
        assert server.ingest_events(batch) == len(batch)
        server.submit_fraud(batch[0].src)
        server.drain()
    assert server.engine.maintainer.fallbacks == 0
    assert server.engine.maintainer.incremental_updates == len(batches)


def test_exec_router_ingest(stream, arm):
    first, batches = stream
    model = build_model("cdgcn", in_features=2, seed=0)
    router = ExecRouter(model, first, fraud_head=_heads(model),
                        backend="simulated", num_shards=2)
    arm()
    for batch in batches:
        assert router.ingest_events(batch) == len(batch)
    router.close()


def test_worker_mirror_fold(stream, arm):
    first, batches = stream
    model = build_model("cdgcn", in_features=2, seed=0)
    service = WorkerService(WorkerBoot(
        shard_id=0, model=model, snapshot=first,
        owner=np.zeros(first.num_vertices, dtype=np.int64), num_shards=1))
    service.rpc_begin_advance(None, None)   # prime, as the router does
    service.rpc_finish_advance()
    ingestor = StreamIngestor(first)
    arm()
    for batch in batches:
        result = ingestor.commit(batch)
        service.rpc_apply_delta(
            result.diff, expand_dirty(result.snapshot, result.dirty, 2))
        np.testing.assert_array_equal(service.resident.edges,
                                      result.snapshot.edges)
        np.testing.assert_array_equal(service.resident.values,
                                      result.snapshot.values)


def test_store_append_and_replay(stream, arm, tmp_path):
    first, batches = stream
    store = GraphStore.create(str(tmp_path / "s"), first.num_vertices)
    store.append_snapshot(first)
    sealed = store.wal.num_records - 1
    ingestor = StreamIngestor(first)
    arm()
    for batch in batches:
        store.append_events(batch)
        ingestor.commit(batch)
    assert store.tip == ingestor.resident
    replayed = [payload[0] for kind, payload in
                store.replay_tail(sealed, start=first) if kind == "events"]
    assert [len(b) for b in replayed] == [len(b) for b in batches]
    reopened = GraphStore.open(str(tmp_path / "s"))
    np.testing.assert_array_equal(reopened.tip.edges,
                                  ingestor.resident.edges)
    np.testing.assert_array_equal(reopened.tip.values,
                                  ingestor.resident.values)
