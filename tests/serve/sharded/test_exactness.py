"""The sharded tier's exactness contract (acceptance criterion).

Sharded incremental inference over N=4 shards must equal a single-worker
full recompute to atol 1e-6 while a 20-timestep AML-Sim event stream
replays — for every supported model — including events whose k-hop
cone crosses shard boundaries (the planted laundering typologies ignore
branch structure, so cross-shard cones occur throughout the stream).
"""

import numpy as np
import pytest

from repro.exec import ExecRouter
from repro.graph import AMLSimConfig, generate_amlsim
from repro.models import MODEL_NAMES, build_model
from repro.nn.linear import Linear
from repro.serve import ModelServer, events_between
from repro.serve.sharded import ShardPlan


@pytest.fixture(scope="module")
def stream20():
    """A 20-timestep AML-Sim dynamic graph with regional branches."""
    config = AMLSimConfig(num_accounts=160, num_timesteps=20,
                          background_per_step=260,
                          partner_persistence=0.85, num_fan_out=3,
                          num_fan_in=3, num_cycles=2, num_scatter_gather=2,
                          pattern_size=5, num_branches=4,
                          branch_locality=0.7, seed=11)
    return generate_amlsim(config).dtdg


def _servers(name, dtdg, num_shards=4, **kwargs):
    model = build_model(name, in_features=2, seed=0)
    fraud = Linear(model.embed_dim, 2, np.random.default_rng(7))
    single = ModelServer(model, dtdg[0], fraud_head=fraud,
                         incremental=False)
    model2 = build_model(name, in_features=2, seed=0)
    fraud2 = Linear(model2.embed_dim, 2, np.random.default_rng(7))
    sharded = ExecRouter(model2, dtdg[0], backend="simulated",
                         num_shards=num_shards, fraud_head=fraud2, **kwargs)
    return single, sharded


def _workers(sharded, shard):
    """Every replica's in-process WorkerService of ``shard``."""
    return [t.service for t in sharded.channels[shard].replicas]


def _reference_embeddings(single):
    single.cache.invalidate_all()
    single.engine.refresh()
    return single.engine.embeddings


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_sharded_equals_full_recompute_over_stream(stream20, name):
    """Acceptance: replay 20 timesteps as micro-batched edge events
    against N=4 shards; after every batch the gathered owned rows must
    equal the single-worker full recompute to atol 1e-6."""
    dtdg = stream20
    single, sharded = _servers(name, dtdg)
    cross_cone_batches = 0
    for t in range(1, dtdg.num_timesteps):
        single.advance_time()
        sharded.advance_time()
        events = events_between(dtdg[t - 1], dtdg[t])
        chunk = max(1, len(events) // 3)
        for i in range(0, len(events), chunk):
            batch = events[i:i + chunk]
            single.ingest_events(batch)
            before = sharded.counters.halo_dirty_rows
            sharded.ingest_events(batch)
            if sharded.counters.halo_dirty_rows > before:
                cross_cone_batches += 1
            got = sharded.gathered_embeddings()
            want = _reference_embeddings(single)
            np.testing.assert_allclose(
                got, want, atol=1e-6,
                err_msg=f"{name} diverged at t={t}, batch {i // chunk}")
    # the stream must actually have exercised cross-shard cones
    assert cross_cone_batches > 10
    assert sharded.traffic.boundary_syncs == dtdg.num_timesteps


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_sharded_queries_match_single_worker(stream20, name):
    """Link and fraud scores agree with the single-worker server,
    including link queries whose endpoints live on different shards."""
    dtdg = stream20
    single, sharded = _servers(name, dtdg)
    n = dtdg.num_vertices
    worst = 0.0
    for t in range(1, 8):
        single.advance_time()
        sharded.advance_time()
        events = events_between(dtdg[t - 1], dtdg[t])
        single.ingest_events(events)
        sharded.ingest_events(events)
        # endpoints chosen from different contiguous blocks → remote row
        # fetches on the sharded tier
        pairs = [(3, n - 5), (n // 2, 7), (n - 1, n // 3), (11, 13)]
        for u, v in pairs:
            a = single.submit_link(u, v)
            b = sharded.submit_link(u, v)
            single.drain()
            sharded.drain()
            worst = max(worst, abs(a.result - b.result))
        a = single.submit_fraud(t)
        b = sharded.submit_fraud(t)
        single.drain()
        sharded.drain()
        worst = max(worst, abs(a.result - b.result))
    assert worst < 1e-6
    assert sharded.counters.remote_row_fetches > 0


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_unflushed_boundaries_stay_exact(stream20, name):
    """Regression: with R=2 replicas only the read primary refreshes
    at flush time; crossing a timestep boundary with dirty rows still
    pending on the idle replica must not poison its promoted carries
    (every replica settles in ``begin_advance``)."""
    dtdg = stream20
    single, sharded = _servers(name, dtdg, num_shards=3, replicas=2)
    for t in range(1, 10):
        single.advance_time()
        sharded.advance_time()
        # ingest the whole transition without a single flush
        events = events_between(dtdg[t - 1], dtdg[t])
        single.ingest_events(events)
        sharded.ingest_events(events)
    single.advance_time()
    sharded.advance_time()
    want = _reference_embeddings(single)
    for s in range(3):
        block = sharded.plan.block(s)
        for w in _workers(sharded, s):
            w.rpc_refresh()
            np.testing.assert_allclose(w.engine.embeddings[block],
                                       want[block], atol=1e-6,
                                       err_msg=f"{name} replica "
                                               f"{w.boot.replica_id} stale")


def test_sharded_exact_under_hypergraph_plan(stream20):
    """Exactness holds for a non-contiguous (§4.1 hypergraph) plan."""
    from repro.partition import hypergraph_vertex_partition
    dtdg = stream20
    vp = hypergraph_vertex_partition(dtdg.slice_time(0, 4), 4, seed=0)
    plan = ShardPlan.from_partition(vp)
    model = build_model("cdgcn", in_features=2, seed=0)
    single = ModelServer(model, dtdg[0], incremental=False)
    model2 = build_model("cdgcn", in_features=2, seed=0)
    sharded = ExecRouter(model2, dtdg[0], backend="simulated", plan=plan)
    for t in range(1, 6):
        single.advance_time()
        sharded.advance_time()
        events = events_between(dtdg[t - 1], dtdg[t])
        single.ingest_events(events)
        sharded.ingest_events(events)
        np.testing.assert_allclose(sharded.gathered_embeddings(),
                                   _reference_embeddings(single),
                                   atol=1e-6)


def test_sharded_exact_with_replicas(stream20):
    """R=2 replicas stay mirrors of each other and of the reference."""
    dtdg = stream20
    single, sharded = _servers("cdgcn", dtdg, num_shards=2, replicas=2)
    for t in range(1, 5):
        single.advance_time()
        sharded.advance_time()
        events = events_between(dtdg[t - 1], dtdg[t])
        single.ingest_events(events)
        sharded.ingest_events(events)
        want = _reference_embeddings(single)
        np.testing.assert_allclose(sharded.gathered_embeddings(), want,
                                   atol=1e-6)
        for s in range(2):
            block = sharded.plan.block(s)
            for w in _workers(sharded, s):
                w.rpc_refresh()
                np.testing.assert_allclose(
                    w.engine.embeddings[block], want[block], atol=1e-6)
