"""Kernel-layer exactness across the serving tiers (acceptance).

The serving engine, the sharded workers and the full-recompute
baseline all route ``Ã`` through the
:class:`~repro.graph.inc_laplacian.LaplacianMaintainer` and refresh
dirty rows with the row-sliced SpMM kernel.  These tests prove the
rewired hot path is bit-compatible (atol 1e-9; observed exact) with
the pre-PR full-rebuild path — for all three models — and that the
incremental tiers really do take the incremental code path rather than
falling back to rebuilds.
"""

import numpy as np
import pytest

from repro.exec import ExecRouter
from repro.graph import AMLSimConfig, generate_amlsim, normalized_laplacian
from repro.models import MODEL_NAMES, build_model
from repro.nn.linear import Linear
from repro.serve import ModelServer, events_between


@pytest.fixture(scope="module")
def stream10():
    config = AMLSimConfig(num_accounts=140, num_timesteps=10,
                          background_per_step=240,
                          partner_persistence=0.85, num_fan_out=3,
                          num_fan_in=3, num_cycles=2, num_scatter_gather=2,
                          pattern_size=5, seed=23)
    return generate_amlsim(config).dtdg


def _replay(server, dtdg, batches=3):
    for t in range(1, dtdg.num_timesteps):
        server.advance_time()
        events = events_between(dtdg[t - 1], dtdg[t])
        chunk = max(1, len(events) // batches)
        for i in range(0, len(events), chunk):
            server.ingest_events(events[i:i + chunk])
            server.submit_link(i % server.num_vertices,
                               (i + 1) % server.num_vertices)
            server.flush()
    server.drain()


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_incremental_serving_matches_full_rebuild_path(stream10, name):
    """Maintainer + row-sliced refresh == full rebuild + full multiply
    (the pre-PR path, preserved as the ``incremental=False`` baseline)
    to atol 1e-9 over a streamed AML-Sim replay."""
    dtdg = stream10

    def boot(incremental):
        model = build_model(name, in_features=2, seed=0)
        fraud = Linear(model.embed_dim, 2, np.random.default_rng(7))
        return ModelServer(model, dtdg[0], fraud_head=fraud,
                           incremental=incremental)

    inc, full = boot(True), boot(False)
    _replay(inc, dtdg)
    _replay(full, dtdg)
    np.testing.assert_allclose(inc.engine.embeddings,
                               full.engine.embeddings, atol=1e-9)
    # the incremental tier really took the incremental operator path
    assert inc.engine.maintainer.incremental_updates > 0
    assert inc.engine.maintainer.fallbacks == 0
    # while the baseline rebuilt per commit, as the pre-PR path did
    assert full.engine.maintainer.incremental_updates == 0


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_sharded_workers_route_through_maintainer(stream10, name):
    """Every shard worker maintains its operator incrementally and the
    gathered embeddings match the single-worker full recompute to
    atol 1e-9."""
    dtdg = stream10
    model = build_model(name, in_features=2, seed=0)
    fraud = Linear(model.embed_dim, 2, np.random.default_rng(7))
    single = ModelServer(model, dtdg[0], fraud_head=fraud,
                         incremental=False)
    model2 = build_model(name, in_features=2, seed=0)
    fraud2 = Linear(model2.embed_dim, 2, np.random.default_rng(7))
    sharded = ExecRouter(model2, dtdg[0], backend="simulated",
                         num_shards=3, fraud_head=fraud2)
    for t in range(1, dtdg.num_timesteps):
        single.advance_time()
        sharded.advance_time()
        events = events_between(dtdg[t - 1], dtdg[t])
        chunk = max(1, len(events) // 2)
        for i in range(0, len(events), chunk):
            batch = events[i:i + chunk]
            single.ingest_events(batch)
            sharded.ingest_events(batch)
            got = sharded.gathered_embeddings()
            single.cache.invalidate_all()
            single.engine.refresh()
            np.testing.assert_allclose(
                got, single.engine.embeddings, atol=1e-9,
                err_msg=f"{name} sharded diverged at t={t}")
    for s in range(sharded.num_shards):
        maintainer = sharded.transports[s].service.engine.maintainer
        assert maintainer.incremental_updates > 0
        assert maintainer.fallbacks == 0


def test_engine_full_aggregate_uses_maintained_operator(stream10):
    """The engine's full-multiply path reads the maintained Ã — which
    must equal a fresh Eq. 1 rebuild of the resident snapshot."""
    dtdg = stream10
    model = build_model("cdgcn", in_features=2, seed=0)
    server = ModelServer(model, dtdg[0])
    _replay(server, dtdg)
    resident = server.engine.resident
    got = server.engine.maintainer.laplacian.csr
    ref = normalized_laplacian(resident).csr
    np.testing.assert_array_equal(got.toarray(), ref.toarray())


def test_served_degree_features_follow_the_resident_graph(stream10):
    """The model input every tier serves from is the maintainer's
    degree counts: after each commit and each rebase boundary,
    ``engine.cache.features`` equals the in/out degrees recounted from
    the resident edge list — on the incremental server, the
    full-rebuild baseline and every worker of a simulated 2-shard
    tier."""
    dtdg = stream10
    n = dtdg.num_vertices

    def model():
        return build_model("cdgcn", in_features=2, seed=0)

    servers = [ModelServer(model(), dtdg[0], incremental=True),
               ModelServer(model(), dtdg[0], incremental=False),
               ExecRouter(model(), dtdg[0], backend="simulated",
                          num_shards=2)]

    def check(server):
        edges = server.ingestor.resident.edges
        want = np.stack([np.bincount(edges[:, 1], minlength=n),
                         np.bincount(edges[:, 0], minlength=n)],
                        axis=1).astype(np.float64)
        engines = [server.engine] if isinstance(server, ModelServer) \
            else [t.service.engine for t in server.transports]
        for engine in engines:
            assert engine.cache.features.dtype == np.float64
            np.testing.assert_array_equal(engine.cache.features, want)

    for t in range(1, 5):
        events = events_between(dtdg[t - 1], dtdg[t])
        for server in servers:
            server.ingest_events(events[:len(events) // 2])
            check(server)
            server.advance_time(dtdg[t])
            check(server)
    servers[2].close()
