"""Router behavior: request surface, replica fan-out, rebalancing."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.exec import ExecRouter
from repro.graph import AMLSimConfig, generate_amlsim
from repro.models import build_model
from repro.nn.linear import Linear
from repro.serve import EdgeEvent, ModelServer, events_between
from repro.serve.sharded import ShardPlan


class FakeClock:
    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t

    def tick(self, dt: float) -> None:
        self.t += dt


@pytest.fixture(scope="module")
def world():
    config = AMLSimConfig(num_accounts=120, num_timesteps=8,
                          background_per_step=200,
                          partner_persistence=0.8, num_fan_out=2,
                          num_fan_in=2, num_cycles=1, num_scatter_gather=1,
                          pattern_size=4, num_branches=4,
                          branch_locality=0.7, seed=5)
    return generate_amlsim(config)


def make_server(world, **kwargs):
    model = build_model("cdgcn", in_features=2, seed=0)
    fraud = Linear(model.embed_dim, 2, np.random.default_rng(9))
    kwargs.setdefault("num_shards", 4)
    return ExecRouter(model, world.dtdg[0], backend="simulated",
                      fraud_head=fraud, **kwargs)


def workers(server, shard):
    """Every replica's in-process WorkerService of ``shard``."""
    return [t.service for t in server.channels[shard].replicas]


class TestRequestSurface:
    def test_mirrors_model_server_api(self, world):
        server = make_server(world, max_batch_size=4)
        q1 = server.submit_link(0, 119)
        q2 = server.submit_fraud(3)
        assert not q1.done and not q2.done
        server.flush()
        assert q1.done and q2.done
        assert 0.0 <= q1.result <= 1.0
        assert 0.0 <= q2.result <= 1.0

    def test_batch_size_triggers_flush(self, world):
        server = make_server(world, max_batch_size=2)
        a = server.submit_link(0, 1)
        b = server.submit_link(2, 110)   # second submit fills the batch
        assert a.done and b.done

    def test_tick_honors_latency_budget(self, world):
        clock = FakeClock()
        server = make_server(world, max_batch_size=64,
                             flush_latency_ms=5.0, clock=clock)
        server.submit_fraud(7)
        assert server.tick() == 0      # budget not yet exceeded
        clock.tick(0.006)
        assert server.tick() == 1

    def test_rejects_bad_vertices_and_configs(self, world):
        server = make_server(world)
        with pytest.raises(ConfigError):
            server.submit_link(-1, 3)
        with pytest.raises(ConfigError):
            server.submit_fraud(10_000)
        with pytest.raises(ConfigError):
            make_server(world, num_shards=None)
        with pytest.raises(ConfigError):
            make_server(world, replicas=0)

    def test_stats_surface(self, world):
        server = make_server(world, max_batch_size=2)
        server.ingest_events([EdgeEvent(0, 100), EdgeEvent(1, 101)])
        server.submit_fraud(0)
        server.submit_fraud(100)
        server.drain()
        stats = server.stats()
        assert stats.counters.queries_completed == 2
        assert stats.counters.events_ingested == 2
        assert stats.counters.cross_shard_events >= 1
        assert stats.num_shards == 4
        assert len(stats.per_shard_queries) == 4
        assert stats.critical_path_s > 0
        assert stats.aggregate_qps > 0


class TestReplicaRouting:
    def test_writes_fan_out_to_all_replicas(self, world):
        server = make_server(world, num_shards=2, replicas=2)
        dtdg = world.dtdg
        server.ingest_events(events_between(dtdg[0], dtdg[1]))
        server.advance_time()
        for s in range(2):
            assert all(w.deltas_applied == 1 for w in workers(server, s))
            steps = {w.engine.steps for w in workers(server, s)}
            assert len(steps) == 1


class TestRebalancing:
    def _drive_skewed(self, server, hot, n_queries=300):
        for i in range(n_queries):
            server.submit_fraud(int(hot[i % len(hot)]))
        server.drain()

    def test_skew_triggers_rebalance_at_boundary(self, world):
        server = make_server(world, rebalance_skew=1.5,
                             rebalance_min_queries=100)
        n = world.dtdg.num_vertices
        hot = server.plan.block(0)[:5]   # hammer shard 0 only
        self._drive_skewed(server, hot)
        assert server.observed_skew() > 1.5
        old_sizes = server.plan.block_sizes().copy()
        server.advance_time()
        assert server.counters.rebalances == 1
        # load counters reset and the hot block shrank
        assert server._vertex_load.sum() == 0
        new_sizes = server.plan.block_sizes()
        assert new_sizes[0] < old_sizes[0]
        assert (new_sizes > 0).all()
        assert np.sort(np.concatenate(
            [server.plan.block(s) for s in range(4)])).tolist() == \
            list(range(n))

    def test_rebalance_preserves_exactness(self, world):
        dtdg = world.dtdg
        model = build_model("cdgcn", in_features=2, seed=0)
        single = ModelServer(model, dtdg[0], incremental=False)
        server = make_server(world, rebalance_skew=1.5,
                             rebalance_min_queries=50)
        hot = server.plan.block(0)[:3]
        for t in range(1, 6):
            single.advance_time()
            server.advance_time()
            events = events_between(dtdg[t - 1], dtdg[t])
            single.ingest_events(events)
            server.ingest_events(events)
            self._drive_skewed(server, hot, n_queries=80)
            single.cache.invalidate_all()
            single.engine.refresh()
            np.testing.assert_allclose(server.gathered_embeddings(),
                                       single.engine.embeddings,
                                       atol=1e-6)
        assert server.counters.rebalances >= 1

    def test_balanced_load_never_rebalances(self, world):
        server = make_server(world, rebalance_skew=1.5,
                             rebalance_min_queries=50)
        n = world.dtdg.num_vertices
        for v in range(n):
            server.submit_fraud(v)
        server.drain()
        server.advance_time()
        assert server.counters.rebalances == 0

    def test_explicit_rebalance_validates_plan(self, world):
        server = make_server(world)
        with pytest.raises(ConfigError):
            server.rebalance(ShardPlan.uniform(world.dtdg.num_vertices, 2))
        with pytest.raises(ConfigError):
            server.rebalance(ShardPlan.uniform(7, 4))


class TestCheckpointBoot:
    def test_from_checkpoint(self, world, tmp_path):
        from repro.train import save_model_checkpoint
        model = build_model("cdgcn", in_features=2, seed=0)
        fraud = Linear(model.embed_dim, 2, np.random.default_rng(9))
        path = str(tmp_path / "ckpt.npz")
        save_model_checkpoint(path, model, "cdgcn", fraud_head=fraud)
        booted = ExecRouter.from_checkpoint(path, world.dtdg[0],
                                            num_shards=3)
        direct = make_server(world, num_shards=3)
        a = booted.submit_fraud(5)
        booted.drain()
        b = direct.submit_fraud(5)
        direct.drain()
        assert a.result == pytest.approx(b.result, abs=1e-9)
