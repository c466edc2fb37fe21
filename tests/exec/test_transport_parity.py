"""Oracle-vs-real parity: both backends must agree bit for bit.

The simulated backend runs today's deterministic in-process tier; the
multiprocessing backend reconstructs every worker's state from shared
topology + piped GD deltas in separate processes.  The chain that makes
them identical — canonical snapshot reconstruction via ``apply_diff``
(checksum-verified), deterministic feature derivation, fp64 pickling,
exact shared-memory reads — is the subsystem's core claim, so the
divergence asserted here is **0.0**, not a tolerance.
"""

import numpy as np
import pytest

from repro.exec import ExecRouter
from repro.graph import AMLSimConfig, generate_amlsim
from repro.models import build_model
from repro.nn.linear import Linear
from repro.serve import events_between
from tests.helpers import replay_stream

MODELS = ["cdgcn", "egcn", "tmgcn"]


def replay(router, world, *, start=1, stop=None):
    """Drive the full 20-timestep stream; returns (scores, embeddings)."""
    dtdg = world.dtdg
    stop = dtdg.num_timesteps if stop is None else stop
    scores = []
    for t in range(start, stop):
        events = events_between(dtdg[t - 1], dtdg[t])
        half = len(events) // 2
        if half:
            router.ingest_events(events[:half])
        q1 = router.submit_link(0, 119)
        q2 = router.submit_fraud(3 * t % 120)
        router.drain()
        scores += [q1.result, q2.result]
        if events[half:]:
            router.ingest_events(events[half:])
        router.advance_time(dtdg[t])
    return np.array(scores), router.gathered_embeddings()


def make_router(world, model_kind, backend, **kwargs):
    model = build_model(model_kind, in_features=2, seed=0)
    fraud = Linear(model.embed_dim, 2, np.random.default_rng(9))
    kwargs.setdefault("num_shards", 2)
    return ExecRouter(model, world.dtdg[0], backend=backend,
                      fraud_head=fraud, max_batch_size=8, **kwargs)


@pytest.mark.parametrize("model_kind", MODELS)
def test_multiprocess_matches_simulated_bit_for_bit(world, model_kind):
    """All three engine families, full 20-timestep stream, divergence
    exactly zero — scores and final embeddings."""
    sim = make_router(world, model_kind, "simulated")
    s_sim, e_sim = replay(sim, world)
    sim.close()
    mp = make_router(world, model_kind, "multiprocess")
    s_mp, e_mp = replay(mp, world)
    mp.close()
    assert float(np.abs(s_sim - s_mp).max()) == 0.0
    assert float(np.abs(e_sim - e_mp).max()) == 0.0


@pytest.mark.parametrize("num_shards", [1, 4])
def test_shard_count_does_not_change_numerics(world, num_shards):
    """The 2-shard mp tier, a 1-shard mp tier, and a 4-shard mp tier
    all serve identical embeddings (partitioning is routing, not
    approximation)."""
    ref = make_router(world, "cdgcn", "simulated", num_shards=2)
    _, e_ref = replay(ref, world, stop=6)
    ref.close()
    mp = make_router(world, "cdgcn", "multiprocess",
                     num_shards=num_shards)
    _, e_mp = replay(mp, world, stop=6)
    mp.close()
    assert float(np.abs(e_ref - e_mp).max()) == 0.0


def test_skew_triggered_rebalance_is_exact_across_backends(world):
    """A query flood on one shard trips the rebalancer at a boundary;
    the re-partitioned multiprocess tier (respawned workers, state
    transplanted over adopt_state RPCs) lands on the simulated tier's
    plan and embeddings exactly."""

    def run(backend):
        router = make_router(world, "cdgcn", backend, num_shards=3,
                             rebalance_skew=1.5, rebalance_min_queries=50)
        hot = router.plan.block(0)[:3]
        dtdg = world.dtdg
        for t in range(1, 6):
            router.ingest_events(events_between(dtdg[t - 1], dtdg[t]))
            for i in range(60):
                router.submit_fraud(int(hot[i % len(hot)]))
            router.drain()
            router.advance_time()
        out = (router.counters.rebalances, router.plan.owner.copy(),
               router.gathered_embeddings())
        router.close()
        return out

    n_sim, owner_sim, e_sim = run("simulated")
    n_mp, owner_mp, e_mp = run("multiprocess")
    assert n_sim == n_mp >= 1
    np.testing.assert_array_equal(owner_sim, owner_mp)
    assert float(np.abs(e_sim - e_mp).max()) == 0.0


def test_rpc_traffic_stays_delta_sized(world):
    """The pipe never carries the resident graph: request bytes over a
    full replay stay far below shipping the topology every commit."""
    mp = make_router(world, "cdgcn", "multiprocess")
    replay(mp, world, stop=8)
    sent = sum(t.stats.bytes_sent for t in mp.transports)
    shm = mp.backend.shm_bytes_mapped
    commits = mp.counters.commits
    mp.close()
    assert commits > 0
    assert sent < shm * commits


@pytest.fixture(scope="module")
def four_workers():
    """Four real worker processes over a branch-local stream large
    enough that the resident blocks outweigh the per-query traffic."""
    dtdg = generate_amlsim(AMLSimConfig(
        num_accounts=2000, num_timesteps=6, background_per_step=1500,
        partner_persistence=0.95, activity_skew=0.0, num_branches=8,
        branch_locality=0.9, seed=0)).dtdg
    model = build_model("cdgcn", in_features=2, seed=0)
    fraud = Linear(model.embed_dim, 2, np.random.default_rng(7))
    router = ExecRouter(model, dtdg[0], backend="multiprocess",
                        num_shards=4, fraud_head=fraud, max_batch_size=128)
    replay_stream(router, dtdg, start=2, queries_per_batch=24)
    stats = router.stats()
    router.close()
    return stats


def test_wire_stays_delta_sized(four_workers):
    """Shared memory carries the O(graph) blocks; the pipe carries
    O(delta + queries).  If a snapshot ever leaks onto the pipe, sent
    bytes jump by orders of magnitude."""
    assert four_workers.shm_bytes_mapped > 0
    assert four_workers.rpc_bytes_sent < 8 * four_workers.shm_bytes_mapped


def test_halo_traffic_flows(four_workers):
    assert four_workers.traffic.rows_shipped > 0
    assert four_workers.traffic.bytes_shipped > 0
    assert four_workers.counters.cross_shard_events > 0
