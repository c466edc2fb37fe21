"""Sharding divides the work: from 1 to 4 simulated shards the tier's
recompute and coverage grow only by the halo overlap, the offered load
stays balanced, and halo traffic really flows (counters, not clocks).

The stream uses AML-Sim's regional branches aligned with contiguous
shard blocks, the locality a partition-aware router exists to exploit,
while the planted typologies keep crossing shard boundaries.
"""

import numpy as np
import pytest

from repro.exec import ExecRouter
from repro.graph import AMLSimConfig, generate_amlsim
from repro.models import build_model
from repro.nn.linear import Linear
from tests.helpers import replay_stream

SHARD_COUNTS = (1, 2, 4)


@pytest.fixture(scope="module")
def points():
    dtdg = generate_amlsim(AMLSimConfig(
        num_accounts=1600, num_timesteps=5, background_per_step=1600,
        partner_persistence=0.95, activity_skew=0.0, num_branches=8,
        branch_locality=0.9, seed=0)).dtdg
    out = {}
    for n in SHARD_COUNTS:
        model = build_model("cdgcn", in_features=2, seed=0)
        fraud = Linear(model.embed_dim, 2, np.random.default_rng(7))
        router = ExecRouter(model, dtdg[0], backend="simulated",
                            num_shards=n, fraud_head=fraud,
                            max_batch_size=128)
        replay_stream(router, dtdg, start=2, batches_per_step=4,
                      queries_per_batch=96)
        coverage = sum(t.worker_stats().coverage_rows
                       for t in router.transports)
        out[n] = (router.stats(), coverage)
        router.close()
    return out


def test_recompute_and_coverage_grow_only_by_the_halo(points):
    stats1, coverage1 = points[1]
    stats4, coverage4 = points[4]
    assert stats4.counters.rows_recomputed < \
        2 * stats1.counters.rows_recomputed
    assert coverage4 < 2 * coverage1


def test_load_balance_and_cross_shard_traffic(points):
    for n in SHARD_COUNTS:
        queries = np.asarray(points[n][0].per_shard_queries)
        assert queries.max() / queries.mean() < 1.25, n
    stats4 = points[4][0]
    assert stats4.traffic.rows_shipped > 0
    assert stats4.traffic.bytes_shipped > 0
    assert stats4.counters.halo_dirty_rows > 0
    assert stats4.counters.remote_row_fetches > 0
    assert stats4.counters.cross_shard_events > 0
