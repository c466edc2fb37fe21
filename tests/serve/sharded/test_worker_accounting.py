"""Worker time accounting: the clocks the scaling benches trust.

Every critical-path wall number in this repo reduces to one primitive
— :meth:`ShardWorker._charge` accumulating busy seconds — so it gets
regression coverage of its exact contract: charges are monotone and
additive under an injected clock.
"""

import numpy as np
import pytest

from repro.graph.snapshot import GraphSnapshot
from repro.models import build_model
from repro.serve.engine import derive_serving_features
from repro.serve.sharded.worker import ShardWorker


class FakeClock:
    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t

    def tick(self, dt: float) -> None:
        self.t += dt


@pytest.fixture(scope="module")
def snapshot():
    rng = np.random.default_rng(3)
    edges = rng.integers(0, 24, size=(80, 2))
    edges = edges[edges[:, 0] != edges[:, 1]]
    return GraphSnapshot(24, edges, np.ones(len(edges)))


def make_worker(snapshot, replica_id, clock):
    model = build_model("cdgcn", in_features=2, seed=0)
    features, dinv = derive_serving_features(snapshot)
    return ShardWorker(0, replica_id, model, snapshot,
                       np.arange(12, dtype=np.int64),
                       link_head=None, fraud_head=None, k_hops=2,
                       features=features, dinv=dinv, maintainer=None,
                       clock=clock)


class TestCharge:
    def test_charge_accumulates_clock_deltas_exactly(self, snapshot):
        clock = FakeClock()
        worker = make_worker(snapshot, 0, clock)
        base = worker.busy_s
        t0 = clock()
        clock.tick(0.25)
        worker._charge(t0)
        assert worker.busy_s == base + 0.25
        t1 = clock()
        clock.tick(0.5)
        worker._charge(t1)
        assert worker.busy_s == base + 0.75

    def test_busy_never_decreases_across_operations(self, snapshot):
        # every clock() read advances time, so any charged span is
        # strictly positive and busy_s must climb monotonically
        class AutoClock:
            t = 0.0

            def __call__(self) -> float:
                AutoClock.t += 0.001
                return AutoClock.t

        worker = make_worker(snapshot, 0, AutoClock())
        features, dinv = derive_serving_features(snapshot)
        seen = [worker.busy_s]
        for op in (lambda: worker.begin_advance(snapshot, features, dinv),
                   worker.finish_advance,
                   worker.refresh,
                   lambda: worker.embedding_rows(
                       np.arange(4, dtype=np.int64))):
            op()
            seen.append(worker.busy_s)
            assert seen[-1] >= seen[-2]
        assert worker.busy_s > 0.0

    def test_zero_elapsed_charges_zero(self, snapshot):
        clock = FakeClock()
        worker = make_worker(snapshot, 0, clock)
        before = worker.busy_s
        worker._charge(clock())   # no tick between t0 and charge
        assert worker.busy_s == before
