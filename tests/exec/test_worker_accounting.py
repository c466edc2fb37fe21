"""Worker time accounting: the clocks the exec tier reports.

Every worker busy-time number in this repo (``ExecStats`` per-shard
busy seconds, ``perf/``'s ``exec.worker.busy_*``) reduces to one
primitive — :meth:`WorkerService._charge` accumulating busy seconds —
so it gets regression coverage of its exact contract: charges are
monotone and additive under an injected clock.
"""

import numpy as np
import pytest

from repro.exec import WorkerBoot, WorkerService
from repro.graph.snapshot import GraphSnapshot
from repro.models import build_model
from repro.serve import EdgeEvent, StreamIngestor, expand_dirty


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
    owner = np.repeat(np.arange(2, dtype=np.int64), 12)
    boot = WorkerBoot(shard_id=0, model=model, snapshot=snapshot,
                      owner=owner, num_shards=2, replica_id=replica_id)
    return WorkerService(boot, clock=clock)


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
        # strictly positive and busy_s must climb with every charged
        # verb — the delta fold included
        class AutoClock:
            t = 0.0

            def __call__(self) -> float:
                AutoClock.t += 0.001
                return AutoClock.t

        worker = make_worker(snapshot, 0, AutoClock())
        ingestor = StreamIngestor(snapshot)
        commit = ingestor.commit([EdgeEvent(0, 13), EdgeEvent(5, 2)])
        dirty = expand_dirty(commit.snapshot, commit.dirty, 2)
        rows = np.arange(4, dtype=np.int64)
        seen = [worker.busy_s]
        for op in (lambda: worker.rpc_begin_advance(None, None),
                   worker.rpc_finish_advance,
                   lambda: worker.rpc_apply_delta(commit.diff, dirty),
                   worker.rpc_refresh,
                   lambda: worker.rpc_embedding_rows(rows),
                   lambda: worker.rpc_adopt_state(
                       [(worker.engine.block,
                         worker.rpc_export_state()[0])], 1,
                       np.empty(0, dtype=np.int64))):
            op()
            seen.append(worker.busy_s)
            assert seen[-1] > seen[-2]
        assert worker.deltas_applied == 1
        assert worker.resident == commit.snapshot

    def test_zero_elapsed_charges_zero(self, snapshot):
        clock = FakeClock()
        worker = make_worker(snapshot, 0, clock)
        before = worker.busy_s
        worker._charge(clock())   # no tick between t0 and charge
        assert worker.busy_s == before
