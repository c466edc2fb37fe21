"""One front door, three tiers: the same stream and the same mixed
link/fraud query sequence through ``ModelServer``, a one-shard
``ExecRouter`` and a two-shard one (both ``backend="simulated"``).

``QueryFrontend`` writes ingest, advance, flush, recover and stats once
for every tier, so the tiers must agree bit for bit on every score and
exactly on the counters the front door keeps; a one-shard router also
recomputes exactly the rows ``ModelServer`` does.  The registry series
each tier exports are pinned against ``front_door_series_parent.json``,
first recorded before the front door was shared (the merge renamed,
dropped and added no series) and re-recorded once when workers stopped
scoring: the worker ``score`` verb's series and
``worker_queries_scored_total`` went, ``refresh`` gained a payload
series (it carries the flush's reads), and the one-shard router gained
the ``query_rows`` comm series (it reads every endpoint row off its
worker), and once more when workers began pulling ghost rows from the
frozen board themselves: the per-verb series of the deleted
``halo_rows`` / ``export_temporal`` verbs went, and so did the payload
series of ``import_temporal``, now a doorbell with no arguments; every
``shard_halo_*`` and ``comm_bytes_total{label="halo"}`` series stayed.

Re-record (deliberate series changes only, and say so in CHANGES.md):
``PYTHONPATH=src python tests/exec/test_front_door.py``.
"""

import json
import pathlib
import re

import numpy as np
import pytest

from repro.exec import ExecRouter
from repro.graph import AMLSimConfig, generate_amlsim
from repro.models import build_model
from repro.nn.linear import EdgeScorer, Linear
from repro.serve import ModelServer, events_between

FIXTURE = pathlib.Path(__file__).with_name("front_door_series_parent.json")
TIERS = ("server", "router1", "router2")
SHARED_COUNTERS = ("queries_submitted", "queries_completed",
                   "batches_flushed", "events_ingested", "commits",
                   "advances")
_SAMPLE = re.compile(r"^([a-zA-Z_:][a-zA-Z0-9_:]*(?:\{[^}]*\})?) ")


class FakeClock:
    """Deterministic injectable clock (seconds)."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def tick(self, seconds: float) -> None:
        self.now += seconds


def _stream():
    config = AMLSimConfig(num_accounts=90, num_timesteps=7,
                          background_per_step=150,
                          partner_persistence=0.8, num_fan_out=2,
                          num_fan_in=2, num_cycles=1, pattern_size=4,
                          seed=13)
    return generate_amlsim(config).dtdg


def _tier(kind: str, stream, clock: FakeClock):
    model = build_model("cdgcn", in_features=2, seed=0)
    rng = np.random.default_rng(3)
    kwargs = dict(link_head=EdgeScorer(model.embed_dim, 2, rng),
                  fraud_head=Linear(model.embed_dim, 2, rng),
                  max_batch_size=8, flush_latency_ms=3.0, clock=clock)
    if kind == "server":
        return ModelServer(model, stream[0], **kwargs)
    return ExecRouter(model, stream[0], backend="simulated",
                      num_shards=int(kind[-1]), **kwargs)


def replay(kind: str, stream) -> tuple:
    """Drive one tier: a boundary per step, the step's transition in
    two event batches, eleven seeded queries after each (cross-shard
    links included), ``tick`` on a 1 ms clock, and a final drain.
    Returns ``(tier, scores)``."""
    clock = FakeClock()
    tier = _tier(kind, stream, clock)
    rng = np.random.default_rng(17)
    n = stream.num_vertices
    handles = []
    for t in range(1, stream.num_timesteps):
        tier.advance_time()
        events = events_between(stream[t - 1], stream[t])
        half = len(events) // 2
        for chunk in (events[:half], events[half:]):
            tier.ingest_events(chunk)
            for i in range(11):
                a, b = (int(v) for v in rng.integers(n, size=2))
                handles.append(tier.submit_fraud(a) if i % 3 == 0
                               else tier.submit_link(a, b))
                clock.tick(1e-3)
                tier.tick()
    tier.drain()
    assert all(q.done and not q.shed for q in handles)
    return tier, np.array([q.result for q in handles])


def series_names(tier) -> list[str]:
    """Every series ``prometheus()`` exports, name and labels, sorted."""
    names = {m.group(1) for line in tier.prometheus().splitlines()
             if (m := _SAMPLE.match(line))}
    return sorted(names)


@pytest.fixture(scope="module")
def runs():
    stream = _stream()
    out = {kind: replay(kind, stream) for kind in TIERS}
    yield out
    for tier, _ in out.values():
        if isinstance(tier, ExecRouter):
            tier.close()


def test_scores_are_bit_equal_across_tiers(runs):
    _, want = runs["server"]
    assert len(want) == 6 * 2 * 11
    for kind in TIERS[1:]:
        np.testing.assert_array_equal(runs[kind][1], want, err_msg=kind)


def test_front_door_counters_agree(runs):
    def shared(tier):
        return {name: getattr(tier.counters, name)
                for name in SHARED_COUNTERS}

    want = shared(runs["server"][0])
    assert want["queries_completed"] == want["queries_submitted"] == 132
    for kind in TIERS[1:]:
        assert shared(runs[kind][0]) == want, kind
    # one worker pays exactly ModelServer's refresh rule: each flush's
    # read cone after a commit, every stale row on a later flush, and
    # the boundary settle of what no flush read
    def work(tier):
        return tier.counters.rows_recomputed, tier.counters.refreshes

    assert work(runs["server"][0]) == (1012, 24)
    assert work(runs["router1"][0]) == work(runs["server"][0])


def test_exported_series_match_the_parent(runs):
    recorded = json.loads(FIXTURE.read_text())
    for kind in TIERS:
        assert series_names(runs[kind][0]) == recorded[kind], kind


if __name__ == "__main__":
    data = _stream()
    recorded = {}
    for kind in TIERS:
        tier, _ = replay(kind, data)
        recorded[kind] = series_names(tier)
        if isinstance(tier, ExecRouter):
            tier.close()
    FIXTURE.write_text(json.dumps(recorded, indent=1) + "\n")
    print(f"recorded {len(TIERS)} tiers to {FIXTURE}")
