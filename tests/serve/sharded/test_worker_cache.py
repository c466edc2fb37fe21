"""Every shard worker's cache keeps the one stale-layer rule.

A worker marks each commit's rows stale by their hop count from the
router's one expansion, computes its block's read cone (the rows within
``L-1-ℓ`` hops of the block at layer ℓ), and marks clean exactly the
rows it computed; a transplant re-marks the owners' stale rows through
``restore_dirty``.  The generated schedules of
``tests/serve/test_read_cone.py`` drive a simulated ``ExecRouter`` —
plus an explicit rebalance onto a random plan — and after every
operation each worker's cache must keep the invariant and every row it
holds clean must equal the full recompute, bit for bit.  CI reruns this
module on the Haswell kernel family with the rest of ``tests/serve``.
"""

import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.exec import ExecRouter
from repro.models import MODEL_NAMES
from repro.serve import EdgeEvent, ModelServer
from repro.serve.sharded import ShardPlan
from repro.store import GraphStore
from tests.helpers import assert_clean_rows_exact, assert_stale_invariant
from tests.serve.test_read_cone import N, _commit, _submit, small  # noqa: F401

_op = st.one_of(_commit, _commit, st.tuples(st.just("advance")),
                st.tuples(st.just("rebalance"), st.integers(0, 2 ** 16)),
                # recover from a capture taken right now (mid-step), or
                # from the newest earlier one plus the WAL tail
                st.tuples(st.just("recover"), st.booleans()))


def _check(live, oracle):
    oracle.engine.refresh()
    for channel in live.channels:
        for transport in channel.replicas:
            engine = transport.service.engine
            assert_stale_invariant(engine)
            assert_clean_rows_exact(engine, oracle.engine)


@pytest.mark.parametrize("shards", [1, 2, 3])
@pytest.mark.parametrize("name", MODEL_NAMES)
@settings(max_examples=15, deadline=None, derandomize=True)
@given(schedule=st.lists(_op, min_size=1, max_size=8))
def test_worker_caches_keep_the_invariant_and_serve_the_oracle(
        small, name, shards, schedule):
    snapshot, parts = small
    model, link, fraud = parts[name]
    kwargs = dict(link_head=link, fraud_head=fraud, max_batch_size=64,
                  flush_latency_ms=1e9)
    live = ExecRouter(model, snapshot, backend="simulated",
                      num_shards=shards, **kwargs)
    oracle = ModelServer(model, snapshot, incremental=False, **kwargs)
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/store"
        live.attach_store(GraphStore.create(path, N))
        for op in schedule:
            if op[0] == "commit":
                batch = [EdgeEvent(u, v, kind) for u, v, kind in op[1]]
                for server in (live, oracle):
                    server.ingest_events(batch)
                _check(live, oracle)
                for queries in op[2]:
                    pairs = [(_submit(live, q), _submit(oracle, q))
                             for q in queries]
                    live.flush()
                    oracle.flush()
                    for got, want in pairs:
                        assert got.done and got.result == want.result
                    _check(live, oracle)
            elif op[0] == "advance":
                for server in (live, oracle):
                    server.advance_time()
                _check(live, oracle)
            elif op[0] == "rebalance":
                owner = np.random.default_rng(op[1]).permutation(
                    np.arange(N) % shards)
                live.rebalance(ShardPlan(owner=owner, num_shards=shards))
                _check(live, oracle)
            else:
                if op[1]:
                    live._capture_store_state()
                live.store = None   # the crashed writer lets go of the WAL
                live.close()
                live = ExecRouter.recover(GraphStore.open(path),
                                          model=model, backend="simulated",
                                          **kwargs)
                _check(live, oracle)
        np.testing.assert_array_equal(live.gathered_embeddings(),
                                      oracle.engine.embeddings)
        live.store = None
        live.close()
