"""Shared test utilities: numerical gradient checking and tolerances."""

from __future__ import annotations

import os
from typing import Callable, NamedTuple, Sequence

import numpy as np
import pytest

from repro.tensor import Tensor
from repro.tensor.backend import available_backends


def all_backends_fixture():
    """A module-scoped autouse fixture that reruns the module once per
    available kernel backend, selected via ``REPRO_KERNEL_BACKEND`` so
    every matrix the module builds picks it up without signature
    changes.  Module scope keeps hypothesis's function-scoped-fixture
    health check quiet.  Use as::

        kernel_backend = all_backends_fixture()
    """

    @pytest.fixture(scope="module", autouse=True,
                    params=available_backends())
    def kernel_backend(request):
        old = os.environ.get("REPRO_KERNEL_BACKEND")
        os.environ["REPRO_KERNEL_BACKEND"] = request.param
        yield request.param
        if old is None:
            os.environ.pop("REPRO_KERNEL_BACKEND", None)
        else:
            os.environ["REPRO_KERNEL_BACKEND"] = old

    return kernel_backend


def numeric_grad(fn: Callable[[], Tensor], tensor: Tensor,
                 eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of scalar ``fn()`` w.r.t. ``tensor``."""
    grad = np.zeros_like(tensor.data)
    flat = tensor.data.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        up = fn().item()
        flat[i] = orig - eps
        down = fn().item()
        flat[i] = orig
        gflat[i] = (up - down) / (2 * eps)
    return grad


def check_gradients(fn: Callable[[], Tensor], tensors: Sequence[Tensor],
                    rtol: float = 1e-5, atol: float = 1e-7) -> None:
    """Assert autograd gradients of scalar ``fn()`` match finite differences.

    ``fn`` must rebuild the graph from the given leaf tensors on each call.
    """
    for t in tensors:
        t.zero_grad()
    out = fn()
    out.backward()
    for idx, t in enumerate(tensors):
        assert t.grad is not None, f"tensor {idx} received no gradient"
        num = numeric_grad(fn, t)
        np.testing.assert_allclose(
            t.grad, num, rtol=rtol, atol=atol,
            err_msg=f"gradient mismatch for tensor {idx}")


# ---------------------------------------------------------------------------
# ingest oracles: the pre-merge fold / diff-on-commit / apply bodies
# ---------------------------------------------------------------------------
# Until the sorted-key merge (repro.graph.diff.merge_delta) these were the
# live path: re-sort the whole edge list on every commit, re-derive the
# diff from the two snapshots, rebuild every mirror with set algebra over
# all E edges.  They stay here as the oracles the merge must match bit
# for bit.

def oracle_fold_event_batch(snapshot, events):
    """The old ``fold_event_batch`` body plus the ``diff_snapshots(prev,
    curr)`` call ``StreamIngestor.commit`` used to make: returns
    ``(curr, touched, diff)`` like the live fold."""
    from repro.errors import DatasetError
    from repro.graph.diff import diff_snapshots
    from repro.graph.snapshot import GraphSnapshot

    n = snapshot.num_vertices
    add_value: dict[tuple[int, int], float] = {}
    removed: set[tuple[int, int]] = set()
    touched: set[int] = set()
    for event in events:
        key = (int(event.src), int(event.dst))
        if not (0 <= key[0] < n and 0 <= key[1] < n):
            raise DatasetError(
                f"event endpoint {key} outside the vertex set of size {n}")
        touched.update(key)
        if event.op == "add":
            add_value[key] = add_value.get(key, 0.0) + event.value
        else:
            add_value.pop(key, None)
            removed.add(key)

    keep = np.ones(snapshot.num_edges, dtype=bool)
    if removed:
        removed_arr = np.array(sorted(removed), dtype=np.int64)
        prev_keys = snapshot.edges[:, 0] * np.int64(n) \
            + snapshot.edges[:, 1]
        removed_keys = removed_arr[:, 0] * np.int64(n) + removed_arr[:, 1]
        keep = ~np.isin(prev_keys, removed_keys, assume_unique=False)
    if add_value:
        added_arr = np.array(sorted(add_value), dtype=np.int64)
        added_vals = np.array([add_value[tuple(e)] for e in
                               added_arr.tolist()], dtype=np.float64)
        edges = np.concatenate([snapshot.edges[keep], added_arr], axis=0)
        values = np.concatenate([snapshot.values[keep], added_vals])
    else:
        edges = snapshot.edges[keep]
        values = snapshot.values[keep]
    curr = GraphSnapshot(n, edges, values)
    return (curr, np.array(sorted(touched), dtype=np.int64),
            diff_snapshots(snapshot, curr))


def oracle_apply_diff(prev, diff):
    """The old ``apply_diff`` body: ``setdiff1d`` over all E keys, then a
    full re-canonicalization of the reconstructed edge list."""
    from repro.errors import DatasetError
    from repro.graph.diff import _checksum, _keys, _unkeys
    from repro.graph.snapshot import GraphSnapshot, canonical_edges

    n = prev.num_vertices
    if diff.base_checksum != -1 and \
            diff.base_checksum != _checksum(prev.edges, n):
        raise DatasetError(
            "diff does not apply: resident snapshot is not the base the "
            "diff was encoded against")
    prev_keys = _keys(prev.edges, n)
    removed_keys = _keys(
        np.asarray(diff.removed, dtype=np.int64).reshape(-1, 2), n)
    common_keys = np.setdiff1d(prev_keys, removed_keys, assume_unique=True)
    added = np.asarray(diff.added, dtype=np.int64).reshape(-1, 2)
    edges = np.concatenate([_unkeys(common_keys, n), added], axis=0)
    edges = canonical_edges(edges)
    if len(edges) != len(diff.values):
        raise DatasetError(
            f"diff reconstruction produced {len(edges)} edges for "
            f"{len(diff.values)} values — prev snapshot mismatch?")
    return GraphSnapshot(n, edges, diff.values)


# ---------------------------------------------------------------------------
# dense-epilogue oracle: the masked two-branch logistic
# ---------------------------------------------------------------------------
# Until the fixed-shape tiled epilogue this was repro.serve.engine._sigmoid:
# split by sign with boolean masks, one ``exp`` per branch.  The engine's
# branch-free single-``exp`` form must match it bit for bit.

def oracle_sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


# ---------------------------------------------------------------------------
# training dense-path oracles: the composed-op cell and GCN projection
# ---------------------------------------------------------------------------
# Until the fused tape nodes (repro.tensor.functional.lstm_cell /
# gcn_project) these were the bodies of LSTMCell.forward and
# GCNLayer.forward_precomputed: 17 and 3 tape nodes of elementary ops.
# The fused primitives must match them: to the bit while the rows fit
# one panel, to summation order above it (tests/nn/test_fused_ops.py).

def oracle_lstm_cell(x, h_prev, c_prev, w_ih, w_hh, bias):
    from repro.tensor import functional as F

    gates = x @ w_ih + h_prev @ w_hh + bias
    hs = c_prev.shape[1]
    i = F.sigmoid(gates[:, 0 * hs:1 * hs])
    f = F.sigmoid(gates[:, 1 * hs:2 * hs])
    g = F.tanh(gates[:, 2 * hs:3 * hs])
    o = F.sigmoid(gates[:, 3 * hs:4 * hs])
    c = f * c_prev + i * g
    h = o * F.tanh(c)
    return h, c


def oracle_gcn_project(aggregated, weight, skip_concat=False, relu=True):
    from repro.tensor import functional as F, ops

    out = aggregated @ weight
    if skip_concat:
        out = ops.concat([aggregated, out], axis=1)
    return F.relu(out) if relu else out


# ---------------------------------------------------------------------------
# read-path oracle: the per-query flush
# ---------------------------------------------------------------------------
# Until the array-shaped flush this was the body of ModelServer.flush: a
# touched-vertex set, two enumerate passes, np.array over a list of
# tuples, one _resolve and one scalar latency.record per query.  The live
# flush must leave every handle, counter, stale layer and the latency
# reservoir exactly where this leaves them.

def flush_oracle(server) -> int:
    if not server._queue:
        return 0
    batch, server._queue = server._queue[:server.max_batch_size], \
        server._queue[server.max_batch_size:]
    touched = {v for q in batch for v in
               (q.payload if q.kind == "link" else q.payload[:1])}
    reads = np.fromiter(touched, dtype=np.int64, count=len(touched))
    # the first flush after a commit refreshes its batch's cone only
    server._refresh(reads if server._fresh_commit else None)
    server._fresh_commit = False
    z = server.cache.embeddings
    links = [(i, q) for i, q in enumerate(batch) if q.kind == "link"]
    frauds = [(i, q) for i, q in enumerate(batch) if q.kind == "fraud"]
    now = server.clock()
    if links:
        pairs = np.array([q.payload for _, q in links], dtype=np.int64)
        scores = server._score_links(z, pairs)
        for (_, q), s in zip(links, scores):
            q._resolve(s, now)
    if frauds:
        accounts = np.array([q.payload[0] for _, q in frauds],
                            dtype=np.int64)
        scores = server._score_fraud(z, accounts)
        for (_, q), s in zip(frauds, scores):
            q._resolve(s, now)
    for q in batch:
        server.latency.record(q.latency_ms)
    server.counters.queries_completed += len(batch)
    server.counters.batches_flushed += 1
    if server._queue:  # drained in max_batch_size chunks
        return len(batch) + flush_oracle(server)
    return len(batch)


# ---------------------------------------------------------------------------
# refresh oracle: the eager, unstratified refresh
# ---------------------------------------------------------------------------
# Until the stale-layer cache and the read-cone refresh this was
# InferenceEngine.refresh: every row stale at any layer recomputed at every
# layer, on every flush.  The lazy refresh must leave every layer output
# exactly where this leaves it.

def eager_refresh(engine) -> int:
    rows = engine.cache.dirty
    if len(rows) == 0:
        return 0
    full = len(rows) == engine.num_vertices
    engine._compute([None if full else rows] * len(engine.layers))
    engine.cache.clean_layers([rows] * len(engine.layers))
    return len(rows)


def assert_stale_invariant(engine) -> None:
    """The embedding cache's stale-layer bookkeeping: levels in
    ``[0, num_layers]``, ``num_dirty`` counting the rows stale anywhere,
    and the invariant the read cone relies on — a row clean at layer ℓ
    has every column of its ``Ã`` row clean at ℓ − 1, i.e.
    ``stale[u] >= stale[v] - 1`` for every ``Ã[v, u] != 0``."""
    cache = engine.cache
    stale = cache.stale.astype(np.int64)
    top = cache.num_layers
    assert stale.min() >= 0 and stale.max() <= top
    assert cache.num_dirty == int(np.count_nonzero(stale < top))
    csr = engine.maintainer.laplacian.csr
    rows = np.repeat(np.arange(csr.shape[0]), np.diff(csr.indptr))
    bad = stale[csr.indices] < stale[rows] - 1
    assert not bad.any(), (
        f"row {rows[bad][0]} (stale from {stale[rows[bad][0]]}) reads "
        f"column {csr.indices[bad][0]} (stale from "
        f"{stale[csr.indices[bad][0]]})")


def assert_clean_rows_exact(engine, reference) -> None:
    """Every row ``engine`` holds clean at a layer equals ``reference``'s
    (a fully refreshed engine over the same graph and step) there, bit
    for bit: clean means exact, not merely bookkept."""
    stale = engine.cache.stale
    for layer, (got, want) in enumerate(zip(engine.cache.layer_outputs,
                                           reference.cache.layer_outputs)):
        clean = stale > layer
        np.testing.assert_array_equal(got[clean], want[clean])


# ---------------------------------------------------------------------------
# stream replay: micro-batched events with seeded queries between them
# ---------------------------------------------------------------------------

def replay_stream(server, dtdg, start=1, *, batches_per_step=2,
                  queries_per_batch=8, seed=0, tolerate=False) -> int:
    """Drive a ``ModelServer`` or ``ExecRouter`` through ``dtdg``.

    Timesteps before ``start`` are boundaries only.  Every later
    timestep opens with a boundary, replays its transition as
    ``batches_per_step`` micro-batches of edge events, and flushes
    half-link / half-fraud queries with seeded endpoints after each
    batch.  With ``tolerate`` a call that raises ``ExecError`` (a dead
    or timed-out worker) is counted and the stream goes on, as a
    supervisor loop would; returns that count.
    """
    from repro.errors import ExecError
    from repro.serve import events_between

    rng = np.random.default_rng(seed + 1)
    n = dtdg.num_vertices
    failed = 0

    def attempt(op, *args):
        nonlocal failed
        try:
            op(*args)
        except ExecError:
            if not tolerate:
                raise
            failed += 1

    for t in range(1, start):
        server.advance_time(dtdg[t])
    for t in range(start, dtdg.num_timesteps):
        attempt(server.advance_time)
        events = events_between(dtdg[t - 1], dtdg[t])
        chunk = max(1, -(-len(events) // batches_per_step))
        for lo in range(0, max(len(events), 1), chunk):
            if events[lo:lo + chunk]:
                attempt(server.ingest_events, events[lo:lo + chunk])
            for q in range(queries_per_batch):
                if q % 2:
                    attempt(server.submit_fraud, int(rng.integers(n)))
                else:
                    attempt(server.submit_link, int(rng.integers(n)),
                            int(rng.integers(n)))
            attempt(server.flush)
    attempt(server.drain)
    return failed


# ---------------------------------------------------------------------------
# store oracle: the npz engine-capture writer
# ---------------------------------------------------------------------------
# Until the CRC-framed ``.cap`` file this was GraphStore.save_engine_state:
# every array copied by the capture, packed by np.savez through zipfile
# into a BytesIO, and written as ``engine/state_<r>.npz``.  Stores written
# that way must still recover, bit for bit.

def legacy_save_engine_state(store, meta, arrays, *, keep=2) -> str:
    from repro.store import codec

    record_index = store.wal.num_records - 1
    meta = dict(meta)
    meta["record_index"] = record_index
    os.makedirs(store._engine_dir(), exist_ok=True)
    path = os.path.join(store._engine_dir(),
                        f"state_{record_index:08d}.npz")
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(codec.pack_record(meta, arrays))
    os.replace(tmp, path)
    for _, old in store._engine_states()[:-keep]:
        if old != path:
            os.remove(old)
    return path


# ---------------------------------------------------------------------------
# training oracle: the sequential single-device loop
# ---------------------------------------------------------------------------
# Until the one-rank DistributedTrainer replaced it, a separate
# single-device trainer ran this loop (plus a resource ledger of its own):
# the whole timeline on one tape at ``num_blocks == 1``, otherwise the
# executed §3.1 schedule of CheckpointRunner.  Every cost plan must
# reproduce its losses and gradients.

class SequentialFit(NamedTuple):
    losses: list[float]
    tape_nodes: list[int]
    reuse_stats: list      # one ReuseStats per epoch; empty without reuse


def sequential_fit(model, dtdg, task, *, num_blocks, epochs, learning_rate,
                   reuse_aggregation=False) -> SequentialFit:
    from repro.tensor import Adam
    from repro.train.checkpoint import CheckpointRunner
    from repro.train.preprocess import (compute_laplacians_with_diffs,
                                        degree_features)
    from repro.train.reuse import AggregationCache

    if dtdg.features is None:
        dtdg.set_features(degree_features(dtdg))
    laplacians, diffs = compute_laplacians_with_diffs(dtdg)
    frames = [Tensor(f) for f in dtdg.features]
    train_t = task.num_train_timesteps
    laps, frames = laplacians[:train_t], frames[:train_t]
    optimizer = Adam(model.parameters() + task.head.parameters(),
                     lr=learning_rate)
    runner = CheckpointRunner(model, num_blocks)
    reuse = None
    if reuse_aggregation:
        reuse = AggregationCache(laplacians, diffs, dtdg.snapshots,
                                 model.reuse_profile())
    fit = SequentialFit([], [], [])
    for _ in range(epochs):
        optimizer.zero_grad()
        if reuse is not None:
            reuse.begin_epoch()
        model.set_aggregation_hook(
            reuse.aggregate if reuse is not None else None)
        try:
            if num_blocks == 1:
                loss = task.loss_full(model(laps, frames))
                fit.tape_nodes.append(loss.backward())
                fit.losses.append(loss.item())
            else:
                result = runner.run_epoch(laps, frames, task.loss_block)
                fit.tape_nodes.append(result.tape_nodes)
                fit.losses.append(result.loss)
        finally:
            model.set_aggregation_hook(None)
            if reuse is not None:
                reuse.release()
                fit.reuse_stats.append(reuse.stats)
        optimizer.step()
    return fit
