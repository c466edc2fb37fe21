"""Workload specs and seed-driven input builders of the perf benchmark.

Everything the program under test receives — the boot snapshots, the
edge-event batches, the query plan, the training timeline — is built
here from ``(spec, seed)`` and nothing else.  The event schedule and the
query plan are the benchmark's own code (they do not import
``repro.bench``), so a change to the repo's bench helpers cannot move
the load; the graphs come from ``repro.graph.amlsim``, and each
workload's ``input_sha`` makes a change to that generator visible.

``WORKLOADS`` is the one place sizes live (why each workload exists is
in ``BENCHMARK.json``).  ``SMOKE`` shrinks the graph and the stream of
each workload by one table entry, same shape.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from repro.graph.amlsim import AMLSimConfig, generate_amlsim
from repro.serve.ingest import EdgeEvent

__all__ = ["WORKLOADS", "SMOKE", "workload_spec", "ServeInputs",
           "TrainInputs", "build_serve_inputs", "build_train_inputs"]

# the serving graph of the four serve_* workloads: large resident graph,
# flat activity skew (the serving regime: a delta is small next to it)
_SERVE = dict(kind="serve", num_accounts=30000, background_per_step=30000,
              activity_skew=0.4, num_branches=1, branch_locality=0.0,
              hidden=16, embed_dim=16, max_batch_size=64, warm_steps=3)
# regional branches give the exec router locality to exploit while the
# planted typologies keep crossing shard boundaries
_EXEC = dict(kind="exec", num_accounts=12000, background_per_step=8000,
             partner_persistence=0.95, activity_skew=0.0, num_branches=8,
             branch_locality=0.9, hidden=32, embed_dim=32,
             max_batch_size=128, warm_steps=2, stream_steps=4,
             event_batches=8, queries_per_batch=24)

WORKLOADS: dict[str, dict] = {
    "serve_trickle": dict(
        _SERVE, partner_persistence=0.97, stream_steps=3,
        event_batches=12, queries_per_batch=24),
    "serve_churn": dict(
        _SERVE, partner_persistence=0.6, stream_steps=2,
        event_batches=4, queries_per_batch=8),
    "serve_reads": dict(
        _SERVE, partner_persistence=0.97, stream_steps=2,
        event_batches=2, queries_per_batch=16384),
    "serve_durable": dict(
        _SERVE, partner_persistence=0.97, stream_steps=3,
        event_batches=12, queries_per_batch=24, durable=True,
        state_interval=2),
    "exec_p1": dict(
        _EXEC, num_shards=1),
    "exec_p2": dict(
        _EXEC, num_shards=2),
    "train_dist": dict(
        kind="train", num_accounts=30000, num_timesteps=4,
        background_per_step=150000, partner_persistence=0.99,
        activity_skew=0.4, num_branches=1, branch_locality=0.0,
        hidden=16, embed_dim=16, num_ranks=4, num_blocks=2,
        reuse_crossover=0.15, timed_epochs=2),
}

# one entry per workload: a smaller graph and a shorter stream, the same
# shape (batches per step, queries per batch, shard count, store, reuse)
SMOKE: dict[str, dict] = {
    "serve_trickle": dict(num_accounts=1500, background_per_step=1500,
                          stream_steps=2),
    "serve_churn": dict(num_accounts=1500, background_per_step=1500,
                        stream_steps=2),
    "serve_reads": dict(num_accounts=1500, background_per_step=1500,
                        stream_steps=1, queries_per_batch=1024),
    "serve_durable": dict(num_accounts=1500, background_per_step=1500,
                          stream_steps=2),
    "exec_p1": dict(num_accounts=1200, background_per_step=800,
                    stream_steps=2),
    "exec_p2": dict(num_accounts=1200, background_per_step=800,
                    stream_steps=2),
    "train_dist": dict(num_accounts=800, background_per_step=4000),
}


# the client closes a timing segment after this many submits, so that a
# 16k-query batch is many short segments, not one long one
QUERY_CHUNK = 1024


def workload_spec(name: str, smoke: bool = False) -> dict:
    """The resolved spec of one workload (smoke overrides applied)."""
    spec = dict(WORKLOADS[name], name=name)
    if smoke:
        spec.update(SMOKE[name])
    return spec


def _amlsim(spec: dict, num_timesteps: int, seed: int):
    return generate_amlsim(AMLSimConfig(
        num_accounts=spec["num_accounts"],
        num_timesteps=num_timesteps,
        background_per_step=spec["background_per_step"],
        partner_persistence=spec["partner_persistence"],
        activity_skew=spec["activity_skew"],
        num_branches=spec["num_branches"],
        branch_locality=spec["branch_locality"],
        seed=seed)).dtdg


def _hash_arrays(sha, *arrays) -> None:
    for a in arrays:
        a = np.ascontiguousarray(a)
        sha.update(str((a.dtype.str, a.shape)).encode())
        sha.update(a.tobytes())


def _transition(prev, curr):
    """The edge events that turn snapshot ``prev`` into ``curr``, as
    ``(src, dst, is_add, value)`` arrays: removals of vanished edges,
    additions of new ones, then a remove+add pair for every surviving
    edge whose value changed (an exact value replacement)."""
    n = np.int64(prev.num_vertices)
    pk = prev.edges[:, 0] * n + prev.edges[:, 1]
    ck = curr.edges[:, 0] * n + curr.edges[:, 1]
    gone = ~np.isin(pk, ck, assume_unique=True)
    new = ~np.isin(ck, pk, assume_unique=True)
    kept = np.flatnonzero(~new)
    moved = kept[curr.values[kept] != prev.values[np.searchsorted(pk, ck[kept])]]
    # interleave each value change as (remove, add)
    pair_edges = np.repeat(curr.edges[moved], 2, axis=0)
    pair_add = np.tile(np.array([False, True]), len(moved))
    pair_val = np.repeat(curr.values[moved], 2)
    edges = np.concatenate([prev.edges[gone], curr.edges[new], pair_edges])
    is_add = np.concatenate([np.zeros(int(gone.sum()), dtype=bool),
                             np.ones(int(new.sum()), dtype=bool), pair_add])
    values = np.concatenate([np.ones(int(gone.sum())), curr.values[new],
                             pair_val])
    return edges[:, 0], edges[:, 1], is_add, values


@dataclass
class ServeInputs:
    """What a serve_*/exec_* replay is fed."""

    boot_snapshots: list     # resident graph + the warm-up rebases
    schedule: list           # [step][batch] -> list[EdgeEvent]
    plan: list               # [step][batch][chunk] -> [(is_link, a, b)]
    input_sha: str


def build_serve_inputs(spec: dict, seed: int) -> ServeInputs:
    """Generate the graph timeline, split every streamed transition into
    ``event_batches`` micro-batches, and draw ``queries_per_batch``
    queries per batch (link and fraud alternating; half of the link
    queries are live edges, half random pairs)."""
    warm, steps = spec["warm_steps"], spec["stream_steps"]
    dtdg = _amlsim(spec, warm + steps, seed)
    n = dtdg.num_vertices
    rng = np.random.default_rng([seed, 1])
    sha = hashlib.sha256()
    for t in range(warm):
        _hash_arrays(sha, dtdg[t].edges, dtdg[t].values)

    schedule, plan = [], []
    qpb = spec["queries_per_batch"]
    for t in range(warm, warm + steps):
        src, dst, is_add, values = _transition(dtdg[t - 1], dtdg[t])
        _hash_arrays(sha, src, dst, is_add, values)
        chunk = max(1, -(-len(src) // spec["event_batches"]))
        batches = []
        for lo in range(0, max(len(src), 1), chunk):
            hi = lo + chunk
            batches.append([
                EdgeEvent(s, d, "add" if a else "remove", v)
                for s, d, a, v in zip(src[lo:hi].tolist(),
                                      dst[lo:hi].tolist(),
                                      is_add[lo:hi].tolist(),
                                      values[lo:hi].tolist())])
        schedule.append(batches)

        snap = dtdg[t]
        step_plan = []
        for _ in batches:
            is_link = np.arange(qpb) % 2 == 0
            a = rng.integers(n, size=qpb)
            b = rng.integers(n, size=qpb)
            if snap.num_edges:
                live = is_link & (rng.random(qpb) < 0.5)
                picks = snap.edges[rng.integers(snap.num_edges, size=qpb)]
                a = np.where(live, picks[:, 0], a)
                b = np.where(live, picks[:, 1], b)
            _hash_arrays(sha, is_link, a, b)
            queries = list(zip(is_link.tolist(), a.tolist(), b.tolist()))
            step_plan.append([queries[lo:lo + QUERY_CHUNK]
                              for lo in range(0, qpb, QUERY_CHUNK)])
        plan.append(step_plan)

    return ServeInputs(
        boot_snapshots=[dtdg[t] for t in range(warm)],
        schedule=schedule, plan=plan, input_sha=sha.hexdigest())


@dataclass
class TrainInputs:
    """What a train_dist repeat is fed."""

    snapshots: list
    total_nnz: int
    input_sha: str


def build_train_inputs(spec: dict, seed: int) -> TrainInputs:
    dtdg = _amlsim(spec, spec["num_timesteps"], seed)
    sha = hashlib.sha256()
    for snap in dtdg.snapshots:
        _hash_arrays(sha, snap.edges, snap.values)
    return TrainInputs(snapshots=list(dtdg.snapshots),
                       total_nnz=int(dtdg.total_nnz),
                       input_sha=sha.hexdigest())
