"""The bytes a store writes, against a recorded fixture.

``wal_bytes_parent.json`` was recorded at the commit *before* the
``SnapshotDiff`` became the changed-only form the ``DIFF`` record
stores (until then the record re-derived that form with an O(E)
compare).  It pins the sha256 of ``wal.log`` and of every compacted base
file for one fixed, seeded stream: weighted ``append_snapshot`` rebases
that add, remove and re-weight edges, live event batches, timestep
seals and a feature frame.  Store writes are deterministic, so a change
that means to keep the on-disk format keeps these hashes.

Re-record (deliberate format changes only, and say so in CHANGES.md):
``PYTHONPATH=src python tests/store/test_wal_bytes.py``.
"""

import hashlib
import json
import os
import pathlib
import shutil
import tempfile

import numpy as np

from repro.graph import GraphSnapshot
from repro.serve.ingest import EdgeEvent
from repro.store import GraphStore, list_bases
from repro.store.codec import unpack_record
from repro.store.compact import base_dir
from repro.store.wal import KIND_DIFF

FIXTURE = pathlib.Path(__file__).with_name("wal_bytes_parent.json")
N = 48


def _rebase(rng, snap):
    """Drop a fifth of the edges, re-weight a quarter of the rest and
    add a dozen new ones (duplicates merge in the constructor)."""
    keep = rng.random(snap.num_edges) >= 0.2
    edges = snap.edges[keep]
    values = snap.values[keep].copy()
    moved = rng.random(len(values)) < 0.25
    values[moved] = np.round(rng.uniform(0.5, 9.5, int(moved.sum())), 3)
    new = rng.integers(0, N, size=(12, 2))
    return GraphSnapshot(N, np.concatenate([edges, new]),
                         np.concatenate([values, rng.uniform(1, 5, 12)]))


def _events(rng, snap):
    """Adds (some onto resident edges), removes, and remove+add
    replacements of resident edges."""
    out = [EdgeEvent(int(u), int(v), "add", float(w))
           for (u, v), w in zip(rng.integers(0, N, size=(10, 2)),
                                rng.uniform(0.1, 3.0, 10))]
    for u, v in snap.edges[rng.choice(snap.num_edges, 6, replace=False)]:
        out.append(EdgeEvent(int(u), int(v), "remove"))
    for u, v in snap.edges[rng.choice(snap.num_edges, 3, replace=False)]:
        out += [EdgeEvent(int(u), int(v), "remove"),
                EdgeEvent(int(u), int(v), "add", 2.5)]
    return out


def build(path: str) -> tuple[GraphStore, list]:
    """The pinned stream: eight timesteps, alternating rebases and
    event-batch steps, compacted every third step.  Returns the store
    and the graph each step sealed, as the writer held it."""
    rng = np.random.default_rng(2024)
    store = GraphStore.create(path, N, name="pinned", base_interval=3)
    snap = GraphSnapshot(N, rng.integers(0, N, size=(150, 2)),
                         rng.uniform(1, 5, 150))
    store.append_snapshot(snap)
    store.append_features(rng.standard_normal((N, 2)))
    sealed = [store.tip]
    for step in range(1, 8):
        if step % 2:
            store.append_snapshot(_rebase(rng, store.tip))
        else:
            for _ in range(2):
                store.append_events(_events(rng, store.tip))
            store.seal_step()
        sealed.append(store.tip)
    return store, sealed


def _sha(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def digests(path: str) -> dict:
    build(path)
    return {"wal.log": _sha(os.path.join(path, "wal.log")),
            **{os.path.basename(p): _sha(p) for _, p in list_bases(path)}}


def test_stream_rewrites_values(tmp_path):
    """The rebases re-weight resident edges, so the pinned ``DIFF``
    records carry changed positions, not just topology."""
    store, _ = build(str(tmp_path / "s"))
    changed = [len(unpack_record(store.wal.read(i).payload)[1]
                   ["changed_pos"])
               for i in range(store.wal.num_records)
               if store.wal.kind_of(i) == KIND_DIFF]
    assert len(changed) == 5 and min(changed[1:]) > 0


def test_store_writes_are_deterministic(tmp_path):
    assert digests(str(tmp_path / "a")) == digests(str(tmp_path / "b"))


def test_store_bytes_equal_recorded(tmp_path):
    assert digests(str(tmp_path / "s")) == json.loads(FIXTURE.read_text())


def test_recorded_log_replays_every_step(tmp_path):
    """The pinned bytes (so a log written before the diff carried only
    what changed) decode back to every sealed graph, from the log alone
    and through the compacted bases."""
    path = str(tmp_path / "s")
    _, sealed = build(path)
    for drop_bases in (False, True):
        if drop_bases:
            shutil.rmtree(base_dir(path))
        reopened = GraphStore.open(path)
        for t, want in enumerate(sealed):
            assert reopened.replay_to(t) == want, (t, drop_bases)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        FIXTURE.write_text(json.dumps(digests(os.path.join(scratch, "s")),
                                      indent=1, sort_keys=True) + "\n")
    print(f"recorded {FIXTURE}")
