"""Snapshot compaction: periodic CSR bases that bound replay depth.

Without bases, time-travel to timestep ``t`` replays every delta from
the head of the log — O(t) work.  The compactor materializes the sealed
snapshot every ``base_interval`` timesteps into a columnar CSR file
under ``bases/``; :meth:`~repro.store.store.GraphStore.materialize`
then decodes the nearest base at or below ``t`` and replays only the
log tail between the base and ``t``, bounding work by the interval.

Bases are pure acceleration structures: deleting every base file loses
no data (the delta log is authoritative), and each base records the WAL
record index it corresponds to, so replay knows exactly where to resume.
Files are written atomically (temp + rename) and checksum-verified on
load; a base that fails either check is ignored, falling back to a
longer replay.
"""

from __future__ import annotations

import os
import re

from repro.errors import StoreError
from repro.graph.snapshot import GraphSnapshot
from repro.store import codec

__all__ = ["Compactor", "base_dir", "base_path", "write_base",
           "load_base", "list_bases"]

_BASE_RE = re.compile(r"^base_(\d{8})\.npz$")


def base_dir(store_path: str) -> str:
    return os.path.join(store_path, "bases")


def base_path(store_path: str, step: int) -> str:
    return os.path.join(base_dir(store_path), f"base_{step:08d}.npz")


def write_base(store_path: str, step: int, snapshot: GraphSnapshot,
               record_index: int) -> str:
    """Atomically write the base for ``step`` (state at WAL record
    ``record_index``); returns the final path."""
    os.makedirs(base_dir(store_path), exist_ok=True)
    path = base_path(store_path, step)
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(codec.encode_base(snapshot, step, record_index))
    os.replace(tmp, path)
    return path


def load_base(path: str) -> tuple[dict, GraphSnapshot]:
    """Decode and checksum-verify one base file."""
    if not os.path.exists(path):
        raise StoreError(f"no such base file: {path}")
    with open(path, "rb") as fh:
        return codec.decode_base(fh.read())


def list_bases(store_path: str) -> list[tuple[int, str]]:
    """Sorted ``(step, path)`` pairs of the bases present on disk."""
    directory = base_dir(store_path)
    if not os.path.isdir(directory):
        return []
    out = []
    for name in os.listdir(directory):
        match = _BASE_RE.match(name)
        if match:
            out.append((int(match.group(1)),
                        os.path.join(directory, name)))
    return sorted(out)


class Compactor:
    """Base-materialization policy bound to one store.

    ``interval=None`` disables automatic compaction (pure delta log —
    the full-replay baseline that bases bound).
    """

    def __init__(self, store, interval: int | None) -> None:
        if interval is not None and interval < 1:
            raise StoreError(f"base_interval must be >= 1, got {interval}")
        self.store = store
        self.interval = interval
        self.bases_written = 0
        self.base_bytes = 0

    def maybe_compact(self, step: int) -> bool:
        """Write a base for ``step`` if the interval says so."""
        if self.interval is None or step % self.interval != 0:
            return False
        self.compact(step)
        return True

    def compact(self, step: int) -> str:
        """Materialize the sealed snapshot at ``step`` into a base."""
        snapshot = self.store.materialize(step)
        path = write_base(self.store.path, step, snapshot,
                          self.store.seal_record_index(step))
        self.store._register_base(step, path)
        self.bases_written += 1
        self.base_bytes += os.path.getsize(path)
        return path
