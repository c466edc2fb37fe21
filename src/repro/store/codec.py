"""Record payload encoding for the temporal graph store.

Every WAL record payload and every compacted base file is a plain
(uncompressed) ``.npz`` archive held in bytes: numpy handles dtype and
shape framing, and a ``__meta__`` entry carries a JSON header.  Three
domain encodings live here:

* **base snapshots** — CSR-packed columnar arrays ``(indptr, indices,
  values)``; the canonical (src-sorted) edge order of
  :class:`~repro.graph.snapshot.GraphSnapshot` makes the conversion a
  bincount + cumsum in each direction.
* **delta records** — a :class:`~repro.graph.diff.SnapshotDiff` stored
  *against the previous snapshot*: the diff's own fields (added edges
  and values, changed positions and values), with the removed edges as
  positions into the previous canonical order.  Unchanged values are
  recoverable from the previous snapshot, which is what pushes storage
  well below the §3.2 transfer payload.
* **event batches** — columnar ``(src, dst, op, value)`` arrays, folded
  with exactly the semantics of
  :meth:`repro.serve.ingest.StreamIngestor.commit` so a store replay and
  a live server agree bit-for-bit.

Integer arrays are narrowed to int32 on disk whenever their values fit
(vertex ids and edge positions almost always do) and widened back to the
library's int64 convention on decode.

Engine captures, tens of megabytes written on the ingest path, skip the
npz container: :func:`write_capture` / :func:`read_capture` frame them.
"""

from __future__ import annotations

import io
import json
import os
import struct
import zipfile
import zlib

import numpy as np

from repro.errors import DatasetError, StoreError
from repro.graph.diff import (SnapshotDiff, _delta_keys, apply_diff,
                              edge_checksum)
from repro.graph.snapshot import GraphSnapshot

__all__ = ["pack_record", "unpack_record", "write_capture", "read_capture",
           "edge_checksum", "snapshot_to_csr", "csr_to_snapshot",
           "encode_base", "decode_base",
           "encode_diff", "decode_diff",
           "encode_events", "decode_events", "fold_events",
           "encode_features", "decode_features",
           "snapshot_record_nbytes"]


# ---------------------------------------------------------------------------
# generic npz-in-bytes container
# ---------------------------------------------------------------------------

def pack_record(meta: dict, arrays: dict[str, np.ndarray]) -> bytes:
    """Serialize ``(meta, arrays)`` into one uncompressed npz blob."""
    buf = io.BytesIO()
    payload = dict(arrays)
    header = json.dumps(meta, sort_keys=True).encode()
    payload["__meta__"] = np.frombuffer(header, dtype=np.uint8)
    np.savez(buf, **payload)
    return buf.getvalue()


def unpack_record(data: bytes) -> tuple[dict, dict[str, np.ndarray]]:
    """Inverse of :func:`pack_record`."""
    try:
        with np.load(io.BytesIO(data), allow_pickle=False) as archive:
            meta = json.loads(bytes(archive["__meta__"].tobytes()).decode())
            arrays = {k: archive[k] for k in archive.files
                      if k != "__meta__"}
    # a torn or bit-flipped archive surfaces as any of these from zipfile
    except (ValueError, KeyError, OSError, EOFError, RuntimeError,
            NotImplementedError, zlib.error, zipfile.BadZipFile) as exc:
        raise StoreError(f"undecodable store record: {exc}") from exc
    return meta, arrays


# ---------------------------------------------------------------------------
# engine captures: one CRC-framed file of aligned arrays
# ---------------------------------------------------------------------------

CAPTURE_MAGIC = b"RGC1"
_ALIGN = 64


def _aligned(n: int) -> int:
    return -(-n // _ALIGN) * _ALIGN


def write_capture(path: str, meta: dict,
                  arrays: dict[str, np.ndarray]) -> int:
    """Write ``(meta, arrays)`` to ``path`` as ``magic | u32 header
    length | JSON header | zero pad to 64 | each array's C-order bytes on
    a 64-byte boundary | u32 CRC-32 of every preceding byte``, streamed
    from the caller's arrays; header offsets count from the first array
    byte.  Returns the file size."""
    specs, bodies, end = [], [], 0
    for name, a in arrays.items():
        a = np.asarray(a, order="C")  # copies only a non-C-ordered one
        start = _aligned(end)
        specs.append([name, a.dtype.str, list(a.shape), start])
        bodies += [bytes(start - end), a.reshape(-1).view(np.uint8)]
        end = start + a.nbytes
    header = json.dumps({"meta": meta, "arrays": specs},
                        sort_keys=True).encode()
    head = CAPTURE_MAGIC + struct.pack("<I", len(header)) + header
    head += bytes(_aligned(len(head)) - len(head))
    crc = 0
    with open(path, "wb") as fh:
        for piece in [head] + bodies:
            fh.write(piece)
            crc = zlib.crc32(piece, crc)
        fh.write(struct.pack("<I", crc))
    return len(head) + end + 4


def read_capture(path: str) -> tuple[dict, dict[str, np.ndarray]]:
    """Inverse of :func:`write_capture`: one ``readinto`` a 64-aligned
    buffer, the CRC checked before anything is parsed, and the arrays
    returned as aligned, writable views into that buffer."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        buf = bytearray(size + _ALIGN)
        base = -np.frombuffer(buf, np.uint8).ctypes.data % _ALIGN
        view = memoryview(buf)[base:base + size]
        got = fh.readinto(view)
    if got != size or size < 12 or view[:4] != CAPTURE_MAGIC:
        raise StoreError(f"torn or foreign engine capture: {path}")
    if zlib.crc32(view[:-4]) != struct.unpack_from("<I", view, size - 4)[0]:
        raise StoreError(f"engine capture fails its CRC: {path}")
    (hlen,) = struct.unpack_from("<I", view, 4)
    body = base + _aligned(8 + hlen)
    try:
        header = json.loads(bytes(view[8:8 + hlen]))
        arrays = {}
        for name, dtype, shape, offset in header["arrays"]:
            dtype = np.dtype(dtype)
            count = int(np.prod(shape))
            if body + offset + count * dtype.itemsize > base + size - 4:
                raise ValueError(f"array {name!r} overruns the file")
            arrays[name] = np.frombuffer(buf, dtype, count,
                                         body + offset).reshape(shape)
        return header["meta"], arrays
    except (ValueError, KeyError, TypeError) as exc:
        raise StoreError(f"undecodable engine capture {path}: {exc}") \
            from exc


def _narrow(a: np.ndarray) -> np.ndarray:
    """int64 → int32 when every value fits (disk-width optimization)."""
    if a.dtype == np.int64 and \
            a.max(initial=0) <= np.iinfo(np.int32).max and \
            a.min(initial=0) >= np.iinfo(np.int32).min:
        return a.astype(np.int32)
    return a


def _widen(a: np.ndarray) -> np.ndarray:
    return a.astype(np.int64) if a.dtype != np.int64 else a


# ---------------------------------------------------------------------------
# base snapshots (CSR columnar)
# ---------------------------------------------------------------------------

def snapshot_to_csr(snap: GraphSnapshot
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Canonical edge array → ``(indptr, indices, values)``."""
    n = snap.num_vertices
    counts = np.bincount(snap.edges[:, 0], minlength=n) \
        if snap.num_edges else np.zeros(n, dtype=np.int64)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return indptr, snap.edges[:, 1].copy(), snap.values.copy()


def csr_to_snapshot(num_vertices: int, indptr: np.ndarray,
                    indices: np.ndarray, values: np.ndarray
                    ) -> GraphSnapshot:
    counts = np.diff(_widen(indptr))
    src = np.repeat(np.arange(num_vertices, dtype=np.int64), counts)
    edges = np.stack([src, _widen(indices)], axis=1)
    return GraphSnapshot(num_vertices, edges, values)


def encode_base(snap: GraphSnapshot, step: int,
                record_index: int) -> bytes:
    indptr, indices, values = snapshot_to_csr(snap)
    meta = {"kind": "base", "step": int(step),
            "record_index": int(record_index),
            "num_vertices": snap.num_vertices,
            "nnz": snap.num_edges,
            "checksum": edge_checksum(snap)}
    return pack_record(meta, {"indptr": _narrow(indptr),
                              "indices": _narrow(indices),
                              "values": values})


def decode_base(data: bytes) -> tuple[dict, GraphSnapshot]:
    meta, arrays = unpack_record(data)
    snap = csr_to_snapshot(meta["num_vertices"], arrays["indptr"],
                           arrays["indices"], arrays["values"])
    if edge_checksum(snap) != meta["checksum"]:
        raise StoreError(
            f"base snapshot for step {meta['step']} fails its checksum")
    return meta, snap


def snapshot_record_nbytes(snap: GraphSnapshot) -> int:
    """On-disk bytes a *full* per-snapshot record would take — the naive
    storage baseline the delta log is measured against (the legacy
    ``save_dtdg`` representation: int64 edge pairs + float64 values)."""
    payload = pack_record({"kind": "naive", "nnz": snap.num_edges},
                          {"edges": snap.edges, "values": snap.values})
    return len(payload)


# ---------------------------------------------------------------------------
# delta records
# ---------------------------------------------------------------------------

def encode_diff(prev: GraphSnapshot, curr: GraphSnapshot,
                diff: SnapshotDiff, step: int) -> bytes:
    """Store ``prev → curr`` (``curr = apply_diff(prev, diff)``) as a
    GD record: the diff's own fields, its removed edges as positions
    into ``prev``'s canonical order."""
    removed_keys, _ = _delta_keys(diff.removed, prev.num_vertices)
    base_checksum = diff.base_checksum if diff.base_checksum != -1 \
        else edge_checksum(prev)
    meta = {"kind": "diff", "step": int(step),
            "base_checksum": int(base_checksum),
            "result_checksum": edge_checksum(curr),
            "nnz": int(diff.nnz)}
    return pack_record(meta, {
        "removed_pos": _narrow(np.searchsorted(prev.keys, removed_keys)),
        "added": _narrow(np.asarray(diff.added,
                                    dtype=np.int64).reshape(-1, 2)),
        "added_val": np.asarray(diff.added_values, dtype=np.float64),
        "changed_pos": _narrow(np.asarray(diff.changed_pos,
                                          dtype=np.int64)),
        "changed_val": np.asarray(diff.changed_values, dtype=np.float64),
    })


def decode_diff(data: bytes, prev: GraphSnapshot
                ) -> tuple[SnapshotDiff, GraphSnapshot, dict]:
    """Read a stored delta back as its :class:`SnapshotDiff` and the
    snapshot it produces from the resident predecessor."""
    meta, arrays = unpack_record(data)
    if meta["base_checksum"] != edge_checksum(prev):
        raise StoreError(
            f"delta for step {meta['step']} does not apply: resident "
            f"snapshot is not the base it was encoded against")
    diff = SnapshotDiff(
        removed=prev.edges[_widen(arrays["removed_pos"])],
        added=_widen(arrays["added"]).reshape(-1, 2),
        added_values=arrays["added_val"],
        changed_pos=_widen(arrays["changed_pos"]),
        changed_values=arrays["changed_val"],
        base_checksum=meta["base_checksum"], nnz=meta["nnz"])
    try:
        curr = apply_diff(prev, diff)
    except DatasetError as exc:
        raise StoreError(f"delta for step {meta['step']} does not "
                         f"apply: {exc}") from exc
    if edge_checksum(curr) != meta["result_checksum"]:
        raise StoreError(
            f"delta for step {meta['step']} fails its result checksum")
    return diff, curr, meta


# ---------------------------------------------------------------------------
# live event batches
# ---------------------------------------------------------------------------

def encode_events(events) -> bytes:
    """Columnar encoding of an :class:`~repro.serve.ingest.EdgeEvent`
    batch (``op`` 0 = add, 1 = remove)."""
    events = list(events)
    src = np.array([e.src for e in events], dtype=np.int64)
    dst = np.array([e.dst for e in events], dtype=np.int64)
    op = np.array([0 if e.op == "add" else 1 for e in events],
                  dtype=np.uint8)
    value = np.array([e.value for e in events], dtype=np.float64)
    meta = {"kind": "events", "count": len(events)}
    return pack_record(meta, {"src": _narrow(src), "dst": _narrow(dst),
                              "op": op, "value": value})


def decode_events(data: bytes) -> list:
    from repro.serve.ingest import EdgeEvent
    meta, arrays = unpack_record(data)
    src = _widen(arrays["src"])
    dst = _widen(arrays["dst"])
    op = arrays["op"]
    value = arrays["value"]
    if not (len(src) == len(dst) == len(op) == len(value)
            == meta["count"]):
        raise StoreError("event record columns disagree on length")
    return [EdgeEvent(int(s), int(d), "add" if o == 0 else "remove",
                      float(v))
            for s, d, o, v in zip(src, dst, op, value)]


def fold_events(snapshot: GraphSnapshot, events) -> tuple:
    """Fold an event batch into a snapshot during WAL replay; returns
    the whole fold, ``(snapshot, touched, diff)``, so a recovering tier
    commits it instead of folding the batch again.

    Delegates to :func:`repro.serve.ingest.fold_event_batch` — the ONE
    definition of the event-fold semantics — so a store replay and the
    live server that acknowledged the batch reconstruct bit-identical
    snapshots by construction.  (Imported lazily to keep this module
    importable without pulling the serving package in at import time.)
    """
    from repro.serve.ingest import fold_event_batch
    return fold_event_batch(snapshot, events)


# ---------------------------------------------------------------------------
# feature frames
# ---------------------------------------------------------------------------

def encode_features(frame: np.ndarray, step: int) -> bytes:
    frame = np.asarray(frame, dtype=np.float64)
    return pack_record({"kind": "features", "step": int(step)},
                       {"frame": frame})


def decode_features(data: bytes) -> tuple[int, np.ndarray]:
    meta, arrays = unpack_record(data)
    return meta["step"], arrays["frame"]
