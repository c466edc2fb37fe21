"""Shared-memory plumbing for the multiprocessing backend.

The read-mostly blocks of a serving tier — the boot topology (edge list
+ values), each worker's embedding block and a multi-shard tier's
frozen board — are mapped once into ``multiprocessing.shared_memory``
segments and never travel over the pipe.  Only deltas, row sets, and
scores do, which is the paper's wire discipline (ship O(delta), share
O(graph)).

Ownership protocol: the **router process creates and unlinks** every
segment; workers attach, wrap numpy views, and close their handles at
exit.  Under the default fork start method only the creator registers
segments with the resource tracker, so a worker crash never reaps a
segment other workers still map.
"""

from __future__ import annotations

import uuid
from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np

from repro.graph.snapshot import GraphSnapshot

__all__ = ["ArraySpec", "share_array", "share_zeros", "map_array",
           "snapshot_from_shared"]


@dataclass(frozen=True)
class ArraySpec:
    """Pipe-safe descriptor of one shared segment (the manifest entry)."""

    name: str
    shape: tuple
    dtype: str

    @property
    def nbytes(self) -> int:
        return int(np.prod(self.shape, dtype=np.int64)
                   * np.dtype(self.dtype).itemsize)


def share_array(array: np.ndarray, tag: str
                ) -> tuple[shared_memory.SharedMemory, ArraySpec]:
    """Copy ``array`` into a fresh segment; returns (handle, spec).

    The caller (router) owns the handle and must ``unlink()`` it when
    the backend closes."""
    array = np.ascontiguousarray(array)
    seg, spec = share_zeros(array.shape, array.dtype, tag)
    if array.nbytes:
        np.ndarray(array.shape, dtype=array.dtype,
                   buffer=seg.buf)[...] = array
    return seg, spec


def share_zeros(shape: tuple, dtype, tag: str
                ) -> tuple[shared_memory.SharedMemory, ArraySpec]:
    """A fresh zero-filled segment for a ``shape`` / ``dtype`` array
    (no page touched); owned as :func:`share_array`'s."""
    spec = ArraySpec(name=f"repro_{tag}_{uuid.uuid4().hex[:12]}",
                     shape=tuple(shape), dtype=str(np.dtype(dtype)))
    # zero-size arrays still need a page
    return shared_memory.SharedMemory(create=True, name=spec.name,
                                      size=max(1, spec.nbytes)), spec


def map_array(spec: ArraySpec, *, writeable: bool = False
              ) -> tuple[shared_memory.SharedMemory, np.ndarray]:
    """Attach to a segment and wrap it as a numpy view.

    The returned handle must stay referenced as long as the view lives
    (the buffer dies with the handle)."""
    seg = shared_memory.SharedMemory(name=spec.name)
    view = np.ndarray(spec.shape, dtype=np.dtype(spec.dtype),
                      buffer=seg.buf)
    view.flags.writeable = writeable
    return seg, view


def snapshot_from_shared(num_vertices: int, edges: np.ndarray,
                         values: np.ndarray) -> GraphSnapshot:
    """Zero-copy :class:`GraphSnapshot` over shared topology views: the
    shared edge list was canonicalized *before* it was shared, so the
    trusted constructor only verifies its order; the adjacency index
    builds lazily in the worker as usual."""
    return GraphSnapshot.from_canonical(int(num_vertices), edges, values)
