"""A single DTDG snapshot: the graph at one timestep (paper §2.1).

A snapshot ``G_t = (V, E_t)`` over a fixed vertex set ``V`` of size ``N``.
Edges are stored as a canonically sorted ``(nnz, 2)`` int64 COO array —
the representation that is actually *shipped* between CPU and GPU in the
paper's transfer study, and the representation the graph-difference
encoder (paper §3.2) operates on.
"""

from __future__ import annotations

import numpy as np

from repro.errors import DatasetError
from repro.tensor.sparse import INDEX_BYTES, VALUE_BYTES, SparseMatrix

__all__ = ["GraphSnapshot", "canonical_edges", "sorted_unique"]


def _edge_keys(edges: np.ndarray, n: int) -> np.ndarray:
    """Encode (u, v) pairs as scalar ``u*n + v`` int64 keys: key order is
    lexicographic edge order whenever every endpoint lies in ``[0, n)``."""
    return edges[:, 0] * np.int64(n) + edges[:, 1]


def _strictly_increasing(keys: np.ndarray) -> bool:
    return len(keys) < 2 or bool((keys[1:] > keys[:-1]).all())


def sorted_unique(ids: np.ndarray) -> np.ndarray:
    """``np.unique(ids)`` (flattened) by one sort and a neighbour mask.

    numpy 2.x's ``unique`` (and ``union1d``, which calls it) hashes
    integer input, which at the sizes the commit path sees — a delta's
    endpoints, a read cone — runs 10-20x slower than a sort."""
    ids = np.sort(ids, axis=None)
    if len(ids) < 2:
        return ids
    first = np.empty(len(ids), dtype=bool)
    first[0] = True
    np.not_equal(ids[1:], ids[:-1], out=first[1:])
    return ids[first]


def _canonicalize(edges: np.ndarray, values: np.ndarray | None,
                  keys: np.ndarray):
    """``(edges, values)`` in the canonical order their scalar ``keys``
    define, duplicates merged (values summed in input order).  One
    vectorised compare skips the sort for input that is already
    canonical; otherwise one stable argsort of the keys orders edges and
    values alike."""
    if _strictly_increasing(keys):
        return edges, values
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    first = np.ones(len(keys), dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    if values is not None:
        values = values[order]
        if not first.all():
            summed = np.zeros(int(first.sum()), dtype=np.float64)
            np.add.at(summed, np.cumsum(first) - 1, values)
            values = summed
    return edges[order][first], values


def canonical_edges(edges: np.ndarray) -> np.ndarray:
    """Sort an ``(m, 2)`` edge array lexicographically and drop duplicates."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if len(edges) == 0:
        return edges
    low = edges.min()  # endpoints may be any integers here: shift to 0
    keys = _edge_keys(edges - low, int(edges.max() - low) + 1)
    return _canonicalize(edges, None, keys)[0]


class GraphSnapshot:
    """The graph at one timestep of a discrete-time dynamic graph.

    Parameters
    ----------
    num_vertices:
        Size of the shared vertex set ``V``.
    edges:
        ``(m, 2)`` integer array of directed ``(src, dst)`` pairs.
        Canonicalized (sorted, deduplicated) on construction.
    values:
        Optional per-edge weights aligned with the *canonical* edge order.
        Defaults to all-ones.  Snapshots produced by smoothing (edge-life,
        M-product — paper §5.4) carry non-unit values.
    """

    __slots__ = ("num_vertices", "edges", "values", "_adj", "_keys", "_mix")

    def __init__(self, num_vertices: int, edges: np.ndarray,
                 values: np.ndarray | None = None) -> None:
        if num_vertices <= 0:
            raise DatasetError(f"num_vertices must be positive, got "
                               f"{num_vertices}")
        raw = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        if values is not None:
            # values are aligned with the caller's raw edge order and
            # follow it into canonical order (duplicates summed)
            values = np.asarray(values, dtype=np.float64).reshape(-1)
            if len(values) != len(raw):
                raise DatasetError(
                    f"{len(values)} values for {len(raw)} edges")
        if len(raw) and (raw.min() < 0 or raw.max() >= num_vertices):
            raise DatasetError("edge endpoint out of vertex range")
        # the keys are not retained here (a DTDG holds many snapshots);
        # the first merge or checksum recomputes them in one pass
        self._set(num_vertices, *_canonicalize(
            raw, values, _edge_keys(raw, num_vertices)))

    @classmethod
    def from_canonical(cls, num_vertices: int, edges: np.ndarray,
                       values: np.ndarray,
                       keys: np.ndarray | None = None) -> "GraphSnapshot":
        """Trusted zero-copy constructor over arrays that are already
        canonical (the sorted-key merge's output, shared-memory views):
        strict key order and key range are *verified* in one vectorised
        compare — never established by sorting."""
        if keys is None:
            keys = _edge_keys(edges, num_vertices)
        if len(keys) and (keys[0] < 0 or keys[-1] >= num_vertices ** 2
                          or not _strictly_increasing(keys)):
            raise DatasetError("edge arrays are not in canonical order")
        snap = cls.__new__(cls)
        snap._set(num_vertices, edges, values, keys)
        return snap

    def _set(self, num_vertices, edges, values, keys=None) -> None:
        self.num_vertices = int(num_vertices)
        self.edges = edges
        self.values = (values if values is not None
                       else np.ones(len(edges), dtype=np.float64))
        self._adj: SparseMatrix | None = None
        self._keys = keys          # sorted src*N+dst keys (8 B/edge)
        self._mix = None           # XOR-mix of the keys (graph.diff)

    def __getstate__(self):
        # ship the graph, never the caches derived from it
        return self.num_vertices, self.edges, self.values

    def __setstate__(self, state) -> None:
        self._set(*state)

    @property
    def keys(self) -> np.ndarray:
        """Strictly increasing ``src*N + dst`` int64 keys, one per edge —
        what the sorted-key merge (:mod:`repro.graph.diff`) searches."""
        if self._keys is None:
            self._keys = _edge_keys(self.edges, self.num_vertices)
        return self._keys

    # -- structure ----------------------------------------------------------------
    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @property
    def nnz(self) -> int:
        return len(self.edges)

    def adjacency(self) -> SparseMatrix:
        """Sparse adjacency matrix ``A_t`` (cached)."""
        if self._adj is None:
            self._adj = SparseMatrix.from_edges(
                self.edges, self.values, (self.num_vertices,
                                          self.num_vertices))
        return self._adj

    def out_degrees(self) -> np.ndarray:
        deg = np.zeros(self.num_vertices, dtype=np.float64)
        if len(self.edges):
            np.add.at(deg, self.edges[:, 0], 1.0)
        return deg

    def in_degrees(self) -> np.ndarray:
        deg = np.zeros(self.num_vertices, dtype=np.float64)
        if len(self.edges):
            np.add.at(deg, self.edges[:, 1], 1.0)
        return deg

    # -- transfer accounting (paper §3.2) ------------------------------------------
    @property
    def index_nbytes(self) -> int:
        return 2 * INDEX_BYTES * self.num_edges

    @property
    def value_nbytes(self) -> int:
        return VALUE_BYTES * self.num_edges

    @property
    def nbytes(self) -> int:
        """Naive sparse (index, value) transfer footprint."""
        return self.index_nbytes + self.value_nbytes

    # -- misc -----------------------------------------------------------------------
    def topology_overlap(self, other: "GraphSnapshot") -> float:
        """Jaccard similarity of the two edge sets (paper's GD motivation)."""
        if self.num_edges == 0 and other.num_edges == 0:
            return 1.0
        common = count_common_edges(self.edges, other.edges)
        union = self.num_edges + other.num_edges - common
        return common / union if union else 1.0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"GraphSnapshot(N={self.num_vertices}, "
                f"nnz={self.num_edges})")

    def __eq__(self, other) -> bool:
        return (isinstance(other, GraphSnapshot)
                and self.num_vertices == other.num_vertices
                and self.edges.shape == other.edges.shape
                and bool((self.edges == other.edges).all())
                and bool(np.array_equal(self.values, other.values)))

    def __hash__(self):  # snapshots are mutable-ish; identity hashing
        return id(self)


def count_common_edges(a: np.ndarray, b: np.ndarray) -> int:
    """Number of edges present in both canonical edge arrays."""
    if len(a) == 0 or len(b) == 0:
        return 0
    n = int(max(a.max(), b.max())) + 1
    return int(np.intersect1d(_edge_keys(a, n), _edge_keys(b, n),
                              assume_unique=True).size)
