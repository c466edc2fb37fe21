"""Vertex-partitioning baseline (paper §4.1, §6.4).

The vertex set is distributed by a hypergraph partitioner; each rank
stores the rows of every ``Ã_t`` and ``X_t`` that belong to its vertices.
The RNN is then communication-free, but each SpMM ``Y_t = Ã_t · X_t``
needs remote rows: the owner of vertex ``v`` must send ``X_t[v]`` to
every rank owning a row ``u`` with ``Ã_t[u, v] ≠ 0``.

Following the paper's implementation notes, the partition is *renamed*
so each rank's vertices are consecutive, and the per-pair send index
lists are precomputed once (before training) so each epoch only executes
the exchanges.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import PartitionError
from repro.graph.dtdg import DTDG
from repro.partition.base import VertexChunks
from repro.partition.hypergraph import (build_gcn_hypergraph,
                                        partition_hypergraph)
from repro.tensor.sparse import SparseMatrix

__all__ = ["VertexPartition", "SnapshotCommPlan", "hypergraph_vertex_partition",
           "random_vertex_partition"]


@dataclass(frozen=True)
class VertexPartition:
    """A vertex→rank assignment plus the consecutive renaming.

    Attributes
    ----------
    assignment:
        Original-vertex → rank.
    perm:
        Original-vertex → new (renamed) id; rank ``p`` owns the
        contiguous new-id range ``chunks.ranges[p]``.
    chunks:
        Contiguous new-id ranges per rank.
    """

    assignment: np.ndarray
    perm: np.ndarray
    chunks: VertexChunks

    @property
    def num_ranks(self) -> int:
        return self.chunks.num_ranks

    @property
    def num_vertices(self) -> int:
        return len(self.assignment)

    @classmethod
    def from_assignment(cls, assignment: np.ndarray,
                        num_ranks: int) -> "VertexPartition":
        assignment = np.asarray(assignment, dtype=np.int64)
        if assignment.min() < 0 or assignment.max() >= num_ranks:
            raise PartitionError("assignment rank ids out of range")
        n = len(assignment)
        order = np.argsort(assignment, kind="stable")
        perm = np.empty(n, dtype=np.int64)
        perm[order] = np.arange(n)
        sizes = np.bincount(assignment, minlength=num_ranks)
        ranges = []
        start = 0
        for p in range(num_ranks):
            ranges.append((start, start + int(sizes[p])))
            start += int(sizes[p])
        return cls(assignment=assignment, perm=perm,
                   chunks=VertexChunks(tuple(ranges), n))

    def rename_edges(self, edges: np.ndarray) -> np.ndarray:
        """Apply the consecutive renaming to an edge array."""
        if len(edges) == 0:
            return edges
        return self.perm[edges]

    def imbalance(self) -> float:
        """max/mean rank load (1.0 = perfectly balanced)."""
        sizes = np.array([self.chunks.size(p) for p in range(self.num_ranks)],
                         dtype=np.float64)
        return float(sizes.max() / sizes.mean()) if sizes.mean() else 1.0


@dataclass(frozen=True)
class SnapshotCommPlan:
    """Precomputed SpMM exchange for one snapshot under a vertex partition.

    ``send[p][q]`` is the array of *renamed* vertex ids whose feature rows
    rank ``p`` must ship to rank ``q`` before the SpMM (p ≠ q).
    """

    send: tuple[tuple[np.ndarray, ...], ...]

    @classmethod
    def build(cls, laplacian: SparseMatrix,
              partition: VertexPartition) -> "SnapshotCommPlan":
        """Derive send lists from the renamed Laplacian's column supports."""
        p_count = partition.num_ranks
        owners = partition.chunks.owner_array()
        csc = laplacian.csr.tocsc()
        sends: list[list[list[int]]] = [[[] for _ in range(p_count)]
                                        for _ in range(p_count)]
        indptr, indices = csc.indptr, csc.indices
        for v in range(csc.shape[1]):
            rows = indices[indptr[v]:indptr[v + 1]]
            if len(rows) == 0:
                continue
            owner_v = int(owners[v])
            for q in np.unique(owners[rows]):
                q = int(q)
                if q != owner_v:
                    sends[owner_v][q].append(v)
        frozen = tuple(
            tuple(np.asarray(sends[p][q], dtype=np.int64)
                  for q in range(p_count))
            for p in range(p_count))
        return cls(send=frozen)

    @property
    def num_ranks(self) -> int:
        return len(self.send)

    def bytes_matrix(self, feature_dim: int,
                     bytes_per_value: int = 4) -> np.ndarray:
        """P×P payload matrix for the communicator."""
        p_count = self.num_ranks
        out = np.zeros((p_count, p_count))
        for p in range(p_count):
            for q in range(p_count):
                out[p, q] = len(self.send[p][q]) * feature_dim * \
                    bytes_per_value
        return out

    def bytes_matrix_rows(self, feature_dim: int, rows: np.ndarray,
                          bytes_per_value: int = 4) -> np.ndarray:
        """P×P payload matrix restricted to the given (renamed) rows.

        The delta-halo exchange of the training reuse layer: receivers
        mirror the remote feature rows across timesteps, so a step only
        ships the send-list rows whose values actually changed
        (``rows`` — the delta-touched input rows).  ``rows`` must be
        sorted (the reuse cache emits sorted unique sets).
        """
        p_count = self.num_ranks
        rows = np.asarray(rows, dtype=np.int64)
        out = np.zeros((p_count, p_count))
        if len(rows) == 0:
            return out
        for p in range(p_count):
            for q in range(p_count):
                send = self.send[p][q]
                if len(send):
                    pos = np.searchsorted(rows, send)
                    pos = np.minimum(pos, len(rows) - 1)
                    count = int((rows[pos] == send).sum())
                    out[p, q] = count * feature_dim * bytes_per_value
        return out


def hypergraph_vertex_partition(dtdg: DTDG, num_ranks: int,
                                balance_eps: float = 0.10,
                                seed: int = 0) -> VertexPartition:
    """The paper's §4.1 pipeline: hypergraph model → multilevel partition."""
    hg = build_gcn_hypergraph(dtdg)
    assignment = partition_hypergraph(hg, num_ranks,
                                      balance_eps=balance_eps, seed=seed)
    return VertexPartition.from_assignment(assignment, num_ranks)


def random_vertex_partition(num_vertices: int, num_ranks: int,
                            seed: int = 0) -> VertexPartition:
    """Balanced random assignment — the quality floor for ablations."""
    rng = np.random.default_rng(seed)
    assignment = np.repeat(np.arange(num_ranks),
                           -(-num_vertices // num_ranks))[:num_vertices]
    rng.shuffle(assignment)
    return VertexPartition.from_assignment(assignment, num_ranks)
