"""Vectorized truncated BFS over canonical edge arrays.

One mask-frontier kernel shared by every consumer of "who is within h
undirected hops of this seed set": the embedding cache's k-hop dirty
expansion, the sharded tier's distance-to-block halo fields, and the
partitioner's ghost-fringe helper.  O(E) boolean work per hop, no
sorting, no per-vertex python.
"""

from __future__ import annotations

import numpy as np

__all__ = ["undirected_distances"]


def undirected_distances(num_vertices: int, edges: np.ndarray,
                         seeds: np.ndarray, max_hops: int) -> np.ndarray:
    """Hop distance from ``seeds`` treating ``edges`` as undirected.

    Returns an int64 array of length ``num_vertices``; distances are
    truncated at ``max_hops`` and every vertex farther than that (or
    unreachable) holds ``max_hops + 1``.
    """
    dist = np.full(num_vertices, max_hops + 1, dtype=np.int64)
    seeds = np.asarray(seeds, dtype=np.int64)
    dist[seeds] = 0
    if max_hops <= 0 or len(edges) == 0 or len(seeds) == 0:
        return dist
    # contiguous endpoint columns, taken once: every hop gathers from
    # them, and the strided (E, 2) views cost twice as much to index
    src = np.ascontiguousarray(edges[:, 0])
    dst = np.ascontiguousarray(edges[:, 1])
    frontier = np.zeros(num_vertices, dtype=bool)
    frontier[seeds] = True
    reach = frontier.copy()
    for d in range(1, max_hops + 1):
        nxt = np.zeros(num_vertices, dtype=bool)
        nxt[dst[frontier[src]]] = True
        nxt[src[frontier[dst]]] = True
        frontier = nxt & ~reach
        if not frontier.any():
            break
        dist[frontier] = d
        reach |= frontier
    return dist
