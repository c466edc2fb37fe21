"""Per-vertex model-state cache with layer-stratified k-hop invalidation.

The serving engine keeps, for every vertex, the outputs of each GCN
layer plus the temporal carries (LSTM ``(h, c)`` rows, M-product history
frames) that scoring at the current timestep depends on.  When a batch
of edge events lands, only vertices whose rows can actually have changed
need recomputation.  The reach of a delta is bounded by the network
depth: with degree features, an edge touching vertex set ``D₀`` perturbs

* the feature rows of ``D₀`` only (and the ``Ã`` entries of its rows
  and columns — the degree normalization),
* the layer-ℓ output of a vertex ``d`` hops from ``D₀`` only when
  ``d ≤ ℓ + 1``: layer 0 reads one ring of neighbors, and each further
  layer reads one more,

so the ``k = num_layers`` hop neighborhood of the touched endpoints
bounds the invalidation, and within it a vertex ``d`` hops out is stale
only from layer ``d − 1`` on.  Exact (not approximate) incremental
inference — the ReInc/InstantGNN observation mapped onto this codebase's
snapshot machinery.  Expansion only needs the *new* topology: an edge
present solely in the old snapshot was removed, so both its endpoints
are already seeds.

Stale layers
------------
The cache holds one ``int8`` per vertex: the lowest layer whose output
row is stale (``num_layers`` means clean; a row stale from layer ``s``
is stale at every layer ``≥ s``).  The bookkeeping keeps one invariant:

    a row clean at layer ℓ has every column of its ``Ã`` row clean at
    layer ℓ − 1,

i.e. ``stale[u] ≥ stale[v] − 1`` for every ``Ã[v, u] ≠ 0``.  It is what
makes a clean row an exact one — a change that reaches a column at
layer ℓ − 1 reaches every row reading it at ℓ — so a refresh that needs
some rows can recompute their stale inputs and stop at clean ones.
:meth:`EmbeddingCache.invalidate` keeps it by construction (neighbors
are at most one hop apart), a refresh keeps it by recomputing a row's
stale columns before the row, and :meth:`EmbeddingCache.restore_dirty`
re-establishes it after recovery.  A shard worker marks the router's
one expansion (:func:`expand_dirty`: rows and hop counts) with the
same hop → layer rule, :meth:`EmbeddingCache.mark_within`.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError
from repro.graph.snapshot import GraphSnapshot
from repro.graph.traversal import undirected_distances

__all__ = ["EmbeddingCache", "expand_dirty"]

_EMPTY = np.empty(0, dtype=np.int64)


def expand_dirty(snapshot: GraphSnapshot, seeds: np.ndarray,
                 hops: int) -> tuple[np.ndarray, np.ndarray]:
    """Vertices within ``hops`` undirected hops of ``seeds``, and each
    one's hop count (what :meth:`EmbeddingCache.mark_within` takes).

    Runs the shared vectorized mask-frontier BFS over the snapshot's
    edge array (O(E) boolean work per hop, no sorting); returns a
    sorted unique vertex array including the seeds, and ``int8`` hops.
    """
    if hops > np.iinfo(np.int8).max:
        raise ConfigError(f"hops={hops} does not fit int8 hop counts")
    seeds = np.unique(np.asarray(seeds, dtype=np.int64))
    if hops <= 0 or len(seeds) == 0 or snapshot.num_edges == 0:
        return seeds, np.zeros(len(seeds), dtype=np.int8)
    dist = undirected_distances(snapshot.num_vertices, snapshot.edges,
                                seeds, hops)
    rows = np.flatnonzero(dist <= hops)
    return rows, dist[rows].astype(np.int8)


class EmbeddingCache:
    """Holds per-vertex layer outputs/carries and their stale layers.

    The cache itself is storage plus invalidation bookkeeping; the
    :class:`~repro.serve.engine.InferenceEngine` reads and writes the
    arrays.  Layout:

    ``features``
        ``(N, F)`` input feature rows (in/out degrees of the resident
        snapshot).
    ``layer_outputs``
        One ``(N, dim_ℓ)`` array per layer — the post-RNN output ``z_ℓ``
        that feeds layer ``ℓ+1`` (the last one is the served embedding).
    ``pre_carry`` / ``post_carry``
        Temporal state per layer *entering* the current timestep (frozen
        while events stream in) and *leaving* it (what the next
        ``advance`` promotes).  Structure is model-kind specific and
        owned by the engine.  CD-GCN keeps ``(h, c)`` entering and ``c``
        alone leaving: a layer's post-step ``h`` is its output row, held
        once, in ``layer_outputs``.
    ``stale``
        The lowest stale layer per vertex (module notes).
    """

    def __init__(self, num_vertices: int, num_layers: int) -> None:
        if not 1 <= num_layers <= np.iinfo(np.int8).max:
            raise ConfigError("num_layers must be in [1, 127]")
        self.num_vertices = num_vertices
        self.num_layers = num_layers
        self.features: np.ndarray | None = None
        self.layer_outputs: list[np.ndarray] = []
        self.pre_carry: list = []
        self.post_carry: list = []
        # every row starts stale from layer 0
        self._stale = np.zeros(num_vertices, dtype=np.int8)
        self._num_dirty = num_vertices
        # seeds already expanded since a refresh last cleaned a row;
        # re-walking them is redundant (see invalidate) and bursts of
        # events sharing endpoints are common in transaction streams
        self._expanded: np.ndarray = _EMPTY
        self.invalidations = 0
        self.rows_invalidated = 0
        self.seeds_deduplicated = 0

    # -- stale tracking ------------------------------------------------------------
    @property
    def stale(self) -> np.ndarray:
        """Lowest stale layer per vertex (``num_layers`` = clean)."""
        return self._stale

    @property
    def dirty(self) -> np.ndarray:
        """Rows stale at some layer (sorted)."""
        return np.flatnonzero(self._stale < self.num_layers)

    @property
    def num_dirty(self) -> int:
        return self._num_dirty

    @property
    def all_dirty(self) -> bool:
        """Every row stale from layer 0."""
        return self._num_dirty == self.num_vertices and \
            not self._stale.any()

    def _lower(self, rows: np.ndarray, layer) -> None:
        """Mark unique ``rows`` stale from ``layer`` (scalar or per-row)
        on, keeping any lower stale layer they already have."""
        old = self._stale[rows]
        self._num_dirty += int(np.count_nonzero(old == self.num_layers))
        self._stale[rows] = np.minimum(old, layer)

    def invalidate(self, snapshot: GraphSnapshot,
                   seeds: np.ndarray) -> None:
        """Mark the k-hop neighborhood of ``seeds`` stale, each vertex
        from the first layer its hop distance lets the change reach
        (:meth:`mark_within`).

        Seeds already expanded since a refresh last cleaned a row are
        skipped instead of re-walked.  This is exact, not heuristic: a
        repeated seed's reach can only grow through edges added *after*
        its first expansion, and every such edge contributes its own
        (fresh) endpoints to the seed set of the commit that added it —
        so the repeat's reach is covered by the old expansion, whose
        rows are all still stale, plus the fresh seeds' expansions.
        Removed edges only shrink reach, and over-invalidation never
        serves a stale row.
        """
        if self.all_dirty:
            return
        seeds = np.unique(np.asarray(seeds, dtype=np.int64))
        fresh = np.setdiff1d(seeds, self._expanded, assume_unique=True)
        self.seeds_deduplicated += len(seeds) - len(fresh)
        if len(fresh) == 0:
            return
        dist = undirected_distances(self.num_vertices, snapshot.edges,
                                    fresh, self.num_layers)
        region = np.flatnonzero(dist <= self.num_layers)
        self.mark_within(region, dist[region])
        self._expanded = np.union1d(self._expanded, fresh)

    def mark_within(self, rows: np.ndarray, hops: np.ndarray) -> None:
        """Mark the unique ``rows`` of a k-hop region stale, each from the
        first layer its hop count lets the change reach: ``hops − 1``,
        floored at 0.  Neighbors are at most one hop apart, so a whole
        region marked so keeps the invariant."""
        if len(rows) == 0 or self.all_dirty:
            return
        self._lower(rows, np.maximum(hops.astype(np.int64) - 1, 0))
        self.invalidations += 1
        self.rows_invalidated += len(rows)

    def invalidate_all(self) -> None:
        self._stale[:] = 0
        self._num_dirty = self.num_vertices
        self.invalidations += 1
        self.rows_invalidated += self.num_vertices

    def restore_dirty(self, snapshot: GraphSnapshot,
                      rows: np.ndarray) -> None:
        """Re-mark a recovered capture's dirty ``rows`` (whose stale
        layers the capture does not keep): each stale from layer 0, and
        every vertex ``d < num_layers`` hops from them stale from layer
        ``d``, which restores the module's invariant.  Over-invalidation,
        so still exact; and since no row ends up stale from a higher
        layer than at capture, the captured expanded seeds stay valid
        for :meth:`invalidate`."""
        dist = undirected_distances(self.num_vertices, snapshot.edges,
                                    np.asarray(rows, dtype=np.int64),
                                    self.num_layers - 1)
        self._stale[:] = np.minimum(dist, self.num_layers)
        self._num_dirty = len(self.dirty)

    def clean_layers(self, plan: list[np.ndarray]) -> None:
        """Record a refresh: ``plan[ℓ]`` are the stale rows the engine
        recomputed at layer ℓ — every row stale there, a read cone, or a
        shard's rows within reach of its block — each with its stale
        columns in ``plan[ℓ − 1]``, so the invariant holds after.
        Cleaning any row ends the dedup window of :meth:`invalidate`: a
        seed expanded before may now sit in a cleaned region, so it must
        re-expand when it arrives again."""
        if not any(len(rows) for rows in plan):
            return
        for layer, rows in enumerate(plan):
            self._stale[rows] = layer + 1
        # a row leaves the dirty set once clean at the last layer
        self._num_dirty -= len(plan[-1])
        self._expanded = _EMPTY

    # -- embeddings ----------------------------------------------------------------
    @property
    def embeddings(self) -> np.ndarray:
        """The stored last-layer output matrix, stale rows included (the
        engine's ``embeddings`` refreshes them first)."""
        if not self.layer_outputs:
            raise ConfigError("cache not primed: run an engine step first")
        return self.layer_outputs[-1]
