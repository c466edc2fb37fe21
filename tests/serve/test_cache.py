"""Tests for the embedding cache and k-hop dirty expansion."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.graph import GraphSnapshot
from repro.serve import EmbeddingCache, expand_dirty


def snap(n, pairs):
    return GraphSnapshot(n, np.array(pairs, dtype=np.int64).reshape(-1, 2))


# a path graph 0-1-2-3-4-5 (directed edges i -> i+1)
PATH = snap(6, [[i, i + 1] for i in range(5)])


def clean(cache):
    """Record every row recomputed at every layer."""
    cache.clean_layers([np.arange(cache.num_vertices)] * cache.num_layers)


class TestExpandDirty:
    """The rows within ``hops`` hops of the seeds, and each one's hop
    count (``int8``, what the cache's marker takes)."""

    def check(self, graph, seeds, hops, rows, counts):
        got_rows, got_hops = expand_dirty(graph, np.array(seeds), hops)
        np.testing.assert_array_equal(got_rows, rows)
        np.testing.assert_array_equal(got_hops, counts)
        assert got_hops.dtype == np.int8

    def test_zero_hops_returns_seeds(self):
        self.check(PATH, [2], 0, [2], [0])

    def test_one_hop_is_undirected(self):
        # vertex 2 reaches 1 (in-edge) and 3 (out-edge)
        self.check(PATH, [2], 1, [1, 2, 3], [1, 0, 1])

    def test_two_hops(self):
        self.check(PATH, [2], 2, [0, 1, 2, 3, 4], [2, 1, 0, 1, 2])

    def test_hops_saturate(self):
        self.check(PATH, [0], 50, np.arange(6), np.arange(6))

    def test_disconnected_component_untouched(self):
        g = snap(6, [[0, 1], [1, 2], [4, 5]])
        self.check(g, [0], 10, [0, 1, 2], [0, 1, 2])

    def test_empty_seeds(self):
        rows, hops = expand_dirty(PATH, np.empty(0, dtype=np.int64), 3)
        assert len(rows) == 0 and len(hops) == 0

    def test_multiple_seeds_merge(self):
        # each row counts hops to its nearest seed
        self.check(PATH, [0, 5], 1, [0, 1, 4, 5], [0, 1, 1, 0])

    def test_radius_beyond_int8_rejected(self):
        with pytest.raises(ConfigError):
            expand_dirty(PATH, np.array([0]), 128)


class TestEmbeddingCache:
    def test_starts_fully_dirty(self):
        cache = EmbeddingCache(6, num_layers=2)
        assert cache.all_dirty
        np.testing.assert_array_equal(cache.dirty, np.arange(6))
        clean(cache)
        assert cache.num_dirty == 0

    def test_k_defaults_to_depth(self):
        # the invalidation radius is the model depth: three layers
        # reach three hops, and no further
        cache = EmbeddingCache(6, num_layers=3)
        clean(cache)
        cache.invalidate(PATH, np.array([0]))
        np.testing.assert_array_equal(cache.dirty, [0, 1, 2, 3])

    def test_invalidate_expands_k_hops(self):
        cache = EmbeddingCache(6, num_layers=2)
        clean(cache)
        cache.invalidate(PATH, np.array([0]))
        np.testing.assert_array_equal(cache.dirty, [0, 1, 2])

    def test_invalidations_accumulate(self):
        cache = EmbeddingCache(6, num_layers=1)
        clean(cache)
        cache.invalidate(PATH, np.array([0]))
        cache.invalidate(PATH, np.array([5]))
        np.testing.assert_array_equal(cache.dirty, [0, 1, 4, 5])
        assert cache.invalidations == 2

    def test_embeddings_require_priming(self):
        cache = EmbeddingCache(4, num_layers=1)
        with pytest.raises(ConfigError):
            _ = cache.embeddings


class TestSeedDeduplication:
    """Repeated seeds within one tick are not re-walked (exact-safe:
    a repeat's reach can only grow through edges whose own endpoints
    are fresh seeds of the commit that added them)."""

    def test_repeated_seed_skipped(self):
        cache = EmbeddingCache(6, num_layers=2)
        clean(cache)
        cache.invalidate(PATH, np.array([0]))
        walks = cache.invalidations
        cache.invalidate(PATH, np.array([0]))   # same endpoint again
        assert cache.invalidations == walks     # no second walk
        assert cache.seeds_deduplicated == 1
        np.testing.assert_array_equal(cache.dirty, [0, 1, 2])

    def test_duplicate_seeds_within_one_batch(self):
        cache = EmbeddingCache(6, num_layers=2)
        clean(cache)
        cache.invalidate(PATH, np.array([0, 0, 0, 3]))
        np.testing.assert_array_equal(cache.dirty, [0, 1, 2, 3, 4, 5])

    def test_mixed_batch_walks_only_fresh_seeds(self):
        cache = EmbeddingCache(6, num_layers=2)
        clean(cache)
        cache.invalidate(PATH, np.array([0]))
        before = cache.rows_invalidated
        cache.invalidate(PATH, np.array([0, 5]))   # 0 repeats, 5 fresh
        assert cache.seeds_deduplicated == 1
        # only 5's neighborhood was walked
        assert cache.rows_invalidated - before == 3
        np.testing.assert_array_equal(cache.dirty, [0, 1, 2, 3, 4, 5])

    def test_coverage_stays_exact_when_topology_grows(self):
        # edge (0, 4) lands between two invalidations of seed 0: its
        # endpoints are seeds of the adding commit, so the repeat skip
        # loses nothing
        cache = EmbeddingCache(6, num_layers=1)
        clean(cache)
        cache.invalidate(PATH, np.array([0]))
        grown = snap(6, [[i, i + 1] for i in range(5)] + [[0, 4]])
        cache.invalidate(grown, np.array([0, 4]))
        assert 3 in cache.dirty and 5 in cache.dirty

    def test_clean_resets_dedup_window(self):
        cache = EmbeddingCache(6, num_layers=2)
        clean(cache)
        cache.invalidate(PATH, np.array([0]))
        clean(cache)
        cache.invalidate(PATH, np.array([0]))
        assert cache.seeds_deduplicated == 0
        np.testing.assert_array_equal(cache.dirty, [0, 1, 2])


class TestMarkWithin:
    """The one hop → layer marker: a row ``h`` hops from a change is
    stale from layer ``h − 1``, floored at 0."""

    def test_unions_without_walking(self):
        cache = EmbeddingCache(6, num_layers=2)
        clean(cache)
        cache.mark_within(np.array([1, 4]), np.zeros(2, dtype=np.int8))
        np.testing.assert_array_equal(cache.dirty, [1, 4])
        assert cache.invalidations == 1 and cache.rows_invalidated == 2

    def test_hops_map_to_layers(self):
        layers = [0, 0, 1]         # hop h is stale from h − 1
        cache = EmbeddingCache(6, num_layers=2)
        clean(cache)
        hops = np.arange(len(layers), dtype=np.int8)
        cache.mark_within(np.arange(len(layers)), hops)
        np.testing.assert_array_equal(cache.stale[:len(layers)], layers)
        assert (cache.stale[len(layers):] == 2).all()
        assert cache.num_dirty == len(layers)

    def test_keeps_a_lower_stale_layer(self):
        cache = EmbeddingCache(6, num_layers=2)
        clean(cache)
        cache.mark_within(np.array([3]), np.array([0], dtype=np.int8))
        cache.mark_within(np.array([3]), np.array([2], dtype=np.int8))
        assert cache.stale[3] == 0 and cache.num_dirty == 1

    @pytest.mark.parametrize("seed", [2, 3])
    def test_router_expansion_marks_what_invalidate_marks(self, seed):
        walked = EmbeddingCache(6, num_layers=2)
        marked = EmbeddingCache(6, num_layers=2)
        for cache in (walked, marked):
            clean(cache)
        walked.invalidate(PATH, np.array([seed]))
        # the router expands by the model depth
        marked.mark_within(*expand_dirty(PATH, np.array([seed]),
                                         marked.num_layers))
        np.testing.assert_array_equal(marked.stale, walked.stale)
        assert marked.num_dirty == walked.num_dirty

    def test_empty_rows_noop(self):
        cache = EmbeddingCache(6, num_layers=2)
        clean(cache)
        cache.mark_within(np.empty(0, dtype=np.int64),
                          np.empty(0, dtype=np.int8))
        assert cache.num_dirty == 0
        assert cache.invalidations == 0
