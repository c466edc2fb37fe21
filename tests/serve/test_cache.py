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
        assert EmbeddingCache(6, num_layers=3).k_hops == 3

    def test_too_small_k_rejected(self):
        with pytest.raises(ConfigError):
            EmbeddingCache(6, num_layers=2, k_hops=1)

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
    stale from layer ``h − 1 − (k_hops − num_layers)``, floored at 0."""

    def test_unions_without_walking(self):
        cache = EmbeddingCache(6, num_layers=2)
        clean(cache)
        cache.mark_within(np.array([1, 4]), np.zeros(2, dtype=np.int8))
        np.testing.assert_array_equal(cache.dirty, [1, 4])
        assert cache.invalidations == 1 and cache.rows_invalidated == 2

    @pytest.mark.parametrize("k_hops, layers", [
        (2, [0, 0, 1]),            # k = L: hop h is stale from h − 1
        (3, [0, 0, 0, 1]),         # k = L + 1: one layer later per hop
    ], ids=["k=L", "k=L+1"])
    def test_hops_map_to_layers(self, k_hops, layers):
        cache = EmbeddingCache(6, num_layers=2, k_hops=k_hops)
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

    @pytest.mark.parametrize("k_hops", [2, 3])
    def test_router_expansion_marks_what_invalidate_marks(self, k_hops):
        walked = EmbeddingCache(6, num_layers=2, k_hops=k_hops)
        marked = EmbeddingCache(6, num_layers=2, k_hops=k_hops)
        for cache in (walked, marked):
            clean(cache)
        walked.invalidate(PATH, np.array([2]))
        marked.mark_within(*expand_dirty(PATH, np.array([2]), k_hops))
        np.testing.assert_array_equal(marked.stale, walked.stale)
        assert marked.num_dirty == walked.num_dirty

    def test_empty_rows_noop(self):
        cache = EmbeddingCache(6, num_layers=2)
        clean(cache)
        cache.mark_within(np.empty(0, dtype=np.int64),
                          np.empty(0, dtype=np.int8))
        assert cache.num_dirty == 0
        assert cache.invalidations == 0


class TestLRUEviction:
    """Bounded-memory serving: ``max_rows`` caps the resident set by
    moving the least-recently-read rows to a lazy evicted set; a later
    read reloads them (dirty → recomputed before serving)."""

    def _cache(self, n=6, max_rows=3):
        cache = EmbeddingCache(n, num_layers=1, max_rows=max_rows)
        clean(cache)
        return cache

    def test_unbounded_cache_never_evicts(self):
        cache = EmbeddingCache(6, num_layers=1)
        clean(cache)
        cache.touch(np.array([0, 1]))
        assert cache.maybe_evict() == 0
        assert cache.evictions == 0

    def test_max_rows_validated(self):
        with pytest.raises(ConfigError):
            EmbeddingCache(6, num_layers=1, max_rows=0)

    def test_evicts_down_to_bound(self):
        cache = self._cache()
        assert cache.maybe_evict() == 3  # 6 resident rows, bound is 3
        assert cache.num_evicted == 3
        assert cache.rows_evicted == 3
        assert cache.evictions == 1
        # eviction is lazy: victims are NOT queued for recompute
        assert cache.num_dirty == 0
        # and a repeat pass has nothing further to trim
        assert cache.maybe_evict() == 0

    def test_least_recently_read_go_first(self):
        cache = self._cache()
        cache.touch(np.array([4]))
        cache.touch(np.array([1]))
        cache.touch(np.array([5]))
        cache.maybe_evict()
        # the unread rows (0, 2, 3) were evicted; read rows survive
        np.testing.assert_array_equal(cache.evicted, [0, 2, 3])

    def test_read_reloads_evicted_row(self):
        cache = self._cache()
        cache.touch(np.array([4, 1, 5]))
        cache.maybe_evict()
        cache.touch(np.array([2]))  # cache miss on an evicted row
        np.testing.assert_array_equal(cache.dirty, [2])
        np.testing.assert_array_equal(cache.evicted, [0, 3])
        assert cache.rows_reloaded == 1

    def test_invalidation_reclaims_evicted_rows(self):
        """Exactness invariant: a victim inside an invalidation cone
        must rejoin the dirty set (its stored layer outputs feed other
        dirty rows' aggregations)."""
        cache = self._cache()
        cache.touch(np.array([4, 1, 5]))
        cache.maybe_evict()  # 0, 2, 3 evicted
        cache.invalidate(PATH, np.array([1]))  # cone covers 0..2
        assert 0 in cache.dirty and 2 in cache.dirty
        np.testing.assert_array_equal(cache.evicted, [3])

    def test_dirty_rows_do_not_count_as_resident(self):
        cache = self._cache(max_rows=4)
        cache.mark_within(np.array([0, 1]), np.zeros(2, dtype=np.int8))
        # 4 resident rows, bound 4: nothing to evict
        assert cache.maybe_evict() == 0

    def test_eviction_preserves_server_exactness(self):
        """A server with a tiny resident budget serves identical scores
        to an unbounded one — eviction trades recompute, not accuracy."""
        from repro.graph import AMLSimConfig, generate_amlsim
        from repro.models import build_model
        from repro.nn.linear import Linear
        from repro.serve import ModelServer, events_between

        dtdg = generate_amlsim(AMLSimConfig(
            num_accounts=80, num_timesteps=6, background_per_step=120,
            partner_persistence=0.85, seed=5)).dtdg

        def boot(max_rows):
            model = build_model("cdgcn", in_features=2, seed=0)
            fraud = Linear(model.embed_dim, 2, np.random.default_rng(7))
            return ModelServer(model, dtdg[0], fraud_head=fraud,
                               cache_max_rows=max_rows)

        bounded, unbounded = boot(16), boot(None)
        worst = 0.0
        for t in range(1, 6):
            for srv in (bounded, unbounded):
                srv.advance_time()
                srv.ingest_events(events_between(dtdg[t - 1], dtdg[t]))
            # more distinct reads per step than the 16-row budget holds
            # (the original three among them), so a read misses whatever
            # order the flushes clean rows in
            for v in (*range(0, 80, 4), 79):
                a = bounded.submit_fraud(v)
                b = unbounded.submit_fraud(v)
                bounded.drain()
                unbounded.drain()
                worst = max(worst, abs(a.result - b.result))
        assert worst < 1e-9
        assert bounded.counters.rows_evicted > 0
        assert unbounded.counters.rows_evicted == 0
        # bounded memory is paid for in recompute
        assert bounded.counters.rows_recomputed > \
            unbounded.counters.rows_recomputed

    def test_evicted_row_in_dirty_frontier_recomputes_not_stale(self):
        """The LRU ∩ dirty-frontier corner: evict a row, dirty it via
        an event touching its neighborhood, then read it — the refresh
        must recompute the row against the *new* topology, never serve
        the value cached before eviction."""
        from repro.graph import AMLSimConfig, generate_amlsim
        from repro.models import build_model
        from repro.serve import EdgeEvent, ModelServer

        dtdg = generate_amlsim(AMLSimConfig(
            num_accounts=60, num_timesteps=4, background_per_step=150,
            partner_persistence=0.85, seed=9)).dtdg
        model = build_model("cdgcn", in_features=2, seed=0)
        server = ModelServer(model, dtdg[0], cache_max_rows=8)
        server.advance_time()  # boundary eviction trims to the budget
        victim = 7
        # with untouched recency clocks the stable LRU evicts the
        # lowest row ids first — the victim is out of the resident set
        assert victim in server.cache.evicted
        stale = server.engine.embeddings[victim].copy()
        # an event incident to the victim pulls it into the dirty
        # frontier (and must reclaim it from the evicted set)
        server.ingest_events([EdgeEvent(victim, 3, "add", 5.0),
                              EdgeEvent(12, victim, "add", 2.0)])
        assert victim in server.cache.dirty
        assert victim not in server.cache.evicted
        reloaded_before = server.cache.rows_reloaded
        a = server.submit_link(victim, 3)
        server.drain()
        served = server.engine.embeddings[victim].copy()
        # reference: full recompute of the same resident state
        server.cache.invalidate_all()
        server.engine.refresh()
        np.testing.assert_allclose(served,
                                   server.engine.embeddings[victim],
                                   atol=1e-12)
        # the row really changed (a stale serve would be detectable)
        assert not np.allclose(served, stale)
        assert a.done
        # reloads are only counted for evicted-row cache misses; the
        # reclaim path recomputed through the dirty set instead
        assert server.cache.rows_reloaded == reloaded_before

    def test_eviction_counters_surface_in_stats(self):
        from repro.graph import AMLSimConfig, generate_amlsim
        from repro.models import build_model
        from repro.serve import ModelServer, events_between

        dtdg = generate_amlsim(AMLSimConfig(
            num_accounts=60, num_timesteps=4, background_per_step=90,
            seed=2)).dtdg
        model = build_model("cdgcn", in_features=2, seed=0)
        server = ModelServer(model, dtdg[0], cache_max_rows=10)
        server.advance_time()
        server.ingest_events(events_between(dtdg[0], dtdg[1]))
        server.submit_link(0, 1)
        server.drain()
        stats = server.stats()
        assert stats.counters.evictions >= 1
        assert stats.counters.rows_evicted >= 1
        assert stats.counters.rows_evicted == server.cache.rows_evicted
