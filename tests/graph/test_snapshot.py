"""Tests for GraphSnapshot and canonical edge handling."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import DatasetError
from repro.graph import GraphSnapshot, canonical_edges
from repro.graph.snapshot import count_common_edges, sorted_unique


class TestCanonicalEdges:
    def test_sorts_lexicographically(self):
        edges = np.array([[2, 0], [0, 1], [1, 1]])
        out = canonical_edges(edges)
        np.testing.assert_array_equal(out, [[0, 1], [1, 1], [2, 0]])

    def test_deduplicates(self):
        edges = np.array([[0, 1], [0, 1], [1, 2]])
        assert len(canonical_edges(edges)) == 2

    def test_empty(self):
        assert len(canonical_edges(np.empty((0, 2), dtype=np.int64))) == 0

    @given(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)),
                    max_size=40))
    @settings(max_examples=40, deadline=None)
    def test_idempotent_and_set_preserving(self, pairs):
        edges = np.array(pairs, dtype=np.int64).reshape(-1, 2)
        once = canonical_edges(edges)
        twice = canonical_edges(once)
        np.testing.assert_array_equal(once, twice)
        assert set(map(tuple, once.tolist())) == set(pairs)


class TestGraphSnapshot:
    def test_basic_construction(self):
        s = GraphSnapshot(4, [[0, 1], [2, 3]])
        assert s.num_vertices == 4
        assert s.num_edges == 2

    def test_rejects_out_of_range_edges(self):
        with pytest.raises(DatasetError):
            GraphSnapshot(2, [[0, 5]])

    def test_rejects_negative_vertices(self):
        with pytest.raises(DatasetError):
            GraphSnapshot(0, [])

    def test_default_values_are_ones(self):
        s = GraphSnapshot(3, [[0, 1], [1, 2]])
        np.testing.assert_array_equal(s.values, [1.0, 1.0])

    def test_values_follow_canonical_order(self):
        # raw order (1,0) then (0,2); canonical order flips them
        s = GraphSnapshot(3, [[1, 0], [0, 2]], values=[7.0, 5.0])
        np.testing.assert_array_equal(s.edges, [[0, 2], [1, 0]])
        np.testing.assert_array_equal(s.values, [5.0, 7.0])

    def test_duplicate_edges_sum_values(self):
        s = GraphSnapshot(3, [[0, 1], [0, 1]], values=[2.0, 3.0])
        assert s.num_edges == 1
        np.testing.assert_array_equal(s.values, [5.0])

    def test_duplicates_sum_in_input_order(self):
        # float addition is not associative: (1e16 + 1) - 1e16 == 0 but
        # (1e16 - 1e16) + 1 == 1, so the merge order is observable
        edges = [[2, 1], [0, 1], [0, 1], [0, 1]]
        s = GraphSnapshot(3, edges, values=[4.0, 1e16, 1.0, -1e16])
        np.testing.assert_array_equal(s.edges, [[0, 1], [2, 1]])
        np.testing.assert_array_equal(s.values, [(1e16 + 1.0) - 1e16, 4.0])

    def test_canonical_input_is_not_sorted_again(self, monkeypatch):
        edges = np.array([[0, 1], [0, 2], [2, 0]])
        values = np.array([3.0, 4.0, 5.0])

        def no_sort(*args, **kwargs):
            raise AssertionError("sorted an already canonical edge list")
        for name in ("argsort", "lexsort", "sort"):
            monkeypatch.setattr(np, name, no_sort)
        s = GraphSnapshot(3, edges, values)
        np.testing.assert_array_equal(s.edges, edges)
        np.testing.assert_array_equal(s.values, values)
        assert np.shares_memory(GraphSnapshot(3, s.edges, values * 2).edges,
                                edges)
        with pytest.raises(AssertionError):
            GraphSnapshot(3, edges[::-1])

    def test_value_length_mismatch(self):
        with pytest.raises(DatasetError):
            GraphSnapshot(3, [[0, 1]], values=[1.0, 2.0, 3.0])

    def test_from_canonical_verifies_instead_of_sorting(self):
        edges = np.array([[0, 1], [0, 2], [2, 0]])
        values = np.ones(3)
        s = GraphSnapshot.from_canonical(3, edges, values)
        assert s.edges is edges and s.values is values
        assert s == GraphSnapshot(3, edges)
        np.testing.assert_array_equal(s.keys, [1, 2, 6])
        for bad in (edges[::-1], edges[[0, 0, 1]], edges + 3):
            with pytest.raises(DatasetError):
                GraphSnapshot.from_canonical(3, bad, values)

    def test_equality_is_exact_in_the_values(self):
        """One ulp on one edge value is another graph (a store or a
        mirror that is almost the resident is not the resident)."""
        a = GraphSnapshot(4, [[0, 1], [2, 3]], [1.5, 0.1])
        values = a.values.copy()
        values[1] = np.nextafter(values[1], 1.0)
        assert a == GraphSnapshot(4, [[0, 1], [2, 3]], [1.5, 0.1])
        assert not a == GraphSnapshot(4, a.edges, values)

    def test_adjacency_matches_edges(self):
        s = GraphSnapshot(3, [[0, 1], [2, 0]], values=[2.0, 4.0])
        dense = s.adjacency().csr.toarray()
        expected = np.zeros((3, 3))
        expected[0, 1] = 2.0
        expected[2, 0] = 4.0
        np.testing.assert_array_equal(dense, expected)

    def test_adjacency_cached(self):
        s = GraphSnapshot(3, [[0, 1]])
        assert s.adjacency() is s.adjacency()

    def test_degrees(self):
        s = GraphSnapshot(3, [[0, 1], [0, 2], [1, 2]])
        np.testing.assert_array_equal(s.out_degrees(), [2.0, 1.0, 0.0])
        np.testing.assert_array_equal(s.in_degrees(), [0.0, 1.0, 2.0])

    def test_degrees_empty_graph(self):
        s = GraphSnapshot(3, np.empty((0, 2), dtype=np.int64))
        np.testing.assert_array_equal(s.out_degrees(), np.zeros(3))

    def test_byte_accounting(self):
        # int64 index pairs (16 B/edge) + float32 wire values (4 B/edge)
        s = GraphSnapshot(5, [[0, 1], [1, 2], [3, 4]])
        assert s.index_nbytes == 3 * 16
        assert s.value_nbytes == 3 * 4
        assert s.nbytes == 3 * 20

    def test_equality(self):
        a = GraphSnapshot(3, [[0, 1]])
        b = GraphSnapshot(3, [[0, 1]])
        c = GraphSnapshot(3, [[0, 2]])
        assert a == b
        assert a != c


class TestOverlap:
    def test_identical_snapshots(self):
        a = GraphSnapshot(4, [[0, 1], [1, 2]])
        assert a.topology_overlap(a) == 1.0

    def test_disjoint_snapshots(self):
        a = GraphSnapshot(4, [[0, 1]])
        b = GraphSnapshot(4, [[2, 3]])
        assert a.topology_overlap(b) == 0.0

    def test_partial_overlap(self):
        a = GraphSnapshot(4, [[0, 1], [1, 2]])
        b = GraphSnapshot(4, [[0, 1], [2, 3]])
        assert a.topology_overlap(b) == pytest.approx(1.0 / 3.0)

    def test_both_empty(self):
        empty = np.empty((0, 2), dtype=np.int64)
        a = GraphSnapshot(4, empty)
        b = GraphSnapshot(4, empty)
        assert a.topology_overlap(b) == 1.0

    def test_count_common_edges(self):
        a = canonical_edges(np.array([[0, 1], [1, 2], [2, 3]]))
        b = canonical_edges(np.array([[1, 2], [2, 3], [3, 0]]))
        assert count_common_edges(a, b) == 2

    @given(st.sets(st.tuples(st.integers(0, 7), st.integers(0, 7)),
                   max_size=20),
           st.sets(st.tuples(st.integers(0, 7), st.integers(0, 7)),
                   max_size=20))
    @settings(max_examples=40, deadline=None)
    def test_common_edges_matches_set_intersection(self, sa, sb):
        ea = canonical_edges(np.array(sorted(sa), dtype=np.int64).reshape(-1, 2))
        eb = canonical_edges(np.array(sorted(sb), dtype=np.int64).reshape(-1, 2))
        assert count_common_edges(ea, eb) == len(sa & sb)


_int64 = st.integers(np.iinfo(np.int64).min, np.iinfo(np.int64).max)


@settings(max_examples=200, deadline=None)
@given(st.one_of(
    st.lists(st.integers(-3, 3), max_size=40),           # crowded
    st.lists(_int64, max_size=40),                        # full range
    st.tuples(_int64, st.integers(0, 30)).map(            # all equal
        lambda vc: [vc[0]] * vc[1])))
def test_sorted_unique_is_unique(ids):
    """The sort-based id set equals ``np.unique`` (empty, length-1 and
    all-equal arrays included), dtype and all, and leaves its input
    alone."""
    ids = np.array(ids, dtype=np.int64)
    before = ids.copy()
    got = sorted_unique(ids)
    want = np.unique(ids)
    np.testing.assert_array_equal(got, want)
    assert got.dtype == want.dtype and got.shape == want.shape
    np.testing.assert_array_equal(ids, before)
    # 2-D input flattens, as np.unique's does
    np.testing.assert_array_equal(sorted_unique(ids.reshape(-1, 1)), want)
