"""The truncated BFS against its strided-view oracle.

``undirected_distances`` feeds the cache's k-hop invalidation, the
dirty-frontier expansion and every shard's halo rebuild; it reads the
edge list through contiguous endpoint columns taken once per call.
``tests/helpers.py::oracle_undirected_distances`` is the same BFS over
the strided ``(E, 2)`` views, and the two must agree everywhere.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.graph.traversal import undirected_distances
from tests.helpers import oracle_undirected_distances


@st.composite
def _graphs(draw):
    n = draw(st.integers(1, 40))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                    st.integers(0, n - 1)), max_size=120))
    edges = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    seeds = np.array(draw(st.lists(st.integers(0, n - 1), max_size=6)),
                     dtype=np.int64)
    return n, edges, seeds, draw(st.integers(0, 4))


@settings(max_examples=300, deadline=None)
@given(graph=_graphs())
def test_distances_equal_the_strided_oracle(graph):
    n, edges, seeds, hops = graph
    before = edges.copy()
    got = undirected_distances(n, edges, seeds, hops)
    np.testing.assert_array_equal(
        got, oracle_undirected_distances(n, edges, seeds, hops))
    assert got.dtype == np.int64
    np.testing.assert_array_equal(edges, before)


def test_a_path_and_an_unreachable_vertex():
    edges = np.array([[0, 1], [2, 1], [2, 3], [3, 4]], dtype=np.int64)
    dist = undirected_distances(6, edges, np.array([0]), 3)
    np.testing.assert_array_equal(dist, [0, 1, 2, 3, 4, 4])
