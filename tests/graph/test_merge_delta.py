"""The sorted-key merge against the code it replaced (ROADMAP item 3).

``tests.helpers`` keeps the old ingest path — re-sort the edge list on
every commit, ``diff_snapshots(prev, curr)`` to re-derive the delta,
``setdiff1d`` + re-canonicalization in every mirror — as oracles.  The
live path (event fold → ``fold_delta`` → ``merge_delta``; ``apply_diff``
on the same merge) must reproduce them bit for bit.
"""

import pickle
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import DatasetError
from repro.graph import GraphSnapshot, apply_diff
from repro.graph.diff import (SnapshotDiff, _checksum, edge_checksum,
                              merge_delta)
from repro.graph.inc_laplacian import (LaplacianMaintainer,
                                      diff_touched_vertices)
from repro.serve.ingest import EdgeEvent, StreamIngestor, fold_event_batch
from repro.store.codec import decode_diff, encode_diff
from repro.tensor.backend import available_backends
from tests.helpers import oracle_apply_diff, oracle_fold_event_batch

N = 5
CLEAR = "clear"     # a batch entry: remove every resident edge

_vertex = st.integers(0, N - 1)
_op = st.sampled_from(["add", "add", "remove"])
# 1e16 + 1.0 − 1e16 is 0.0 left to right and 1.0 in any other order, and
# 0.0 + −0.0 is +0.0: a fold that sums out of event order, or not from
# 0.0, reads a different bit pattern
_ordered = st.sampled_from([1e16, 1.0, -1e16, -0.0])
_event = st.tuples(_vertex, _vertex, _op,
                   st.sampled_from([0.0, 0.1, 0.5, 1.0, 2.0, 3.25])
                   | _ordered)
_batch = st.lists(st.one_of(_event, st.just(CLEAR)), max_size=12)
_initial = st.lists(st.tuples(_vertex, _vertex, st.sampled_from([1.0, 0.3])),
                    max_size=10)


def _events(batch, resident):
    out = []
    for entry in batch:
        if entry == CLEAR:
            out += [EdgeEvent(int(u), int(v), "remove")
                    for u, v in resident.edges]
        else:
            out.append(EdgeEvent(*entry))
    return out


def _assert_same_snapshot(got, want):
    assert got.num_vertices == want.num_vertices
    np.testing.assert_array_equal(got.edges, want.edges)
    np.testing.assert_array_equal(got.values, want.values)
    assert got.edges.dtype == want.edges.dtype == np.int64
    assert got.edges.shape == want.edges.shape      # (0, 2) when empty


def _assert_same_diff(got, want):
    for name in ("removed", "added", "added_values", "changed_pos",
                 "changed_values"):
        a, b = getattr(got, name), getattr(want, name)
        np.testing.assert_array_equal(a, b)
        assert a.dtype == b.dtype and a.shape == b.shape, name
    assert got.changed_pos.dtype == np.int64
    assert got.base_checksum == want.base_checksum
    assert got.nnz == want.nnz
    assert got.payload_nbytes == want.payload_nbytes


def _assert_degrees_from_scratch(maintainer, snap):
    """The maintainer's degree features and ``D^-1/2`` against in/out
    degrees recounted from the edge list."""
    n = snap.num_vertices
    in_deg = np.bincount(snap.edges[:, 1], minlength=n).astype(np.float64)
    out_deg = np.bincount(snap.edges[:, 0], minlength=n).astype(np.float64)
    features = maintainer.degree_features
    assert features.dtype == np.float64
    np.testing.assert_array_equal(features,
                                  np.stack([in_deg, out_deg], axis=1))
    np.testing.assert_array_equal(
        maintainer.dinv, 1.0 / np.sqrt(1.0 + np.maximum(out_deg, in_deg)))


@settings(max_examples=120, deadline=None)
@given(_initial, st.lists(_batch, min_size=1, max_size=6))
def test_fold_and_apply_match_the_oracles(initial, batches):
    """Adds, accumulating re-adds, removes, absent removes, remove+add
    replacement, add+remove cancellation, self-loops, duplicates inside
    one batch, empty batches, weighted values, first/last-key
    insertions and removal of every edge (N is small, so all of them
    collide constantly)."""
    first = GraphSnapshot(
        N, np.array([e[:2] for e in initial], dtype=np.int64).reshape(-1, 2),
        np.array([e[2] for e in initial]))
    resident = first
    maintainer = LaplacianMaintainer(first)
    # the one source of degree features, on every update path of every
    # available kernel backend: folded delta, store-decoded delta,
    # wrong-base delta (guarded fallback), diff=None rebase
    paths = {name: {path: LaplacianMaintainer(first, backend=name)
                    for path in ("folded", "decoded", "fallback", "rebase")}
             for name in available_backends()}
    for step, batch in enumerate(batches):
        events = _events(batch, resident)
        want, want_touched, want_diff = oracle_fold_event_batch(
            resident, events)
        curr, touched, diff = fold_event_batch(resident, events)

        _assert_same_snapshot(curr, want)
        _assert_same_diff(diff, want_diff)
        np.testing.assert_array_equal(touched, want_touched)
        # the carried checksum is the from-scratch checksum
        assert curr._mix is not None
        assert edge_checksum(curr) == _checksum(curr.edges, N)
        # the delta replays onto a mirror, on either implementation
        _assert_same_snapshot(apply_diff(resident, diff), want)
        _assert_same_snapshot(oracle_apply_diff(resident, diff), want)
        _assert_same_snapshot(apply_diff(resident, want_diff), want)

        maintainer.update(curr, diff)
        decoded, decoded_curr, _ = decode_diff(
            encode_diff(resident, curr, diff, step), resident)
        # the store holds the delta in the form the fold wrote it
        _assert_same_diff(decoded, diff)
        _assert_same_snapshot(decoded_curr, want)
        seeds = diff_touched_vertices(diff, curr)
        np.testing.assert_array_equal(
            diff_touched_vertices(decoded, decoded_curr), seeds)
        assert np.isin(seeds, touched).all()
        wrong_base = replace(diff, base_checksum=diff.base_checksum ^ 1)
        for by_path in paths.values():
            by_path["folded"].update(curr, diff)
            by_path["decoded"].update(decoded_curr, decoded)
            by_path["fallback"].update(curr, wrong_base)
            by_path["rebase"].update(curr, None)
            for m in by_path.values():
                _assert_degrees_from_scratch(m, curr)
        resident = curr

    for by_path in paths.values():
        assert by_path["folded"].fallbacks == 0
        assert by_path["decoded"].fallbacks == 0
        assert by_path["folded"].full_rebuilds == 1
        assert by_path["decoded"].full_rebuilds == 1
        assert by_path["fallback"].incremental_updates == 0
        assert by_path["rebase"].incremental_updates == 0
    rebuilt = LaplacianMaintainer(resident).laplacian.csr
    live = maintainer.laplacian.csr
    assert maintainer.fallbacks == 0
    for name in ("data", "indices", "indptr"):
        np.testing.assert_array_equal(getattr(live, name),
                                      getattr(rebuilt, name))


def _assert_same_bits(got, want):
    """Snapshots equal value bit for value bit (``-0.0`` is not ``0.0``)."""
    _assert_same_snapshot(got, want)
    np.testing.assert_array_equal(got.values.view(np.int64),
                                  want.values.view(np.int64))


_small = st.integers(0, 2)     # three vertices: keys and self-loops collide


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_small, _small, _op, _ordered), max_size=16),
       st.lists(st.tuples(_small, _small), max_size=4))
def test_fold_sums_each_key_in_event_order(batch, initial):
    """The columnar fold against the per-event dict fold on one crowded
    key space: order-dependent sums, remove→add and add→remove on one
    key, removes of absent edges, self-loops — values compared bit for
    bit, the delta field for field."""
    base = GraphSnapshot(3, np.array(initial, dtype=np.int64).reshape(-1, 2),
                         np.full(len(initial), 1.0))
    events = [EdgeEvent(*entry) for entry in batch]
    want, want_touched, want_diff = oracle_fold_event_batch(base, events)
    curr, touched, diff = fold_event_batch(base, events)
    _assert_same_bits(curr, want)
    _assert_same_diff(diff, want_diff)
    np.testing.assert_array_equal(diff.added_values.view(np.int64),
                                  want_diff.added_values.view(np.int64))
    np.testing.assert_array_equal(touched, want_touched)
    assert touched.dtype == np.int64


@pytest.mark.parametrize("events, value", [
    ([("add", 1e16), ("add", 1.0), ("add", -1e16)], 0.0),
    ([("add", 1.0), ("add", 1e16), ("add", -1e16)], 0.0),
    ([("add", 1e16), ("add", -1e16), ("add", 1.0)], 1.0),
    ([("add", -0.0)], 0.0),
    ([("add", 5.0), ("remove", 0.0), ("add", 2.0)], 2.0),   # remove→add
    ([("add", 5.0), ("remove", 0.0)], None),                # add→remove
    ([("remove", 0.0)], None),                              # absent
], ids=["sum-left-to-right", "small-first", "cancel-first", "minus-zero",
        "remove-add", "add-remove", "absent-remove"])
@pytest.mark.parametrize("edge", [(1, 2), (3, 3)], ids=["edge", "self-loop"])
def test_fold_value_of_one_key(events, value, edge):
    base = _snap([[0, 1]])
    curr, touched, _ = fold_event_batch(
        base, [EdgeEvent(*edge, op, v) for op, v in events])
    want = oracle_fold_event_batch(
        base, [EdgeEvent(*edge, op, v) for op, v in events])[0]
    _assert_same_bits(curr, want)
    at = np.flatnonzero((curr.edges == edge).all(axis=1))
    if value is None:
        assert len(at) == 0
    else:
        assert curr.values[at].view(np.int64).tolist() == \
            np.array([value]).view(np.int64).tolist()
    assert touched.tolist() == sorted(set(edge))


def _snap(pairs, values=None, n=N):
    return GraphSnapshot(n, np.array(pairs, dtype=np.int64).reshape(-1, 2),
                         values)


class TestCarriedChecksum:
    def test_wrong_base_still_rejected(self):
        """A delta against another base is refused by ``apply_diff`` and
        forces a maintainer fallback, carried checksum or not."""
        base = _snap([[0, 1], [1, 2], [3, 4]])
        other = _snap([[0, 1], [1, 2], [2, 4]])
        curr, _, diff = fold_event_batch(base, [EdgeEvent(2, 2)])
        edge_checksum(other)        # the mirror's mix is cached, too
        with pytest.raises(DatasetError, match="not the base"):
            apply_diff(other, diff)
        maintainer = LaplacianMaintainer(other)
        maintainer.update(curr, diff)
        assert maintainer.fallbacks == 1
        np.testing.assert_array_equal(
            maintainer.laplacian.csr.data,
            LaplacianMaintainer(curr).laplacian.csr.data)

    def test_edge_count_mismatch_still_rejected(self):
        base = _snap([[0, 1], [1, 2]])
        _, _, diff = fold_event_batch(base, [EdgeEvent(2, 3)])
        with pytest.raises(DatasetError, match="edges for"):
            apply_diff(base, replace(diff, nnz=diff.nnz - 1))

    def test_value_fields_are_checked_before_anything_moves(self):
        """Lengths, changed positions inside ``[0, nnz)`` and a repeated
        added edge are refused with the resident untouched."""
        base = _snap([[0, 1], [1, 2]], values=[2.0, 3.0])
        _, _, diff = fold_event_batch(base, [EdgeEvent(2, 3, "add", 4.0),
                                             EdgeEvent(0, 1, "add", 1.0)])
        assert list(diff.changed_pos) == [0]
        bad = [replace(diff, added_values=diff.added_values[:0]),
               replace(diff, changed_values=diff.changed_values[:0]),
               replace(diff, changed_pos=np.array([diff.nnz])),
               replace(diff, changed_pos=np.array([-1])),
               replace(diff, added=np.repeat(diff.added, 2, axis=0),
                       added_values=np.repeat(diff.added_values, 2),
                       nnz=diff.nnz + 1)]
        for wrong in bad:
            with pytest.raises(DatasetError):
                apply_diff(base, wrong)
            maintainer = LaplacianMaintainer(base)
            maintainer.update(apply_diff(base, diff), wrong)
            assert maintainer.fallbacks == 1
        np.testing.assert_array_equal(base.values, [2.0, 3.0])
        assert base.num_edges == 2

    def test_chain_of_commits_carries_the_mix(self):
        rng = np.random.default_rng(0)
        ing = StreamIngestor(_snap([[0, 1]], n=40))
        for _ in range(25):
            result = ing.commit([
                EdgeEvent(int(u), int(v), "add" if add else "remove", 1.5)
                for u, v, add in zip(rng.integers(40, size=30),
                                     rng.integers(40, size=30),
                                     rng.random(30) < 0.6)])
            assert result.snapshot._mix is not None
            assert edge_checksum(result.snapshot) == \
                _checksum(result.snapshot.edges, 40)


class TestMergeContract:
    def test_inputs_are_verified_not_sorted(self):
        base = _snap([[0, 1], [1, 2], [3, 4]])
        none = np.empty(0, dtype=np.int64)
        with pytest.raises(DatasetError):      # removes an absent edge
            merge_delta(base, np.array([2]), none, none)
        with pytest.raises(DatasetError):      # adds a resident edge
            merge_delta(base, none, np.array([1]), np.array([1.0]))
        with pytest.raises(DatasetError):      # delta keys out of order
            merge_delta(base, none, np.array([9, 3]), np.array([1.0, 1.0]))
        with pytest.raises(DatasetError):      # key outside the vertex set
            merge_delta(base, none, np.array([N * N]), np.array([1.0]))

    def test_result_never_aliases_the_base(self):
        base = _snap([[0, 1], [1, 2]], values=[2.0, 3.0])
        curr, _, _ = fold_event_batch(base, [EdgeEvent(0, 1, "add", 1.0)])
        np.testing.assert_array_equal(base.values, [2.0, 3.0])
        np.testing.assert_array_equal(curr.values, [3.0, 3.0])

    def test_unsorted_wire_delta_is_accepted(self):
        """``apply_diff`` sorts a delta-sized edge list that arrives out
        of order, its values with it (the graph itself is never
        sorted); the maintainer takes the same delta incrementally."""
        base = _snap([[0, 1], [3, 4]], values=[2.0, 5.0])
        target = _snap([[0, 1], [1, 1], [2, 0], [3, 4]],
                       values=[2.0, 7.5, 0.25, 6.0])
        diff = SnapshotDiff(removed=np.empty((0, 2), dtype=np.int64),
                            added=np.array([[2, 0], [1, 1]]),
                            added_values=np.array([0.25, 7.5]),
                            changed_pos=np.array([3]),
                            changed_values=np.array([6.0]),
                            base_checksum=edge_checksum(base), nnz=4)
        assert apply_diff(base, diff) == target
        maintainer = LaplacianMaintainer(base)
        maintainer.update(target, diff)
        assert maintainer.incremental_updates == 1
        np.testing.assert_array_equal(
            maintainer.laplacian.csr.data,
            LaplacianMaintainer(target).laplacian.csr.data)

    def test_pickle_ships_the_graph_not_the_caches(self):
        base = _snap([[0, 1], [1, 2], [3, 4]])
        cold = len(pickle.dumps(base))
        base.keys, edge_checksum(base), base.adjacency()
        assert len(pickle.dumps(base)) == cold
        clone = pickle.loads(pickle.dumps(base))
        assert clone == base and clone._keys is None and clone._adj is None
