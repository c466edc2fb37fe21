"""LaplacianMaintainer: exactness, edge cases, checksum fallback.

The maintainer's contract is *bit-compatibility* with
:func:`repro.graph.laplacian.laplacian_from_adjacency` — incremental
operator maintenance must be indistinguishable from a full rebuild,
for every diff shape the serving and training tiers can produce.
"""

import numpy as np
import pytest

from repro.errors import DatasetError
from repro.graph import (GraphSnapshot, LaplacianMaintainer, diff_snapshots,
                         encode_sequence, evolving_dtdg,
                         normalized_laplacian)
from repro.graph.diff import SnapshotDiff, _checksum
from repro.store.codec import decode_diff, encode_diff
from tests.helpers import all_backends_fixture

# the maintainer's bit-compatibility contract must hold on every
# available kernel backend: this module is the conformance suite for
# the degree/splice/rescale primitives
kernel_backend = all_backends_fixture()


def assert_bitwise(maintainer, snapshot):
    """Maintained Ã must equal a fresh full rebuild bit-for-bit."""
    got = maintainer.export().csr
    ref = normalized_laplacian(snapshot).csr
    np.testing.assert_array_equal(got.indptr, ref.indptr)
    np.testing.assert_array_equal(got.indices, ref.indices)
    np.testing.assert_array_equal(got.data, ref.data)


class TestStreaming:
    def test_streamed_timeline_is_bit_exact(self):
        dtdg = evolving_dtdg(num_vertices=120, num_timesteps=10,
                             edges_per_snapshot=500, churn=0.25, seed=7)
        first, diffs = encode_sequence(dtdg.snapshots)
        m = LaplacianMaintainer(first)
        for snap, diff in zip(dtdg.snapshots[1:], diffs):
            m.update(snap, diff)
            assert_bitwise(m, snap)
        assert m.incremental_updates == dtdg.num_timesteps - 1
        assert m.full_rebuilds == 1  # only the initial install
        assert m.fallbacks == 0

    def test_no_hint_path_is_bit_exact(self):
        """Diffs decoded from the store take the same incremental path
        as the encoder's; same answer, no fallback."""
        dtdg = evolving_dtdg(num_vertices=80, num_timesteps=6,
                             edges_per_snapshot=300, churn=0.3, seed=3)
        first, diffs = encode_sequence(dtdg.snapshots)
        m = LaplacianMaintainer(first)
        prev = first
        for step, (snap, diff) in enumerate(zip(dtdg.snapshots[1:], diffs)):
            decoded, curr, _ = decode_diff(
                encode_diff(prev, snap, diff, step), prev)
            m.update(curr, decoded)
            assert_bitwise(m, snap)
            prev = curr
        assert m.incremental_updates == len(diffs)
        assert m.fallbacks == 0

    def test_maintained_checksum_tracks_resident(self):
        dtdg = evolving_dtdg(num_vertices=60, num_timesteps=5,
                             edges_per_snapshot=200, churn=0.4, seed=1)
        first, diffs = encode_sequence(dtdg.snapshots)
        m = LaplacianMaintainer(first)
        assert m.base_checksum == _checksum(first.edges, 60)
        for snap, diff in zip(dtdg.snapshots[1:], diffs):
            m.update(snap, diff)
            assert m.base_checksum == _checksum(snap.edges, 60)

    def test_same_snapshot_is_noop(self):
        snap = GraphSnapshot(5, [[0, 1], [1, 2]])
        m = LaplacianMaintainer(snap)
        lap = m.laplacian
        m.update(snap)  # advance over an unchanged resident
        assert m.laplacian is lap
        assert m.full_rebuilds == 1

    def test_none_diff_rebuilds(self):
        a = GraphSnapshot(5, [[0, 1], [1, 2]])
        b = GraphSnapshot(5, [[0, 1], [2, 3]])
        m = LaplacianMaintainer(a)
        m.update(b, None)
        assert m.full_rebuilds == 2
        assert_bitwise(m, b)

    def test_vertex_set_must_stay_fixed(self):
        m = LaplacianMaintainer(GraphSnapshot(4, [[0, 1]]))
        with pytest.raises(DatasetError):
            m.update(GraphSnapshot(5, [[0, 1]]))


class TestEdgeCases:
    def test_empty_diff(self):
        base = GraphSnapshot(6, [[0, 1], [1, 2], [3, 4]])
        same = GraphSnapshot(6, base.edges, base.values)
        m = LaplacianMaintainer(base)
        m.update(same, diff_snapshots(base, same))
        assert m.incremental_updates == 1
        assert_bitwise(m, same)

    def test_degree_drops_to_zero(self):
        base = GraphSnapshot(5, [[0, 1], [1, 2], [3, 1]])
        # vertex 3 loses its only edge; its D entry returns to 1
        nxt = GraphSnapshot(5, [[0, 1], [1, 2]])
        m = LaplacianMaintainer(base)
        m.update(nxt, diff_snapshots(base, nxt))
        assert_bitwise(m, nxt)
        assert m.dinv[3] == 1.0

    def test_weighted_value_changes_only(self):
        edges = [[0, 1], [1, 2], [2, 0], [2, 2]]
        base = GraphSnapshot(4, edges, [1.0, 2.0, 3.0, 4.0])
        nxt = GraphSnapshot(4, edges, [1.0, 5.5, 3.0, 0.25])
        m = LaplacianMaintainer(base)
        m.update(nxt, diff_snapshots(base, nxt))
        assert m.incremental_updates == 1
        assert_bitwise(m, nxt)

    def test_diff_removes_every_edge(self):
        base = GraphSnapshot(5, [[0, 1], [1, 2], [2, 2], [3, 4]])
        empty = GraphSnapshot(5, np.empty((0, 2), dtype=np.int64))
        m = LaplacianMaintainer(base)
        m.update(empty, diff_snapshots(base, empty))
        assert m.incremental_updates == 1
        assert_bitwise(m, empty)  # Ã of the empty graph is I
        # and the resident can be refilled incrementally afterwards
        refill = GraphSnapshot(5, [[4, 0], [0, 0]])
        m.update(refill, diff_snapshots(empty, refill))
        assert_bitwise(m, refill)

    def test_self_loop_add_remove_and_value_change(self):
        a = GraphSnapshot(4, [[0, 1], [1, 1]], [1.0, 2.0])
        b = GraphSnapshot(4, [[0, 1], [2, 2]], [1.0, 9.0])
        c = GraphSnapshot(4, [[0, 1], [2, 2]], [1.0, 0.5])
        m = LaplacianMaintainer(a)
        m.update(b, diff_snapshots(a, b))
        assert_bitwise(m, b)
        m.update(c, diff_snapshots(b, c))
        assert_bitwise(m, c)
        assert m.incremental_updates == 2

    def test_checksum_mismatch_falls_back_to_rebuild(self):
        base = GraphSnapshot(6, [[0, 1], [1, 2]])
        other = GraphSnapshot(6, [[3, 4]])
        target = GraphSnapshot(6, [[3, 4], [4, 5]])
        m = LaplacianMaintainer(base)
        # a diff encoded against a different base must not be applied
        m.update(target, diff_snapshots(other, target))
        assert m.fallbacks == 1
        assert m.full_rebuilds == 2
        assert_bitwise(m, target)

    def test_inconsistent_counts_fall_back(self):
        base = GraphSnapshot(6, [[0, 1], [1, 2]])
        target = GraphSnapshot(6, [[0, 1], [1, 2], [2, 3]])
        # handcrafted diff whose counts cannot reproduce the target
        bogus = SnapshotDiff(removed=np.empty((0, 2), dtype=np.int64),
                             added=np.array([[2, 3], [3, 4]]),
                             added_values=np.ones(2),
                             changed_pos=np.empty(0, dtype=np.int64),
                             changed_values=np.empty(0), nnz=3)
        m = LaplacianMaintainer(base)
        m.update(target, bogus)
        assert m.fallbacks == 1
        assert_bitwise(m, target)


class TestLiveView:
    def test_laplacian_is_live_export_is_frozen(self):
        a = GraphSnapshot(5, [[0, 1], [1, 2]])
        b = GraphSnapshot(5, [[0, 1], [1, 2], [2, 3]])
        m = LaplacianMaintainer(a)
        live = m.laplacian
        frozen = m.export()
        before = frozen.csr.toarray().copy()
        m.update(b, diff_snapshots(a, b))
        # the live view follows the update, the export does not
        np.testing.assert_array_equal(
            m.laplacian.csr.toarray(),
            normalized_laplacian(b).csr.toarray())
        assert live is m.laplacian
        np.testing.assert_array_equal(frozen.csr.toarray(), before)

    def test_live_view_transpose_cache_invalidated(self):
        a = GraphSnapshot(4, [[0, 1], [1, 2]])
        b = GraphSnapshot(4, [[0, 1], [2, 1]])
        m = LaplacianMaintainer(a)
        m.laplacian.transposed_csr()
        m.update(b, diff_snapshots(a, b))
        np.testing.assert_allclose(
            m.laplacian.transposed_csr().toarray(),
            normalized_laplacian(b).csr.toarray().T)
