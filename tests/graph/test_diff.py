"""Tests for the graph-difference encoding (paper §3.2)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import DatasetError
from repro.graph import (DiffDecoder, GraphSnapshot, apply_diff,
                         diff_snapshots, encode_sequence,
                         sequence_transfer_stats, split_diff_by_blocks)
from repro.graph.generators import evolving_dtdg
from repro.graph.inc_laplacian import LaplacianMaintainer
from repro.tensor.sparse import VALUE_BYTES


def snap(n, pairs, values=None):
    return GraphSnapshot(n, np.array(pairs, dtype=np.int64).reshape(-1, 2),
                         values)


class TestDiffSnapshots:
    def test_identical_topology(self):
        a = snap(4, [[0, 1], [1, 2]])
        b = snap(4, [[0, 1], [1, 2]], values=[3.0, 4.0])
        d = diff_snapshots(a, b)
        assert len(d.removed) == 0
        assert len(d.added) == 0
        # only the values that moved travel, at their positions
        np.testing.assert_array_equal(d.changed_pos, [0, 1])
        np.testing.assert_array_equal(d.changed_values, [3.0, 4.0])
        assert d.nnz == 2

    def test_pure_addition(self):
        a = snap(4, [[0, 1]])
        b = snap(4, [[0, 1], [2, 3]])
        d = diff_snapshots(a, b)
        assert len(d.removed) == 0
        np.testing.assert_array_equal(d.added, [[2, 3]])

    def test_pure_removal(self):
        a = snap(4, [[0, 1], [2, 3]])
        b = snap(4, [[0, 1]])
        d = diff_snapshots(a, b)
        np.testing.assert_array_equal(d.removed, [[2, 3]])
        assert len(d.added) == 0

    def test_mixed(self):
        a = snap(5, [[0, 1], [1, 2], [3, 4]])
        b = snap(5, [[0, 1], [2, 2], [3, 4]])
        d = diff_snapshots(a, b)
        np.testing.assert_array_equal(d.removed, [[1, 2]])
        np.testing.assert_array_equal(d.added, [[2, 2]])

    def test_vertex_count_mismatch(self):
        with pytest.raises(DatasetError):
            diff_snapshots(snap(3, [[0, 1]]), snap(4, [[0, 1]]))

    def test_payload_accounting(self):
        a = snap(5, [[0, 1], [1, 2], [3, 4]])
        b = snap(5, [[0, 1], [2, 2], [3, 4]])
        d = diff_snapshots(a, b)
        # 2 diff index pairs * 16 bytes + 3 float32 values * 4 bytes
        assert d.payload_nbytes == 2 * 16 + 3 * 4
        assert d.naive_nbytes == 3 * 20
        assert d.savings_ratio == pytest.approx(60 / 44)

    def test_savings_grow_with_overlap(self):
        base = [[i, i + 1] for i in range(50)]
        a = snap(100, base)
        mostly_same = snap(100, base[:-1] + [[60, 61]])
        disjoint = snap(100, [[i + 50, i] for i in range(50)])
        d_similar = diff_snapshots(a, mostly_same)
        d_disjoint = diff_snapshots(a, disjoint)
        assert d_similar.savings_ratio > d_disjoint.savings_ratio
        assert d_disjoint.savings_ratio < 1.0  # GD loses on disjoint graphs


class TestApplyDiff:
    def test_roundtrip_simple(self):
        a = snap(5, [[0, 1], [1, 2], [3, 4]])
        b = snap(5, [[0, 1], [2, 2], [4, 3]], values=[1.5, 2.5, 3.5])
        rebuilt = apply_diff(a, diff_snapshots(a, b))
        assert rebuilt == b

    def test_roundtrip_empty_to_full(self):
        a = snap(4, np.empty((0, 2), dtype=np.int64))
        b = snap(4, [[0, 1], [2, 3]])
        assert apply_diff(a, diff_snapshots(a, b)) == b

    def test_roundtrip_full_to_empty(self):
        a = snap(4, [[0, 1], [2, 3]])
        b = snap(4, np.empty((0, 2), dtype=np.int64))
        assert apply_diff(a, diff_snapshots(a, b)) == b

    def test_wrong_base_detected(self):
        a = snap(5, [[0, 1], [1, 2]])
        b = snap(5, [[0, 1], [2, 3]])
        other = snap(5, [[4, 0]])
        d = diff_snapshots(a, b)
        with pytest.raises(DatasetError):
            apply_diff(other, d)

    @given(st.sets(st.tuples(st.integers(0, 9), st.integers(0, 9)),
                   max_size=30),
           st.sets(st.tuples(st.integers(0, 9), st.integers(0, 9)),
                   max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_property(self, ea, eb):
        def mk(pairs):
            arr = (np.array(sorted(pairs), dtype=np.int64).reshape(-1, 2)
                   if pairs else np.empty((0, 2), dtype=np.int64))
            rng = np.random.default_rng(len(pairs))
            return GraphSnapshot(10, arr, rng.normal(size=len(arr)))

        a, b = mk(ea), mk(eb)
        rebuilt = apply_diff(a, diff_snapshots(a, b))
        assert rebuilt == b


class TestDiffEdgeCases:
    """Degenerate transitions the serving ingestor can produce live."""

    def test_empty_to_nonempty_roundtrip_with_values(self):
        empty = snap(6, np.empty((0, 2), dtype=np.int64))
        full = snap(6, [[0, 1], [2, 3], [4, 5]], values=[1.0, 2.0, 3.0])
        d = diff_snapshots(empty, full)
        assert len(d.removed) == 0
        assert len(d.added) == full.num_edges
        assert apply_diff(empty, d) == full
        # and back down to empty again
        back = diff_snapshots(full, empty)
        assert apply_diff(full, back) == empty

    def test_fully_disjoint_topology_roundtrip(self):
        a = snap(10, [[i, i + 1] for i in range(0, 8, 2)])
        b = snap(10, [[i + 1, i] for i in range(0, 8, 2)],
                 values=[2.0, 2.0, 2.0, 2.0])
        d = diff_snapshots(a, b)
        # nothing survives: every index is shipped twice (remove + add)
        assert len(d.removed) == a.num_edges
        assert len(d.added) == b.num_edges
        assert apply_diff(a, d) == b
        # GD strictly loses on disjoint graphs (indices shipped twice)
        assert d.payload_nbytes > d.naive_nbytes
        assert d.savings_ratio < 1.0

    def test_self_delta_zero_extra_index_bytes(self):
        a = snap(8, [[0, 1], [1, 2], [3, 4]], values=[1.0, 2.0, 3.0])
        d = diff_snapshots(a, a)
        assert len(d.removed) == 0 and len(d.added) == 0
        # payload is values only: the index part of the wire format is 0
        index_bytes = d.payload_nbytes - 3 * VALUE_BYTES
        assert index_bytes == 0
        assert apply_diff(a, d) == a

    def test_self_delta_of_empty_snapshot(self):
        empty = snap(4, np.empty((0, 2), dtype=np.int64))
        d = diff_snapshots(empty, empty)
        assert d.payload_nbytes == 0
        assert apply_diff(empty, d) == empty


class TestSequenceEncoding:
    def test_encode_sequence_structure(self):
        dtdg = evolving_dtdg(30, 6, 40, churn=0.2, seed=1)
        first, diffs = encode_sequence(dtdg.snapshots)
        assert first == dtdg.snapshots[0]
        assert len(diffs) == 5

    def test_decoder_replays_sequence(self):
        dtdg = evolving_dtdg(30, 8, 40, churn=0.3, seed=2)
        first, diffs = encode_sequence(dtdg.snapshots)
        decoder = DiffDecoder(first)
        rebuilt = [first]
        for d in diffs:
            rebuilt.append(decoder.push(d))
        for got, want in zip(rebuilt, dtdg.snapshots):
            assert got == want

    def test_encode_empty_rejected(self):
        with pytest.raises(DatasetError):
            encode_sequence([])


class TestSequenceTransferStats:
    def test_low_churn_saves_bytes(self):
        dtdg = evolving_dtdg(40, 10, 80, churn=0.1, seed=3)
        stats = sequence_transfer_stats(dtdg.snapshots)
        assert stats.gd_nbytes < stats.naive_nbytes
        assert stats.savings_ratio > 1.5

    def test_high_churn_saves_little(self):
        low = sequence_transfer_stats(
            evolving_dtdg(40, 10, 80, churn=0.05, seed=4).snapshots)
        high = sequence_transfer_stats(
            evolving_dtdg(40, 10, 80, churn=0.9, seed=4).snapshots)
        assert low.savings_ratio > high.savings_ratio

    def test_chunking_reduces_benefit(self):
        # smaller chunks = more naive first-snapshots = fewer GD wins,
        # the (bsize - P)/bsize effect of paper §6.2
        snaps = evolving_dtdg(40, 16, 80, churn=0.1, seed=5).snapshots
        whole = sequence_transfer_stats(snaps, chunk=16)
        quarters = sequence_transfer_stats(snaps, chunk=4)
        assert whole.savings_ratio > quarters.savings_ratio
        assert quarters.num_full == 4

    def test_single_snapshot(self):
        snaps = evolving_dtdg(20, 1, 30, churn=0.5, seed=6).snapshots
        stats = sequence_transfer_stats(snaps)
        assert stats.gd_nbytes == stats.naive_nbytes
        assert stats.num_diffs == 0

    def test_bad_chunk(self):
        snaps = evolving_dtdg(20, 4, 30, churn=0.5, seed=7).snapshots
        with pytest.raises(DatasetError):
            sequence_transfer_stats(snaps, chunk=0)


class TestDiffDecoderChecksum:
    """The decoder's checksum-mismatch error path: a diff pushed onto
    the wrong resident snapshot must fail fast, not reconstruct
    garbage."""

    def test_push_onto_wrong_resident_raises(self):
        a = snap(8, [[0, 1], [1, 2], [2, 3]])
        b = snap(8, [[0, 1], [1, 2], [3, 4]])
        other = snap(8, [[5, 6], [6, 7]])
        diff = diff_snapshots(a, b)
        decoder = DiffDecoder(other)
        with pytest.raises(DatasetError, match="not the base"):
            decoder.push(diff)

    def test_resident_unchanged_after_failed_push(self):
        a = snap(8, [[0, 1], [1, 2]])
        b = snap(8, [[0, 1], [2, 3]])
        other = snap(8, [[4, 5]])
        decoder = DiffDecoder(other)
        with pytest.raises(DatasetError):
            decoder.push(diff_snapshots(a, b))
        assert decoder.resident == other

    def test_decoder_recovers_after_correct_push(self):
        a = snap(8, [[0, 1], [1, 2]])
        b = snap(8, [[0, 1], [2, 3]])
        decoder = DiffDecoder(a)
        with pytest.raises(DatasetError):
            decoder.push(diff_snapshots(b, a))  # wrong direction
        got = decoder.push(diff_snapshots(a, b))  # right one still works
        assert got == b

    def test_stale_resident_after_one_step_raises(self):
        """Replaying the same diff twice: the second push sees the
        advanced resident and must refuse."""
        a = snap(8, [[0, 1], [1, 2]])
        b = snap(8, [[0, 1], [2, 3]])
        diff = diff_snapshots(a, b)
        decoder = DiffDecoder(a)
        decoder.push(diff)
        with pytest.raises(DatasetError):
            decoder.push(diff)


class TestSplitDiffByBlocks:
    """Degenerate fan-out cases of the sharded delta splitter."""

    def _owners(self, n, blocks):
        return np.arange(n) % blocks

    def test_empty_diff_yields_empty_subdeltas(self):
        a = snap(6, [[0, 1], [2, 3]])
        diff = diff_snapshots(a, a)  # no topology change
        subs = split_diff_by_blocks(diff, a, self._owners(6, 3))
        assert len(subs) == 3
        for sub in subs:
            assert len(sub.removed) == 0
            assert len(sub.added) == 0
        # values of incident current edges are still charged (they are
        # the per-shard refresh payload even when topology is unchanged)
        assert sum(s.nnz for s in subs) >= a.num_edges

    def test_single_block_plan_gets_everything(self):
        a = snap(6, [[0, 1], [2, 3]])
        b = snap(6, [[0, 1], [3, 4], [4, 5]])
        diff = diff_snapshots(a, b)
        subs = split_diff_by_blocks(diff, b, np.zeros(6, dtype=np.int64),
                                    num_blocks=1)
        assert len(subs) == 1
        np.testing.assert_array_equal(subs[0].removed, diff.removed)
        np.testing.assert_array_equal(subs[0].added, diff.added)
        np.testing.assert_array_equal(subs[0].added_values,
                                      diff.added_values)
        assert subs[0].nnz == b.num_edges

    def test_empty_current_snapshot(self):
        a = snap(6, [[0, 1], [2, 3]])
        b = snap(6, [])
        diff = diff_snapshots(a, b)
        subs = split_diff_by_blocks(diff, b, self._owners(6, 2))
        assert len(subs) == 2
        for sub in subs:
            assert len(sub.added) == 0
            assert sub.nnz == 0
        # every removed edge reaches the shard(s) owning its endpoints
        removed_total = sum(len(s.removed) for s in subs)
        assert removed_total >= a.num_edges

    def test_sub_deltas_carry_no_base_checksum(self):
        a = snap(6, [[0, 1], [2, 3]])
        b = snap(6, [[0, 1], [4, 5]])
        subs = split_diff_by_blocks(diff_snapshots(a, b), b,
                                    self._owners(6, 2))
        assert all(s.base_checksum == -1 for s in subs)

    def test_owner_length_mismatch_rejected(self):
        a = snap(6, [[0, 1]])
        diff = diff_snapshots(a, a)
        with pytest.raises(DatasetError):
            split_diff_by_blocks(diff, a, np.zeros(4, dtype=np.int64))

    def test_owner_out_of_range_rejected(self):
        a = snap(6, [[0, 1]])
        diff = diff_snapshots(a, a)
        with pytest.raises(DatasetError):
            split_diff_by_blocks(diff, a, np.full(6, 7, dtype=np.int64),
                                 num_blocks=2)


class TestSplitDiffValueHints:
    """Per-block diffs carry their changed positions in the block-local
    value order — whole-graph positions in a shard-local diff would
    address the wrong edges."""

    def _weighted(self, n, pairs, values):
        return GraphSnapshot(n, np.array(pairs, dtype=np.int64),
                             np.array(values, dtype=np.float64))

    def _scenario(self):
        """Value-changed and added edges crossing the 2-block boundary
        (owners: even vertices → block 0, odd → block 1)."""
        n = 8
        a = self._weighted(n, [[0, 1], [1, 2], [2, 4], [3, 5], [6, 7]],
                           [1.0, 2.0, 3.0, 4.0, 5.0])
        b = self._weighted(n, [[0, 1], [1, 2], [2, 4], [3, 5], [5, 6]],
                           [1.0, 9.0, 3.0, 8.0, 6.0])
        owners = np.arange(n) % 2
        return a, b, diff_snapshots(a, b), owners

    def _block_view(self, snapshot, owners, block):
        mask = (owners[snapshot.edges[:, 0]] == block) | \
            (owners[snapshot.edges[:, 1]] == block)
        return GraphSnapshot(snapshot.num_vertices,
                             snapshot.edges[mask],
                             snapshot.values[mask])

    def test_hints_are_block_local_positions(self):
        a, b, diff, owners = self._scenario()
        subs = split_diff_by_blocks(diff, b, owners)
        for block, sub in enumerate(subs):
            local = self._block_view(b, owners, block)
            assert sub.nnz == local.num_edges
            # the added values follow their edges into the block
            want = {tuple(e): v for e, v in zip(b.edges, b.values)}
            for edge, value in zip(sub.added, sub.added_values):
                assert want[tuple(edge)] == value
            # changed positions address edges whose value really
            # changed from the previous snapshot, in the block-local
            # canonical order, with their new values
            assert len(sub.changed_pos)
            prev = {tuple(e): v for e, v in zip(a.edges, a.values)}
            for pos, value in zip(sub.changed_pos, sub.changed_values):
                edge = tuple(local.edges[pos])
                assert local.values[pos] == value != prev[edge]

    def test_block_maintainer_matches_rebuild(self):
        """A shard-local mirror updated through its sub-delta equals a
        full rebuild of the block's operator bit for bit, with no
        maintainer fallback."""
        a, b, diff, owners = self._scenario()
        subs = split_diff_by_blocks(diff, b, owners)
        for block, sub in enumerate(subs):
            base = self._block_view(a, owners, block)
            curr = self._block_view(b, owners, block)
            assert apply_diff(base, sub) == curr

            maintainer = LaplacianMaintainer(base)
            maintainer.update(curr, sub)
            assert maintainer.incremental_updates == 1
            assert maintainer.fallbacks == 0
            got = maintainer.export().csr
            want = LaplacianMaintainer(curr).export().csr
            np.testing.assert_array_equal(got.indptr, want.indptr)
            np.testing.assert_array_equal(got.indices, want.indices)
            np.testing.assert_array_equal(got.data, want.data)
