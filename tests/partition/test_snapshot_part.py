"""Tests for snapshot partitioning and the shared partition types."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import PartitionError
from repro.partition import (TimestepAssignment, VertexChunks, block_ranges,
                             blockwise_snapshot_partition, contiguous_chunks,
                             snapshot_partition)


class TestContiguousChunks:
    def test_even_split(self):
        assert contiguous_chunks(8, 4) == [(0, 2), (2, 4), (4, 6), (6, 8)]

    def test_uneven_split_front_loaded(self):
        assert contiguous_chunks(7, 3) == [(0, 3), (3, 5), (5, 7)]

    def test_more_parts_than_items(self):
        chunks = contiguous_chunks(2, 4)
        sizes = [hi - lo for lo, hi in chunks]
        assert sizes == [1, 1, 0, 0]

    def test_invalid(self):
        with pytest.raises(PartitionError):
            contiguous_chunks(4, 0)
        with pytest.raises(PartitionError):
            contiguous_chunks(-1, 2)

    @given(st.integers(0, 60), st.integers(1, 12))
    @settings(max_examples=60, deadline=None)
    def test_cover_disjoint_balanced(self, total, parts):
        chunks = contiguous_chunks(total, parts)
        assert len(chunks) == parts
        covered = [i for lo, hi in chunks for i in range(lo, hi)]
        assert covered == list(range(total))
        sizes = [hi - lo for lo, hi in chunks]
        assert max(sizes) - min(sizes) <= 1


class TestSnapshotPartition:
    def test_paper_layout(self):
        # T=6, P=3 as in Fig. 3a: each rank owns 2 contiguous snapshots
        a = snapshot_partition(6, 3)
        assert a.owned == ((0, 1), (2, 3), (4, 5))

    def test_owner_map(self):
        a = snapshot_partition(6, 3)
        np.testing.assert_array_equal(a.owner_map(), [0, 0, 1, 1, 2, 2])

    def test_more_ranks_than_timesteps(self):
        a = snapshot_partition(2, 4)
        assert a.owned[2] == () and a.owned[3] == ()
        a.validate()

    def test_validate_catches_double_assignment(self):
        bad = TimestepAssignment(((0, 1), (1,)), 2)
        with pytest.raises(PartitionError):
            bad.validate()

    def test_validate_catches_gap(self):
        bad = TimestepAssignment(((0,), ()), 2)
        with pytest.raises(PartitionError):
            bad.validate()


class TestBlockwisePartition:
    def test_paper_fig3b_layout(self):
        # T=12, P=3, nb=2: within each 6-step block, 2 steps per rank
        a = blockwise_snapshot_partition(12, 3, 2)
        assert a.owned[0] == (0, 1, 6, 7)
        assert a.owned[1] == (2, 3, 8, 9)
        assert a.owned[2] == (4, 5, 10, 11)

    def test_single_block_equals_plain(self):
        plain = snapshot_partition(8, 4)
        block = blockwise_snapshot_partition(8, 4, 1)
        assert plain.owned == block.owned

    def test_block_ranges(self):
        assert block_ranges(10, 2) == [(0, 5), (5, 10)]

    def test_block_ranges_invalid(self):
        with pytest.raises(PartitionError):
            block_ranges(4, 0)
        with pytest.raises(PartitionError):
            block_ranges(4, 8)

    @given(st.integers(1, 40), st.integers(1, 8), st.integers(1, 6))
    @settings(max_examples=60, deadline=None)
    def test_always_valid_cover(self, t, p, nb):
        nb = min(nb, t)
        a = blockwise_snapshot_partition(t, p, nb)
        a.validate()
        # within each block every rank's steps are contiguous
        for lo, hi in block_ranges(t, nb):
            for steps in a.owned:
                inside = [s for s in steps if lo <= s < hi]
                if inside:
                    assert inside == list(range(min(inside),
                                                max(inside) + 1))


class TestVertexChunks:
    def test_uniform(self):
        vc = VertexChunks.uniform(10, 3)
        assert vc.ranges == ((0, 4), (4, 7), (7, 10))
        assert vc.size(0) == 4

    def test_owner_array(self):
        vc = VertexChunks.uniform(5, 2)
        np.testing.assert_array_equal(vc.owner_array(), [0, 0, 0, 1, 1])
