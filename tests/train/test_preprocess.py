"""Tests for smoothing, features and the Eq. 1 operators."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.graph import DTDG, GraphSnapshot, evolving_dtdg
from repro.nn import m_matrix
from repro.train import (apply_edge_life, apply_mproduct_smoothing,
                         compute_laplacians, degree_features,
                         smooth_for_model)
from tests.helpers import edge_set


def snap(n, pairs, values=None):
    return GraphSnapshot(n, np.array(pairs, dtype=np.int64).reshape(-1, 2),
                         values)


class TestDegreeFeatures:
    def test_shapes_and_values(self):
        d = DTDG([snap(3, [[0, 1], [0, 2]]), snap(3, [[1, 0]])])
        frames = degree_features(d)
        assert len(frames) == 2
        assert frames[0].shape == (3, 2)
        # frame 0: in-degrees [0,1,1], out-degrees [2,0,0]
        np.testing.assert_array_equal(frames[0][:, 0], [0, 1, 1])
        np.testing.assert_array_equal(frames[0][:, 1], [2, 0, 0])


class TestEdgeLife:
    def test_carries_edges_forward(self):
        d = DTDG([snap(4, [[0, 1]]), snap(4, [[1, 2]]), snap(4, [[2, 3]])])
        out = apply_edge_life(d, life=2)
        assert edge_set(out[0]) == {(0, 1)}
        assert edge_set(out[1]) == {(0, 1), (1, 2)}
        assert edge_set(out[2]) == {(1, 2), (2, 3)}  # (0,1) expired

    def test_values_accumulate(self):
        d = DTDG([snap(3, [[0, 1]], values=[2.0]),
                  snap(3, [[0, 1]], values=[3.0])])
        out = apply_edge_life(d, life=2)
        np.testing.assert_array_equal(out[1].values, [5.0])

    def test_life_one_is_identity(self):
        d = evolving_dtdg(20, 4, 40, churn=0.3, seed=0)
        out = apply_edge_life(d, life=1)
        for a, b in zip(d, out):
            assert a == b

    def test_increases_density_and_overlap(self):
        d = evolving_dtdg(50, 8, 100, churn=0.6, seed=1)
        out = apply_edge_life(d, life=4)
        assert out.total_nnz > d.total_nnz
        assert out.mean_topology_overlap() > d.mean_topology_overlap()

    def test_invalid_life(self):
        d = evolving_dtdg(10, 3, 20, churn=0.2, seed=0)
        with pytest.raises(ConfigError):
            apply_edge_life(d, life=0)


class TestMProductSmoothing:
    def test_adjacency_matches_matrix_form(self):
        d = evolving_dtdg(15, 5, 30, churn=0.5, seed=2)
        window = 3
        out = apply_mproduct_smoothing(d, window)
        m = m_matrix(5, window)
        for t in range(5):
            expected = sum(m[t, k] * d[k].adjacency().csr.toarray()
                           for k in range(5))
            np.testing.assert_allclose(out[t].adjacency().csr.toarray(),
                                       expected, atol=1e-12)

    def test_features_smoothed(self):
        d = evolving_dtdg(10, 4, 20, churn=0.3, seed=3)
        d.set_features([np.full((10, 2), float(t)) for t in range(4)])
        out = apply_mproduct_smoothing(d, window=2)
        # frame 1 = average of frames 0 and 1 = 0.5
        np.testing.assert_allclose(out.features[1], np.full((10, 2), 0.5))

    def test_features_kept_raw_when_disabled(self):
        d = evolving_dtdg(10, 4, 20, churn=0.3, seed=3)
        d.set_features([np.full((10, 2), float(t)) for t in range(4)])
        out = apply_mproduct_smoothing(d, window=2, smooth_features=False)
        np.testing.assert_array_equal(out.features[1], d.features[1])

    def test_increases_overlap(self):
        d = evolving_dtdg(50, 8, 100, churn=0.6, seed=4)
        out = apply_mproduct_smoothing(d, window=4)
        assert out.mean_topology_overlap() > d.mean_topology_overlap()

    def test_invalid_window(self):
        d = evolving_dtdg(10, 3, 20, churn=0.2, seed=0)
        with pytest.raises(ConfigError):
            apply_mproduct_smoothing(d, window=0)


class TestSmoothForModel:
    def test_routing(self):
        d = evolving_dtdg(20, 4, 40, churn=0.4, seed=5)
        assert smooth_for_model(d, "cdgcn") is d
        tm = smooth_for_model(d, "tmgcn", window=3)
        eg = smooth_for_model(d, "egcn", edge_life=3)
        assert tm.total_nnz > d.total_nnz
        assert eg.total_nnz > d.total_nnz

    def test_unknown_model(self):
        d = evolving_dtdg(10, 3, 20, churn=0.2, seed=0)
        with pytest.raises(ConfigError):
            smooth_for_model(d, "gat")


class TestComputeLaplacians:
    """compute_laplacians streams through the LaplacianMaintainer; it
    must stay bit-compatible with a per-snapshot full rebuild for each
    model's own preprocessing (raw / edge-life / M-product — the three
    paper models' inputs)."""

    @pytest.mark.parametrize("model_name", ["cdgcn", "egcn", "tmgcn"])
    def test_bit_compatible_with_full_rebuild(self, model_name):
        from repro.graph import normalized_laplacian
        raw = evolving_dtdg(30, 6, 80, churn=0.35, seed=9)
        d = smooth_for_model(raw, model_name)
        laps = compute_laplacians(d)
        assert len(laps) == d.num_timesteps
        for lap, s in zip(laps, d.snapshots):
            ref = normalized_laplacian(s).csr
            np.testing.assert_array_equal(lap.csr.indptr, ref.indptr)
            np.testing.assert_array_equal(lap.csr.indices, ref.indices)
            np.testing.assert_array_equal(lap.csr.data, ref.data)

    def test_operators_are_independent_copies(self):
        d = evolving_dtdg(15, 4, 40, churn=0.5, seed=2)
        laps = compute_laplacians(d)
        # mutating one timestep's operator must not leak into another
        laps[0].csr.data[:] = 0.0
        assert np.abs(laps[1].csr.data).max() > 0

    def test_single_snapshot_timeline(self):
        from repro.graph import normalized_laplacian
        d = DTDG([snap(3, [[0, 1]])])
        laps = compute_laplacians(d)
        assert len(laps) == 1
        np.testing.assert_array_equal(
            laps[0].csr.toarray(),
            normalized_laplacian(d[0]).csr.toarray())
