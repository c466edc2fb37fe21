"""Tests for generators, calibrated datasets, AML-Sim and DTDG I/O."""

import numpy as np
import pytest

from repro.errors import DatasetError
from repro.graph import (DATASETS, DTDG, AMLSimConfig, generate_amlsim,
                         evolving_dtdg, load_dataset, load_dtdg,
                         random_dtdg, sample_edges, save_dtdg)
from tests.helpers import edge_set


class TestSampleEdges:
    def test_exact_count_no_self_loops_no_dups(self):
        rng = np.random.default_rng(0)
        edges = sample_edges(20, 50, rng)
        assert len(edges) == 50
        assert (edges[:, 0] != edges[:, 1]).all()
        assert len(set(map(tuple, edges.tolist()))) == 50

    def test_zero_edges(self):
        assert len(sample_edges(5, 0, np.random.default_rng(0))) == 0

    def test_infeasible_count_rejected(self):
        with pytest.raises(DatasetError):
            sample_edges(3, 100, np.random.default_rng(0))

    def test_negative_rejected(self):
        with pytest.raises(DatasetError):
            sample_edges(3, -1, np.random.default_rng(0))

    def test_skew_concentrates_popularity(self):
        rng = np.random.default_rng(1)
        skewed = sample_edges(200, 400, rng, skew=1.5)
        flat = sample_edges(200, 400, np.random.default_rng(1), skew=0.0)
        # low-id vertices appear more often with skew
        low_share_skewed = (skewed < 20).mean()
        low_share_flat = (flat < 20).mean()
        assert low_share_skewed > low_share_flat


class TestRandomDTDG:
    def test_shapes(self):
        d = random_dtdg(50, 6, density=2.0, seed=0)
        assert d.num_vertices == 50
        assert d.num_timesteps == 6
        for s in d:
            assert s.num_edges == 100

    def test_independent_snapshots_low_overlap(self):
        d = random_dtdg(200, 4, density=1.0, seed=0)
        assert d.mean_topology_overlap() < 0.1

    def test_deterministic(self):
        a = random_dtdg(30, 3, 1.5, seed=7)
        b = random_dtdg(30, 3, 1.5, seed=7)
        for sa, sb in zip(a, b):
            assert sa == sb

    def test_bad_density(self):
        with pytest.raises(DatasetError):
            random_dtdg(10, 2, density=0.0)


class TestEvolvingDTDG:
    def test_churn_controls_overlap(self):
        slow = evolving_dtdg(100, 6, 200, churn=0.05, seed=0)
        fast = evolving_dtdg(100, 6, 200, churn=0.8, seed=0)
        assert slow.mean_topology_overlap() > fast.mean_topology_overlap()
        assert slow.mean_topology_overlap() > 0.8

    def test_constant_edge_count(self):
        d = evolving_dtdg(60, 5, 120, churn=0.3, seed=1)
        for s in d:
            assert s.num_edges == 120

    def test_zero_churn_frozen_topology(self):
        d = evolving_dtdg(40, 4, 80, churn=0.0, seed=2)
        for s in d.snapshots[1:]:
            assert s == d.snapshots[0]

    def test_invalid_churn(self):
        with pytest.raises(DatasetError):
            evolving_dtdg(10, 2, 10, churn=1.5)


class TestAMLSim:
    @pytest.fixture(scope="class")
    def result(self):
        return generate_amlsim(AMLSimConfig(
            num_accounts=120, num_timesteps=10, background_per_step=200,
            seed=3))

    def test_shapes(self, result):
        assert result.dtdg.num_vertices == 120
        assert result.dtdg.num_timesteps == 10

    def test_suspicious_edges_exist_in_graph(self, result):
        assert result.suspicious
        for (t, u, v) in result.suspicious:
            assert (u, v) in edge_set(result.dtdg[t])

    def test_account_labels(self, result):
        labels = result.account_labels()
        assert labels.sum() == len(result.suspicious_accounts)
        assert set(np.where(labels == 1)[0]) == result.suspicious_accounts

    def test_persistence_creates_overlap(self):
        sticky = generate_amlsim(AMLSimConfig(
            num_accounts=100, num_timesteps=6, background_per_step=300,
            partner_persistence=0.95, seed=1)).dtdg
        loose = generate_amlsim(AMLSimConfig(
            num_accounts=100, num_timesteps=6, background_per_step=300,
            partner_persistence=0.0, seed=1)).dtdg
        assert sticky.mean_topology_overlap() > loose.mean_topology_overlap()

    def test_deterministic(self):
        cfg = AMLSimConfig(num_accounts=80, num_timesteps=5,
                           background_per_step=100, seed=9)
        a = generate_amlsim(cfg)
        b = generate_amlsim(cfg)
        assert a.suspicious == b.suspicious
        for sa, sb in zip(a.dtdg, b.dtdg):
            assert sa == sb

    def test_config_validation(self):
        with pytest.raises(DatasetError):
            generate_amlsim(AMLSimConfig(num_accounts=4, pattern_size=6))
        with pytest.raises(DatasetError):
            generate_amlsim(AMLSimConfig(num_timesteps=2))
        with pytest.raises(DatasetError):
            generate_amlsim(AMLSimConfig(partner_persistence=2.0))


class TestDatasets:
    def test_registry_contents(self):
        assert set(DATASETS) == {"epinions", "flickr", "youtube", "amlsim"}

    def test_unknown_dataset(self):
        with pytest.raises(DatasetError):
            load_dataset("imaginary")

    @pytest.mark.parametrize("name", ["epinions", "flickr", "youtube",
                                      "amlsim"])
    def test_scaled_stand_in(self, name):
        d = load_dataset(name, scale=2e-4, t_scale=0.05, seed=0)
        spec = DATASETS[name]
        n, t, m = spec.scaled_shape(2e-4, 0.05)
        assert d.num_vertices == n
        assert d.num_timesteps == t
        assert d.total_nnz > 0

    def test_overlap_matches_churn_calibration(self):
        d = load_dataset("epinions", scale=5e-4, t_scale=0.04, seed=0)
        # churn 0.30 -> expected Jaccard ≈ (1-churn)/(1+churn) ≈ 0.54
        assert 0.4 < d.mean_topology_overlap() < 0.75

    def test_scaled_shape_floor(self):
        spec = DATASETS["epinions"]
        n, t, m = spec.scaled_shape(1e-9, 1e-9)
        assert n >= 64 and t >= 8 and m >= 16


class TestIO:
    """save/load on the store format (delta log + bases), plus read
    support for the legacy one-file .npz archive."""

    def test_roundtrip_with_features(self, tmp_path):
        d = evolving_dtdg(30, 4, 60, churn=0.2, seed=0, name="io-test")
        d.set_features([np.random.default_rng(t).normal(size=(30, 3))
                        for t in range(4)])
        path = str(tmp_path / "d.store")
        save_dtdg(d, path)
        loaded = load_dtdg(path)
        assert loaded.name == "io-test"
        assert loaded.num_timesteps == 4
        for sa, sb in zip(d, loaded):
            assert sa == sb
        for fa, fb in zip(d.features, loaded.features):
            np.testing.assert_array_equal(fa, fb)

    def test_roundtrip_without_features(self, tmp_path):
        d = evolving_dtdg(20, 3, 40, churn=0.2, seed=1)
        path = str(tmp_path / "d2.store")
        save_dtdg(d, path)
        assert load_dtdg(path).features is None

    def test_roundtrip_weighted_edges(self, tmp_path):
        """Non-unit, step-varying edge values survive the delta log's
        changed-values-only encoding."""
        from repro.graph import GraphSnapshot
        n = 10
        e = np.array([[0, 1], [1, 2], [3, 4]])
        d = DTDG([GraphSnapshot(n, e, np.array([0.5, 2.0, 3.0])),
                  GraphSnapshot(n, e, np.array([0.5, 7.25, 3.0])),
                  GraphSnapshot(n, e[1:], np.array([7.25, -1.5]))],
                 name="weighted")
        path = str(tmp_path / "w.store")
        save_dtdg(d, path)
        loaded = load_dtdg(path)
        for sa, sb in zip(d, loaded):
            assert sa == sb
            np.testing.assert_array_equal(sa.values, sb.values)

    def test_roundtrip_empty_snapshots(self, tmp_path):
        from repro.graph import GraphSnapshot
        n = 8
        empty = GraphSnapshot(n, np.empty((0, 2), dtype=np.int64))
        full = GraphSnapshot(n, np.array([[0, 1], [5, 6]]))
        d = DTDG([empty, full, empty], name="sparse")
        path = str(tmp_path / "e.store")
        save_dtdg(d, path)
        loaded = load_dtdg(path)
        assert loaded.num_timesteps == 3
        for sa, sb in zip(d, loaded):
            assert sa == sb

    def test_saved_store_is_a_store_directory(self, tmp_path):
        from repro.store import GraphStore
        d = evolving_dtdg(20, 5, 40, churn=0.2, seed=2, name="as-store")
        path = str(tmp_path / "s")
        save_dtdg(d, path)
        store = GraphStore.open(path)
        assert store.num_timesteps == 5
        assert store.materialize(3) == d[3]

    def test_legacy_npz_still_loads(self, tmp_path):
        from repro.graph.io import _save_dtdg_npz
        d = evolving_dtdg(25, 4, 50, churn=0.3, seed=3, name="legacy")
        d.set_features([np.random.default_rng(t).normal(size=(25, 2))
                        for t in range(4)])
        path = str(tmp_path / "old.npz")
        _save_dtdg_npz(d, path)
        loaded = load_dtdg(path)
        assert loaded.name == "legacy"
        for sa, sb in zip(d, loaded):
            assert sa == sb
        for fa, fb in zip(d.features, loaded.features):
            np.testing.assert_array_equal(fa, fb)

    def test_resave_overwrites_in_place(self, tmp_path):
        """The legacy writer's cache-refresh semantics: saving to the
        same path twice replaces the old archive."""
        path = str(tmp_path / "cache")
        save_dtdg(evolving_dtdg(20, 3, 40, churn=0.2, seed=1), path)
        fresh = evolving_dtdg(20, 5, 40, churn=0.2, seed=9, name="v2")
        save_dtdg(fresh, path)
        loaded = load_dtdg(path)
        assert loaded.name == "v2"
        assert loaded.num_timesteps == 5
        for sa, sb in zip(fresh, loaded):
            assert sa == sb

    def test_save_over_legacy_file(self, tmp_path):
        from repro.graph.io import _save_dtdg_npz
        path = str(tmp_path / "cache.npz")
        _save_dtdg_npz(evolving_dtdg(20, 3, 40, churn=0.2, seed=1), path)
        fresh = evolving_dtdg(20, 4, 40, churn=0.2, seed=2, name="v2")
        save_dtdg(fresh, path)
        assert load_dtdg(path).name == "v2"

    def test_missing_file(self):
        with pytest.raises(DatasetError):
            load_dtdg("/nonexistent/file.npz")

    def test_corrupt_store_raises_dataset_error(self, tmp_path):
        path = tmp_path / "bad"
        path.mkdir()
        (path / "wal.log").write_bytes(b"not a wal")
        with pytest.raises(DatasetError):
            load_dtdg(str(path))
