"""GraphStore: exact materialization, lazy views, compaction, checksums.

The acceptance contract for the storage tier: store-backed replay is
*exact* — ``materialize(t)`` equals the in-memory DTDG snapshot for
every t of a 20-timestep AML-Sim stream — and every corruption mode is
caught by a checksum instead of silently reconstructing garbage.
"""

import os

import numpy as np
import pytest

from repro.errors import StoreCorruption, StoreError
from repro.graph import (AMLSimConfig, GraphSnapshot, diff_snapshots,
                         evolving_dtdg, generate_amlsim)
from repro.serve.ingest import EdgeEvent, events_between
from repro.store import GraphStore, StoreView, list_bases
from repro.store.codec import snapshot_record_nbytes
from repro.store.compact import base_dir


@pytest.fixture(scope="module")
def aml20():
    """The acceptance stream: 20 AML-Sim timesteps."""
    config = AMLSimConfig(num_accounts=160, num_timesteps=20,
                          background_per_step=260,
                          partner_persistence=0.85, seed=11)
    return generate_amlsim(config).dtdg


# a transaction store's regime: high partner persistence, heavy overlap
PERSISTENT = AMLSimConfig(num_accounts=400, num_timesteps=10,
                          background_per_step=500, partner_persistence=0.95,
                          activity_skew=0.4, seed=0)


def small_dtdg(seed=0, n=30, t=8):
    d = evolving_dtdg(n, t, 60, churn=0.25, seed=seed, name="small")
    return d


class TestMaterializeExactness:
    def test_aml20_every_step_exact(self, aml20, tmp_path):
        """Acceptance: materialize(t) == dtdg[t] for every t."""
        store = GraphStore.from_dtdg(str(tmp_path / "s"), aml20,
                                     base_interval=6)
        assert store.num_timesteps == 20
        for t in range(20):
            assert store.materialize(t, cached=False) == aml20[t], t

    def test_exact_after_reopen(self, aml20, tmp_path):
        GraphStore.from_dtdg(str(tmp_path / "s"), aml20, base_interval=6)
        reopened = GraphStore.open(str(tmp_path / "s"))
        for t in (0, 7, 13, 19):
            assert reopened.materialize(t, cached=False) == aml20[t]
        assert reopened.tip == aml20[19]

    def test_weighted_values_roundtrip(self, tmp_path):
        """Changed edge values (not just topology) must replay exactly."""
        n = 12
        e = np.array([[0, 1], [1, 2], [2, 3]])
        snaps = [GraphSnapshot(n, e, np.array([1.0, 2.0, 3.0])),
                 GraphSnapshot(n, e, np.array([1.0, 9.5, 3.0])),
                 GraphSnapshot(n, e[:2], np.array([4.0, 9.5]))]
        store = GraphStore.create(str(tmp_path / "s"), n)
        for s in snaps:
            store.append_snapshot(s)
        for t, s in enumerate(snaps):
            assert store.materialize(t, cached=False) == s

    def test_empty_snapshots_roundtrip(self, tmp_path):
        n = 6
        empty = GraphSnapshot(n, np.empty((0, 2), dtype=np.int64))
        full = GraphSnapshot(n, np.array([[0, 1], [2, 3]]))
        store = GraphStore.create(str(tmp_path / "s"), n)
        for s in (empty, full, empty, empty):
            store.append_snapshot(s)
        for t, s in enumerate((empty, full, empty, empty)):
            assert store.materialize(t, cached=False) == s

    def test_events_then_seal_matches_ingestor(self, aml20, tmp_path):
        """The serving write path (event batches + seal) reconstructs
        the same snapshots as bulk diff appends."""
        store = GraphStore.create(str(tmp_path / "s"), aml20.num_vertices,
                                  base_interval=None)
        store.append_snapshot(aml20[0])
        for t in range(1, 6):
            events = events_between(aml20[t - 1], aml20[t])
            half = len(events) // 2
            store.append_events(events[:half])
            store.append_events(events[half:])
            store.seal_step()
        for t in range(6):
            assert store.materialize(t, cached=False) == aml20[t]

    def test_append_diff_validates_against_tip(self, tmp_path):
        d = small_dtdg()
        store = GraphStore.create(str(tmp_path / "s"), d.num_vertices)
        store.append_snapshot(d[0])
        wrong_base = diff_snapshots(d[3], d[4])
        with pytest.raises(StoreError):
            store.append_diff(wrong_base)

    def test_replay_to_bypasses_live_tip(self, aml20, tmp_path):
        store = GraphStore.from_dtdg(str(tmp_path / "s"), aml20,
                                     base_interval=6)
        before = store.records_replayed
        assert store.replay_to(19) == aml20[19]
        assert store.records_replayed > before  # really decoded


class TestCompaction:
    def test_bases_written_on_interval(self, aml20, tmp_path):
        store = GraphStore.from_dtdg(str(tmp_path / "s"), aml20,
                                     base_interval=5)
        steps = [s for s, _ in list_bases(store.path)]
        assert steps == [0, 5, 10, 15]

    def test_bases_bound_replay_depth(self, aml20, tmp_path):
        based = GraphStore.from_dtdg(str(tmp_path / "b"), aml20,
                                     base_interval=5)
        cold = GraphStore.from_dtdg(str(tmp_path / "c"), aml20,
                                    base_interval=None)
        b0 = based.records_replayed
        based.replay_to(19)
        c0 = cold.records_replayed
        cold.replay_to(19)
        assert based.records_replayed - b0 == 4   # from base 15
        assert cold.records_replayed - c0 == 20   # whole log

    def test_corrupt_base_falls_back_to_older(self, aml20, tmp_path):
        store = GraphStore.from_dtdg(str(tmp_path / "s"), aml20,
                                     base_interval=5)
        newest = list_bases(store.path)[-1][1]
        with open(newest, "r+b") as fh:
            fh.seek(40)
            fh.write(b"\xff" * 16)
        assert store.replay_to(19) == aml20[19]

    @pytest.mark.parametrize("keep", [0, 1, 30, 0.5, -4])
    def test_torn_base_falls_back_to_older(self, aml20, tmp_path, keep):
        """A base cut short (a crash mid-write without the rename, a
        full disk) is skipped like a corrupt one, never raised."""
        store = GraphStore.from_dtdg(str(tmp_path / "s"), aml20,
                                     base_interval=5)
        newest = list_bases(store.path)[-1][1]
        size = os.path.getsize(newest)
        with open(newest, "r+b") as fh:
            fh.truncate(int(keep * size) if isinstance(keep, float)
                        else keep % size)
        before = store.records_replayed
        assert store.replay_to(19) == aml20[19]
        assert store.records_replayed - before == 9   # from base 10
        assert GraphStore.open(str(tmp_path / "s")).replay_to(17) == \
            aml20[17]

    def test_manual_compact(self, aml20, tmp_path):
        store = GraphStore.from_dtdg(str(tmp_path / "s"), aml20,
                                     base_interval=None)
        store.compactor.compact(13)
        assert [s for s, _ in list_bases(store.path)] == [13]
        before = store.records_replayed
        store.replay_to(16)
        assert store.records_replayed - before == 3


def test_store_bases_are_pure_acceleration():
    """Deleting every base must change nothing but replay depth."""
    import shutil
    import tempfile

    dtdg = generate_amlsim(PERSISTENT).dtdg
    workdir = tempfile.mkdtemp(prefix="repro-store-")
    try:
        path = os.path.join(workdir, "s")
        GraphStore.from_dtdg(path, dtdg, base_interval=3, features=False)
        shutil.rmtree(base_dir(path))
        reopened = GraphStore.open(path)
        for t in range(dtdg.num_timesteps):
            assert reopened.materialize(t, cached=False) == dtdg[t]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


class TestFootprint:
    def test_delta_log_beats_per_snapshot_records(self, tmp_path):
        """The §3.2 insight applied to durability: on a persistent
        transaction graph the WAL (removed/added keys plus changed
        values) is ≥ 3x smaller than one full record per snapshot."""
        dtdg = generate_amlsim(PERSISTENT).dtdg
        store = GraphStore.from_dtdg(str(tmp_path / "s"), dtdg,
                                     base_interval=4, features=False)
        naive = sum(snapshot_record_nbytes(s) for s in dtdg.snapshots)
        assert store.wal_nbytes * 3 <= naive


class TestChecksums:
    def test_verify_whole_log(self, aml20, tmp_path):
        store = GraphStore.from_dtdg(str(tmp_path / "s"), aml20,
                                     base_interval=None)
        assert store.verify() == store.wal.num_records

    def test_bitflip_in_diff_payload_detected(self, aml20, tmp_path):
        store = GraphStore.from_dtdg(str(tmp_path / "s"), aml20,
                                     base_interval=None)
        record = store.wal.read(3)
        with open(store.wal.path, "r+b") as fh:
            fh.seek(record.offset + 60)
            fh.write(b"\xff\xff")
        # valid acknowledged history follows the damaged frame, so this
        # is interior corruption: reopening must refuse loudly instead
        # of silently truncating replay at the damage point
        with pytest.raises(StoreCorruption):
            GraphStore.open(str(tmp_path / "s"))

    def test_materialize_surfaces_corruption(self, aml20, tmp_path):
        """Damage inflicted *after* the store is open (the index still
        trusts the frame) must surface as StoreCorruption the moment
        replay walks over it, not as a silently wrong snapshot."""
        store = GraphStore.from_dtdg(str(tmp_path / "s"), aml20,
                                     base_interval=None)
        record = store.wal.read(3)
        with open(store.wal.path, "r+b") as fh:
            fh.seek(record.offset + 60)
            fh.write(b"\xff\xff")
        with pytest.raises(StoreCorruption):
            store.replay_to(aml20.num_timesteps - 1)
        with pytest.raises(StoreCorruption):
            store.materialize(aml20.num_timesteps - 2, cached=False)

    def test_store_requires_header(self, tmp_path):
        path = tmp_path / "s"
        path.mkdir()
        (path / "wal.log").write_bytes(b"")
        with pytest.raises(StoreError):
            GraphStore.open(str(path))

    def test_create_refuses_existing(self, aml20, tmp_path):
        GraphStore.from_dtdg(str(tmp_path / "s"), aml20)
        with pytest.raises(StoreError):
            GraphStore.create(str(tmp_path / "s"), aml20.num_vertices)


class TestStoreView:
    def test_window_is_lazy_dtdg(self, aml20, tmp_path):
        store = GraphStore.from_dtdg(str(tmp_path / "s"), aml20,
                                     base_interval=6)
        view = store.window(3, 15)
        assert isinstance(view, StoreView)
        assert view.num_timesteps == 12
        assert view.num_vertices == aml20.num_vertices
        assert view[0] == aml20[3]
        assert view[-1] == aml20[14]
        assert len(list(view)) == 12
        for got, want in zip(view, aml20.snapshots[3:15]):
            assert got == want

    def test_view_slice_time(self, aml20, tmp_path):
        store = GraphStore.from_dtdg(str(tmp_path / "s"), aml20)
        inner = store.window(2, 18).slice_time(1, 5)
        assert inner.num_timesteps == 4
        assert inner[0] == aml20[3]

    def test_view_features_from_store(self, tmp_path):
        d = small_dtdg()
        d.set_features([np.full((d.num_vertices, 2), float(t))
                        for t in range(d.num_timesteps)])
        store = GraphStore.from_dtdg(str(tmp_path / "s"), d)
        view = store.window(2, 6)
        assert view.feature_dim == 2
        np.testing.assert_array_equal(view.features[0],
                                      d.features[2])

    def test_view_features_none_when_missing(self, tmp_path):
        store = GraphStore.from_dtdg(str(tmp_path / "s"), small_dtdg())
        assert store.window().features is None

    def test_set_features_overrides(self, tmp_path):
        store = GraphStore.from_dtdg(str(tmp_path / "s"), small_dtdg())
        view = store.window(0, 4)
        frames = [np.ones((view.num_vertices, 3)) * t for t in range(4)]
        view.set_features(frames)
        assert view.feature_dim == 3
        np.testing.assert_array_equal(view.features[3], frames[3])

    def test_bad_window_rejected(self, tmp_path):
        store = GraphStore.from_dtdg(str(tmp_path / "s"), small_dtdg())
        with pytest.raises(StoreError):
            store.window(5, 3)
        with pytest.raises(StoreError):
            store.window(0, 99)

    def test_sequential_iteration_chains_hints(self, aml20, tmp_path):
        """Iterating a view costs ~one delta per step, not a replay
        from the nearest base per step."""
        store = GraphStore.from_dtdg(str(tmp_path / "s"), aml20,
                                     base_interval=None)
        store._mat_cache.clear()
        before = store.records_replayed
        list(store.window(0, 20))
        assert store.records_replayed - before <= 21

    def test_stats_match_in_memory(self, aml20, tmp_path):
        store = GraphStore.from_dtdg(str(tmp_path / "s"), aml20)
        got = store.window().stats()
        want = aml20.stats()
        assert got.total_nnz == want.total_nnz
        assert got.mean_overlap == pytest.approx(want.mean_overlap)


class TestFeaturesAndMisc:
    def test_feature_shape_validated(self, tmp_path):
        store = GraphStore.from_dtdg(str(tmp_path / "s"), small_dtdg())
        with pytest.raises(StoreError):
            store.append_features(np.zeros((3, 2)))

    def test_features_require_sealed_step(self, tmp_path):
        store = GraphStore.create(str(tmp_path / "s"), 10)
        with pytest.raises(StoreError):
            store.append_features(np.zeros((10, 2)))

    def test_engine_state_pruning(self, tmp_path):
        store = GraphStore.from_dtdg(str(tmp_path / "s"), small_dtdg())
        for i in range(4):
            store.seal_step()
            store.save_engine_state({"type": "engine", "i": i},
                                    {"x": np.arange(3)}, keep=2)
        states = store._engine_states()
        assert len(states) == 2
        meta, arrays = store.latest_engine_state()
        assert meta["i"] == 3
        np.testing.assert_array_equal(arrays["x"], np.arange(3))
