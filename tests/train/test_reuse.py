"""Cross-timestep aggregation reuse: exactness, gradients, fallbacks.

The reuse layer's contract is *bit-exactness*: patched/memoized
aggregations (and the gradients routed through them) must equal the
always-full execution — not approximately, exactly.  These tests pin
that contract on the kernel flavors, on the cache's decision cascade,
and end-to-end through the sequential oracle and the trainer.
"""

import numpy as np
import pytest

from repro.cluster.cluster import Cluster
from repro.errors import DatasetError
from repro.cluster.config import ClusterSpec
from repro.graph.diff import diff_snapshots, encode_sequence
from repro.graph.dtdg import DTDG
from repro.graph.inc_laplacian import diff_touched_vertices
from repro.graph.snapshot import GraphSnapshot
from repro.models import MODEL_NAMES, build_model
from repro.store.codec import decode_diff, encode_diff
from repro.tensor import Tensor
from repro.tensor.sparse import (SparseMatrix, spmm, spmm_memo, spmm_patch)
from repro.train.distributed import DistConfig, DistributedTrainer
from repro.train.preprocess import compute_laplacians_with_diffs
from repro.train.reuse import AggregationCache
from repro.train.tasks import LinkPredictionTask
from tests.helpers import sequential_fit


def _chain(n=40, steps=5, seed=0):
    """A snapshot chain whose transitions touch a couple of edges."""
    rng = np.random.default_rng(seed)
    edges = set()
    while len(edges) < 3 * n:
        u, v = rng.integers(0, n, size=2)
        edges.add((int(u), int(v)))
    snaps = []
    current = set(edges)
    for _ in range(steps):
        arr = np.array(sorted(current), dtype=np.int64)
        snaps.append(GraphSnapshot(n, arr))
        # mutate a couple of edges for the next step
        current = set(current)
        for _ in range(2):
            current.discard(next(iter(current)))
            u, v = rng.integers(0, n, size=2)
            current.add((int(u), int(v)))
    return snaps


class TestKernelFlavors:
    def setup_method(self):
        rng = np.random.default_rng(7)
        self.s = SparseMatrix(
            (rng.random((30, 30)) < 0.2).astype(np.float64))
        self.x = Tensor(rng.standard_normal((30, 4)), requires_grad=True)

    def test_spmm_memo_values_and_gradient(self):
        full = spmm(self.s, self.x)
        memo = spmm_memo(self.s, self.x, full.data)
        np.testing.assert_array_equal(memo.data, full.data)
        g = np.random.default_rng(1).standard_normal(full.shape)
        full.backward(g)
        ref = self.x.grad.copy()
        self.x.zero_grad()
        memo.backward(g)
        np.testing.assert_array_equal(self.x.grad, ref)

    def test_spmm_patch_rows_bit_identical(self):
        full = spmm(self.s, Tensor(self.x.data))
        rows = np.array([1, 5, 9, 22], dtype=np.int64)
        base = full.data.copy()
        base[rows] = -1.0  # stale rows the patch must overwrite
        out = spmm_patch(self.s, Tensor(self.x.data), rows, base)
        np.testing.assert_array_equal(out.data, full.data)

    def test_spmm_patch_chain_gradients_match_full(self):
        """Gradient through a patched chain == gradient through two
        independent full products, when the untouched rows carry the
        same function (here: literally the same upstream tensor)."""
        rows = np.array([2, 3, 17], dtype=np.int64)
        # reference: two full products of the same operand
        x_ref = Tensor(self.x.data.copy(), requires_grad=True)
        y0_ref = spmm(self.s, x_ref)
        y1_ref = spmm(self.s, x_ref)
        (y0_ref.sum() + y1_ref.sum()).backward()
        # chained: second product patches the first
        x = Tensor(self.x.data.copy(), requires_grad=True)
        y0 = spmm(self.s, x)
        y1 = spmm_patch(self.s, x, rows, y0.data, parent=y0)
        (y0.sum() + y1.sum()).backward()
        np.testing.assert_allclose(x.grad, x_ref.grad, atol=1e-12)

    def test_spmm_patch_empty_rows_is_free_reuse(self):
        full = spmm(self.s, Tensor(self.x.data))
        out = spmm_patch(self.s, Tensor(self.x.data),
                         np.empty(0, dtype=np.int64), full.data)
        assert out.data is full.data  # no copy on a zero-row patch


class TestAggregationCache:
    def _cache(self, snaps, temporal=("local",), crossover=0.9):
        dtdg = DTDG(list(snaps), name="chain")
        laps, diffs = compute_laplacians_with_diffs(dtdg)
        return laps, AggregationCache(laps, diffs, snaps, list(temporal),
                                      crossover=crossover)

    def test_patched_chain_equals_full(self):
        snaps = _chain()
        laps, cache = self._cache(snaps)
        x = Tensor(np.random.default_rng(3).standard_normal((40, 6)))
        outs = [cache.aggregate(0, t, lap, x)
                for t, lap in enumerate(laps)]
        for lap, out in zip(laps, outs):
            np.testing.assert_array_equal(out.data, (lap.csr @ x.data))
        assert cache.stats.patches == len(laps) - 1
        assert cache.stats.full_spmm == 1

    def test_memo_hit_on_repeated_operand(self):
        snaps = _chain()
        laps, cache = self._cache(snaps)
        x = Tensor(np.ones((40, 3)))
        first = cache.aggregate(0, 2, laps[2], x)
        again = cache.aggregate(0, 2, laps[2], Tensor(x.data.copy()))
        assert cache.stats.memo_hits == 1
        np.testing.assert_array_equal(first.data, again.data)

    def test_crossover_falls_back_to_full(self):
        snaps = _chain()
        laps, cache = self._cache(snaps, crossover=1e-6)
        x = Tensor(np.ones((40, 3)))
        for t, lap in enumerate(laps):
            out = cache.aggregate(0, t, lap, x)
            np.testing.assert_array_equal(out.data, lap.csr @ x.data)
        assert cache.stats.patches == 0
        assert cache.stats.crossover_fallbacks == len(laps) - 1

    def test_store_decoded_diffs_patch(self):
        """A delta read back from the store names its touched vertices
        like the encoder's, so reuse patches over it exactly."""
        snaps = _chain()
        dtdg = DTDG(list(snaps), name="chain")
        laps, diffs = compute_laplacians_with_diffs(dtdg)
        decoded = [decode_diff(encode_diff(prev, curr, d, t), prev)[0]
                   for t, (prev, curr, d)
                   in enumerate(zip(snaps, snaps[1:], diffs))]
        cache = AggregationCache(laps, decoded, snaps, ["local"],
                                 crossover=0.9)
        x = Tensor(np.ones((40, 3)))
        for t, lap in enumerate(laps):
            out = cache.aggregate(0, t, lap, x)
            np.testing.assert_array_equal(out.data, lap.csr @ x.data)
        assert cache.stats.patches == len(laps) - 1

    def test_unknown_operator_runs_full(self):
        snaps = _chain()
        laps, cache = self._cache(snaps)
        foreign = SparseMatrix(np.eye(40))
        x = Tensor(np.ones((40, 3)))
        out = cache.aggregate(0, 1, foreign, x)
        np.testing.assert_array_equal(out.data, x.data)
        assert cache.stats.full_spmm == 1

    def test_touched_vertices_include_value_changes(self):
        n = 6
        a = GraphSnapshot(n, np.array([[0, 1], [2, 3], [4, 5]]),
                          np.array([1.0, 1.0, 1.0]))
        b = GraphSnapshot(n, np.array([[0, 1], [2, 3], [4, 5]]),
                          np.array([1.0, 7.0, 1.0]))
        diff = diff_snapshots(a, b)
        touched = diff_touched_vertices(diff, b)
        np.testing.assert_array_equal(touched, [2, 3])
        # changed positions only name edges of the snapshot they produce
        with pytest.raises(DatasetError):
            diff_touched_vertices(diff, GraphSnapshot(n, [[0, 1]]))


def _amlsim(seed=5):
    from repro.graph import AMLSimConfig, generate_amlsim
    return generate_amlsim(AMLSimConfig(
        num_accounts=250, num_timesteps=7, background_per_step=900,
        partner_persistence=0.9, seed=seed)).dtdg


class TestTrainerExactness:
    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_single_device_losses_and_grads_exact(self, name):
        grads = {}
        losses = {}
        for reuse in (False, True):
            dtdg = _amlsim()
            model = build_model(name, in_features=2, seed=0)
            task = LinkPredictionTask(dtdg, embed_dim=model.embed_dim,
                                      seed=1)
            losses[reuse] = sequential_fit(
                model, dtdg, task, num_blocks=2, epochs=2,
                learning_rate=0.01, reuse_aggregation=reuse).losses
            grads[reuse] = [None if p.grad is None else p.grad.copy()
                            for p in model.parameters()]
        assert losses[False] == pytest.approx(losses[True], abs=1e-9)
        for a, b in zip(grads[False], grads[True]):
            if a is None:
                assert b is None
            else:
                np.testing.assert_allclose(a, b, atol=1e-9)

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_reuse_reports_aggregation_savings(self, name):
        dtdg = _amlsim()
        model = build_model(name, in_features=2, seed=0)
        task = LinkPredictionTask(dtdg, embed_dim=model.embed_dim, seed=1)
        fit = sequential_fit(model, dtdg, task, num_blocks=2, epochs=2,
                             learning_rate=0.01, reuse_aggregation=True)
        warm = fit.reuse_stats[1]
        assert warm.full_equivalent_flops > 0
        # the checkpointed re-run sweep memoizes, so the warm epoch
        # executes well under half the always-full FLOPs
        assert warm.forward_flops < 0.5 * warm.full_equivalent_flops
        assert warm.memo_hits > 0

    @pytest.mark.parametrize("mode", ["snapshot", "vertex", "hybrid"])
    def test_distributed_losses_exact_and_halos_shrink(self, mode):
        losses = {}
        last = {}
        for reuse in (False, True):
            dtdg = _amlsim()
            model = build_model("tmgcn", in_features=2, seed=0)
            task = LinkPredictionTask(dtdg, embed_dim=model.embed_dim,
                                      seed=1)
            cluster = Cluster(ClusterSpec(), 4)
            kwargs = {"group_size": 4} if mode == "hybrid" else {}
            trainer = DistributedTrainer(
                model, dtdg, task, cluster,
                DistConfig(partitioning=mode, reuse_aggregation=reuse,
                           **kwargs))
            results = trainer.fit(2)
            losses[reuse] = [r.loss for r in results]
            last[reuse] = results[-1]
        assert losses[False] == pytest.approx(losses[True], abs=1e-9)
        if mode in ("vertex", "hybrid"):
            # delta halos ship strictly less than the full exchange
            assert last[True].comm_volume_units < \
                last[True].comm_volume_full_units
            assert last[True].comm_volume_units < \
                last[False].comm_volume_units
        else:
            assert last[True].comm_volume_units == \
                last[True].comm_volume_full_units


class TestWindowPropagation:
    def test_tmgcn_deeper_layers_patch_and_stay_exact(self):
        """A sparse ring with one-edge deltas: TM-GCN's window profile
        keeps deeper layers patchable, and the outputs stay identical
        to the hook-free forward."""
        n = 300
        ring = np.stack([np.arange(n), (np.arange(n) + 1) % n], axis=1)
        snaps = []
        edges = ring
        for t in range(6):
            snaps.append(GraphSnapshot(n, edges))
            extra = np.array([[t * 17 % n, (t * 29 + 3) % n]])
            edges = np.concatenate([ring, extra])
        dtdg = DTDG(snaps, name="ring")
        laps, diffs = compute_laplacians_with_diffs(dtdg)
        model = build_model("tmgcn", in_features=2, seed=0, window=2)
        from repro.train.preprocess import degree_features
        frames = [Tensor(f) for f in degree_features(dtdg)]

        ref = model(laps, frames)
        cache = AggregationCache(laps, diffs, snaps,
                                 model.reuse_profile(), crossover=0.5)
        model.set_aggregation_hook(cache.aggregate)
        try:
            got = model(laps, frames)
        finally:
            model.set_aggregation_hook(None)
        for a, b in zip(ref, got):
            np.testing.assert_array_equal(a.data, b.data)
        # both layers patched (layer 1 through the window profile)
        assert cache.stats.patches > len(snaps) - 1
