"""The batch reservoir's contract: ``Histogram.observe_many`` is
``observe`` applied in stream order, at per-batch cost.

Seeded, no timing.  Scalar ``observe`` is the oracle throughout: the
same stream cut into any chunks must leave the same ``count``, the
same reservoir, and a ``sum`` that differs only by summation order.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.obs.registry import Histogram
from repro.serve.metrics import LatencyTracker

_finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False,
                    allow_infinity=False)


def _chunks(values, sizes):
    """Cut ``values`` into runs of ``sizes`` (0 = an empty batch), the
    remainder as one last run."""
    out, i = [], 0
    for size in sizes:
        out.append(values[i:i + size])
        i += size
    out.append(values[i:])
    return out


def _scalar(values, **kwargs) -> Histogram:
    hist = Histogram(**kwargs)
    for v in values:
        hist.observe(v)
    return hist


def _batched(values, sizes, **kwargs) -> Histogram:
    hist = Histogram(**kwargs)
    for chunk in _chunks(values, sizes):
        hist.observe_many(chunk)
    return hist


def _state(hist: Histogram):
    return (hist.count, hist.sum, hist.sampled, list(hist._samples),
            hist.p50, hist.p99)


class TestSameAsScalar:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(_finite, max_size=64),
           st.lists(st.integers(0, 9), max_size=12))
    def test_below_capacity_any_chunking_leaves_the_scalar_reservoir(
            self, values, sizes):
        want = _scalar(values, reservoir_size=64)
        got = _batched(values, sizes, reservoir_size=64)
        assert got._samples == want._samples     # sample for sample
        assert got.count == want.count == len(values)
        assert got.sum == pytest.approx(want.sum, rel=1e-12, abs=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(_finite, min_size=1, max_size=200),
           st.lists(st.integers(0, 40), max_size=8),
           st.integers(1, 16), st.integers(0, 5))
    def test_beyond_capacity_too(self, values, sizes, reservoir, seed):
        """The scalar draw and the batch draw read the same generator
        stream, so the equivalence does not stop at the fill point: the
        chunks here straddle it, start past it, and include runs of one."""
        want = _scalar(values, reservoir_size=reservoir, seed=seed)
        got = _batched(values, sizes, reservoir_size=reservoir, seed=seed)
        assert got._samples == want._samples
        assert got.count == want.count

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(["one", "many", "read"]),
                              st.lists(_finite, max_size=30)),
                    max_size=25),
           st.integers(1, 16))
    def test_interleaved_scalars_batches_and_reads(self, ops, reservoir):
        """Batches wait to be offered to the reservoir; a scalar
        ``observe`` and every read must still see the stream in order."""
        got = Histogram(reservoir_size=reservoir, seed=4)
        stream = []
        for op, values in ops:
            if op == "one" and values:
                got.observe(values[0])
                stream.append(values[0])
            elif op == "many":
                batch = np.array(values)
                got.observe_many(batch)
                stream.extend(values)
                batch[:] = -1.0          # the caller reuses its buffer
            else:
                got.percentile(50.0)
        want = _scalar(stream, reservoir_size=reservoir, seed=4)
        assert got._samples == want._samples
        assert got.count == want.count

    def test_the_fold_waits_for_a_read_or_a_full_reservoir(self):
        hist = Histogram(reservoir_size=256, seed=6)
        hist.observe_many(np.arange(300.0))          # full, 44 competed
        state = hist._rng.bit_generator.state
        for i in range(3):
            hist.observe_many(np.arange(64.0) + i)   # 192 pending
        assert hist._rng.bit_generator.state == state
        hist.observe_many(np.arange(64.0))           # 256 pending: fold
        assert hist._rng.bit_generator.state != state
        state = hist._rng.bit_generator.state
        hist.observe_many(np.arange(8.0))
        assert hist._rng.bit_generator.state == state
        hist.p50                                     # a read folds
        assert hist._rng.bit_generator.state != state

    def test_count_exact_and_sum_close_on_100k_stream(self):
        values = np.random.default_rng(42).exponential(5.0, size=100_000)
        want = _scalar(values.tolist(), reservoir_size=1024)
        got = Histogram(reservoir_size=1024)
        for i in range(0, len(values), 64):
            got.observe_many(values[i:i + 64])
        assert got.count == want.count == 100_000
        assert got.sum == pytest.approx(want.sum, rel=1e-12)
        assert got.sampled == 1024
        assert got._samples == want._samples

    def test_chunk_straddling_the_fill_point(self):
        hist = Histogram(reservoir_size=8, seed=1)
        hist.observe_many(np.arange(5.0))
        hist.observe_many(np.arange(5.0, 20.0))       # 3 fill, 12 compete
        assert hist.sampled == 8 and hist.count == 20
        assert hist._samples == _scalar(np.arange(20.0).tolist(),
                                        reservoir_size=8, seed=1)._samples
        assert set(hist._samples) <= set(np.arange(20.0).tolist())

    def test_empty_batch_moves_nothing(self):
        hist = Histogram(reservoir_size=4, seed=2)
        hist.observe_many([1.0, 2.0, 3.0, 4.0, 5.0])
        before, rng_state = _state(hist), hist._rng.bit_generator.state
        for empty in ([], (), np.empty(0)):
            hist.observe_many(empty)
        assert _state(hist) == before
        assert hist._rng.bit_generator.state == rng_state

    def test_samples_stay_plain_floats(self):
        """The harvest path hashes and ships the reservoir: numpy
        scalars must not leak into it."""
        hist = Histogram(reservoir_size=4)
        hist.observe_many(np.arange(32, dtype=np.float32))
        assert all(type(v) is float for v in hist._samples)

    def test_latency_tracker_record_many_forwards(self):
        tracker, want = LatencyTracker(seed=3), LatencyTracker(seed=3)
        values = np.random.default_rng(0).exponential(2.0, size=6000)
        for i in range(0, 6000, 100):
            tracker.record_many(values[i:i + 100])
        for v in values:
            want.record(float(v))
        assert tracker.count == 6000 and tracker.sampled == 4096
        assert tracker._samples == want._samples


class TestAllOrNothing:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                     float("-inf")])
    @pytest.mark.parametrize("prefill", [3, 40])    # below / beyond capacity
    def test_non_finite_mid_batch_leaves_every_statistic_untouched(
            self, bad, prefill):
        hist = Histogram(reservoir_size=16, seed=5)
        hist.observe_many(np.arange(float(prefill)))
        before, rng_state = _state(hist), hist._rng.bit_generator.state
        with pytest.raises(ValueError, match="non-finite"):
            hist.observe_many([1.0, 2.0, bad, 4.0])
        assert _state(hist) == before
        assert hist._rng.bit_generator.state == rng_state
        hist.observe_many([1.0, 2.0])               # and it still works
        assert hist.count == prefill + 2

    @pytest.mark.filterwarnings("ignore:.*encountered in reduce")
    def test_inf_and_minus_inf_cancelling_in_the_sum_still_rejected(self):
        hist = Histogram()
        with pytest.raises(ValueError, match="non-finite"):
            hist.observe_many([float("inf"), float("-inf"), 1.0])
        assert hist.count == 0 and hist.sum == 0.0

    @pytest.mark.filterwarnings("ignore:.*encountered in reduce")
    def test_finite_values_whose_sum_overflows_are_not_rejected(self):
        """Only a non-finite *observation* is refused — the batch form
        must not invent a rejection scalar ``observe`` does not make."""
        hist = Histogram()
        hist.observe_many([1.7e308, 1.7e308])
        assert hist.count == 2 and math.isinf(hist.sum)


class TestSeededSampling:
    def test_same_seed_same_reservoir(self):
        values = np.random.default_rng(9).lognormal(1.0, 0.7, size=5000)

        def run(seed):
            hist = Histogram(reservoir_size=64, seed=seed)
            for i in range(0, 5000, 50):
                hist.observe_many(values[i:i + 50])
            return list(hist._samples)

        assert run(3) == run(3)
        assert run(3) != run(4)

    def test_one_rng_draw_per_batch(self):
        """The batch form draws once, however long the batch."""
        hist = Histogram(reservoir_size=8, seed=0)
        hist.observe_many(np.arange(8.0))           # fill: no draw at all
        fresh = np.random.default_rng(0)
        assert hist._rng.bit_generator.state == fresh.bit_generator.state

        class CountingRng:
            calls = 0

            def random(self, size=None):
                CountingRng.calls += 1
                return fresh.random(size)

        hist._rng = CountingRng()
        hist.observe_many(np.arange(500.0))
        assert CountingRng.calls == 1
        hist.observe(1.0)
        assert CountingRng.calls == 2

    def test_inclusion_is_uniform_over_the_stream(self):
        """Reservoir 32 over a stream of 1,000 fed in chunks of 50: over
        3,000 fixed seeds every stream decile is kept with frequency
        32/1000, to +-0.002."""
        stream = np.arange(1000.0)
        kept = np.zeros(1000)
        for seed in range(3000):
            hist = Histogram(reservoir_size=32, seed=seed)
            for i in range(0, 1000, 50):
                hist.observe_many(stream[i:i + 50])
            assert hist.sampled == 32
            assert len(set(hist._samples)) == 32    # no item kept twice
            kept[np.asarray(hist._samples, dtype=np.int64)] += 1
        per_decile = kept.reshape(10, 100).mean(axis=1) / 3000
        assert np.abs(per_decile - 0.032).max() < 0.002, per_decile
