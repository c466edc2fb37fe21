"""Metrics registry: counters, gauges, histograms, labeled series."""

import math

import pytest

from repro.obs import Counter, Gauge, Histogram, MetricsRegistry


class TestCounter:
    def test_inc_accumulates(self):
        c = Counter()
        c.inc()
        c.inc(4)
        assert c.value == 5.0

    def test_negative_inc_rejected(self):
        c = Counter()
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_nan_inc_rejected(self):
        with pytest.raises(ValueError):
            Counter().inc(float("nan"))

    def test_set_to_is_monotonic(self):
        c = Counter()
        c.set_to(10)
        c.set_to(7)     # stale sync: never moves backwards
        assert c.value == 10.0
        c.set_to(12)
        assert c.value == 12.0


class TestGauge:
    def test_set_inc(self):
        g = Gauge()
        g.set(5)
        g.inc(2)
        assert g.value == 7.0

    def test_nan_set_rejected(self):
        with pytest.raises(ValueError):
            Gauge().set(float("nan"))


class TestRegistry:
    def test_get_or_create_returns_same_object(self):
        reg = MetricsRegistry()
        assert reg.counter("serve_x_total") is reg.counter("serve_x_total")

    def test_labeled_series_are_distinct(self):
        reg = MetricsRegistry()
        a = reg.counter("shard_q_total", shard="0")
        b = reg.counter("shard_q_total", shard="1")
        assert a is not b
        a.inc(3)
        assert reg.value("shard_q_total", shard="0") == 3.0
        assert reg.value("shard_q_total", shard="1") == 0.0

    def test_label_order_does_not_matter(self):
        reg = MetricsRegistry()
        a = reg.gauge("g", shard="1", model="cdgcn")
        b = reg.gauge("g", model="cdgcn", shard="1")
        assert a is b

    def test_kind_mismatch_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x_total")
        with pytest.raises(ValueError):
            reg.gauge("x_total")

    def test_invalid_name_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("bad name!")

    def test_invalid_label_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("ok_total", **{"bad-label": "x"})

    def test_attach_external_histogram(self):
        reg = MetricsRegistry()
        h = Histogram()
        assert reg.attach("lat_ms", h) is h
        assert reg.get("lat_ms") is h
        # re-attach (a recovered owner re-homing its tracker) replaces
        h2 = Histogram()
        reg.attach("lat_ms", h2)
        assert reg.get("lat_ms") is h2

    def test_attach_rejects_non_metric(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.attach("x", object())

    def test_value_of_missing_series_is_zero(self):
        assert MetricsRegistry().value("nope") == 0.0

    def test_families_sorted_and_complete(self):
        reg = MetricsRegistry()
        reg.counter("b_total").inc()
        reg.gauge("a")
        names = [name for name, _, _, _ in reg.families()]
        assert names == ["a", "b_total"]

    def test_snapshot_json_friendly(self):
        import json
        reg = MetricsRegistry()
        reg.counter("c_total", "help text").inc(2)
        reg.histogram("h").observe(1.0)
        snap = reg.snapshot()
        assert snap["c_total"]["series"][0]["value"] == 2.0
        assert snap["h"]["series"][0]["value"]["count"] == 1
        json.dumps(snap)  # must not raise


class TestHistogram:
    def test_exact_below_reservoir(self):
        h = Histogram(reservoir_size=100)
        for v in range(10):
            h.observe(float(v))
        assert h.count == 10
        assert h.sum == 45.0
        assert h.percentile(0) == 0.0
        assert h.percentile(100) == 9.0

    def test_non_finite_rejected(self):
        h = Histogram()
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError):
                h.observe(bad)
        assert h.count == 0

    def test_empty_percentile_is_nan(self):
        assert math.isnan(Histogram().percentile(50))
        assert math.isnan(Histogram().mean)

    def test_bad_reservoir_size_rejected(self):
        with pytest.raises(ValueError):
            Histogram(reservoir_size=0)
