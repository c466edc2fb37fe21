"""The metrics registry: named counters, gauges and reservoir histograms.

One :class:`MetricsRegistry` is the single source of truth for a
process's observable numbers.  Every metric belongs to a *family* (one
name, one kind, one help string) and a family holds one *series* per
label set, so per-shard / per-model / per-layer breakdowns are ordinary
labeled series::

    reg = MetricsRegistry()
    reg.counter("serve_halo_bytes_total", shard="3").inc(4096)
    reg.gauge("serve_queue_depth").set(12)
    reg.histogram("store_replay_depth").observe(7)

Metric access is get-or-create: calling ``counter(name, **labels)``
twice returns the same object, so call sites need no setup phase.
Components that already keep authoritative plain-int counters (the
serving tier's ``ServerCounters``) sync them in at export time with
:meth:`Counter.set_to` — the registry never becomes a second place to
increment on the hot path.

Naming scheme (see ``docs/observability.md``): ``<tier>_<subject>_<unit>``
with counters ending ``_total``; tiers are ``serve``, ``shard``,
``store``, ``train`` and ``span``.  Everything here is plain Python and
single-threaded, like the rest of the repo's serving tier.
"""

from __future__ import annotations

import math
import re

import numpy as np

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry"]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


class Counter:
    """A monotonically increasing value."""

    kind = "counter"
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        amount = float(amount)
        if amount < 0.0 or not math.isfinite(amount):
            raise ValueError(
                f"counters only move forward; cannot inc by {amount}")
        self.value += amount

    def set_to(self, value: float) -> None:
        """Sync from an authoritative external counter (e.g. a
        ``ServerCounters`` int).  The external source is monotonic, so
        the registry value never moves backwards; syncing the same
        value twice is a no-op."""
        value = float(value)
        if not math.isfinite(value):
            raise ValueError(f"cannot sync counter to {value}")
        if value > self.value:
            self.value = value


class Gauge:
    """A value that can go up and down (queue depth, resident bytes)."""

    kind = "gauge"
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        value = float(value)
        if math.isnan(value):
            raise ValueError("cannot set a gauge to NaN")
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        self.value += float(amount)


class Histogram:
    """A bounded-reservoir distribution (Vitter's Algorithm R).

    ``count``/``sum``/``mean`` track the *full* observation stream
    exactly (a running counter and sum); percentiles come from a
    fixed-size uniform sample of the stream, so memory stays bounded on
    arbitrarily long runs.  Below ``reservoir_size`` observations the
    reservoir holds every sample and percentiles are exact.

    Non-finite observations are rejected with a :class:`ValueError`:
    one NaN would otherwise silently poison ``mean`` (and every
    percentile) forever.
    """

    kind = "histogram"
    __slots__ = ("reservoir_size", "_reservoir", "_pending", "_npending",
                 "_count", "_sum", "_rng")

    def __init__(self, reservoir_size: int = 1024, seed: int = 0) -> None:
        if reservoir_size < 1:
            raise ValueError(
                f"reservoir_size must be >= 1, got {reservoir_size}")
        self.reservoir_size = reservoir_size
        self._reservoir: list[float] = []
        # observe_many's batches not yet offered to the reservoir: the
        # last _npending items of the stream
        self._pending: list[np.ndarray] = []
        self._npending = 0
        self._count = 0
        self._sum = 0.0
        self._rng = np.random.default_rng(seed)

    @property
    def _samples(self) -> list[float]:
        """The reservoir, every recorded value offered to it."""
        if self._pending:
            self._fold()
        return self._reservoir

    def _fold(self) -> None:
        """Offer the pending batches to the reservoir as one run."""
        values = np.concatenate(self._pending).tolist()
        first = self._count - self._npending + 1
        self._pending, self._npending = [], 0
        self._offer(values, first)

    def observe(self, value: float) -> None:
        value = float(value)
        if not math.isfinite(value):
            raise ValueError(
                f"refusing non-finite observation {value!r}: it would "
                f"silently poison the running mean and every percentile")
        if self._pending:
            self._fold()
        self._count += 1
        self._sum += value
        self._offer((value,), self._count)

    def observe_many(self, values) -> None:
        """:meth:`observe` applied to each of ``values`` in stream
        order, at one validation and one sum per batch.

        All-or-nothing: a non-finite value anywhere in the batch raises
        :class:`ValueError` before any stream state moves.  ``count`` is
        exact; ``sum`` accumulates the batch's own sum (so it can differ
        from the scalar path in the last bits).  The reservoir update
        waits until ``reservoir_size`` values are pending or something
        reads the reservoir, then runs once over all of them; it ends up
        sample for sample where scalar calls would have left it.
        """
        # a copy: the batch is read again when it is folded
        values = np.array(values, dtype=np.float64).ravel()
        if not values.size:
            return
        total = float(np.add.reduce(values))
        # a finite sum proves every term finite (NaN and inf both
        # survive addition); only a non-finite one needs the full scan
        if not math.isfinite(total) and not np.isfinite(values).all():
            raise ValueError(
                "refusing a batch with non-finite observations: they "
                "would silently poison the running mean and every "
                "percentile")
        self._count += values.size
        self._sum += total
        self._pending.append(values)
        self._npending += values.size
        if self._npending >= self.reservoir_size:
            self._fold()

    def _offer(self, values, first: int) -> None:
        """The one reservoir update rule.  ``values`` (a sequence of
        finite floats) are items ``first, first + 1, ...`` of the
        stream, 1-based: they fill the reservoir while there is room;
        after that item ``i`` draws slot ``floor(u * i)`` with ``u``
        uniform on [0, 1) and lands only if the slot is inside the
        reservoir — Algorithm R: the item is kept with probability
        ``reservoir_size / i`` — applied in stream order, so a later
        item wins a shared slot.  One RNG call covers the whole run,
        and a run of one draws a plain float, so a stream split into
        runs any way leaves the same reservoir."""
        samples = self._reservoir
        size = self.reservoir_size
        room = size - len(samples)
        if room >= len(values):
            samples.extend(values)
            return
        if room > 0:
            samples.extend(values[:room])
            values = values[room:]
            first += room
        if len(values) == 1:
            slot = int(self._rng.random() * first)
            if slot < size:
                samples[slot] = values[0]
            return
        slots = (self._rng.random(len(values))
                 * np.arange(first, first + len(values))).astype(np.int64)
        landed = (slots < size).nonzero()[0]
        for j, slot in zip(landed.tolist(), slots[landed].tolist()):
            samples[slot] = values[j]

    @property
    def count(self) -> int:
        """Total observations (the full stream, not the sample)."""
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def sampled(self) -> int:
        """Observations currently resident in the reservoir."""
        return len(self._samples)

    @property
    def mean(self) -> float:
        """Exact mean over the full stream."""
        if self._count == 0:
            return float("nan")
        return self._sum / self._count

    def percentile(self, q: float) -> float:
        """Percentile of the stream (``q`` in [0, 100]); exact while
        the stream fits the reservoir, an unbiased estimate beyond."""
        if not self._samples:
            return float("nan")
        return float(np.percentile(np.asarray(self._samples), q))

    @property
    def p50(self) -> float:
        return self.percentile(50.0)

    @property
    def p95(self) -> float:
        return self.percentile(95.0)

    @property
    def p99(self) -> float:
        return self.percentile(99.0)

    def frac_over(self, threshold: float) -> float:
        """Fraction of the (sampled) stream strictly above
        ``threshold`` — the SLO engine's bad-event estimator; NaN on an
        empty reservoir."""
        if not self._samples:
            return float("nan")
        over = sum(1 for v in self._samples if v > threshold)
        return over / len(self._samples)

    def absorb(self, count: int, total: float, samples) -> None:
        """Merge another histogram's contribution *losslessly on
        count/sum* (exact running totals) and union its reservoir
        samples into this one.  While the combined stream fits the
        reservoir every sample is kept and percentiles stay exact;
        beyond capacity incoming samples displace uniform slots, the
        same bounded-memory estimate :meth:`observe` degrades to.

        This is the registry-merge primitive: ``count``/``total`` are
        the *deltas* being folded in (a harvest ships increments), and
        ``samples`` are only the observations not yet represented here
        — the caller (``MetricsRegistry.merge``) guarantees no sample
        is offered twice."""
        count = int(count)
        total = float(total)
        if count < 0 or not math.isfinite(total):
            raise ValueError(
                f"cannot absorb count={count}, sum={total}")
        samples = [float(v) for v in samples]
        if self._pending:
            self._fold()
        self._count += count
        self._sum += total
        # the shipped samples stand for the tail of the merged stream
        self._offer(samples, max(self._count - len(samples), 0) + 1)


class _Family:
    """One metric name: a kind, a help string, and labeled series."""

    __slots__ = ("name", "kind", "help", "series")

    def __init__(self, name: str, kind: str, help: str) -> None:
        self.name = name
        self.kind = kind
        self.help = help
        self.series: dict[tuple, object] = {}


def _label_key(labels: dict) -> tuple:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _new_samples(current, previous) -> list:
    """Multiset difference ``current - previous``: the reservoir slots
    that changed since the last harvest.  Samples observed *and*
    evicted between two harvests are necessarily missed (bounded
    memory), but count/sum deltas stay exact regardless."""
    from collections import Counter
    prev = Counter(previous)
    out = []
    for v in current:
        if prev[v] > 0:
            prev[v] -= 1
        else:
            out.append(v)
    return out


class MetricsRegistry:
    """Get-or-create home of every metric family in a process.

    ``source`` names this registry in its :meth:`harvest` envelopes so
    a receiver can deduplicate redelivered harvests (an RPC retry must
    not double-count); leave it ``None`` for registries that are never
    harvested over an at-least-once channel.
    """

    def __init__(self, *, source: str | None = None) -> None:
        self._families: dict[str, _Family] = {}
        self.source = source
        self._harvest_seq = 0
        self._harvest_marks: dict[tuple, object] = {}
        self._merged_seqs: dict[tuple, int] = {}

    # -- access ------------------------------------------------------------------------
    def counter(self, name: str, help: str = "", **labels) -> Counter:
        return self._series(name, "counter", help, labels, Counter)

    def gauge(self, name: str, help: str = "", **labels) -> Gauge:
        return self._series(name, "gauge", help, labels, Gauge)

    def histogram(self, name: str, help: str = "", *,
                  reservoir_size: int = 1024, seed: int = 0,
                  **labels) -> Histogram:
        return self._series(name, "histogram", help, labels,
                            lambda: Histogram(reservoir_size, seed))

    def attach(self, name: str, metric, help: str = "", **labels):
        """Register an externally constructed metric object (e.g. a
        server's :class:`~repro.serve.metrics.LatencyTracker`, which IS
        a :class:`Histogram`) so exporters see it without the owner
        double-recording.  Re-attaching the same object is a no-op;
        attaching a *different* object under an existing series replaces
        it (a recovered server re-homing its trackers)."""
        kind = getattr(metric, "kind", None)
        if kind not in ("counter", "gauge", "histogram"):
            raise ValueError(f"cannot attach {type(metric).__name__}: "
                             f"not a Counter/Gauge/Histogram")
        family = self._family(name, kind, help)
        family.series[_label_key(labels)] = metric
        return metric

    def get(self, name: str, **labels):
        """The existing series, or ``None``."""
        family = self._families.get(name)
        if family is None:
            return None
        return family.series.get(_label_key(labels))

    def value(self, name: str, **labels) -> float:
        """Convenience scalar read (0.0 for a missing series; a
        histogram reads as its count)."""
        metric = self.get(name, **labels)
        if metric is None:
            return 0.0
        if isinstance(metric, Histogram):
            return float(metric.count)
        return float(metric.value)

    def _family(self, name: str, kind: str, help: str) -> _Family:
        family = self._families.get(name)
        if family is None:
            if not _NAME_RE.match(name):
                raise ValueError(f"invalid metric name {name!r}")
            family = _Family(name, kind, help)
            self._families[name] = family
        elif family.kind != kind:
            raise ValueError(
                f"metric {name!r} already registered as a "
                f"{family.kind}, not a {kind}")
        if help and not family.help:
            family.help = help
        return family

    def _series(self, name: str, kind: str, help: str, labels: dict,
                factory):
        family = self._family(name, kind, help)
        key = _label_key(labels)
        metric = family.series.get(key)
        if metric is None:
            for label in labels:
                if not _LABEL_RE.match(str(label)):
                    raise ValueError(f"invalid label name {label!r}")
            metric = factory()
            family.series[key] = metric
        return metric

    # -- iteration / snapshot ------------------------------------------------------------
    def families(self):
        """Yield ``(name, kind, help, [(labels_dict, metric), ...])``
        sorted by family name then label key."""
        for name in sorted(self._families):
            family = self._families[name]
            series = [(dict(key), family.series[key])
                      for key in sorted(family.series)]
            yield name, family.kind, family.help, series

    def __len__(self) -> int:
        return len(self._families)

    def __contains__(self, name: str) -> bool:
        return name in self._families

    def snapshot(self) -> dict:
        """Plain-data copy of every series (JSON-friendly; histograms
        report count/sum/mean and the standard percentiles)."""
        out: dict = {}
        for name, kind, help, series in self.families():
            entries = []
            for labels, metric in series:
                if kind == "histogram":
                    value = {"count": metric.count, "sum": metric.sum,
                             "mean": metric.mean, "p50": metric.p50,
                             "p95": metric.p95, "p99": metric.p99}
                else:
                    value = metric.value
                entries.append({"labels": labels, "value": value})
            out[name] = {"kind": kind, "help": help, "series": entries}
        return out

    # -- federation (harvest / merge) ----------------------------------------------------
    def harvest(self) -> dict:
        """Delta-encoded plain-data snapshot: only what changed since
        the previous ``harvest()`` call.

        Counters ship their increment, gauges their current value (only
        when it moved), histograms their count/sum increments plus the
        reservoir samples that appeared since the last harvest.  The
        envelope carries ``(source, seq)`` so :meth:`merge` on the
        receiving side is idempotent under redelivery — harvesting an
        unchanged registry yields an empty ``families`` map, and wire
        cost stays proportional to activity, not to registry size.
        """
        families: dict = {}
        for name, kind, help, series in self.families():
            entries = []
            for labels, metric in series:
                key = (name, _label_key(labels))
                if kind == "histogram":
                    prev = self._harvest_marks.get(key)
                    pcount, psum, psamples = prev if prev is not None \
                        else (0, 0.0, ())
                    dcount = metric.count - pcount
                    dsum = metric.sum - psum
                    if dcount == 0 and dsum == 0.0:
                        continue
                    fresh = _new_samples(metric._samples, psamples)
                    self._harvest_marks[key] = (
                        metric.count, metric.sum, tuple(metric._samples))
                    entries.append({
                        "labels": labels, "count": dcount, "sum": dsum,
                        "samples": fresh,
                        "reservoir_size": metric.reservoir_size})
                elif kind == "counter":
                    prev = self._harvest_marks.get(key, 0.0)
                    delta = metric.value - prev
                    if delta == 0.0:
                        continue
                    self._harvest_marks[key] = metric.value
                    entries.append({"labels": labels, "value": delta})
                else:  # gauge: last-write semantics, emit on change
                    prev = self._harvest_marks.get(key)
                    if prev is not None and prev == metric.value:
                        continue
                    self._harvest_marks[key] = metric.value
                    entries.append({"labels": labels,
                                    "value": metric.value})
            if entries:
                families[name] = {"kind": kind, "help": help,
                                  "series": entries}
        self._harvest_seq += 1
        return {"source": self.source, "seq": self._harvest_seq,
                "families": families}

    def merge(self, harvest: dict, *, labels: dict | None = None) -> int:
        """Fold one :meth:`harvest` envelope into this registry,
        optionally relabeling every series (``labels`` are *added*; on
        a key collision the harvester's label wins — the receiver is
        the authority on which worker a series came from).

        Lossless by kind: counters sum the shipped increments, gauges
        take the last write, histograms add count/sum exactly and union
        the shipped reservoir samples (:meth:`Histogram.absorb`).
        Envelopes carrying a ``source`` are deduplicated by ``(source,
        merge labels, seq)``: re-merging an already-applied harvest is
        a no-op, so at-least-once delivery cannot double-count.
        Returns the number of series updated.
        """
        labels = dict(labels or {})
        source = harvest.get("source")
        if source is not None:
            seq_key = (source, _label_key(labels))
            seq = int(harvest.get("seq", 0))
            if seq <= self._merged_seqs.get(seq_key, 0):
                return 0
            self._merged_seqs[seq_key] = seq
        updated = 0
        for name in sorted(harvest.get("families", {})):
            family = harvest["families"][name]
            kind = family["kind"]
            help = family.get("help", "")
            for entry in family["series"]:
                merged = dict(entry.get("labels") or {})
                merged.update(labels)
                if kind == "counter":
                    self.counter(name, help, **merged).inc(entry["value"])
                elif kind == "gauge":
                    self.gauge(name, help, **merged).set(entry["value"])
                else:
                    self.histogram(
                        name, help,
                        reservoir_size=int(entry.get("reservoir_size",
                                                     1024)),
                        **merged).absorb(entry["count"], entry["sum"],
                                         entry.get("samples", ()))
                updated += 1
        return updated
