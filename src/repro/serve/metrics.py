"""Serving-side observability: latency percentiles and server counters.

The counters mirror what a production inference tier exports: request
throughput, per-request latency percentiles, the ingest rate, and the
cache economics of the incremental engine (rows recomputed vs rows
served from the embedding cache).

Since the unified observability layer (:mod:`repro.obs`) landed, this
module is a thin serving-flavored veneer over it:
:class:`LatencyTracker` *is* an :class:`repro.obs.registry.Histogram`
(same bounded reservoir, same exact count/mean), kept as a named alias
because "latency" is the serving tier's vocabulary and because servers
attach it into their metrics registry so the exporters see one source
of truth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from repro.obs.registry import Histogram

__all__ = ["LatencyTracker", "FrontendCounters", "ServerCounters",
           "FrontendStats", "ServerStats"]


class LatencyTracker(Histogram):
    """Collects per-request latencies and reports percentiles.

    Samples live in a **fixed-size reservoir** (Vitter's Algorithm R
    with a deterministic generator), so a long-running server's memory
    stays bounded no matter how many requests it answers.  Below
    ``reservoir_size`` recorded latencies the reservoir holds every
    sample and the percentiles are exact; beyond it each recorded value
    displaces a uniformly chosen slot, keeping an unbiased sample of
    the whole stream.  ``count`` and ``mean`` track the *full* stream
    exactly (a running counter and sum), only the percentile estimates
    come from the reservoir.

    Non-finite latencies are rejected with a :class:`ValueError` — one
    NaN would silently poison the running mean (and every percentile)
    for the rest of the server's life.
    """

    def __init__(self, reservoir_size: int = 4096, seed: int = 0) -> None:
        super().__init__(reservoir_size, seed)

    def record(self, latency_ms: float) -> None:
        self.observe(latency_ms)

    def record_many(self, latencies_ms) -> None:
        """One micro-batch of latencies at per-batch cost
        (:meth:`~repro.obs.registry.Histogram.observe_many`)."""
        self.observe_many(latencies_ms)


@dataclass
class FrontendCounters:
    """Monotonic counters every serving tier's front door increments
    (:class:`~repro.serve.server.QueryFrontend`); each tier's counter
    class adds the fields only it keeps."""

    queries_submitted: int = 0
    queries_completed: int = 0
    batches_flushed: int = 0
    events_ingested: int = 0
    commits: int = 0
    refreshes: int = 0
    advances: int = 0
    rows_recomputed: int = 0        # by refreshes and settles (cache economics)
    rows_advanced: int = 0          # by timestep-boundary advances


@dataclass
class ServerCounters(FrontendCounters):
    """The counters of a :class:`~repro.serve.server.ModelServer`."""

    rows_served_from_cache: int = 0

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of vertex-rows served from the embedding cache
        across all refreshes (advances recompute everything and are
        excluded — they are timeline steps, not cache lookups)."""
        total = self.rows_recomputed + self.rows_served_from_cache
        return self.rows_served_from_cache / total if total else float("nan")


@dataclass(frozen=True)
class FrontendStats:
    """Point-in-time snapshot of a serving tier's observable state.

    The counters really are a snapshot: construction copies the
    (mutable) counters it is handed, so traffic served after
    ``stats()`` never mutates an already-taken stats object.
    """

    counters: FrontendCounters
    latency_p50_ms: float
    latency_p95_ms: float
    latency_p99_ms: float
    latency_mean_ms: float
    elapsed_s: float

    def __post_init__(self) -> None:
        # defensive copy no matter which call site built us — a live
        # reference here would falsify every later read of the snapshot
        object.__setattr__(self, "counters", replace(self.counters))

    @property
    def queries_per_second(self) -> float:
        if self.elapsed_s <= 0:
            return float("nan")
        return self.counters.queries_completed / self.elapsed_s


@dataclass(frozen=True)
class ServerStats(FrontendStats):
    """A :class:`~repro.serve.server.ModelServer`'s stats."""

    def row(self) -> tuple:
        """One table row: queries, qps, p50/p95/p99 ms, cache hit rate."""
        hit_rate = self.counters.cache_hit_rate
        return (self.counters.queries_completed,
                round(self.queries_per_second, 1),
                round(self.latency_p50_ms, 3),
                round(self.latency_p95_ms, 3),
                round(self.latency_p99_ms, 3),
                None if math.isnan(hit_rate) else round(hit_rate, 3))
