"""Unified cross-tier observability: metrics, spans, exporters.

Every tier of the system — the streaming server, the sharded router,
the temporal store, the trainer — reports through one dependency-free
substrate:

* :class:`~repro.obs.registry.MetricsRegistry` — named counters, gauges
  and bounded-reservoir histograms, with labeled series (per-shard,
  per-model, per-layer);
* :class:`~repro.obs.tracing.Tracer` — parent/child span trees over the
  delta hot path, with a no-op fast path when disabled;
* exporters — Prometheus text exposition, a JSONL event sink, and
  human-readable tree/table dumps.

:class:`Telemetry` bundles one registry and one tracer and is the
object components accept (``telemetry=``) and share: a
:class:`~repro.serve.server.ModelServer` hands its telemetry to its
engine and its attached store, the sharded router to its tier, so one
export call sees the whole process.  See ``docs/observability.md``.
"""

from repro.obs.registry import (Counter, Gauge, Histogram,
                                MetricsRegistry)
from repro.obs.tracing import NULL_SPAN, Span, Tracer
from repro.obs.export import (JsonlSink, metrics_events, prometheus_text,
                              render_metrics, render_span_tree,
                              span_events, span_seconds_by_name)
from repro.obs.slo import SloEngine, SloStatus
from repro.obs.console import render_dashboard

__all__ = [
    "Counter", "Gauge", "Histogram", "MetricsRegistry",
    "Span", "Tracer", "NULL_SPAN",
    "JsonlSink", "metrics_events", "prometheus_text", "render_metrics",
    "render_span_tree", "span_events", "span_seconds_by_name",
    "SloEngine", "SloStatus", "render_dashboard",
    "Telemetry",
]


class Telemetry:
    """One registry + one tracer: the handle a component instruments
    against and an operator exports from.

    Tracing defaults to **off** (the no-op fast path); metrics are
    always on — counter syncs happen at export time and cost nothing on
    hot paths.

    ``node`` names this process in span ids (``"main:17"``,
    ``"worker3:4"``) and ``source`` names the registry's harvest
    envelopes — both matter only for telemetry that crosses the RPC
    boundary (see ``docs/observability.md``, "Distributed telemetry").
    """

    def __init__(self, *, tracing: bool = False,
                 registry: MetricsRegistry | None = None,
                 tracer: Tracer | None = None,
                 max_roots: int = 512, node: str = "main",
                 source: str | None = None) -> None:
        self.registry = registry if registry is not None \
            else MetricsRegistry(source=source)
        self.tracer = tracer if tracer is not None \
            else Tracer(tracing, registry=self.registry,
                        max_roots=max_roots, node=node)

    # -- instrumentation surface -------------------------------------------------------
    def trace(self, name: str, parent: tuple | None = None, **attrs):
        """Open a span (context manager); free when tracing is off.
        ``parent`` is an optional remote trace context (see
        :meth:`Tracer.current_context`)."""
        return self.tracer.trace(name, parent=parent, **attrs)

    def counter(self, name: str, help: str = "", **labels) -> Counter:
        return self.registry.counter(name, help, **labels)

    def gauge(self, name: str, help: str = "", **labels) -> Gauge:
        return self.registry.gauge(name, help, **labels)

    def histogram(self, name: str, help: str = "", **labels) -> Histogram:
        return self.registry.histogram(name, help, **labels)

    # -- export surface ----------------------------------------------------------------
    def prometheus(self) -> str:
        """Prometheus text exposition of the registry."""
        return prometheus_text(self.registry)

    def span_tree(self, *, min_ms: float = 0.0) -> str:
        """Human-readable dump of the retained span trees."""
        return render_span_tree(self.tracer, min_ms=min_ms)

    def stage_seconds(self) -> dict[str, float]:
        """Cumulative wall seconds per span name (the stage breakdown)."""
        return span_seconds_by_name(self.registry)

    def export_jsonl(self, target, *, spans: bool = True) -> int:
        """Write every metric series (and, optionally, every retained
        span tree) as JSONL events to ``target`` (path or file object);
        returns the number of events written."""
        with JsonlSink(target) as sink:
            count = sink.emit_many(metrics_events(self.registry))
            if spans:
                count += sink.emit_many(span_events(self.tracer))
        return count
