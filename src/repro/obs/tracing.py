"""Span tracing for the delta hot path.

A :class:`Tracer` answers "where did this commit's milliseconds go?":
``trace(name)`` opens a span, nested ``trace`` calls build a
parent/child tree, and closing the root files the finished tree into a
bounded buffer.  Spans carry wall time plus arbitrary user attributes::

    with tracer.trace("serve.ingest", events=130):
        with tracer.trace("serve.commit"):
            ...

**Disabled is the default and is (almost) free**: ``trace()`` on a
disabled tracer returns one shared no-op span object without
allocating and without reading the clock, so instrumentation can live
permanently on hot paths; ``tests/obs/test_wiring.py`` pins both on the
single-process and the sharded serving tier.

When the tracer is built over a :class:`~repro.obs.registry.MetricsRegistry`
every finished span also folds into two labeled counter families —
``span_seconds_total{span=...}`` and ``span_calls_total{span=...}`` —
so cumulative per-stage breakdowns are readable from the same registry
that holds the tier counters (one source of truth for benches and live
exporters alike).

**Traces cross process boundaries** (Dapper-style): every entered span
carries a ``trace_id`` / ``span_id`` / ``parent_id``,
:meth:`Tracer.current_context` snapshots the innermost open span as a
two-tuple trace context an RPC envelope can carry, ``trace(name,
parent=ctx)`` opens a span parented under that *remote* context, and
finished spans round-trip through :meth:`Span.to_wire` /
:meth:`Span.from_wire` so a router can :meth:`Tracer.graft` a worker's
shipped spans back under the RPC spans that caused them — one causal
tree per query, stitched across processes.

Single-threaded by design, like the serving tier it instruments: one
tracer has one active span stack.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Callable

__all__ = ["Span", "Tracer", "NULL_SPAN"]


class Span:
    """One timed region; closing it attaches it to its parent."""

    __slots__ = ("name", "attrs", "t0", "duration_s", "children",
                 "trace_id", "span_id", "parent_id", "_tracer",
                 "_remote_parent")

    def __init__(self, tracer: "Tracer | None", name: str,
                 attrs: dict) -> None:
        self._tracer = tracer
        self.name = name
        self.attrs = attrs
        self.t0 = 0.0
        self.duration_s = 0.0
        self.children: list["Span"] = []
        self.trace_id: str | None = None
        self.span_id: str | None = None
        self.parent_id: str | None = None
        self._remote_parent: tuple | None = None

    def set(self, **attrs) -> None:
        """Attach/overwrite user attributes on the open span."""
        self.attrs.update(attrs)

    def __enter__(self) -> "Span":
        self._tracer._assign_ids(self)
        self._tracer._push(self)
        self.t0 = self._tracer.clock()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.duration_s = self._tracer.clock() - self.t0
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        self._tracer._pop(self)
        return False

    @property
    def duration_ms(self) -> float:
        return self.duration_s * 1e3

    def to_dict(self) -> dict:
        """JSON-friendly nested representation."""
        out = {"name": self.name, "duration_ms": self.duration_ms}
        if self.span_id is not None:
            out["trace_id"] = self.trace_id
            out["span_id"] = self.span_id
            if self.parent_id is not None:
                out["parent_id"] = self.parent_id
        if self.attrs:
            out["attrs"] = dict(self.attrs)
        if self.children:
            out["children"] = [c.to_dict() for c in self.children]
        return out

    # -- cross-process shipping --------------------------------------------------------
    def to_wire(self) -> dict:
        """Self-contained plain-data form (ids + subtree) an RPC reply
        can carry; :meth:`from_wire` round-trips it exactly."""
        return {"name": self.name, "attrs": dict(self.attrs),
                "duration_s": self.duration_s,
                "trace_id": self.trace_id, "span_id": self.span_id,
                "parent_id": self.parent_id,
                "children": [c.to_wire() for c in self.children]}

    @classmethod
    def from_wire(cls, wire: dict) -> "Span":
        """Rebuild a finished span (tracer-less: it can be walked,
        rendered and exported, but never re-entered)."""
        span = cls(None, wire["name"], dict(wire.get("attrs") or {}))
        span.duration_s = float(wire.get("duration_s", 0.0))
        span.trace_id = wire.get("trace_id")
        span.span_id = wire.get("span_id")
        span.parent_id = wire.get("parent_id")
        span.children = [cls.from_wire(c)
                         for c in wire.get("children", ())]
        return span

    def walk(self):
        """Yield ``(depth, span)`` over the subtree, pre-order."""
        stack = [(0, self)]
        while stack:
            depth, span = stack.pop()
            yield depth, span
            for child in reversed(span.children):
                stack.append((depth + 1, child))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"Span({self.name!r}, {self.duration_ms:.3f}ms, "
                f"children={len(self.children)})")


class _NullSpan:
    """The shared do-nothing span a disabled tracer hands out."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, **attrs) -> None:
        pass


NULL_SPAN = _NullSpan()


class Tracer:
    """Builds span trees; a bounded deque keeps the newest roots.

    Parameters
    ----------
    enabled:
        Off by default — the no-op fast path.  Flip live with
        :meth:`enable` / :meth:`disable` (an open span finishes
        normally; only new ``trace`` calls see the switch).
    registry:
        Optional metrics registry receiving the cumulative
        ``span_seconds_total`` / ``span_calls_total`` series.
    max_roots:
        Finished root spans retained (oldest evicted first).
    node:
        This tracer's process identity, prefixed onto every span id so
        ids stay unique across a router and its workers
        (``"main:17"``, ``"worker3:4"``).
    """

    def __init__(self, enabled: bool = False, *,
                 registry=None, max_roots: int = 512,
                 node: str = "main",
                 clock: Callable[[], float] = time.perf_counter) -> None:
        self.enabled = enabled
        self.registry = registry
        self.clock = clock
        self.node = node
        self.roots: deque[Span] = deque(maxlen=max_roots)
        self._stack: list[Span] = []
        self._seq = 0

    def trace(self, name: str, parent: tuple | None = None, **attrs):
        """Open a span (use as a context manager).  Disabled tracers
        return the shared :data:`NULL_SPAN` without allocating.

        ``parent`` is an optional *remote* trace context — the
        ``(trace_id, span_id)`` tuple another process's
        :meth:`current_context` produced — under which this span is
        parented when the local stack is empty (an RPC handler joining
        its caller's trace)."""
        if not self.enabled:
            return NULL_SPAN
        span = Span(self, name, attrs)
        span._remote_parent = parent
        return span

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def clear(self) -> None:
        """Drop finished roots (the active stack is left alone)."""
        self.roots.clear()

    @property
    def current(self) -> Span | None:
        """The innermost open span (``None`` outside any trace)."""
        return self._stack[-1] if self._stack else None

    def current_context(self) -> tuple | None:
        """The innermost open span as a ``(trace_id, span_id)`` trace
        context an RPC envelope can carry — ``None`` when tracing is
        off or no span is open, so the disabled hot path allocates
        nothing."""
        if not self.enabled or not self._stack:
            return None
        top = self._stack[-1]
        return (top.trace_id, top.span_id)

    def graft(self, wire_spans) -> int:
        """Stitch finished spans shipped from another process into the
        retained trees: each wire span whose ``parent_id`` names a span
        in this tracer's roots becomes that span's child; orphans (the
        parent root was already evicted) are kept as roots so the data
        is never dropped.  Returns the number of spans grafted.

        Grafted spans do **not** fold into the span counters — they
        already folded into their home process's registry, which is
        harvested separately (no double counting)."""
        wire_spans = list(wire_spans)
        if not wire_spans:
            return 0
        index: dict[str, Span] = {}
        for root in self.roots:
            for _, span in root.walk():
                if span.span_id is not None:
                    index[span.span_id] = span
        for wire in wire_spans:
            span = Span.from_wire(wire)
            parent = index.get(span.parent_id)
            if parent is not None:
                parent.children.append(span)
            else:
                self.roots.append(span)
            for _, s in span.walk():
                if s.span_id is not None:
                    index[s.span_id] = s
        return len(wire_spans)

    def drain_finished(self) -> list[dict]:
        """The retained roots in wire form, clearing them — what a
        worker ships back on a telemetry harvest."""
        out = [span.to_wire() for span in self.roots]
        self.roots.clear()
        return out

    # -- span lifecycle (driven by Span.__enter__/__exit__) ----------------------------
    def _assign_ids(self, span: Span) -> None:
        self._seq += 1
        span.span_id = f"{self.node}:{self._seq}"
        if self._stack:
            top = self._stack[-1]
            span.parent_id = top.span_id
            span.trace_id = top.trace_id
        elif span._remote_parent is not None:
            span.trace_id, span.parent_id = span._remote_parent
        else:
            span.trace_id = span.span_id

    def _push(self, span: Span) -> None:
        self._stack.append(span)

    def _pop(self, span: Span) -> None:
        # tolerate a mismatched pop (an abandoned span mid-stack) by
        # unwinding to it — never corrupt the stack on caller bugs
        while self._stack:
            top = self._stack.pop()
            if top is span:
                break
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self.roots.append(span)
        if self.registry is not None:
            self.registry.counter(
                "span_seconds_total",
                "Cumulative wall seconds per span name",
                span=span.name).inc(span.duration_s)
            self.registry.counter(
                "span_calls_total",
                "Completed spans per span name",
                span=span.name).inc()
