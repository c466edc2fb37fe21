"""Live text dashboard over one (merged) metrics registry.

:func:`render_dashboard` turns the registry a router exports — after a
worker-telemetry harvest it holds the *whole cluster* under
``worker=<id>`` labels — into a compact operator view: tier totals,
a per-worker table (RPC round-trips, wire bytes, routed queries, busy
seconds, RPC latency percentiles), cross-shard traffic by class, SLO
verdicts, and the top span sinks.  Sections with no backing series are
simply omitted, so the same renderer serves a single-process
:class:`~repro.serve.server.ModelServer` and a multi-process
:class:`~repro.exec.router.ExecRouter`.

Pure formatting: no metric is recorded here, and rendering twice in a
row is byte-identical unless the registry moved.  Callers wanting a
live view loop ``print(frontend.dashboard())`` — see
``examples/cluster_dashboard.py``.
"""

from __future__ import annotations

import math

from repro.obs.export import span_seconds_by_name

__all__ = ["render_dashboard"]

_RULE = "-" * 64


def _fmt_bytes(n: float) -> str:
    n = float(n)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if abs(n) < 1024.0 or unit == "GiB":
            return f"{n:.0f}{unit}" if unit == "B" else f"{n:.1f}{unit}"
        n /= 1024.0
    return f"{n:.1f}GiB"  # pragma: no cover - unreachable


def _fmt(v: float, digits: int = 2) -> str:
    if v is None or (isinstance(v, float) and math.isnan(v)):
        return "-"
    if float(v) == int(v) and abs(v) < 1e15:
        return str(int(v))
    return f"{v:.{digits}f}"


def _value(registry, name: str, **labels) -> float:
    metric = registry.get(name, **labels)
    if metric is None:
        return float("nan")
    from repro.obs.registry import Histogram
    if isinstance(metric, Histogram):
        return float(metric.count)
    return float(metric.value)


def _series_by(registry, family: str, key: str) -> dict:
    """``{label_value: metric}`` for one family, keyed by one label."""
    out: dict = {}
    for name, _kind, _help, series in registry.families():
        if name != family:
            continue
        for labels, metric in series:
            if key in labels:
                out[labels[key]] = metric
    return out


def _worker_ids(registry) -> list[str]:
    """Every shard/worker identity any series mentions, sorted
    numerically where possible."""
    ids: set[str] = set()
    for _name, _kind, _help, series in registry.families():
        for labels, _metric in series:
            for key in ("shard", "worker"):
                if key in labels:
                    ids.add(labels[key])

    def sort_key(v: str):
        return (0, int(v)) if v.isdigit() else (1, v)
    return sorted(ids, key=sort_key)


def _table(headers: list[str], rows: list[list[str]]) -> list[str]:
    widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
              for i, h in enumerate(headers)]
    lines = ["  ".join(h.ljust(widths[i])
                       for i, h in enumerate(headers)).rstrip()]
    for row in rows:
        lines.append("  ".join(c.ljust(widths[i])
                               for i, c in enumerate(row)).rstrip())
    return lines


def render_dashboard(telemetry, *, slo=None,
                     title: str = "cluster dashboard") -> str:
    """One screenful of cluster state from ``telemetry.registry``
    (optionally judged against an :class:`~repro.obs.slo.SloEngine`).

    The caller is responsible for syncing counters first —
    ``QueryFrontend.dashboard()`` does, and triggers the worker harvest
    on routers that have one."""
    reg = telemetry.registry
    lines = [f"== {title} ==", ""]

    # -- tier totals -------------------------------------------------------------------
    submitted = _value(reg, "serve_queries_submitted_total")
    if not math.isnan(submitted):
        completed = _value(reg, "serve_queries_completed_total")
        shed = _value(reg, "serve_queries_shed_total")
        head = (f"queries  {_fmt(submitted)} submitted / "
                f"{_fmt(completed)} completed")
        if not math.isnan(shed) and shed > 0:
            head += f" / {_fmt(shed)} shed"
        depth = _value(reg, "serve_queue_depth")
        if not math.isnan(depth):
            head += f"   queue depth {_fmt(depth)}"
        lines.append(head)
    # a query's latency, then where it went: waiting for its flush, and
    # the flush's own refresh + scoring (one observation per flush)
    for label, name in (("latency ms", "serve_latency_ms"),
                        ("queue wait ms", "serve_queue_wait_ms"),
                        ("compute ms", "serve_compute_ms")):
        hist = reg.get(name)
        if hist is not None and hist.count:
            lines.append(f"{label}  p50 {hist.p50:.2f}  "
                         f"p95 {hist.p95:.2f}  p99 {hist.p99:.2f}  "
                         f"(n={hist.count})")
    if len(lines) > 2:
        lines.append("")

    # -- per-worker table --------------------------------------------------------------
    ids = _worker_ids(reg)
    if ids:
        rpc = _series_by(reg, "exec_rpc_roundtrips_total", "shard")
        sent = _series_by(reg, "exec_rpc_bytes_sent_total", "shard")
        recv = _series_by(reg, "exec_rpc_bytes_received_total", "shard")
        queries = _series_by(reg, "shard_queries_total", "shard")
        lat = _series_by(reg, "exec_rpc_latency_ms", "shard")
        busy = _series_by(reg, "worker_busy_seconds", "worker")
        rows = []
        for wid in ids:
            h = lat.get(wid)
            rows.append([
                wid,
                _fmt(rpc[wid].value) if wid in rpc else "-",
                _fmt_bytes(sent[wid].value) if wid in sent else "-",
                _fmt_bytes(recv[wid].value) if wid in recv else "-",
                _fmt(queries[wid].value) if wid in queries else "-",
                f"{busy[wid].value:.3f}" if wid in busy else "-",
                f"{h.p50:.2f}" if h is not None and h.count else "-",
                f"{h.p99:.2f}" if h is not None and h.count else "-",
            ])
        lines.append(_RULE)
        lines.extend(_table(
            ["worker", "rpc", "tx", "rx", "queries", "busy_s",
             "rpc_p50ms", "rpc_p99ms"], rows))
        lines.append("")

    # -- cross-shard traffic -----------------------------------------------------------
    halo_rows = _value(reg, "shard_halo_rows_total")
    comm = _series_by(reg, "comm_bytes_total", "label")
    traffic_bits = []
    if not math.isnan(halo_rows):
        traffic_bits.append(
            f"halo rows {_fmt(halo_rows)} "
            f"({_fmt_bytes(_value(reg, 'shard_halo_bytes_total'))})")
    for label in sorted(comm):
        traffic_bits.append(f"{label} {_fmt_bytes(comm[label].value)}")
    if traffic_bits:
        lines.append("traffic  " + "  |  ".join(traffic_bits))
        lines.append("")

    # -- SLO verdicts ------------------------------------------------------------------
    if slo is not None and len(slo):
        lines.append(_RULE)
        rows = []
        for status in slo.evaluate():
            rows.append([f"[{status.label}]", status.name,
                         _fmt(status.value, 3),
                         _fmt(status.threshold, 3),
                         f"{status.burn:.2f}x" if
                         math.isfinite(status.burn) else "inf",
                         status.detail])
        lines.extend(_table(
            ["", "slo", "value", "target", "burn", "detail"], rows))
        lines.append("")

    # -- top span sinks ----------------------------------------------------------------
    seconds = span_seconds_by_name(reg)
    if seconds:
        top = sorted(seconds.items(), key=lambda kv: -kv[1])[:6]
        lines.append("spans    " + "  ".join(
            f"{name} {secs:.3f}s" for name, secs in top))
    while lines and not lines[-1]:
        lines.pop()
    return "\n".join(lines) + "\n"
