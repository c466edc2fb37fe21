"""Serving workload: replay an AML-Sim event stream against the server.

The replay turns a generated AML-Sim timeline back into the event
stream a live system would have observed (:func:`events_between`),
splits each timestep transition into micro-batches of edge events, and
drives two identically configured :class:`~repro.serve.server.ModelServer`
instances through it — one serving incrementally from the embedding
cache, one recomputing every row on each refresh.  Between event batches
it fires link-prediction and fraud-score queries; timestep boundaries
advance the temporal carry on both servers.

Reported: queries/sec, p50/p99 latency, cache hit rate, and the
incremental-vs-full throughput speedup — written through the standard
reporting pipeline into ``results/``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from repro.bench.reporting import render_table, write_bench_json, write_report
from repro.graph.amlsim import AMLSimConfig, generate_amlsim
from repro.graph.dtdg import DTDG
from repro.models import build_model
from repro.models.base import DynamicGNN
from repro.nn.linear import Linear
from repro.obs import Telemetry
from repro.serve.ingest import EdgeEvent, events_between
from repro.serve.metrics import ServerStats
from repro.serve.server import ModelServer

__all__ = ["ServingWorkloadConfig", "ServingBenchResult",
           "build_event_schedule", "build_query_plan", "replay_stream",
           "run_serving_benchmark"]


@dataclass(frozen=True)
class ServingWorkloadConfig:
    """Knobs of the serving replay.

    The AML-Sim parameters deliberately use a flatter activity skew and
    high partner persistence than the training benches: a serving-tier
    delta is small relative to the resident graph, which is exactly the
    regime incremental inference targets (InstantGNN's premise).
    """

    model: str = "cdgcn"
    num_accounts: int = 3000
    num_timesteps: int = 16
    background_per_step: int = 3000
    partner_persistence: float = 0.95
    activity_skew: float = 0.4
    warmup_timesteps: int = 6
    event_batches_per_step: int = 12
    queries_per_batch: int = 24
    max_batch_size: int = 64
    flush_latency_ms: float = 50.0
    hidden: int = 16
    embed_dim: int = 16
    seed: int = 0

    def amlsim(self) -> AMLSimConfig:
        return AMLSimConfig(
            num_accounts=self.num_accounts,
            num_timesteps=self.num_timesteps,
            background_per_step=self.background_per_step,
            partner_persistence=self.partner_persistence,
            activity_skew=self.activity_skew,
            seed=self.seed)


@dataclass(frozen=True)
class ServingBenchResult:
    """Outcome of one incremental-vs-full replay."""

    incremental: ServerStats
    full: ServerStats
    incremental_wall_s: float  # of the median-ratio pair of replays
    full_wall_s: float         # likewise
    num_queries: int
    num_events: int
    max_abs_divergence: float  # embeddings: incremental vs full recompute
    # per-stage wall seconds from the extra traced replay ({span name:
    # seconds}; None when the traced replay was skipped)
    stage_seconds: dict | None = None

    @property
    def throughput_speedup(self) -> float:
        """Incremental queries/sec over full-recompute queries/sec.

        Both replays answer the same query stream, so this equals the
        wall-time ratio of the two replays."""
        return self.full_wall_s / self.incremental_wall_s


def build_event_schedule(dtdg: DTDG, start: int,
                         batches_per_step: int) -> list[list[list[EdgeEvent]]]:
    """Micro-batched event stream replaying ``dtdg`` from ``start``.

    Returns one entry per streamed timestep; each entry is a list of
    event batches whose concatenation transforms snapshot ``t-1`` into
    snapshot ``t``.
    """
    schedule = []
    for t in range(start, dtdg.num_timesteps):
        events = events_between(dtdg[t - 1], dtdg[t])
        chunk = max(1, -(-len(events) // batches_per_step))
        schedule.append([events[i:i + chunk]
                         for i in range(0, len(events), chunk)] or [[]])
    return schedule


def build_query_plan(dtdg: DTDG, start: int, schedule,
                     queries_per_batch: int, seed: int) -> list[list[list]]:
    """Deterministic (kind, payload) queries per event batch."""
    rng = np.random.default_rng(seed + 1)
    n = dtdg.num_vertices
    plan = []
    for step, batches in zip(range(start, dtdg.num_timesteps), schedule):
        snap = dtdg[step]
        per_step = []
        for _ in batches:
            queries = []
            for q in range(queries_per_batch):
                if q % 2 == 0 and snap.num_edges:
                    # half positives from the live graph, half random
                    if rng.random() < 0.5:
                        u, v = snap.edges[rng.integers(snap.num_edges)]
                    else:
                        u, v = rng.integers(n), rng.integers(n)
                    queries.append(("link", (int(u), int(v))))
                else:
                    queries.append(("fraud", (int(rng.integers(n)),)))
            per_step.append(queries)
        plan.append(per_step)
    return plan


def replay_stream(server: ModelServer, schedule, plan) -> float:
    """Drive one server through the stream; returns wall seconds."""
    t0 = time.perf_counter()
    for batches, step_queries in zip(schedule, plan):
        server.advance_time()
        for events, queries in zip(batches, step_queries):
            if events:
                server.ingest_events(events)
            for kind, payload in queries:
                if kind == "link":
                    server.submit_link(*payload)
                else:
                    server.submit_fraud(*payload)
            server.flush()
    server.drain()
    return time.perf_counter() - t0


def _fraud_head(model: DynamicGNN, seed: int) -> Linear:
    return Linear(model.embed_dim, 2, np.random.default_rng(seed + 7))


def run_serving_benchmark(config: ServingWorkloadConfig | None = None,
                          report_name: str | None = "serving_throughput"
                          ) -> ServingBenchResult:
    """Replay the stream against incremental and full-recompute servers.

    Both servers receive byte-identical event and query streams; the
    result captures throughput, latency percentiles, cache economics,
    and the final-embedding divergence (which must be ~0: incremental
    serving is exact).
    """
    config = config or ServingWorkloadConfig()
    sim = generate_amlsim(config.amlsim())
    dtdg = sim.dtdg
    start = config.warmup_timesteps
    if not 1 <= start < dtdg.num_timesteps:
        raise ValueError("warmup_timesteps must leave timesteps to stream")

    schedule = build_event_schedule(dtdg, start, config.event_batches_per_step)
    plan = build_query_plan(dtdg, start, schedule, config.queries_per_batch,
                            config.seed)
    num_events = sum(len(ev) for batches in schedule for ev in batches)

    def boot(incremental: bool, tracing: bool = False) -> ModelServer:
        model = build_model(config.model, in_features=2,
                            hidden=config.hidden,
                            embed_dim=config.embed_dim, seed=config.seed)
        server = ModelServer(
            model, dtdg[0], fraud_head=_fraud_head(model, config.seed),
            max_batch_size=config.max_batch_size,
            flush_latency_ms=config.flush_latency_ms,
            incremental=incremental,
            telemetry=Telemetry(tracing=True) if tracing else None)
        for t in range(1, start):
            server.advance_time(dtdg[t])
        return server

    # the two walls of a pair are timed back to back, so one host phase
    # scales both and their ratio survives it; the median pair drops a
    # phase change that fell between the two
    pairs = []
    for _ in range(3):
        srv_inc = boot(incremental=True)
        srv_full = boot(incremental=False)
        pairs.append((replay_stream(srv_inc, schedule, plan),
                      replay_stream(srv_full, schedule, plan),
                      srv_inc, srv_full))
    pairs.sort(key=lambda pair: pair[1] / pair[0])
    wall_inc, wall_full, srv_inc, srv_full = pairs[len(pairs) // 2]
    divergence = float(np.abs(srv_inc.engine.embeddings
                              - srv_full.engine.embeddings).max())

    # one more, span-traced replay answers "where do the incremental
    # milliseconds go?" — run separately so the A/B walls above stay
    # untraced (the tracing-off overhead guard's contract)
    srv_traced = boot(incremental=True, tracing=True)
    replay_stream(srv_traced, schedule, plan)
    stage_seconds = srv_traced.telemetry.stage_seconds()

    result = ServingBenchResult(
        incremental=srv_inc.stats(), full=srv_full.stats(),
        incremental_wall_s=wall_inc, full_wall_s=wall_full,
        num_queries=srv_inc.counters.queries_completed,
        num_events=num_events, max_abs_divergence=divergence,
        stage_seconds=stage_seconds)

    if report_name:
        rows = []
        for label, stats, wall in (
                ("incremental (k-hop cache)", result.incremental, wall_inc),
                ("full recompute", result.full, wall_full)):
            rows.append((label, stats.counters.queries_completed,
                         round(stats.counters.queries_completed / wall, 1),
                         stats.counters.events_ingested,
                         round(stats.latency_p50_ms, 3),
                         round(stats.latency_p99_ms, 3),
                         stats.counters.rows_recomputed,
                         "-" if math.isnan(stats.counters.cache_hit_rate)
                         else round(stats.counters.cache_hit_rate, 3)))
        table = render_table(
            ["serving mode", "queries", "qps", "events", "p50 ms", "p99 ms",
             "rows recomputed", "cache hit rate"],
            rows,
            title=(f"Serving replay: AML-Sim {config.model} "
                   f"N={config.num_accounts} "
                   f"({dtdg.num_timesteps - start} streamed timesteps; "
                   f"speedup {result.throughput_speedup:.2f}x, "
                   f"max divergence {divergence:.2e})"))
        reg = srv_traced.telemetry.registry
        stage_rows = [(name, round(seconds * 1e3, 3),
                       int(reg.value("span_calls_total", span=name)))
                      for name, seconds in sorted(
                          stage_seconds.items(),
                          key=lambda kv: -kv[1])]
        stage_table = render_table(
            ["stage (span)", "total ms", "calls"], stage_rows,
            title="Incremental replay stage breakdown (traced rerun)")
        write_report(report_name, table + "\n" + stage_table)
        write_bench_json("serving", {
            "workload": {
                "model": config.model,
                "num_accounts": config.num_accounts,
                "streamed_timesteps": dtdg.num_timesteps - start,
                "num_events": num_events,
                "num_queries": result.num_queries,
            },
            "throughput_speedup": round(result.throughput_speedup, 3),
            "max_abs_divergence": divergence,
            "stages_ms": {name: round(seconds * 1e3, 3)
                          for name, seconds in sorted(
                              stage_seconds.items())},
            "incremental": {
                "qps": round(result.num_queries / wall_inc, 1),
                "wall_s": round(wall_inc, 4),
                "p50_ms": round(result.incremental.latency_p50_ms, 4),
                "p95_ms": round(result.incremental.latency_p95_ms, 4),
                "p99_ms": round(result.incremental.latency_p99_ms, 4),
                "rows_recomputed":
                    result.incremental.counters.rows_recomputed,
                "cache_hit_rate":
                    round(result.incremental.counters.cache_hit_rate, 4),
            },
            "full_recompute": {
                "qps": round(result.num_queries / wall_full, 1),
                "wall_s": round(wall_full, 4),
                "p50_ms": round(result.full.latency_p50_ms, 4),
                "p95_ms": round(result.full.latency_p95_ms, 4),
                "p99_ms": round(result.full.latency_p99_ms, 4),
                "rows_recomputed": result.full.counters.rows_recomputed,
            },
        })
    return result
