"""Sharded-serving workload: the same AML-Sim replay, scaled out.

The replay of :mod:`repro.bench.serving` is driven through an
:class:`~repro.exec.router.ExecRouter` on its in-process
``backend="simulated"`` at shard counts ``N = 1, 2, 4, 8``.  Every tier
answers a byte-identical event + query stream; what changes is how the
per-vertex model state is partitioned.

**Throughput accounting.**  All shards execute serially inside one
process (the repo's simulated-cluster idiom): each worker carries its
own busy clock, and the tier's wall time is the simulated-parallel
critical path — router busy time (frontier expansion, delta routing,
cross-shard gathers) plus the slowest worker's busy time.  Snapshot
materialization inside the router's ingestor is the shared simulation
substrate (a real deployment applies per-shard sub-deltas, a cost the
workers' ``apply_delta`` timing already covers) and is therefore left
out of the critical path but still runs once per commit for every tier
identically.

The workload uses AML-Sim's regional branches (``branch_locality``)
aligned with contiguous shard blocks — the locality a partition-aware
router exists to exploit — while the planted laundering typologies keep
crossing shard boundaries, so halo traffic never vanishes.  Reported
per shard count: aggregate queries/sec, scaling vs N=1, per-shard load
skew, halo rows/bytes shipped, delta fan-out bytes, and cross-shard row
fetches; plus the N=max-vs-single-worker embedding divergence (must be
~0).  Results land in ``results/sharded_serving.txt`` and
``BENCH_sharded_serving.json``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bench.reporting import render_table, write_bench_json, write_report
from repro.bench.serving import build_event_schedule, build_query_plan
from repro.exec import ExecRouter, ExecStats
from repro.graph.amlsim import AMLSimConfig, generate_amlsim
from repro.models import build_model
from repro.nn.linear import Linear
from repro.serve.server import ModelServer

__all__ = ["ShardedWorkloadConfig", "ShardedScalePoint",
           "ShardedBenchResult", "run_sharded_benchmark"]


@dataclass(frozen=True)
class ShardedWorkloadConfig:
    """Knobs of the sharded replay.

    Accounts are spread over ``num_branches`` regional branches with
    strong in-branch payment locality; ``activity_skew=0`` keeps the
    *offered* load uniform so the scaling numbers measure the tier, not
    the workload (skewed-load behavior is the rebalancer's test, not
    this table's).
    """

    model: str = "cdgcn"
    num_accounts: int = 9000
    num_timesteps: int = 10
    background_per_step: int = 9000
    partner_persistence: float = 0.95
    activity_skew: float = 0.0
    num_branches: int = 8
    branch_locality: float = 0.9
    warmup_timesteps: int = 4
    event_batches_per_step: int = 4
    queries_per_batch: int = 48
    max_batch_size: int = 128
    flush_latency_ms: float = 50.0
    hidden: int = 32
    embed_dim: int = 32
    replicas: int = 1
    shard_counts: tuple = (1, 2, 4, 8)
    # sweeps over the shard counts; the one with the median
    # first-to-last wall ratio is reported
    measure_reps: int = 3
    seed: int = 0

    def amlsim(self) -> AMLSimConfig:
        return AMLSimConfig(
            num_accounts=self.num_accounts,
            num_timesteps=self.num_timesteps,
            background_per_step=self.background_per_step,
            partner_persistence=self.partner_persistence,
            activity_skew=self.activity_skew,
            num_branches=self.num_branches,
            branch_locality=self.branch_locality,
            seed=self.seed)


@dataclass(frozen=True)
class ShardedScalePoint:
    """One shard count's outcome."""

    num_shards: int
    stats: ExecStats
    wall_s: float              # simulated-parallel critical path
    coverage_rows: int         # sum of block + halo rows across shards


@dataclass(frozen=True)
class ShardedBenchResult:
    """Outcome of the full scaling sweep."""

    points: tuple
    num_queries: int
    num_events: int
    max_abs_divergence: float  # N=max sharded vs single-worker recompute

    def point(self, num_shards: int) -> ShardedScalePoint:
        for p in self.points:
            if p.num_shards == num_shards:
                return p
        raise KeyError(f"no scale point for N={num_shards}")

    def scaling(self, num_shards: int) -> float:
        """Aggregate-throughput ratio vs the N=1 tier."""
        return self.point(1).wall_s / self.point(num_shards).wall_s


def _replay(server, schedule, plan) -> None:
    """Drive one tier through the stream (same loop as the single-worker
    replay; wall time is read from the tier's simulated clocks)."""
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


def run_sharded_benchmark(config: ShardedWorkloadConfig | None = None,
                          report_name: str | None = "sharded_serving"
                          ) -> ShardedBenchResult:
    """Replay the stream at every configured shard count."""
    config = config or ShardedWorkloadConfig()
    sim = generate_amlsim(config.amlsim())
    dtdg = sim.dtdg
    start = config.warmup_timesteps
    if not 1 <= start < dtdg.num_timesteps:
        raise ValueError("warmup_timesteps must leave timesteps to stream")
    schedule = build_event_schedule(dtdg, start,
                                    config.event_batches_per_step)
    plan = build_query_plan(dtdg, start, schedule, config.queries_per_batch,
                            config.seed)
    num_events = sum(len(ev) for batches in schedule for ev in batches)

    def boot(num_shards: int) -> ExecRouter:
        model = build_model(config.model, in_features=2,
                            hidden=config.hidden,
                            embed_dim=config.embed_dim, seed=config.seed)
        fraud = Linear(config.embed_dim, 2,
                       np.random.default_rng(config.seed + 7))
        server = ExecRouter(model, dtdg[0], backend="simulated",
                            num_shards=num_shards,
                            replicas=config.replicas, fraud_head=fraud,
                            max_batch_size=config.max_batch_size,
                            flush_latency_ms=config.flush_latency_ms)
        for t in range(1, start):
            server.advance_time(dtdg[t])
        return server

    def measure(n: int) -> tuple[float, ExecRouter]:
        server = boot(n)
        base_stats = server.stats()
        base_busy = list(base_stats.per_shard_busy_s)
        base_router = base_stats.router_busy_s
        _replay(server, schedule, plan)
        stats = server.stats()
        busy = [b - b0 for b, b0 in zip(stats.per_shard_busy_s, base_busy)]
        wall = (stats.router_busy_s - base_router) + max(busy)
        return wall, server

    # warm every execution path (CSR advance at full coverage, gather
    # refresh, halo exchange) before any timed run, so the sweep is
    # insensitive to whatever ran earlier in the process
    for n in (min(config.shard_counts), max(config.shard_counts)):
        warm = boot(n)
        _replay(warm, schedule[:1], plan[:1])

    # a sweep times every shard count back to back, so one host phase
    # scales all its walls and their ratios survive it; a phase change
    # inside a sweep lands it at either end of the first-to-last ratio,
    # and the median sweep is the one reported (per-count minima mix
    # phases: the fast one may reach N=1 and never N=4)
    sweeps: list[dict[int, float]] = []
    servers: dict[int, ExecRouter] = {}
    for _ in range(max(1, config.measure_reps)):
        sweeps.append({})
        for n in config.shard_counts:
            sweeps[-1][n], servers[n] = measure(n)
    sweeps.sort(key=lambda w: w[min(w)] / w[max(w)])
    walls = sweeps[len(sweeps) // 2]

    points = []
    final_embeddings = {}
    for n in config.shard_counts:
        server = servers[n]
        coverage = sum(t.worker_stats().coverage_rows
                       for t in server.transports)
        points.append(ShardedScalePoint(num_shards=n, stats=server.stats(),
                                        wall_s=walls[n],
                                        coverage_rows=coverage))
        final_embeddings[n] = server.gathered_embeddings()

    # exactness reference: a single-worker full-recompute server
    model = build_model(config.model, in_features=2, hidden=config.hidden,
                        embed_dim=config.embed_dim, seed=config.seed)
    fraud = Linear(config.embed_dim, 2,
                   np.random.default_rng(config.seed + 7))
    reference = ModelServer(model, dtdg[0], fraud_head=fraud,
                            max_batch_size=config.max_batch_size,
                            flush_latency_ms=config.flush_latency_ms,
                            incremental=False)
    for t in range(1, start):
        reference.advance_time(dtdg[t])
    _replay(reference, schedule, plan)
    reference.cache.invalidate_all()
    reference.engine.refresh()
    n_max = max(config.shard_counts)
    divergence = float(np.abs(final_embeddings[n_max]
                              - reference.engine.embeddings).max())

    num_queries = points[0].stats.counters.queries_completed
    result = ShardedBenchResult(points=tuple(points),
                                num_queries=num_queries,
                                num_events=num_events,
                                max_abs_divergence=divergence)

    if report_name:
        rows = []
        for p in result.points:
            c = p.stats.counters
            t = p.stats.traffic
            rows.append((
                p.num_shards,
                num_queries,
                round(num_queries / p.wall_s, 1),
                round(result.scaling(p.num_shards), 2),
                round(p.stats.load_skew, 3),
                p.coverage_rows,
                t.rows_shipped,
                round(t.bytes_shipped / 1024.0, 1),
                round(c.delta_bytes_fanout / 1024.0, 1),
                c.halo_dirty_rows,
                c.remote_row_fetches,
            ))
        table = render_table(
            ["shards", "queries", "agg qps", "scaling", "load skew",
             "coverage rows", "halo rows", "halo KB", "delta KB",
             "ghost dirty rows", "remote fetches"],
            rows,
            title=(f"Sharded serving replay: AML-Sim {config.model} "
                   f"N={config.num_accounts} "
                   f"({dtdg.num_timesteps - start} streamed timesteps, "
                   f"{num_events} events, {config.replicas} replica(s); "
                   f"max divergence {divergence:.2e})"))
        write_report(report_name, table)
        write_bench_json("sharded_serving", {
            "workload": {
                "model": config.model,
                "num_accounts": config.num_accounts,
                "num_branches": config.num_branches,
                "branch_locality": config.branch_locality,
                "streamed_timesteps": dtdg.num_timesteps - start,
                "num_events": num_events,
                "num_queries": num_queries,
                "replicas": config.replicas,
            },
            "max_abs_divergence": divergence,
            "points": [{
                "num_shards": p.num_shards,
                "aggregate_qps": round(num_queries / p.wall_s, 1),
                "scaling_vs_1": round(result.scaling(p.num_shards), 3),
                "wall_s": round(p.wall_s, 4),
                "load_skew": round(p.stats.load_skew, 4),
                "coverage_rows": p.coverage_rows,
                "halo_rows_shipped": p.stats.traffic.rows_shipped,
                "halo_bytes_shipped": p.stats.traffic.bytes_shipped,
                "delta_bytes_fanout":
                    p.stats.counters.delta_bytes_fanout,
                "ghost_dirty_rows": p.stats.counters.halo_dirty_rows,
                "remote_row_fetches":
                    p.stats.counters.remote_row_fetches,
                "rows_recomputed": p.stats.counters.rows_recomputed,
            } for p in result.points],
        })
    return result
