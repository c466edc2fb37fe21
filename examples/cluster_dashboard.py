"""Distributed telemetry: one dashboard over real worker processes.

Boots a 3-process :class:`repro.exec.ExecRouter` (multiprocess
backend — every shard worker is its own OS process), streams a
15-timestep AML-Sim world through it with tracing on, and shows the
three things PR 8 made possible:

1. **one causal trace per query across processes** — each RPC carries
   a trace-context envelope, the workers open ``worker.rpc`` /
   ``worker.<verb>`` spans parented under the router's ``exec.rpc``
   span, and the finished spans ship back and graft into the router's
   tree;
2. **one registry for the whole cluster** — the router drains each
   worker's metrics over the ``telemetry`` RPC verb and merges them
   under ``worker=<id>`` labels, so ``prometheus()`` on the router
   exports router *and* worker series;
3. **a live SLO-judged dashboard** — p99 latency, shed rate and
   heartbeat-miss targets with error-budget burn rates, rendered by
   ``router.dashboard()``.

Run:  python examples/cluster_dashboard.py
"""

import numpy as np

from repro.exec import ExecRouter
from repro.graph import AMLSimConfig, generate_amlsim
from repro.models import build_model
from repro.nn.linear import Linear
from repro.obs import Telemetry
from repro.serve import events_between

NUM_TIMESTEPS = 15
NUM_SHARDS = 3


def main() -> None:
    dtdg = generate_amlsim(AMLSimConfig(
        num_accounts=400, num_timesteps=NUM_TIMESTEPS,
        background_per_step=600, partner_persistence=0.9,
        seed=0)).dtdg

    model = build_model("cdgcn", in_features=2, hidden=12, embed_dim=12,
                        seed=0)
    fraud = Linear(model.embed_dim, 2, np.random.default_rng(7))
    telemetry = Telemetry(tracing=True)
    with ExecRouter(model, dtdg[0], backend="multiprocess",
                    num_shards=NUM_SHARDS, fraud_head=fraud,
                    max_batch_size=16, max_inflight=64,
                    telemetry=telemetry) as router:
        slo = router.attach_slo(window=30)
        slo.quantile("p99-latency-ms", "serve_latency_ms", q=99.0,
                     threshold=250.0)
        slo.ratio("shed-rate", "serve_queries_shed_total",
                  "serve_queries_submitted_total", threshold=0.01)
        slo.ratio("heartbeat-miss", "serve_heartbeat_failures_total",
                  "serve_heartbeats_total", threshold=0.01)

        for t in range(1, NUM_TIMESTEPS):
            events = events_between(dtdg[t - 1], dtdg[t])
            for i in range(0, len(events), 300):
                router.ingest_events(events[i:i + 300])
            for u in range(t, t + 8):
                router.submit_link(u, (u + 1) % dtdg.num_vertices)
            router.submit_fraud(t % dtdg.num_vertices)
            router.drain()
            router.advance_time(dtdg[t])

        # drain worker registries + finished spans into the router
        # (dashboard()/prometheus() also do this before each export)
        router.harvest_telemetry()

        # -- 1. one cross-process trace --------------------------------------
        # exec.rpc spans nest under the serving spans; find one whose
        # worker-side children were grafted back after the harvest
        print("== one RPC, traced across the process boundary ==")
        stitched = None
        for root in telemetry.tracer.roots:
            for _, span in root.walk():
                if span.name == "exec.rpc" and any(
                        c.name == "worker.rpc" for c in span.children):
                    stitched = span
            if stitched is not None:
                break
        if stitched is not None:
            for depth, span in stitched.walk():
                print(f"  {'  ' * depth}{span.name} "
                      f"[{span.span_id}] {span.duration_ms:.2f}ms")
        print()

        # -- 2. the cluster registry -----------------------------------------
        print("== worker series, harvested into the router registry ==")
        shown = 0
        for line in router.prometheus().splitlines():
            if line.startswith("worker_") and "worker=" in line:
                print(f"  {line}")
                shown += 1
                if shown >= 12:
                    print("  ...")
                    break
        print()

        # -- 3. the dashboard -------------------------------------------------
        print(router.dashboard(title="exec cluster (3 worker processes)"))


if __name__ == "__main__":
    main()
