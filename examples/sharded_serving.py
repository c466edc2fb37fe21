"""Scale the serving tier: shard a live transaction graph 4 ways.

Demonstrates the sharded serving subsystem end to end:

1. simulate a bank with 4 regional branches (AML-Sim with
   ``branch_locality``) and planted cross-region laundering patterns,
2. boot a :class:`repro.exec.ExecRouter` (the one sharded router, here
   on its in-process ``backend="simulated"``) whose 4 shards align
   with the branches (2 replicas each),
3. stream held-out weeks of transactions through it while firing
   link/fraud queries — including queries that span shards,
4. verify the sharded embeddings equal a single-worker full recompute,
5. flood one region with queries until the load-skew rebalancer
   re-partitions the keyspace,
6. print the tier's throughput, latency, halo-traffic, and skew
   counters.

Run:  PYTHONPATH=src python examples/sharded_serving.py
"""

import numpy as np

from repro.exec import ExecRouter
from repro.graph import AMLSimConfig, generate_amlsim
from repro.models import build_model
from repro.nn.linear import Linear
from repro.serve import ModelServer, events_between

STREAM_FROM = 4          # weeks 0..3 are resident history
NUM_SHARDS = 4


def main() -> None:
    config = AMLSimConfig(
        num_accounts=2000, num_timesteps=12, background_per_step=2500,
        partner_persistence=0.9, activity_skew=0.3,
        num_branches=NUM_SHARDS, branch_locality=0.85,
        num_fan_out=4, num_fan_in=4, num_cycles=3, num_scatter_gather=2,
        pattern_size=8, seed=3)
    sim = generate_amlsim(config)
    dtdg = sim.dtdg
    print(f"simulated {dtdg.total_nnz} transactions across "
          f"{NUM_SHARDS} bank regions over {dtdg.num_timesteps} weeks")

    model = build_model("cdgcn", in_features=2, hidden=16, embed_dim=16,
                        seed=0)
    fraud_head = Linear(16, 2, np.random.default_rng(7))
    server = ExecRouter(model, dtdg[0], backend="simulated",
                        num_shards=NUM_SHARDS, replicas=2,
                        fraud_head=fraud_head, max_batch_size=64,
                        flush_latency_ms=10.0, rebalance_skew=1.8,
                        rebalance_min_queries=400)
    # single-worker reference for the exactness check
    ref_model = build_model("cdgcn", in_features=2, hidden=16,
                            embed_dim=16, seed=0)
    reference = ModelServer(ref_model, dtdg[0], fraud_head=fraud_head,
                            incremental=False)
    for t in range(1, STREAM_FROM):
        server.advance_time(dtdg[t])
        reference.advance_time(dtdg[t])

    print(f"\nstreaming weeks {STREAM_FROM}..{dtdg.num_timesteps - 1} "
          f"through {NUM_SHARDS} shards x 2 replicas ...")
    rng = np.random.default_rng(1)
    n = dtdg.num_vertices
    for t in range(STREAM_FROM, dtdg.num_timesteps):
        server.advance_time()
        reference.advance_time()
        events = events_between(dtdg[t - 1], dtdg[t])
        for i in range(0, len(events), 200):
            server.ingest_events(events[i:i + 200])
            reference.ingest_events(events[i:i + 200])
            for _ in range(16):
                u, v = int(rng.integers(n)), int(rng.integers(n))
                server.submit_link(u, v)        # often crosses shards
                server.submit_fraud(int(rng.integers(n)))
            server.flush()

    reference.cache.invalidate_all()
    reference.engine.refresh()
    divergence = float(np.abs(server.gathered_embeddings()
                              - reference.engine.embeddings).max())
    print(f"max |sharded - single-worker| divergence: {divergence:.2e}")

    print("\nflooding region 0 with fraud queries to trigger the "
          "rebalancer ...")
    hot = server.plan.block(0)[:20]
    for i in range(600):
        server.submit_fraud(int(hot[i % len(hot)]))
    server.drain()
    skew_before = server.observed_skew()
    server.advance_time()   # rebalancing runs at timestep boundaries
    stats = server.stats()
    print(f"observed skew {skew_before:.2f} -> rebalances: "
          f"{stats.counters.rebalances}, new block sizes "
          f"{server.plan.block_sizes().tolist()}")

    print("\n--- sharded tier counters ---")
    c, traffic = stats.counters, stats.traffic
    print(f"queries completed     {c.queries_completed}")
    print(f"latency p50/p95/p99   {stats.latency_p50_ms:.2f} / "
          f"{stats.latency_p95_ms:.2f} / {stats.latency_p99_ms:.2f} ms")
    print(f"aggregate throughput  {stats.aggregate_qps:,.0f} q/s "
          f"(over the critical path)")
    print(f"events ingested       {c.events_ingested} "
          f"({c.cross_shard_events} delta edges crossed shards)")
    print(f"ghost dirty rows      {c.halo_dirty_rows}")
    print(f"halo state pulled     {traffic.rows_shipped} rows / "
          f"{traffic.bytes_shipped / 1024:.1f} KiB")
    print(f"cross-shard fetches   {c.remote_row_fetches} embedding rows")
    print(f"per-shard queries     {list(stats.per_shard_queries)}")


if __name__ == "__main__":
    main()
