"""Live telemetry: one bundle, every tier, three export formats.

Drives a 20-timestep AML-Sim transaction stream through a 3-shard
:class:`repro.exec.ExecRouter` (in-process backend) with an attached
:class:`repro.store.GraphStore` — the store's WAL spans nest under the
router's ingest spans because ``attach_store`` rebinds the store onto
the server's :class:`repro.obs.Telemetry` — and then dumps what the
instrumentation saw, with no bench code involved:

1. the per-stage span breakdown of the delta hot path
   (``serve.ingest → serve.commit/fanout/halo_sync``,
   ``store.append``, ``serve.query``),
2. the Prometheus text exposition: serve counters, per-shard
   halo-byte series, store WAL and compaction counters, the
   latency-reservoir summary,
3. the same registry + span trees as JSONL events.

Run:  python examples/live_metrics.py
"""

import io
import os
import shutil
import tempfile

from repro.exec import ExecRouter
from repro.graph import AMLSimConfig, generate_amlsim
from repro.models import build_model
from repro.obs import Telemetry
from repro.serve import events_between
from repro.store import GraphStore

NUM_TIMESTEPS = 20
NUM_SHARDS = 3


def main() -> None:
    workdir = tempfile.mkdtemp(prefix="repro-obs-")
    dtdg = generate_amlsim(AMLSimConfig(
        num_accounts=400, num_timesteps=NUM_TIMESTEPS,
        background_per_step=600, partner_persistence=0.9,
        seed=0)).dtdg

    model = build_model("cdgcn", in_features=2, hidden=12, embed_dim=12,
                        seed=0)
    telemetry = Telemetry(tracing=True)
    server = ExecRouter(model, dtdg[0], backend="simulated",
                        num_shards=NUM_SHARDS, telemetry=telemetry)
    server.attach_store(GraphStore.create(os.path.join(workdir, "s"),
                                          dtdg.num_vertices,
                                          base_interval=5))

    for t in range(1, NUM_TIMESTEPS):
        server.advance_time()
        events = events_between(dtdg[t - 1], dtdg[t])
        for i in range(0, len(events), 300):
            server.ingest_events(events[i:i + 300])
        for u in range(t, t + 5):
            server.submit_link(u, (u + 1) % dtdg.num_vertices)
        server.drain()

    # -- 1. span breakdown ---------------------------------------------------
    print("== stage totals (folded from spans) ==")
    for name, seconds in sorted(telemetry.stage_seconds().items(),
                                key=lambda kv: -kv[1]):
        calls = telemetry.registry.value("span_calls_total", span=name)
        print(f"  {name:<20} {seconds * 1e3:9.2f} ms  "
              f"across {int(calls)} calls")
    print()
    print("== last ingest, span tree ==")
    ingests = [r for r in telemetry.tracer.roots
               if r.name == "serve.ingest"]
    print("\n".join(f"{'  ' * d}{s.name} {s.duration_ms:.2f}ms {s.attrs}"
                    for d, s in ingests[-1].walk()))
    print()

    # -- 2. Prometheus exposition --------------------------------------------
    print("== prometheus text (excerpt) ==")
    wanted = ("serve_events_ingested_total", "serve_queries_completed",
              "shard_halo_bytes_total", "shard_halo_rows_total",
              "shard_load_skew", "store_wal", "store_compaction",
              "serve_latency_ms")
    for line in server.prometheus().splitlines():
        if not line.startswith("#") and line.startswith(wanted):
            print(f"  {line}")
    print()

    # -- 3. JSONL ------------------------------------------------------------
    buf = io.StringIO()
    events_written = server.export_jsonl(buf)
    first = buf.getvalue().splitlines()[0]
    print(f"== jsonl: {events_written} events, first line ==")
    print(f"  {first[:76]}...")

    shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    main()
