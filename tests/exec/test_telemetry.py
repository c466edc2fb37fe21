"""Distributed telemetry over the RPC boundary.

Both backends serve the same worker telemetry through the same
``telemetry`` verb: deterministic worker counters must match bit for
bit after an identical replay, worker-side spans must stitch back under
the router's ``exec.rpc`` spans, and with tracing off (the default) the
wire must carry no trace envelope and the workers must open no spans.
"""

import numpy as np
import pytest

from repro.exec import ExecRouter
from repro.models import build_model
from repro.nn.linear import Linear
from repro.obs import Telemetry
from repro.serve import events_between

BACKENDS = ["simulated", "multiprocess"]


def make_router(world, backend, *, tracing=False, **kwargs):
    model = build_model("cdgcn", in_features=2, seed=0)
    fraud = Linear(model.embed_dim, 2, np.random.default_rng(9))
    kwargs.setdefault("num_shards", 2)
    return ExecRouter(model, world.dtdg[0], backend=backend,
                      fraud_head=fraud, max_batch_size=8,
                      telemetry=Telemetry(tracing=tracing), **kwargs)


def replay(router, world, *, stop=None):
    dtdg = world.dtdg
    stop = dtdg.num_timesteps if stop is None else stop
    for t in range(1, stop):
        router.ingest_events(events_between(dtdg[t - 1], dtdg[t]))
        router.submit_link(0, 119)
        router.submit_fraud(3 * t % 120)
        router.drain()
        router.advance_time(dtdg[t])


def harvested_worker_series(router) -> dict:
    """Every deterministic harvested worker series, keyed by
    (family, labels).  Excluded: ``worker_busy_seconds`` (a wall
    clock) and the ``embedding_rows`` verb — the multiprocess backend
    satisfies embedding reads from shared memory, so that verb's RPC
    counts legitimately differ from the simulated oracle's."""
    out = {}
    for name, kind, _help, series in router.telemetry.registry.families():
        if not name.startswith("worker_") or name == "worker_busy_seconds":
            continue
        for labels, metric in series:
            if labels.get("verb") == "embedding_rows":
                continue
            value = metric.count if kind == "histogram" else metric.value
            out[(name, tuple(sorted(labels.items())))] = value
    return out


def test_cross_backend_harvest_parity(world):
    """Identical full-stream replay on both backends, one harvest each:
    every deterministic worker counter matches exactly."""
    sim = make_router(world, "simulated")
    replay(sim, world)
    sim.harvest_telemetry()
    sim_series = harvested_worker_series(sim)
    sim.close()

    mp = make_router(world, "multiprocess")
    replay(mp, world)
    mp.harvest_telemetry()
    mp_series = harvested_worker_series(mp)
    mp.close()

    assert sim_series, "harvest produced no worker series"
    # real work happened and was counted per worker
    assert sim_series[("worker_rows_advanced_total",
                       (("worker", "0"),))] > 0
    assert sim_series == mp_series


@pytest.mark.parametrize("backend", BACKENDS)
def test_worker_spans_stitch_under_exec_rpc(world, backend):
    """After a harvest, every exec.rpc span holds one worker.rpc child
    per shard it fanned out to, carrying the router's trace_id, a
    worker-namespaced span id, and the worker.<verb> span inside."""
    router = make_router(world, backend, tracing=True)
    replay(router, world, stop=4)
    router.harvest_telemetry()
    tracer = router.telemetry.tracer

    exec_rpcs = [span for root in tracer.roots
                 for _, span in root.walk() if span.name == "exec.rpc"]
    assert exec_rpcs
    for span in exec_rpcs:
        workers = [c for c in span.children if c.name == "worker.rpc"]
        assert len(workers) == span.attrs["shards"]
        for w in workers:
            assert w.trace_id == span.trace_id
            assert w.parent_id == span.span_id
            assert w.span_id.startswith("worker")
            assert [c.name for c in w.children] == \
                [f"worker.{span.attrs['method']}"]
    router.close()


@pytest.mark.parametrize("backend", BACKENDS)
def test_tracing_off_means_no_envelope_and_no_spans(world, backend):
    router = make_router(world, backend)  # tracing off: the default
    replay(router, world, stop=3)
    # the transport would carry a context if there were one to carry
    assert router.transports[0].tracer is router.telemetry.tracer
    assert router.transports[0]._trace_context() is None
    # the workers never opened a span
    for transport in router.transports:
        _harvest, spans = transport.telemetry()
        assert spans == []
    assert not list(router.telemetry.tracer.roots)
    router.close()


def test_trace_context_only_inside_open_span(world):
    """The envelope exists exactly when tracing is on AND a span is
    open — the zero-allocation contract of the disabled hot path."""
    router = make_router(world, "simulated", tracing=True)
    transport = router.transports[0]
    assert transport._trace_context() is None  # no span open
    with router.telemetry.trace("exec.rpc") as span:
        assert transport._trace_context() == (span.trace_id,
                                              span.span_id)
    assert transport._trace_context() is None
    router.close()


@pytest.mark.parametrize("backend", BACKENDS)
def test_worker_stats_break_down_per_verb(world, backend):
    router = make_router(world, backend)
    replay(router, world, stop=3)
    stats = router.transports[0].worker_stats()
    # one apply_delta per commit, one finish_advance per advance
    # (including the boot-time prime) reach every shard
    assert stats.rpc_calls["apply_delta"] == router.counters.commits == 2
    assert stats.rpc_calls["finish_advance"] == \
        router.counters.advances == 3
    # payload bytes measured by payload_nbytes: deltas carry arrays,
    # finish_advance carries nothing
    assert stats.rpc_payload_bytes["apply_delta"] > 0
    assert stats.rpc_payload_bytes["finish_advance"] == 0
    router.close()


@pytest.mark.parametrize("backend", BACKENDS)
def test_worker_maintainer_profile_is_harvested(world, backend):
    """Each worker owns its Ã maintainer, so a fallback to a full
    rebuild inside a worker — real process or not — is visible from
    the router: after a streamed replay every worker advanced
    incrementally and never fell back."""
    router = make_router(world, backend, replicas=2)
    replay(router, world, stop=4)
    router.harvest_telemetry()
    reg = router.telemetry.registry
    for worker in ("0", "0r1", "1", "1r1"):
        assert reg.value("worker_maintainer_incremental_total",
                         worker=worker) > 0
        assert reg.value("worker_maintainer_fallbacks_total",
                         worker=worker) == 0
    router.close()


@pytest.mark.parametrize("backend", BACKENDS)
def test_worker_epilogue_is_visible_from_the_router(world, backend):
    """The engine inside a worker reports through the worker's
    telemetry: per-layer ``serve.aggregate`` / ``serve.epilogue`` spans
    nest under ``worker.refresh`` and ``worker.finish_advance``, and the
    epilogue row/tile counters arrive with the harvest."""
    router = make_router(world, backend, tracing=True)
    replay(router, world, stop=4)
    router.harvest_telemetry()
    for verb in ("worker.refresh", "worker.finish_advance"):
        spans = [s for root in router.telemetry.tracer.roots
                 for _, s in root.walk() if s.name == verb]
        assert spans
        assert any([c.name for c in s.children] ==
                   ["serve.aggregate", "serve.epilogue"] * 2 for s in spans)
    reg = router.telemetry.registry
    for worker in ("0", "1"):
        rows = reg.value("worker_epilogue_rows_total", worker=worker)
        tiles = reg.value("worker_epilogue_tiles_total", worker=worker)
        assert rows >= tiles > 0
    router.close()


def test_repeat_harvest_does_not_double_count(world):
    """harvest_telemetry at any cadence: deltas are merged exactly
    once, so idle harvests leave the cluster counters unchanged."""
    router = make_router(world, "simulated")
    replay(router, world, stop=4)
    router.harvest_telemetry()
    reg = router.telemetry.registry
    baseline = reg.value("worker_rows_advanced_total", worker="0")
    assert baseline > 0
    for _ in range(3):
        router.harvest_telemetry()
    assert reg.value("worker_rows_advanced_total", worker="0") == baseline
    router.close()


def test_router_exports_cover_the_cluster(world):
    """prometheus()/dashboard() on the router trigger the harvest and
    expose worker series and SLO verdicts in one place."""
    router = make_router(world, "simulated")
    replay(router, world, stop=4)
    slo = router.attach_slo(window=10)
    slo.ratio("shed-rate", "serve_queries_shed_total",
              "serve_queries_submitted_total", threshold=0.5)
    text = router.prometheus()
    assert 'worker_rpc_calls_total{verb="refresh",worker="0"}' in text
    assert 'worker_rpc_calls_total{verb="refresh",worker="1"}' in text
    out = router.dashboard()
    assert out.startswith("== ExecRouter dashboard ==")
    assert "rpc_p50ms" in out     # per-worker table rendered
    assert "shed-rate" in out     # SLO section rendered
    assert "[ok]" in out
    router.close()
