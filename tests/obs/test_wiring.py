"""Cross-tier wiring: every tier reports through one Telemetry bundle.

These tests drive real servers/stores/trainers (small AML-Sim worlds)
and assert the observable surface — span names, Prometheus families,
labeled per-shard series — rather than implementation internals.
"""

import numpy as np
import pytest

from repro.cluster import Cluster
from repro.exec import ExecRouter
from repro.graph import AMLSimConfig, generate_amlsim
from repro.models import build_model
from repro.nn.linear import Linear
from repro.obs import NULL_SPAN, Span, Telemetry, Tracer
from repro.serve import ModelServer, events_between
from repro.tensor.functional import TILE_ROWS
from repro.store import GraphStore
from repro.train import DistConfig, DistributedTrainer, LinkPredictionTask


@pytest.fixture(scope="module")
def stream():
    config = AMLSimConfig(num_accounts=80, num_timesteps=8,
                          background_per_step=120,
                          partner_persistence=0.8, seed=13)
    return generate_amlsim(config).dtdg


def _drive(server, dtdg, t_range):
    for t in t_range:
        server.advance_time()
        server.ingest_events(events_between(dtdg[t - 1], dtdg[t]))
        server.submit_link(0, 1)
        server.submit_link(t % 40, (t + 1) % 40)
        server.drain()


def _span_names(tracer):
    names = set()
    for root in tracer.roots:
        for _, span in root.walk():
            names.add(span.name)
    return names


class TestModelServerWiring:
    def test_delta_hot_path_spans_and_counters(self, stream, tmp_path):
        model = build_model("cdgcn", in_features=2, seed=0)
        fraud = Linear(model.embed_dim, 2, np.random.default_rng(9))
        tel = Telemetry(tracing=True)
        server = ModelServer(model, stream[0], fraud_head=fraud,
                             telemetry=tel)
        store = GraphStore.create(str(tmp_path / "s"),
                                  stream.num_vertices)
        server.attach_store(store)
        _drive(server, stream, range(1, 6))

        names = _span_names(tel.tracer)
        for expected in ("serve.ingest", "serve.commit",
                         "serve.maintainer", "serve.advance",
                         "serve.query", "store.append"):
            assert expected in names, f"missing span {expected}"

        text = server.prometheus()
        assert "serve_events_ingested_total" in text
        assert "serve_queries_completed_total" in text
        assert "serve_maintainer_updates_total" in text
        # the attached store reports into the same registry
        assert "store_wal_records_total" in text
        assert "serve_latency_ms" in text

    def test_store_spans_nest_under_serving_spans(self, stream, tmp_path):
        model = build_model("cdgcn", in_features=2, seed=0)
        tel = Telemetry(tracing=True)
        server = ModelServer(model, stream[0], telemetry=tel)
        store = GraphStore.create(str(tmp_path / "s"),
                                  stream.num_vertices)
        server.attach_store(store)
        # attach_store rebinds the store onto the server's telemetry
        assert store.telemetry is server.telemetry
        _drive(server, stream, range(1, 3))
        ingest_roots = [r for r in tel.tracer.roots
                        if r.name == "serve.ingest"]
        assert ingest_roots
        nested = {s.name for _, s in ingest_roots[-1].walk()}
        assert "store.append" in nested

    def test_stage_seconds_covers_the_pipeline(self, stream):
        model = build_model("cdgcn", in_features=2, seed=0)
        tel = Telemetry(tracing=True)
        server = ModelServer(model, stream[0], telemetry=tel)
        _drive(server, stream, range(1, 4))
        stages = tel.stage_seconds()
        assert {"serve.ingest", "serve.query"} <= stages.keys()
        assert all(v >= 0.0 for v in stages.values())

    def test_refresh_splits_into_aggregate_and_epilogue(self, stream):
        """One ``serve.aggregate`` + one ``serve.epilogue`` span per
        layer (never per tile) under every refresh and advance, and the
        epilogue counter pair agrees with their attributes."""
        model = build_model("cdgcn", in_features=2, seed=0)
        tel = Telemetry(tracing=True)
        server = ModelServer(model, stream[0], telemetry=tel)
        _drive(server, stream, range(1, 4))
        refreshes = [s for root in tel.tracer.roots
                     for _, s in root.walk() if s.name == "serve.refresh"]
        assert refreshes
        for span in refreshes:
            assert [c.name for c in span.children] == \
                ["serve.aggregate", "serve.epilogue"] * model.num_layers
            assert [c.attrs["layer"] for c in span.children] == [0, 0, 1, 1]
        epilogues = [s for root in tel.tracer.roots
                     for _, s in root.walk() if s.name == "serve.epilogue"]
        for span in epilogues:
            assert span.attrs["tiles"] == -(-span.attrs["rows"] // TILE_ROWS)
        server.prometheus()
        reg = tel.registry
        assert reg.value("serve_epilogue_rows_total") == \
            sum(s.attrs["rows"] for s in epilogues)
        assert reg.value("serve_epilogue_tiles_total") == \
            sum(s.attrs["tiles"] for s in epilogues)

    def test_disabled_tracing_keeps_metrics(self, stream):
        """Metrics flow even with the span fast path off (default)."""
        model = build_model("cdgcn", in_features=2, seed=0)
        server = ModelServer(model, stream[0])
        _drive(server, stream, range(1, 3))
        assert not server.telemetry.tracer.roots
        text = server.prometheus()
        assert "serve_events_ingested_total" in text
        reg = server.telemetry.registry
        assert reg.value("serve_queries_completed_total") == \
            server.counters.queries_completed


class TestTracingOffIsFree:
    """Tracing off allocates no span and reads no tracer clock on either
    serving tier: the injected clock raises, ``Span.__init__`` raises,
    and every ``trace()`` call must hand back the shared NULL_SPAN."""

    @pytest.fixture
    def returned(self, monkeypatch):
        def no_span(*args, **kwargs):
            raise AssertionError("span allocated with tracing off")

        monkeypatch.setattr(Span, "__init__", no_span)
        returned = []
        trace = Tracer.trace

        def spy(self, name, parent=None, **attrs):
            out = trace(self, name, parent=parent, **attrs)
            returned.append(out)
            return out

        monkeypatch.setattr(Tracer, "trace", spy)
        return returned

    @staticmethod
    def _telemetry():
        def clock():
            raise AssertionError("tracer clock read with tracing off")

        return Telemetry(tracer=Tracer(False, clock=clock))

    def test_model_server(self, stream, returned):
        model = build_model("cdgcn", in_features=2, seed=0)
        fraud = Linear(model.embed_dim, 2, np.random.default_rng(9))
        server = ModelServer(model, stream[0], fraud_head=fraud,
                             telemetry=self._telemetry())
        _drive(server, stream, range(1, 6))
        server.submit_fraud(3)
        server.drain()
        assert returned and all(s is NULL_SPAN for s in returned)

    def test_exec_router(self, stream, returned):
        model = build_model("cdgcn", in_features=2, seed=0)
        fraud = Linear(model.embed_dim, 2, np.random.default_rng(9))
        router = ExecRouter(model, stream[0], backend="simulated",
                            num_shards=3, fraud_head=fraud,
                            telemetry=self._telemetry())
        _drive(router, stream, range(1, 6))
        router.submit_fraud(3)
        router.drain()
        router.close()
        assert returned and all(s is NULL_SPAN for s in returned)


class TestShardedWiring:
    def test_per_shard_halo_bytes_labeled_series(self, stream):
        model = build_model("cdgcn", in_features=2, seed=0)
        fraud = Linear(model.embed_dim, 2, np.random.default_rng(9))
        tel = Telemetry(tracing=True)
        server = ExecRouter(model, stream[0], backend="simulated",
                            num_shards=3, fraud_head=fraud, telemetry=tel)
        _drive(server, stream, range(1, 6))

        text = server.prometheus()
        reg = tel.registry
        aggregate = reg.value("shard_halo_bytes_total")
        per_shard = sum(reg.value("shard_halo_bytes_total", shard=str(s))
                        for s in range(3))
        assert aggregate > 0
        assert per_shard == aggregate
        assert 'shard_halo_bytes_total{shard="0"}' in text
        assert 'shard_queries_total{shard=' in text
        assert "shard_load_skew" in text

        names = _span_names(tel.tracer)
        for expected in ("serve.ingest", "serve.fanout",
                         "serve.halo_sync", "serve.advance",
                         "serve.query"):
            assert expected in names, f"missing span {expected}"

    def test_sharded_stats_snapshot_traffic(self, stream):
        """Regression: ExecStats must deep-copy halo traffic — a
        snapshot's per-shard dicts can't grow with later syncs."""
        model = build_model("cdgcn", in_features=2, seed=0)
        server = ExecRouter(model, stream[0], backend="simulated",
                            num_shards=3)
        _drive(server, stream, range(1, 3))
        before = server.stats()
        frozen_bytes = before.traffic.bytes_shipped
        frozen_per_shard = dict(before.traffic.bytes_per_shard)
        _drive(server, stream, range(3, 6))
        assert before.traffic.bytes_shipped == frozen_bytes
        assert dict(before.traffic.bytes_per_shard) == frozen_per_shard
        assert server.stats().traffic.bytes_shipped > frozen_bytes


class TestStoreWiring:
    def test_standalone_store_counters(self, stream, tmp_path):
        tel = Telemetry(tracing=True)
        store = GraphStore.create(str(tmp_path / "s"),
                                  stream.num_vertices, base_interval=3,
                                  telemetry=tel)
        for t in range(1, 7):
            store.append_events(events_between(stream[t - 1], stream[t]))
            store.seal_step()
        store.materialize(3, cached=False)  # non-tip → full replay path

        reg = tel.registry
        store.collect_metrics(reg)
        assert reg.value("store_wal_appends_total") == store.wal.appends
        assert reg.value("store_wal_fsyncs_total") == store.wal.fsyncs
        assert reg.value("store_wal_records_total") > 0
        assert reg.value("store_compaction_bases_total") >= 1
        # replay-depth histogram is attached, not copied
        assert reg.get("store_replay_depth") is store.replay_depth
        assert store.replay_depth.count > 0

        names = _span_names(tel.tracer)
        assert "store.append" in names
        assert "store.materialize" in names


class TestTrainerWiring:
    def test_epoch_metrics_and_reuse_counters(self, stream):
        model = build_model("cdgcn", in_features=2, seed=0)
        task = LinkPredictionTask(stream, embed_dim=model.embed_dim,
                                  seed=1)
        tel = Telemetry(tracing=True)
        trainer = DistributedTrainer(
            model, stream, task, Cluster.of_size(1),
            DistConfig(num_blocks=2, reuse_aggregation=True),
            telemetry=tel)
        trainer.fit(2)

        reg = tel.registry
        assert reg.value("train_epochs_total") == 2.0
        assert reg.value("train_forward_seconds_total") > 0.0
        decisions = sum(
            reg.value("train_agg_decisions_total", mode=m)
            for m in ("memo", "patch", "full"))
        assert decisions > 0
        names = _span_names(tel.tracer)
        assert "train.forward" in names

    def test_single_block_path_traces_backward(self, stream):
        model = build_model("cdgcn", in_features=2, seed=0)
        task = LinkPredictionTask(stream, embed_dim=model.embed_dim,
                                  seed=1)
        tel = Telemetry(tracing=True)
        trainer = DistributedTrainer(model, stream, task,
                                     Cluster.of_size(1),
                                     DistConfig(num_blocks=1),
                                     telemetry=tel)
        trainer.fit(1)
        names = _span_names(tel.tracer)
        assert {"train.forward", "train.backward"} <= names
