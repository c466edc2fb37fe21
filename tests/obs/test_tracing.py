"""Span tracing: tree building, disabled fast path, registry fold-in."""

from repro.obs import NULL_SPAN, MetricsRegistry, Telemetry, Tracer


def fake_clock():
    """Deterministic clock advancing 1.0s per read."""
    state = {"t": 0.0}

    def clock():
        state["t"] += 1.0
        return state["t"]

    return clock


class TestDisabled:
    def test_disabled_returns_shared_null_span(self):
        tracer = Tracer(enabled=False)
        span = tracer.trace("serve.ingest", events=3)
        assert span is NULL_SPAN
        assert tracer.trace("other") is span  # no allocation per call

    def test_null_span_is_inert(self):
        with NULL_SPAN as s:
            s.set(rows=5)  # must not raise
        assert not Tracer(enabled=False).roots

    def test_enable_disable_live(self):
        tracer = Tracer(enabled=False)
        tracer.enable()
        with tracer.trace("a"):
            pass
        tracer.disable()
        with tracer.trace("b"):
            pass
        assert [s.name for s in tracer.roots] == ["a"]


class TestTree:
    def test_nesting_builds_parent_child(self):
        tracer = Tracer(enabled=True)
        with tracer.trace("serve.ingest", events=7):
            with tracer.trace("serve.commit"):
                pass
            with tracer.trace("serve.maintainer"):
                pass
        assert len(tracer.roots) == 1
        root = tracer.roots[0]
        assert root.name == "serve.ingest"
        assert root.attrs == {"events": 7}
        assert [c.name for c in root.children] == ["serve.commit",
                                                   "serve.maintainer"]

    def test_durations_from_injected_clock(self):
        tracer = Tracer(enabled=True, clock=fake_clock())
        with tracer.trace("outer"):      # enter t=1
            with tracer.trace("inner"):  # enter t=2, exit t=3
                pass
        # outer: enter 1, exit 4
        root = tracer.roots[0]
        assert root.duration_s == 3.0
        assert root.children[0].duration_s == 1.0

    def test_walk_preorder(self):
        tracer = Tracer(enabled=True)
        with tracer.trace("a"):
            with tracer.trace("b"):
                with tracer.trace("c"):
                    pass
            with tracer.trace("d"):
                pass
        walked = [(d, s.name) for d, s in tracer.roots[0].walk()]
        assert walked == [(0, "a"), (1, "b"), (2, "c"), (1, "d")]

    def test_set_and_error_attr(self):
        tracer = Tracer(enabled=True)
        try:
            with tracer.trace("risky") as span:
                span.set(step=3)
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        root = tracer.roots[0]
        assert root.attrs == {"step": 3, "error": "RuntimeError"}

    def test_bounded_roots(self):
        tracer = Tracer(enabled=True, max_roots=4)
        for i in range(10):
            with tracer.trace(f"s{i}"):
                pass
        assert [s.name for s in tracer.roots] == ["s6", "s7", "s8", "s9"]

    def test_clear_drops_roots(self):
        tracer = Tracer(enabled=True)
        with tracer.trace("a"):
            pass
        tracer.clear()
        assert not tracer.roots

    def test_current_tracks_stack(self):
        tracer = Tracer(enabled=True)
        assert tracer.current is None
        with tracer.trace("a") as a:
            assert tracer.current is a
        assert tracer.current is None

    def test_to_dict_nested(self):
        tracer = Tracer(enabled=True)
        with tracer.trace("a", k=1):
            with tracer.trace("b"):
                pass
        d = tracer.roots[0].to_dict()
        assert d["name"] == "a"
        assert d["attrs"] == {"k": 1}
        assert d["children"][0]["name"] == "b"


class TestRegistryFold:
    def test_finished_spans_fold_into_counters(self):
        reg = MetricsRegistry()
        tracer = Tracer(enabled=True, registry=reg, clock=fake_clock())
        with tracer.trace("serve.query"):
            pass
        with tracer.trace("serve.query"):
            pass
        assert reg.value("span_calls_total", span="serve.query") == 2.0
        assert reg.value("span_seconds_total", span="serve.query") == 2.0

    def test_children_fold_too(self):
        reg = MetricsRegistry()
        tracer = Tracer(enabled=True, registry=reg)
        with tracer.trace("outer"):
            with tracer.trace("inner"):
                pass
        assert reg.value("span_calls_total", span="inner") == 1.0


class TestPropagation:
    def test_ids_node_prefixed_and_parented(self):
        tracer = Tracer(enabled=True, node="main")
        with tracer.trace("outer") as outer:
            with tracer.trace("inner") as inner:
                assert inner.parent_id == outer.span_id
                assert inner.trace_id == outer.trace_id
        assert outer.span_id == "main:1"
        assert outer.trace_id == outer.span_id  # self-rooted
        assert outer.parent_id is None

    def test_current_context_gates(self):
        tracer = Tracer(enabled=True)
        assert tracer.current_context() is None  # no open span
        with tracer.trace("a") as a:
            assert tracer.current_context() == (a.trace_id, a.span_id)
        assert tracer.current_context() is None
        assert Tracer(enabled=False).current_context() is None

    def test_remote_parent_adopts_callers_trace(self):
        router = Tracer(enabled=True, node="main")
        worker = Tracer(enabled=True, node="worker0")
        with router.trace("exec.rpc") as rpc:
            ctx = router.current_context()
        with worker.trace("worker.rpc", parent=ctx):
            pass
        shipped = worker.roots[0]
        assert shipped.trace_id == rpc.trace_id
        assert shipped.parent_id == rpc.span_id
        assert shipped.span_id == "worker0:1"

    def test_wire_round_trip_exact(self):
        tracer = Tracer(enabled=True, clock=fake_clock())
        with tracer.trace("worker.rpc", method="refresh"):
            with tracer.trace("worker.refresh"):
                pass
        wire = tracer.roots[0].to_wire()
        import json
        json.dumps(wire)  # plain data: must survive any codec
        from repro.obs import Span
        back = Span.from_wire(wire)
        assert back.to_wire() == wire
        assert back.name == "worker.rpc"
        assert back.attrs == {"method": "refresh"}
        assert back.duration_s == tracer.roots[0].duration_s
        assert back.children[0].name == "worker.refresh"

    def test_graft_attaches_under_named_parent(self):
        router = Tracer(enabled=True, node="main")
        worker = Tracer(enabled=True, node="worker0")
        with router.trace("serve.ingest"):
            with router.trace("exec.rpc"):
                ctx = router.current_context()
        with worker.trace("worker.rpc", parent=ctx):
            pass
        assert router.graft(worker.drain_finished()) == 1
        rpc = router.roots[0].children[0]
        assert rpc.name == "exec.rpc"
        assert [c.name for c in rpc.children] == ["worker.rpc"]
        assert not worker.roots  # drained

    def test_graft_orphan_kept_as_root(self):
        router = Tracer(enabled=True)
        wire = {"name": "worker.rpc", "trace_id": "main:9",
                "span_id": "worker0:1", "parent_id": "main:9"}
        assert router.graft([wire]) == 1  # parent evicted: keep anyway
        assert [s.name for s in router.roots] == ["worker.rpc"]

    def test_grafted_spans_do_not_fold_into_counters(self):
        reg = MetricsRegistry()
        router = Tracer(enabled=True, registry=reg)
        with router.trace("exec.rpc"):
            ctx = router.current_context()
        worker = Tracer(enabled=True, node="worker0")
        with worker.trace("worker.rpc", parent=ctx):
            pass
        router.graft(worker.drain_finished())
        # the worker's own registry already counted it; grafting again
        # here would double-count on harvest
        assert reg.value("span_calls_total", span="worker.rpc") == 0.0

    def test_chained_graft_indexes_new_spans(self):
        """A grafted span becomes a graft target itself: a second
        harvest's spans can parent under a first harvest's."""
        router = Tracer(enabled=True)
        with router.trace("exec.rpc"):
            ctx = router.current_context()
        worker = Tracer(enabled=True, node="worker0")
        with worker.trace("worker.rpc", parent=ctx) as w:
            wctx = (w.trace_id, w.span_id)
        router.graft(worker.drain_finished())
        late = Tracer(enabled=True, node="worker0")
        late._seq = 10
        with late.trace("worker.flush", parent=wctx):
            pass
        router.graft(late.drain_finished())
        rpc = router.roots[0]
        assert rpc.children[0].children[0].name == "worker.flush"


class TestTelemetry:
    def test_bundle_shares_registry(self):
        tel = Telemetry(tracing=True)
        with tel.trace("serve.ingest"):
            pass
        assert tel.stage_seconds().keys() == {"serve.ingest"}
        assert tel.tracer.registry is tel.registry

    def test_tracing_off_by_default(self):
        tel = Telemetry()
        assert tel.trace("x") is NULL_SPAN
        assert tel.stage_seconds() == {}
