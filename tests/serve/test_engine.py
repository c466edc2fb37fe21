"""The serving engine's exactness contract (acceptance criterion).

Incremental, cache-invalidated inference must be bit-identical to a
full recompute while a 20-timestep AML-Sim event stream replays — for
every supported model — and the engine's timeline must reproduce the
training-side ``model.forward`` bit for bit: both run the same kernels
of ``repro.tensor.functional``.
"""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.graph import AMLSimConfig, GraphSnapshot, generate_amlsim
from repro.models import MODEL_NAMES, build_model
from repro.serve import InferenceEngine, StreamIngestor, events_between
from repro.tensor import Tensor
from repro.train import compute_laplacians, degree_features


@pytest.fixture(scope="module")
def stream20():
    """A 20-timestep AML-Sim dynamic graph."""
    config = AMLSimConfig(num_accounts=150, num_timesteps=20,
                          background_per_step=250,
                          partner_persistence=0.85, num_fan_out=3,
                          num_fan_in=3, num_cycles=2, num_scatter_gather=2,
                          pattern_size=5, seed=11)
    sim = generate_amlsim(config)
    sim.dtdg.set_features(degree_features(sim.dtdg))
    return sim.dtdg


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_engine_matches_training_forward(stream20, name):
    """advance() over the timeline == model.forward embeddings, to the
    bit."""
    dtdg = stream20
    model = build_model(name, in_features=2, seed=0)
    reference = model(compute_laplacians(dtdg),
                      [Tensor(f) for f in dtdg.features])
    engine = InferenceEngine(model, dtdg[0])
    for t in range(dtdg.num_timesteps):
        got = engine.advance(dtdg[t] if t else None)
        np.testing.assert_array_equal(got, reference[t].data,
                                      err_msg=f"{name} diverged at t={t}")


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_incremental_equals_full_recompute_over_stream(stream20, name):
    """Acceptance: replay 20 timesteps as micro-batched edge events;
    after every batch the incrementally refreshed embeddings must equal
    a full recompute bit for bit."""
    dtdg = stream20
    model = build_model(name, in_features=2, seed=0)
    inc = InferenceEngine(model, dtdg[0])
    full = InferenceEngine(model, dtdg[0])
    inc.advance()
    full.advance()
    ingestor = StreamIngestor(dtdg[0])
    partial_refreshes = 0
    for t in range(1, dtdg.num_timesteps):
        events = events_between(ingestor.resident, dtdg[t])
        chunk = max(1, len(events) // 4)
        for lo in range(0, len(events), chunk):
            result = ingestor.commit(events[lo:lo + chunk])
            inc.set_snapshot(result.snapshot, seeds=result.dirty)
            rows = inc.refresh()
            full.set_snapshot(result.snapshot, seeds=None)
            full.refresh()
            if rows < inc.num_vertices:
                partial_refreshes += 1
            np.testing.assert_array_equal(
                inc.embeddings, full.embeddings,
                err_msg=f"{name} incremental != full at t={t}")
        assert ingestor.resident == dtdg[t]
        # timestep boundary: both advance their temporal carries
        np.testing.assert_array_equal(inc.advance(), full.advance())
    # the stream must actually have exercised partial recomputes,
    # otherwise this test proves nothing about the cache
    assert partial_refreshes > 10


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_unflushed_events_settle_before_advance(stream20, name):
    """Regression: events ingested but never refreshed before a
    timestep boundary must not poison the promoted carries.  A lazy
    engine (refreshes deferred past the boundary) must stay equal to an
    eager one that refreshes after every event batch — the engine
    settles pending dirty rows against the end-of-step graph before
    promoting."""
    dtdg = stream20
    model = build_model(name, in_features=2, seed=0)
    eager = InferenceEngine(model, dtdg[0])
    lazy = InferenceEngine(model, dtdg[0])
    eager.advance()
    lazy.advance()
    ingestor = StreamIngestor(dtdg[0])
    for t in range(1, dtdg.num_timesteps):
        events = events_between(ingestor.resident, dtdg[t])
        chunk = max(1, len(events) // 3)
        for lo in range(0, len(events), chunk):
            result = ingestor.commit(events[lo:lo + chunk])
            eager.set_snapshot(result.snapshot, seeds=result.dirty)
            eager.refresh()
            # lazy accumulates dirt, deliberately never refreshed
            lazy.set_snapshot(result.snapshot, seeds=result.dirty)
        np.testing.assert_array_equal(lazy.advance(), eager.advance(),
                                      err_msg=f"{name} stale carries at t={t}")


def test_partial_aggregation_matches_spmm(stream20):
    """The row-sliced kernel == the same rows of the full SpMM,
    bit-for-bit (CSR row extraction keeps each row's entry order)."""
    dtdg = stream20
    model = build_model("cdgcn", in_features=2, seed=0)
    engine = InferenceEngine(model, dtdg[5])
    rng = np.random.default_rng(0)
    x = rng.normal(size=(dtdg.num_vertices, 4))
    rows = np.unique(rng.integers(0, dtdg.num_vertices, size=30))
    full = engine._aggregate(x, None)
    part = engine._aggregate(x, rows)
    np.testing.assert_array_equal(part, full[rows])


def test_refresh_before_advance_rejected(stream20):
    model = build_model("cdgcn", in_features=2, seed=0)
    engine = InferenceEngine(model, stream20[0])
    with pytest.raises(ConfigError):
        engine.refresh()


def test_vertex_set_must_stay_fixed(stream20):
    model = build_model("cdgcn", in_features=2, seed=0)
    engine = InferenceEngine(model, stream20[0])
    other = GraphSnapshot(stream20.num_vertices + 1,
                          np.array([[0, 1]], dtype=np.int64))
    with pytest.raises(ConfigError):
        engine.set_snapshot(other, seeds=None)


def test_unsupported_feature_width_rejected(stream20):
    model = build_model("cdgcn", in_features=3, seed=0)
    with pytest.raises(ConfigError):
        InferenceEngine(model, stream20[0])


def test_refresh_touches_only_dirty_region(stream20):
    """Clean rows must be served from cache, not recomputed."""
    dtdg = stream20
    model = build_model("cdgcn", in_features=2, seed=0)
    engine = InferenceEngine(model, dtdg[0])
    engine.advance()
    ingestor = StreamIngestor(dtdg[0])
    events = events_between(dtdg[0], dtdg[1])[:5]
    result = ingestor.commit(events)
    engine.set_snapshot(result.snapshot, seeds=result.dirty)
    rows = engine.refresh()
    assert 0 < rows < dtdg.num_vertices
