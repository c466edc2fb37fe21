"""The dense epilogue's row-subset invariance (docs/kernels.md, "Dense
epilogue: fixed-shape tiles").

``_compute`` over a row subset must leave those rows bit-identical to
a full ``_compute`` for every subset size >= 1.  Before the fixed-shape
tiles this held only while BLAS picked the same kernel for ``rows x K``
as for ``N x K``: OpenBLAS switches to GEMV at one row and to a
small-matrix path below ten, so a handful of dirty rows — a single
event's cone on a sparse graph, a shard whose last-layer slice is one
owned row — came out a last bit off the full recompute.  The divergence
asserted here is **0.0**, not a tolerance.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.exec import ExecRouter
from repro.graph import AMLSimConfig, GraphSnapshot, generate_amlsim
from repro.models import MODEL_NAMES, build_model
from repro.serve import EdgeEvent, InferenceEngine, ModelServer
from repro.tensor.functional import PANEL_ROWS, _sigmoid
from repro.serve.sharded import FrozenBoard, ShardEngine, ShardPlan
from tests.helpers import oracle_sigmoid


def _sparse_graph(rng, n=400, m=300) -> GraphSnapshot:
    keys = rng.choice(n * n, size=m, replace=False)
    return GraphSnapshot(n, np.stack([keys // n, keys % n], axis=1))


def _single_events(rng, n, count):
    """``count`` one-event batches: mostly fresh edges, some removals
    of an edge added earlier."""
    added, out = [], []
    for _ in range(count):
        if added and rng.random() < 0.3:
            src, dst = added.pop(int(rng.integers(len(added))))
            out.append(EdgeEvent(src, dst, "remove"))
        else:
            src, dst = (int(v) for v in rng.integers(n, size=2))
            added.append((src, dst))
            out.append(EdgeEvent(src, dst, "add"))
    return out


# -- the bug: a few dirty rows diverge from the full recompute ------------------
def test_single_event_refreshes_match_full_recompute_exactly():
    rng = np.random.default_rng(17)
    g0 = _sparse_graph(rng)
    inc = ModelServer(build_model("cdgcn", in_features=2, hidden=32, seed=0),
                      g0)
    full = ModelServer(build_model("cdgcn", in_features=2, hidden=32, seed=0),
                       g0, incremental=False)
    for server in (inc, full):
        server.advance_time()
        server.advance_time()
    small = 0
    for event in _single_events(rng, g0.num_vertices, 120):
        for server in (inc, full):
            server.ingest_events([event])
        small += 0 < inc.engine.refresh() < 10
        full.engine.refresh()
        assert np.abs(inc.engine.embeddings
                      - full.engine.embeddings).max() == 0.0
    assert small >= 20, "the stream must exercise few-row refreshes"


def test_shard_owning_one_row_matches_single_worker_exactly():
    """Shard 1 owns a single vertex, so its last-layer slice is one
    row (a GEMV on the pre-tile engine)."""
    dtdg = generate_amlsim(AMLSimConfig(
        num_accounts=120, num_timesteps=6, background_per_step=200,
        partner_persistence=0.8, seed=5)).dtdg
    owner = np.zeros(dtdg.num_vertices, dtype=np.int64)
    owner[int(dtdg[0].edges[0, 0])] = 1
    single = ModelServer(build_model("cdgcn", in_features=2, hidden=32,
                                     seed=0), dtdg[0], incremental=False)
    sharded = ExecRouter(build_model("cdgcn", in_features=2, hidden=32,
                                     seed=0), dtdg[0], backend="simulated",
                         plan=ShardPlan(owner=owner, num_shards=2))
    rng = np.random.default_rng(3)
    for t in range(1, dtdg.num_timesteps):
        for server in (single, sharded):
            server.advance_time(dtdg[t])
        for event in _single_events(rng, dtdg.num_vertices, 6):
            for server in (single, sharded):
                server.ingest_events([event])
            single.engine.refresh()
            assert np.abs(sharded.gathered_embeddings()
                          - single.engine.embeddings).max() == 0.0
    worker = sharded.channels[1].replicas[0].service
    assert len(worker.engine.block) == 1
    sharded.close()


# -- the contract: any row subset, any parameter layout --------------------------
@pytest.fixture(scope="module")
def stream():
    return generate_amlsim(AMLSimConfig(
        num_accounts=900, num_timesteps=4, background_per_step=1400,
        partner_persistence=0.8, seed=23)).dtdg


def _engine(stream, name, hidden, order, cls=InferenceEngine, **kwargs):
    model = build_model(name, in_features=2, hidden=hidden,
                        embed_dim=hidden, seed=1)
    for p in model.parameters():
        p.data = np.asfortranarray(p.data) if order == "F" \
            else np.ascontiguousarray(p.data)
    engine = cls(model, stream[0], **kwargs)
    for t in range(1, 4):   # tmgcn: a full history window
        out = engine.advance(stream[t])
    return engine, out


def _temporal_state(engine) -> list:
    cache = engine.cache
    arrays = list(cache.layer_outputs)
    arrays += cache.post_carry   # CD-GCN's post-step c (h is the output)
    arrays += [y for y in engine._current_y if y is not None]
    return arrays


def _workspace(engine) -> list:
    return [a for panel in engine._panels for a in vars(panel).values()]


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("hidden", [16, 32])
@pytest.mark.parametrize("name", MODEL_NAMES)
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_row_subsets_recompute_bit_identically(stream, name, hidden, order,
                                               data):
    engine, _ = _engine(stream, name, hidden, order)
    want = [a.copy() for a in _temporal_state(engine)]
    n = engine.num_vertices
    for lo, hi in ((1, 40), (40, n)):
        rows = np.array(sorted(data.draw(st.sets(
            st.integers(0, n - 1), min_size=lo, max_size=hi))))
        engine._compute([rows] * len(engine.layers))
        for got, ref in zip(_temporal_state(engine), want):
            np.testing.assert_array_equal(got, ref)


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_panel_scratch_never_escapes(stream, name):
    """Nothing the engine hands out or keeps as state aliases the
    O(PANEL_ROWS) scratch: a later panel would overwrite it."""
    engine, returned = _engine(stream, name, 16, "C", cls=ShardEngine,
                               block=np.arange(0, 900, 2))
    rows = np.arange(PANEL_ROWS + 7)
    engine._compute([rows] * len(engine.layers))
    cache = engine.cache
    exported = engine.export_state_rows(engine.block)
    reachable = [returned, engine.embeddings, cache.features]
    reachable += _temporal_state(engine)
    reachable += [a for pair in cache.pre_carry for a in pair]
    reachable += [f for frames in engine._history for f in frames]
    board = FrozenBoard(engine.model, engine.num_vertices, 2)
    board.publish(0, engine.block, engine.state_arrays(), 1)
    reachable += list(board.planes.values())
    reachable += list(exported.values())
    assert len(reachable) > 6
    for scratch in _workspace(engine):
        assert scratch.shape[-2] == PANEL_ROWS
        for array in reachable:
            assert not np.shares_memory(array, scratch)


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_packed_weights_are_a_snapshot_of_the_model(stream, name):
    """Parameters are read at construction: an optimizer stepping the
    model in place afterwards reaches no packed weight (a live GCN
    weight beside frozen LSTM cells would be a silent mix)."""
    engine, _ = _engine(stream, name, 16, "C")
    packed = [w for layer in engine.layers for w in vars(layer).values()
              if isinstance(w, np.ndarray)]
    before = [w.copy() for w in packed]
    for p in engine.model.parameters():
        p.data += 1.0
    for live, ref in zip(packed, before):
        np.testing.assert_array_equal(live, ref)


# -- the logistic: one exp, no masks, same bits -----------------------------------
_SPECIALS = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
             2.2250738585072014e-308, -2.2250738585072014e-308,
             709.78, -709.78, 745.13, -745.13, 745.14, -745.14, 800.0,
             -800.0, 1.7976931348623157e308, -1.7976931348623157e308]
_floats = st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                    st.sampled_from(_SPECIALS),
                    st.floats(-750.0, 750.0))


@settings(max_examples=300, deadline=None)
@given(z=hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=3,
                                                 min_side=0, max_side=9),
                    elements=_floats),
       step=st.sampled_from([1, 2, -1]), transpose=st.booleans())
def test_sigmoid_matches_masked_oracle_bit_for_bit(z, step, transpose):
    view = z[..., ::step]
    if transpose:
        view = view.T
    with np.errstate(all="ignore"):
        got, want = _sigmoid(view), oracle_sigmoid(view)
    np.testing.assert_array_equal(got, want)    # NaNs compare equal here
    # in place, with scratch: the form the panel loop uses
    buf, e = np.array(view), np.empty(view.shape)
    with np.errstate(all="ignore"):
        assert _sigmoid(buf, buf, e) is buf
    np.testing.assert_array_equal(buf, want)


def test_sigmoid_on_dense_specials_and_random_bit_patterns():
    bits = np.random.default_rng(5).integers(0, 2 ** 64, size=200_000,
                                             dtype=np.uint64)
    z = np.concatenate([bits.view(np.float64), np.array(_SPECIALS),
                        np.linspace(-760.0, 760.0, 30_001)])
    with np.errstate(all="ignore"):
        np.testing.assert_array_equal(_sigmoid(z), oracle_sigmoid(z))
    assert _sigmoid(np.empty(0)).shape == (0,)
