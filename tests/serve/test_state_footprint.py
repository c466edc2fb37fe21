"""A CD-GCN row's state is held once (docs/kernels.md, "Refresh: stale
layers and the read cone"; docs/store_format.md for the capture side).

A layer's post-step ``h`` is its output row, so the engine keeps it in
``layer_outputs`` alone and the step-leaving carry holds ``c`` only:
four ``(N, H)`` arrays per layer — the output, the entering ``(h, c)``
and the leaving ``c``.  A boundary copies the output into the entering
``h`` buffer and swaps the two ``c`` buffers, so it allocates no state
array.  Pinned by counting arrays and allocations, never by timing.
"""

import tracemalloc

import numpy as np
import pytest

from repro.graph import AMLSimConfig, generate_amlsim
from repro.models import build_model
from repro.serve import InferenceEngine


@pytest.fixture(scope="module")
def stream():
    return generate_amlsim(AMLSimConfig(
        num_accounts=2000, num_timesteps=3, background_per_step=3000,
        partner_persistence=0.8, seed=6)).dtdg


def _row_arrays(engine) -> list[np.ndarray]:
    """Every 2-D float array with one row per vertex that the engine or
    its cache holds, one level into lists and tuples (the input feature
    matrix aside): the per-vertex model state."""
    n = engine.num_vertices
    found = []

    def visit(value):
        if isinstance(value, np.ndarray):
            if value.ndim == 2 and value.shape[0] == n and \
                    value.dtype == np.float64 and \
                    value is not engine.cache.features:
                found.append(value)
        elif isinstance(value, (list, tuple)):
            for item in value:
                visit(item)

    for owner in (engine, engine.cache):
        for value in vars(owner).values():
            visit(value)
    return found


def _engine(stream):
    model = build_model("cdgcn", in_features=2, hidden=24, embed_dim=16,
                        seed=0)
    engine = InferenceEngine(model, stream[0])
    engine.advance()
    engine.advance(stream[1])    # carries promoted at least once
    return engine


def test_cdgcn_engine_holds_four_arrays_per_layer(stream):
    engine = _engine(stream)
    arrays = _row_arrays(engine)
    widths = [layer.hidden for layer in engine.layers]
    assert len(arrays) == 4 * len(engine.layers)
    assert sum(a.nbytes for a in arrays) == \
        4 * engine.num_vertices * 8 * sum(widths)
    for i, a in enumerate(arrays):
        assert not any(np.shares_memory(a, b) for b in arrays[i + 1:])
    # the post-step h is the output, held once
    for z, c in zip(engine.cache.layer_outputs, engine.cache.post_carry):
        assert isinstance(c, np.ndarray) and c.shape == z.shape


@pytest.mark.parametrize("rebase", [False, True])
def test_boundary_allocates_no_state_array(stream, rebase):
    engine = _engine(stream)
    state = {id(a) for a in _row_arrays(engine)}
    n, width = engine.num_vertices, max(l.hidden for l in engine.layers)
    row_block = n * width * 8
    tracemalloc.start()
    try:
        engine.advance(stream[2] if rebase else None)
        _, peak = tracemalloc.get_traced_memory()
        kept = max((t.size for t in tracemalloc.take_snapshot().traces),
                   default=0)
    finally:
        tracemalloc.stop()
    # the same buffers, traded places: no block a row of state per
    # vertex would need outlives the boundary (a rebase keeps only its
    # new operator arrays, O(E) and far smaller)
    assert {id(a) for a in _row_arrays(engine)} == state
    assert kept < row_block / 2, kept
    if not rebase:   # (a rebase also rebuilds Ã, an O(E) transient)
        # one layer's aggregation ``Ã·z`` is the only (N, H) transient
        assert peak < 2 * row_block, (peak, row_block)


def test_promoted_carry_is_the_ended_steps_output(stream):
    """What enters step t + 1 is exactly what step t left: its output
    rows as ``h`` and its leaving ``c``."""
    engine = _engine(stream)
    z = [a.copy() for a in engine.cache.layer_outputs]
    c = [a.copy() for a in engine.cache.post_carry]
    engine.advance()
    for (h_pre, c_pre), want_h, want_c in zip(engine.cache.pre_carry, z, c):
        np.testing.assert_array_equal(h_pre, want_h)
        np.testing.assert_array_equal(c_pre, want_c)
