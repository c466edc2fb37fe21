"""The engine-state capture layout, against a recorded fixture.

``capture_layout_parent.json`` was recorded at the commit *before* the
capture, restore, rebalance transplant and halo mirroring came to walk
one named state schema (each of them spelled the per-model layout out
beside the engine).  It pins what a capture holds — every array name in
write order, with its dtype and shape, and the record's ``meta`` — for
each model on a single engine and on a two-shard tier.  Float payloads
stay out, so the fixture holds on every BLAS kernel family; the bytes
themselves are pinned by the exact-recovery tests.

Re-record (deliberate format changes only, and say so in CHANGES.md):
``PYTHONPATH=src python tests/store/test_capture_layout.py``.
"""

import json
import pathlib

import numpy as np
import pytest

from repro.exec import ExecRouter
from repro.graph import AMLSimConfig, generate_amlsim
from repro.models import MODEL_NAMES, build_model
from repro.nn.linear import Linear
from repro.serve import ModelServer, events_between

FIXTURE = pathlib.Path(__file__).with_name("capture_layout_parent.json")
TIERS = ("single", "sharded2")
CELLS = [f"{name}-{tier}" for name in MODEL_NAMES for tier in TIERS]


def _stream():
    # test_capture_format.py's stream
    config = AMLSimConfig(num_accounts=150, num_timesteps=12,
                          background_per_step=240,
                          partner_persistence=0.85, seed=11)
    return generate_amlsim(config).dtdg


def layout(cell: str, stream) -> dict:
    """Drive one (model, tier) over five steps, ending mid-step, and
    describe its capture: ``meta`` plus ``[name, dtype, shape]`` rows."""
    name, tier = cell.split("-")
    model = build_model(name, in_features=2, seed=0)
    fraud = Linear(model.embed_dim, 2, np.random.default_rng(7))
    if tier == "single":
        server = ModelServer(model, stream[0], fraud_head=fraud)
    else:
        server = ExecRouter(model, stream[0], backend="simulated",
                            num_shards=2, fraud_head=fraud)
    for t in range(1, 6):
        server.advance_time()
        events = events_between(stream[t - 1], stream[t])
        half = max(1, len(events) // 2)
        server.ingest_events(events[:half])
    meta, arrays = server._capture_state()
    if tier != "single":
        server.close()
    return {"meta": json.loads(json.dumps(meta)),
            "arrays": [[key, str(a.dtype), list(a.shape)]
                       for key, a in arrays.items()]}


@pytest.fixture(scope="module")
def stream():
    return _stream()


@pytest.fixture(scope="module")
def recorded():
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_cell(recorded):
    assert sorted(recorded) == sorted(CELLS)


@pytest.mark.parametrize("cell", CELLS)
def test_capture_layout_equals_recorded(cell, stream, recorded):
    got = layout(cell, stream)
    assert got["meta"] == recorded[cell]["meta"]
    assert got["arrays"] == recorded[cell]["arrays"]


if __name__ == "__main__":
    data = _stream()
    FIXTURE.write_text(json.dumps({cell: layout(cell, data)
                                   for cell in CELLS}, indent=1) + "\n")
    print(f"recorded {len(CELLS)} cells to {FIXTURE}")
