"""The engine-capture file: ``engine/state_<r>.cap``.

One self-describing file per capture — magic, JSON header, each array's
C-order bytes on a 64-byte boundary, one CRC-32 over every preceding
byte — written straight from the engine's arrays and read back as
aligned, writable views into a single buffer.  Pinned here:

* the format round-trips every dtype, shape and memory layout a capture
  can hold, bit for bit;
* a capture torn at any byte, or with a bit flipped in any region, is a
  :class:`StoreError` and recovery falls back to the previous capture;
* captures written by the old ``.npz`` writer
  (``tests/helpers.py::legacy_save_engine_state``) still restore, and a
  torn one falls back too;
* recovery through the new file is exact (``array_equal``) on both
  tiers for every model;
* the write holds no staging copy — checked by allocation count, not by
  timing.
"""

import io
import os
import struct
import tempfile
import tracemalloc
import zipfile
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import StoreError
from repro.exec import ExecRouter
from repro.graph import AMLSimConfig, GraphSnapshot, generate_amlsim
from repro.models import MODEL_NAMES, build_model
from repro.nn.linear import Linear
from repro.obs import Telemetry
from repro.serve import ModelServer, events_between
from repro.store import GraphStore, capture_engine_state
from repro.store.codec import read_capture, write_capture
from tests.helpers import legacy_save_engine_state


@pytest.fixture(scope="module")
def stream():
    config = AMLSimConfig(num_accounts=150, num_timesteps=12,
                          background_per_step=240,
                          partner_persistence=0.85, seed=11)
    return generate_amlsim(config).dtdg


def _drive(server, dtdg, t_range, batches=3):
    for t in t_range:
        server.advance_time()
        events = events_between(dtdg[t - 1], dtdg[t])
        chunk = max(1, len(events) // batches)
        for i in range(0, len(events), chunk):
            server.ingest_events(events[i:i + chunk])


def _model_and_head(name):
    model = build_model(name, in_features=2, seed=0)
    return model, Linear(model.embed_dim, 2, np.random.default_rng(7))


def _full_embeddings(server):
    server.cache.invalidate_all()
    server.engine.refresh()
    return server.engine.embeddings


# ---------------------------------------------------------------------------
# round trip
# ---------------------------------------------------------------------------

_DTYPES = [np.float64, np.int64, np.int32, np.uint8, np.bool_]


@st.composite
def _array(draw):
    dtype = draw(st.sampled_from(_DTYPES))
    rows = draw(st.integers(0, 5))
    cols = draw(st.integers(0, 4))
    layout = draw(st.sampled_from(["C", "F", "strided", "1d"]))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    raw = np.random.default_rng(seed).integers(0, 256, (2 * rows + 1, cols))
    base = raw.astype(dtype) if dtype is not np.float64 \
        else raw * np.pi - 300.0
    if layout == "C":
        return np.ascontiguousarray(base[:rows])
    if layout == "F":
        return np.asfortranarray(base[:rows])
    if layout == "strided":
        return base[::2][:rows]
    return base[:rows, 0] if cols else base[:rows].reshape(-1)


@settings(max_examples=80, deadline=None)
@given(arrays=st.dictionaries(st.text("abc/_0123", min_size=1, max_size=8),
                              _array(), max_size=6),
       meta=st.dictionaries(st.text(min_size=1, max_size=5),
                            st.integers(-10, 10), max_size=3))
def test_round_trip_every_dtype_shape_and_layout(arrays, meta):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "state.cap")
        size = write_capture(path, meta, arrays)
        assert size == os.path.getsize(path)
        got_meta, got = read_capture(path)
    assert got_meta == meta
    assert list(got) == list(arrays)
    for name, want in arrays.items():
        a = got[name]
        assert a.dtype == want.dtype and a.shape == want.shape
        assert a.tobytes() == np.ascontiguousarray(want).tobytes()
        assert a.flags.writeable and a.flags.c_contiguous
        assert a.ctypes.data % 64 == 0


def test_layout_is_the_documented_frame(tmp_path):
    path = str(tmp_path / "state.cap")
    arrays = {"x": np.arange(5), "y": np.ones((2, 3))}
    write_capture(path, {"k": 1}, arrays)
    data = open(path, "rb").read()
    (hlen,) = struct.unpack_from("<I", data, 4)
    body = -(-(8 + hlen) // 64) * 64
    assert data[:4] == b"RGC1"
    assert data[8 + hlen:body] == bytes(body - 8 - hlen)
    assert data[body:body + 40] == arrays["x"].tobytes()
    assert data[body + 64:body + 112] == arrays["y"].tobytes()
    assert len(data) == body + 112 + 4
    assert struct.unpack("<I", data[-4:])[0] == zlib.crc32(data[:-4])


# ---------------------------------------------------------------------------
# torn and corrupt captures
# ---------------------------------------------------------------------------

def _two_captures(tmp_path):
    store = GraphStore.create(str(tmp_path / "s"), 10)
    arrays = {"x": np.arange(5), "y": np.ones((2, 3)),
              "z": np.array([True, False])}
    for i in range(2):
        store.seal_step()
        newest = store.save_engine_state({"type": "engine", "i": i}, arrays)
    return store, newest, arrays


def _falls_back_to_first(store):
    meta, arrays = store.latest_engine_state()
    assert meta["i"] == 0
    np.testing.assert_array_equal(arrays["x"], np.arange(5))


def test_truncation_at_every_byte_falls_back(tmp_path):
    store, newest, _ = _two_captures(tmp_path)
    # shrink the one file in place, longest prefix first: rewriting it
    # per cut made the test wait on the filesystem for seconds
    for cut in range(os.path.getsize(newest) - 1, -1, -1):
        os.truncate(newest, cut)
        with pytest.raises(StoreError):
            read_capture(newest)
        _falls_back_to_first(store)


def test_bit_flip_in_every_region_falls_back(tmp_path):
    store, newest, _ = _two_captures(tmp_path)
    data = open(newest, "rb").read()
    (hlen,) = struct.unpack_from("<I", data, 4)
    body = -(-(8 + hlen) // 64) * 64
    regions = {"magic": 1, "length": 5, "header": 8 + hlen // 2,
               "body": body + 3, "pad": body + 41, "crc": len(data) - 2}
    if 8 + hlen < body:
        regions["header pad"] = 8 + hlen
    for region, at in regions.items():
        for bit in (0, 7):
            flipped = bytearray(data)
            flipped[at] ^= 1 << bit
            with open(newest, "wb") as fh:
                fh.write(flipped)
            with pytest.raises(StoreError):
                read_capture(newest)
            _falls_back_to_first(store)
    with open(newest, "wb") as fh:
        fh.write(data)
    assert store.latest_engine_state()[0]["i"] == 1


# ---------------------------------------------------------------------------
# legacy ``.npz`` captures
# ---------------------------------------------------------------------------

def test_legacy_npz_capture_restores_bit_equal(tmp_path):
    store = GraphStore.create(str(tmp_path / "s"), 10)
    arrays = {"x": np.arange(7) * 3, "y": np.random.default_rng(0)
              .standard_normal((4, 3)), "b": np.array([True, False])}
    store.seal_step()
    path = legacy_save_engine_state(store, {"type": "engine"}, arrays)
    assert path.endswith(".npz")
    meta, got = store.latest_engine_state()
    assert meta["record_index"] == store.wal.num_records - 1
    for name, want in arrays.items():
        assert got[name].dtype == want.dtype
        assert got[name].tobytes() == want.tobytes()


def test_torn_legacy_capture_falls_back(tmp_path):
    store = GraphStore.create(str(tmp_path / "s"), 10)
    for i in range(2):
        store.seal_step()
        newest = legacy_save_engine_state(store, {"type": "engine", "i": i},
                                          {"x": np.arange(5)})
    size = os.path.getsize(newest)
    for cut in (0, 3, size // 2, size - 1):
        with open(newest, "r+b") as fh:
            fh.truncate(cut)
        _falls_back_to_first(store)


def test_server_recovers_from_legacy_captures(stream, tmp_path,
                                              monkeypatch):
    """A store whose captures the old writer wrote recovers exactly,
    and the recovered server's next capture is a ``.cap``."""
    monkeypatch.setattr(GraphStore, "save_engine_state",
                        legacy_save_engine_state)
    model, fraud = _model_and_head("cdgcn")
    live = ModelServer(model, stream[0], fraud_head=fraud)
    live.attach_store(GraphStore.create(str(tmp_path / "s"),
                                        stream.num_vertices))
    _drive(live, stream, range(1, 5))
    monkeypatch.undo()
    engine_dir = str(tmp_path / "s" / "engine")
    assert all(f.endswith(".npz") for f in os.listdir(engine_dir))

    model2, fraud2 = _model_and_head("cdgcn")
    rec = ModelServer.recover(GraphStore.open(str(tmp_path / "s")),
                              model=model2, fraud_head=fraud2)
    assert rec.ingestor.resident == live.ingestor.resident
    np.testing.assert_array_equal(_full_embeddings(rec),
                                  _full_embeddings(live))
    rec.advance_time()
    assert any(f.endswith(".cap") for f in os.listdir(engine_dir))


# ---------------------------------------------------------------------------
# exact recovery through the new file, both tiers
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", MODEL_NAMES)
def test_model_server_recovery_is_bit_exact(stream, name, tmp_path):
    model, fraud = _model_and_head(name)
    live = ModelServer(model, stream[0], fraud_head=fraud)
    live.attach_store(GraphStore.create(str(tmp_path / "s"),
                                        stream.num_vertices),
                      state_interval=2)
    _drive(live, stream, range(1, 8))
    model2, fraud2 = _model_and_head(name)
    rec = ModelServer.recover(GraphStore.open(str(tmp_path / "s")),
                              model=model2, fraud_head=fraud2)
    assert rec.ingestor.resident == live.ingestor.resident
    assert rec.engine.steps == live.engine.steps
    np.testing.assert_array_equal(_full_embeddings(rec),
                                  _full_embeddings(live))


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_sharded_recovery_is_bit_exact(stream, name, tmp_path):
    model, fraud = _model_and_head(name)
    live = ExecRouter(model, stream[0], backend="simulated", num_shards=2,
                      fraud_head=fraud)
    live.attach_store(GraphStore.create(str(tmp_path / "s"),
                                        stream.num_vertices),
                      state_interval=2)
    _drive(live, stream, range(1, 6), batches=2)
    model2, fraud2 = _model_and_head(name)
    rec = ExecRouter.recover(GraphStore.open(str(tmp_path / "s")),
                             model=model2, backend="simulated",
                             fraud_head=fraud2)
    np.testing.assert_array_equal(rec.plan.owner, live.plan.owner)
    np.testing.assert_array_equal(rec.gathered_embeddings(),
                                  live.gathered_embeddings())
    rec.close()
    live.close()


def test_restored_arrays_share_no_memory(stream, tmp_path):
    """The restore adopts the read buffer's views: none of them aliases
    the capturing engine's arrays, nor another restored array."""
    model, fraud = _model_and_head("cdgcn")
    live = ModelServer(model, stream[0], fraud_head=fraud)
    live.attach_store(GraphStore.create(str(tmp_path / "s"),
                                        stream.num_vertices))
    _drive(live, stream, range(1, 3))
    live._capture_store_state()
    model2, fraud2 = _model_and_head("cdgcn")
    rec = ModelServer.recover(GraphStore.open(str(tmp_path / "s")),
                              model=model2, fraud_head=fraud2)
    ours = list(capture_engine_state(live.engine)[1].values())
    theirs = list(capture_engine_state(rec.engine)[1].values())
    for i, a in enumerate(theirs):
        assert a.flags.writeable
        assert not any(np.shares_memory(a, b) for b in ours)
        assert not any(np.shares_memory(a, b) for b in theirs[i + 1:])


def test_capture_counters_and_span(stream, tmp_path):
    model, fraud = _model_and_head("cdgcn")
    tel = Telemetry(tracing=True)
    server = ModelServer(model, stream[0], fraud_head=fraud, telemetry=tel)
    server.attach_store(GraphStore.create(str(tmp_path / "s"),
                                          stream.num_vertices))
    _drive(server, stream, range(1, 3))
    sizes = [os.path.getsize(os.path.join(str(tmp_path / "s" / "engine"),
                                          f)) for f in _captures(tmp_path)]
    store = server.store
    assert store.captures == 3 and store.capture_bytes >= sum(sizes)
    text = server.prometheus()
    assert f"store_captures_total {store.captures}" in text
    assert f"store_capture_bytes_total {store.capture_bytes}" in text
    spans = [s for root in tel.tracer.roots for _, s in root.walk()
             if s.name == "store.capture"]
    assert [s.attrs["bytes"] for s in spans][-2:] == sizes[-2:]


def _captures(tmp_path):
    return sorted(os.listdir(str(tmp_path / "s" / "engine")))


# ---------------------------------------------------------------------------
# no staging copy (by allocation count, not timing)
# ---------------------------------------------------------------------------

def _raise(*args, **kwargs):
    raise AssertionError("the capture path reached a staging container")


def test_capture_holds_no_staging_copy(tmp_path, monkeypatch):
    n = 3000
    rng = np.random.default_rng(3)
    snap = GraphSnapshot(n, rng.integers(0, n, size=(4 * n, 2)),
                         rng.random(4 * n))
    model, fraud = _model_and_head("cdgcn")
    server = ModelServer(model, snap, fraud_head=fraud)
    server.attach_store(GraphStore.create(str(tmp_path / "s"), n))
    captured = server.store.capture_bytes
    assert captured > 1_000_000

    monkeypatch.setattr(np, "savez", _raise)
    monkeypatch.setattr(zipfile, "ZipFile", _raise)
    monkeypatch.setattr(io, "BytesIO", _raise)
    tracemalloc.start()
    try:
        server._capture_store_state()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        monkeypatch.undo()
    assert server.store.captures == 2
    assert server.store.capture_bytes == 2 * captured
    assert peak < 0.1 * captured, (peak, captured)


# ---------------------------------------------------------------------------
# CD-GCN's post-step h lives in layer_outputs only
# ---------------------------------------------------------------------------

def _with_post_h(meta, arrays):
    """The capture layout before the post-step ``h`` was held once: a
    ``post_carry/{i}/h`` bit-copy of every ``layer_outputs/{i}``."""
    arrays = dict(arrays)
    for i in range(meta["num_layers"]):
        arrays[f"post_carry/{i}/h"] = arrays[f"layer_outputs/{i}"].copy()
    return arrays


def _old_capture_serves_bit_equal(stream, tmp_path, writer, rewrite):
    """Capture a server mid-step, with rows stale, rewrite the capture
    into an older layout (``rewrite(meta, arrays, cache)``), write it
    with ``writer``, and recover: the recovered server serves what the
    live one serves, bit for bit, also after the next boundary."""
    model, fraud = _model_and_head("cdgcn")
    live = ModelServer(model, stream[0], fraud_head=fraud)
    live.attach_store(GraphStore.create(str(tmp_path / "s"),
                                        stream.num_vertices))
    _drive(live, stream, range(1, 4))
    assert live.cache.num_dirty > 0
    meta, arrays = rewrite(*live._capture_state(), live.cache)
    if writer == "cap":
        live.store.save_engine_state(meta, arrays)
    else:
        legacy_save_engine_state(live.store, meta, arrays)
    assert set(live.store.latest_engine_state()[1]) == set(arrays)
    model2, fraud2 = _model_and_head("cdgcn")
    rec = ModelServer.recover(GraphStore.open(str(tmp_path / "s")),
                              model=model2, fraud_head=fraud2)
    accounts = range(0, stream.num_vertices, 7)
    got = [rec.submit_fraud(v) for v in accounts]
    want = [live.submit_fraud(v) for v in accounts]
    rec.drain()
    live.drain()
    assert [q.result for q in got] == [q.result for q in want]
    rec.advance_time()
    live.advance_time()
    np.testing.assert_array_equal(rec.engine.embeddings,
                                  live.engine.embeddings)
    for (h, c), (h2, c2) in zip(rec.cache.pre_carry, live.cache.pre_carry):
        np.testing.assert_array_equal(h, h2)
        np.testing.assert_array_equal(c, c2)


@pytest.mark.parametrize("writer", ["cap", "npz"])
def test_capture_with_post_h_restores_and_serves_bit_equal(stream, tmp_path,
                                                           writer):
    """A capture an older writer left — one that still holds
    ``post_carry/{i}/h`` — taken mid-step, with rows stale, restores and
    serves what the live server serves, bit for bit."""
    _old_capture_serves_bit_equal(
        stream, tmp_path, writer,
        lambda meta, arrays, cache: (meta, _with_post_h(meta, arrays)))


# ---------------------------------------------------------------------------
# captures of the bounded cache still restore
# ---------------------------------------------------------------------------

def _with_lru(meta, arrays, cache):
    """The capture layout while the cache simulated LRU eviction: an
    ``evicted`` row set, a ``last_used`` clock per vertex and a
    ``use_clock`` meta key (here as a bounded cache would leave them:
    some clean rows evicted, read at distinct times)."""
    clean_rows = np.flatnonzero(cache.stale == cache.num_layers)
    n = cache.num_vertices
    meta = dict(meta, use_clock=n + 3)
    arrays = dict(arrays, evicted=clean_rows[::5],
                  last_used=np.arange(n, dtype=np.int64)[::-1].copy())
    return meta, arrays


@pytest.mark.parametrize("writer", ["cap", "npz"])
def test_capture_with_lru_state_restores_and_serves_bit_equal(stream,
                                                              tmp_path,
                                                              writer):
    """A capture an older writer left — one that still holds the LRU
    state — taken mid-step, with rows stale, restores (its LRU fields
    read and ignored) and serves what the live server serves, bit for
    bit."""
    _old_capture_serves_bit_equal(stream, tmp_path, writer, _with_lru)


def test_capture_bytes_drop_by_the_post_h_arrays(stream, tmp_path,
                                                 monkeypatch):
    """The same replay, captured in the new layout and in the old one:
    each new capture is the ``L`` post-step ``h`` arrays smaller, a
    fifth of its CD-GCN state (the frame headers and the dirty-row
    bookkeeping keep the whole file above 0.8 of the old one)."""
    def replay(path):
        model, fraud = _model_and_head("cdgcn")
        server = ModelServer(model, stream[0], fraud_head=fraud)
        server.attach_store(GraphStore.create(path, stream.num_vertices))
        _drive(server, stream, range(1, 5))
        return server

    server = replay(str(tmp_path / "new"))
    new = server.store
    post_h = sum(z.nbytes for z in server.cache.layer_outputs)
    capture_state = ModelServer._capture_state
    monkeypatch.setattr(ModelServer, "_capture_state",
                        lambda self: (lambda meta, arrays: (
                            meta, _with_post_h(meta, arrays)))(
                                *capture_state(self)))
    old = replay(str(tmp_path / "old")).store
    assert new.captures == old.captures == 5
    assert old.capture_bytes - new.capture_bytes >= new.captures * post_h
    assert new.capture_bytes < 0.81 * old.capture_bytes


# ---------------------------------------------------------------------------
# a capture missing a state array does not restore
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name, dropped", [("cdgcn", "pre_carry/0/c"),
                                           ("tmgcn", "history/0/0"),
                                           ("egcn", "weight_state/1/c")])
def test_capture_missing_an_array_is_a_store_error(stream, tmp_path, name,
                                                   dropped):
    """Every array the model's state schema names must be in the
    capture: one dropped is a ``StoreError`` naming it, never a restore
    that reads zeros (or the engine's own fresh state) in its place."""
    model, fraud = _model_and_head(name)
    live = ModelServer(model, stream[0], fraud_head=fraud)
    live.attach_store(GraphStore.create(str(tmp_path / "s"),
                                        stream.num_vertices))
    _drive(live, stream, range(1, 5))
    meta, arrays = live._capture_state()
    del arrays[dropped]
    live.store.save_engine_state(meta, arrays)
    model2, fraud2 = _model_and_head(name)
    with pytest.raises(StoreError, match=dropped):
        ModelServer.recover(GraphStore.open(str(tmp_path / "s")),
                            model=model2, fraud_head=fraud2)


def test_sharded_capture_missing_a_frame_is_a_store_error(stream, tmp_path):
    """A sharded TM-GCN capture that lacks a frame its ``meta`` counts
    (here a shard's last history frame, which a walk of the names alone
    would never miss) does not restore."""
    model, fraud = _model_and_head("tmgcn")
    live = ExecRouter(model, stream[0], backend="simulated", num_shards=2,
                      fraud_head=fraud)
    live.attach_store(GraphStore.create(str(tmp_path / "s"),
                                        stream.num_vertices))
    _drive(live, stream, range(1, 5), batches=2)
    meta, arrays = live._capture_state()
    last = meta["shards"][1]["history_lens"][0] - 1
    dropped = f"shard/1/history/0/{last}"
    del arrays[dropped]
    live.store.save_engine_state(meta, arrays)
    live.close()
    model2, fraud2 = _model_and_head("tmgcn")
    with pytest.raises(StoreError, match=dropped):
        ExecRouter.recover(GraphStore.open(str(tmp_path / "s")),
                           model=model2, backend="simulated",
                           fraud_head=fraud2)
