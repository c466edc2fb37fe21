"""Serving-engine state capture and restore (crash recovery).

A server's resident *graph* is recoverable from the delta log alone,
but its *temporal model state* (LSTM carries, evolved weights, M-product
history) is a function of the whole op history.  Rather than replay
from t=0, the serving tier periodically captures the engine state into
``<store>/engine/state_*.npz``; recovery then is

    model checkpoint  +  newest engine capture  +  WAL tail replay

which reproduces the pre-crash resident state exactly: the capture is a
bit-copy of the per-vertex arrays, and the tail ops re-run through the
same ``ingest_events`` / ``advance_time`` numerics the live server used.

Captures taken mid-step may contain rows the embedding cache had marked
dirty; the dirty set is captured alongside and re-marked on restore, so
a recovered server refreshes exactly what the crashed one would have.

For the sharded tier the capture reuses the rebalancer's wire format:
each shard exports its owned rows (:meth:`ShardEngine.export_state_rows`,
gathered over ``export_state`` RPCs by
:class:`~repro.exec.router.ExecRouter`, which assembles the record with
:func:`pack_shard_export`) and a recovered tier reassembles every
worker with :meth:`ShardEngine.adopt_state`.
"""

from __future__ import annotations

import numpy as np

from repro.errors import StoreError

__all__ = ["capture_engine_state", "restore_engine_state",
           "unpack_sharded_state", "pack_shard_export",
           "unpack_shard_export"]


def _copy(a: np.ndarray) -> np.ndarray:
    return np.array(a, copy=True)


# ---------------------------------------------------------------------------
# single-worker engine (ModelServer)
# ---------------------------------------------------------------------------

def capture_engine_state(engine) -> tuple[dict, dict[str, np.ndarray]]:
    """Flatten an :class:`~repro.serve.engine.InferenceEngine`'s mutable
    state into ``(meta, arrays)`` ready for :func:`codec.pack_record`."""
    cache = engine.cache
    meta: dict = {"type": "engine", "engine_kind": engine.kind,
                  "steps": int(engine.steps),
                  "primed": bool(engine._primed),
                  "num_layers": len(engine.layers),
                  "use_clock": int(cache._use_clock)}
    arrays: dict[str, np.ndarray] = {
        "dirty": _copy(cache._dirty),
        "expanded": _copy(cache._expanded),
        # bounded-cache LRU state, so a recovered server evicts and
        # reloads exactly like the crashed one would have
        "evicted": _copy(cache._evicted),
        "last_used": _copy(cache._last_used),
    }
    for i, z in enumerate(cache.layer_outputs):
        arrays[f"layer_outputs/{i}"] = _copy(z)
    if engine.kind == "cdgcn":
        for name, carries in (("pre_carry", cache.pre_carry),
                              ("post_carry", cache.post_carry)):
            for i, (h, c) in enumerate(carries):
                arrays[f"{name}/{i}/h"] = _copy(h)
                arrays[f"{name}/{i}/c"] = _copy(c)
    elif engine.kind == "egcn":
        for i, (h, c) in enumerate(engine._weight_state):
            arrays[f"weight_state/{i}/h"] = _copy(h)
            arrays[f"weight_state/{i}/c"] = _copy(c)
        for i, w in enumerate(engine._current_weights):
            arrays[f"current_weights/{i}"] = _copy(w)
    elif engine.kind == "tmgcn":
        meta["history_lens"] = [len(frames) for frames in engine._history]
        meta["current_y_present"] = [y is not None
                                     for y in engine._current_y]
        for i, frames in enumerate(engine._history):
            for j, frame in enumerate(frames):
                arrays[f"history/{i}/{j}"] = _copy(frame)
        for i, y in enumerate(engine._current_y):
            if y is not None:
                arrays[f"current_y/{i}"] = _copy(y)
    return meta, arrays


def restore_engine_state(engine, meta: dict,
                         arrays: dict[str, np.ndarray]) -> None:
    """Overwrite a freshly constructed engine with a captured state."""
    if meta.get("type") != "engine":
        raise StoreError("capture is not a single-engine state record")
    if meta["engine_kind"] != engine.kind:
        raise StoreError(
            f"capture holds {meta['engine_kind']!r} state, engine is "
            f"{engine.kind!r} — wrong model checkpoint?")
    if meta["num_layers"] != len(engine.layers):
        raise StoreError("capture layer count does not match the model")
    cache = engine.cache
    for i in range(len(cache.layer_outputs)):
        cache.layer_outputs[i] = _copy(arrays[f"layer_outputs/{i}"])
    if engine.kind == "cdgcn":
        for name in ("pre_carry", "post_carry"):
            carries = getattr(cache, name)
            for i in range(len(carries)):
                carries[i] = (_copy(arrays[f"{name}/{i}/h"]),
                              _copy(arrays[f"{name}/{i}/c"]))
    elif engine.kind == "egcn":
        engine._weight_state = [
            (_copy(arrays[f"weight_state/{i}/h"]),
             _copy(arrays[f"weight_state/{i}/c"]))
            for i in range(len(engine._weight_state))]
        engine._current_weights = [
            _copy(arrays[f"current_weights/{i}"])
            for i in range(len(engine._current_weights))]
    elif engine.kind == "tmgcn":
        engine._history = [
            [_copy(arrays[f"history/{i}/{j}"]) for j in range(length)]
            for i, length in enumerate(meta["history_lens"])]
        engine._current_y = [
            _copy(arrays[f"current_y/{i}"]) if present else None
            for i, present in enumerate(meta["current_y_present"])]
    engine.steps = int(meta["steps"])
    engine._primed = bool(meta["primed"])
    cache._dirty = np.asarray(arrays["dirty"], dtype=np.int64).copy()
    cache._expanded = np.asarray(arrays["expanded"],
                                 dtype=np.int64).copy()
    cache._evicted = np.asarray(arrays["evicted"], dtype=np.int64).copy()
    cache._last_used = np.asarray(arrays["last_used"],
                                  dtype=np.int64).copy()
    cache._use_clock = int(meta["use_clock"])


# ---------------------------------------------------------------------------
# sharded tier (ExecRouter)
# ---------------------------------------------------------------------------

def pack_shard_export(prefix: str, state: dict, kind: str, meta_shard: dict,
                      arrays: dict[str, np.ndarray]) -> None:
    """Flatten one shard's owned-row export (``export_state`` reply)
    into ``arrays`` under ``prefix``; shape metadata that the arrays
    cannot carry lands in ``meta_shard``."""
    for i, z in enumerate(state["layer_outputs"]):
        arrays[f"{prefix}/layer_outputs/{i}"] = _copy(z)
    if kind == "cdgcn":
        for name in ("pre_carry", "post_carry"):
            for i, (h, c) in enumerate(state[name]):
                arrays[f"{prefix}/{name}/{i}/h"] = _copy(h)
                arrays[f"{prefix}/{name}/{i}/c"] = _copy(c)
    elif kind == "egcn":
        for i, (h, c) in enumerate(state["weight_state"]):
            arrays[f"{prefix}/weight_state/{i}/h"] = _copy(h)
            arrays[f"{prefix}/weight_state/{i}/c"] = _copy(c)
        for i, w in enumerate(state["current_weights"]):
            arrays[f"{prefix}/current_weights/{i}"] = _copy(w)
    elif kind == "tmgcn":
        meta_shard["history_lens"] = [len(f) for f in state["history"]]
        meta_shard["current_y_present"] = [y is not None
                                          for y in state["current_y"]]
        for i, frames in enumerate(state["history"]):
            for j, frame in enumerate(frames):
                arrays[f"{prefix}/history/{i}/{j}"] = _copy(frame)
        for i, y in enumerate(state["current_y"]):
            if y is not None:
                arrays[f"{prefix}/current_y/{i}"] = _copy(y)


def unpack_shard_export(prefix: str, kind: str, num_layers: int,
                        meta_shard: dict,
                        arrays: dict[str, np.ndarray]) -> dict:
    """Inverse of :func:`pack_shard_export`."""
    state: dict = {"layer_outputs": [arrays[f"{prefix}/layer_outputs/{i}"]
                                     for i in range(num_layers)]}
    if kind == "cdgcn":
        for name in ("pre_carry", "post_carry"):
            state[name] = [(arrays[f"{prefix}/{name}/{i}/h"],
                            arrays[f"{prefix}/{name}/{i}/c"])
                           for i in range(num_layers)]
    elif kind == "egcn":
        state["weight_state"] = [(arrays[f"{prefix}/weight_state/{i}/h"],
                                  arrays[f"{prefix}/weight_state/{i}/c"])
                                 for i in range(num_layers)]
        state["current_weights"] = [arrays[f"{prefix}/current_weights/{i}"]
                                    for i in range(num_layers)]
    elif kind == "tmgcn":
        state["history"] = [
            [arrays[f"{prefix}/history/{i}/{j}"] for j in range(length)]
            for i, length in enumerate(meta_shard["history_lens"])]
        state["current_y"] = [
            arrays[f"{prefix}/current_y/{i}"] if present else None
            for i, present in enumerate(meta_shard["current_y_present"])]
    return state


def unpack_sharded_state(meta: dict, arrays: dict[str, np.ndarray]
                         ) -> tuple[np.ndarray, list, np.ndarray]:
    """Decode a sharded capture into ``(owner, exports, dirty)`` where
    ``exports`` is the ``[(block_rows, state), ...]`` list every
    rebuilt worker adopts."""
    if meta.get("type") != "sharded":
        raise StoreError("capture is not a sharded-tier state record")
    owner = np.asarray(arrays["owner"], dtype=np.int64)
    kind = meta["engine_kind"]
    exports = []
    for s in range(meta["num_shards"]):
        block = np.flatnonzero(owner == s)
        state = unpack_shard_export(f"shard/{s}", kind,
                                    meta["num_layers"],
                                    meta["shards"][s], arrays)
        exports.append((block, state))
    dirty = np.asarray(arrays["dirty"], dtype=np.int64)
    return owner, exports, dirty
