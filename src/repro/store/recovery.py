"""Serving-engine state capture and restore (crash recovery).

A server's resident *graph* is recoverable from the delta log alone,
but its *temporal model state* (LSTM carries, evolved weights, M-product
history) is a function of the whole op history.  Rather than replay
from t=0, the serving tier periodically captures the engine state into
``<store>/engine/state_*.cap``; recovery then is

    model checkpoint  +  newest engine capture  +  WAL tail replay

which reproduces the pre-crash resident state exactly: the capture is a
bit-copy of the per-vertex arrays, and the tail ops re-run through the
same ``ingest_events`` / ``advance_time`` numerics the live server used.

Captures taken mid-step may contain rows the embedding cache had marked
stale; the union of those rows is captured alongside and re-marked on
restore, stale from layer 0 (their per-layer stale depth is not kept),
and the cache widens the marking over their ``num_layers − 1`` hop
surroundings so its stale-layer invariant holds again.  A recovered
server refreshes at least what the crashed one would have — over-
invalidation, so its served rows are still exact.

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


# ---------------------------------------------------------------------------
# single-worker engine (ModelServer)
# ---------------------------------------------------------------------------

def capture_engine_state(engine) -> tuple[dict, dict[str, np.ndarray]]:
    """Flatten an :class:`~repro.serve.engine.InferenceEngine`'s mutable
    state into ``(meta, arrays)`` ready for
    :meth:`GraphStore.save_engine_state` — the export layout of
    :func:`pack_shard_export` without a prefix.  The arrays are the
    engine's own, not copies: valid until the engine next moves."""
    cache = engine.cache
    meta: dict = {"type": "engine", "engine_kind": engine.kind,
                  "steps": int(engine.steps),
                  "primed": bool(engine._primed),
                  "num_layers": len(engine.layers),
                  "use_clock": int(cache._use_clock)}
    arrays: dict[str, np.ndarray] = {
        "dirty": cache.dirty,
        "expanded": cache._expanded,
        # bounded-cache LRU state, so a recovered server evicts and
        # reloads exactly like the crashed one would have
        "evicted": cache._evicted,
        "last_used": cache._last_used,
    }
    state = {"layer_outputs": cache.layer_outputs,
             "pre_carry": cache.pre_carry, "post_carry": cache.post_carry,
             "weight_state": engine._weight_state,
             "current_weights": engine._current_weights,
             "history": engine._history, "current_y": engine._current_y}
    pack_shard_export("", state, engine.kind, meta, arrays)
    return meta, arrays


def restore_engine_state(engine, meta: dict,
                         arrays: dict[str, np.ndarray]) -> None:
    """Overwrite a freshly constructed engine with a captured state.
    The engine adopts ``arrays`` as they are (the store's read buffer
    views are writable and private to this restore), without a copy."""
    if meta.get("type") != "engine":
        raise StoreError("capture is not a single-engine state record")
    if meta["engine_kind"] != engine.kind:
        raise StoreError(
            f"capture holds {meta['engine_kind']!r} state, engine is "
            f"{engine.kind!r} — wrong model checkpoint?")
    if meta["num_layers"] != len(engine.layers):
        raise StoreError("capture layer count does not match the model")
    state = unpack_shard_export("", engine.kind, meta["num_layers"], meta,
                                arrays)
    cache = engine.cache
    cache.layer_outputs[:] = state["layer_outputs"]
    if engine.kind == "cdgcn":
        cache.pre_carry[:] = state["pre_carry"]
        cache.post_carry[:] = state["post_carry"]
    elif engine.kind == "egcn":
        engine._weight_state = state["weight_state"]
        engine._current_weights = state["current_weights"]
    elif engine.kind == "tmgcn":
        engine._history = state["history"]
        engine._current_y = state["current_y"]
    engine.steps = int(meta["steps"])
    engine._primed = bool(meta["primed"])
    for name in ("expanded", "evicted", "last_used"):
        setattr(cache, f"_{name}",
                np.asarray(arrays[name], dtype=np.int64))
    cache.restore_dirty(engine.resident, arrays["dirty"])
    cache._use_clock = int(meta["use_clock"])


# ---------------------------------------------------------------------------
# sharded tier (ExecRouter)
# ---------------------------------------------------------------------------

def pack_shard_export(prefix: str, state: dict, kind: str, meta_shard: dict,
                      arrays: dict[str, np.ndarray]) -> None:
    """Flatten one shard's owned-row export (``export_state`` reply)
    into ``arrays``, every name prefixed by ``prefix``; shape metadata
    that the arrays cannot carry lands in ``meta_shard``.  The export's
    arrays go in as they are (views, valid until the engine next
    moves)."""
    for i, z in enumerate(state["layer_outputs"]):
        arrays[f"{prefix}layer_outputs/{i}"] = z
    if kind == "cdgcn":
        for i, (h, c) in enumerate(state["pre_carry"]):
            arrays[f"{prefix}pre_carry/{i}/h"] = h
            arrays[f"{prefix}pre_carry/{i}/c"] = c
        # the post-step h is layer_outputs/{i}; only c is written
        for i, c in enumerate(state["post_carry"]):
            arrays[f"{prefix}post_carry/{i}/c"] = c
    elif kind == "egcn":
        for i, (h, c) in enumerate(state["weight_state"]):
            arrays[f"{prefix}weight_state/{i}/h"] = h
            arrays[f"{prefix}weight_state/{i}/c"] = c
        for i, w in enumerate(state["current_weights"]):
            arrays[f"{prefix}current_weights/{i}"] = w
    elif kind == "tmgcn":
        meta_shard["history_lens"] = [len(f) for f in state["history"]]
        meta_shard["current_y_present"] = [y is not None
                                          for y in state["current_y"]]
        for i, frames in enumerate(state["history"]):
            for j, frame in enumerate(frames):
                arrays[f"{prefix}history/{i}/{j}"] = frame
        for i, y in enumerate(state["current_y"]):
            if y is not None:
                arrays[f"{prefix}current_y/{i}"] = y


def unpack_shard_export(prefix: str, kind: str, num_layers: int,
                        meta_shard: dict,
                        arrays: dict[str, np.ndarray]) -> dict:
    """Inverse of :func:`pack_shard_export`."""
    state: dict = {"layer_outputs": [arrays[f"{prefix}layer_outputs/{i}"]
                                     for i in range(num_layers)]}
    if kind == "cdgcn":
        state["pre_carry"] = [(arrays[f"{prefix}pre_carry/{i}/h"],
                               arrays[f"{prefix}pre_carry/{i}/c"])
                              for i in range(num_layers)]
        # older captures also hold post_carry/{i}/h, a bit-copy of
        # layer_outputs/{i}: it is left unread
        state["post_carry"] = [arrays[f"{prefix}post_carry/{i}/c"]
                               for i in range(num_layers)]
    elif kind == "egcn":
        state["weight_state"] = [(arrays[f"{prefix}weight_state/{i}/h"],
                                  arrays[f"{prefix}weight_state/{i}/c"])
                                 for i in range(num_layers)]
        state["current_weights"] = [arrays[f"{prefix}current_weights/{i}"]
                                    for i in range(num_layers)]
    elif kind == "tmgcn":
        state["history"] = [
            [arrays[f"{prefix}history/{i}/{j}"] for j in range(length)]
            for i, length in enumerate(meta_shard["history_lens"])]
        state["current_y"] = [
            arrays[f"{prefix}current_y/{i}"] if present else None
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
        state = unpack_shard_export(f"shard/{s}/", kind,
                                    meta["num_layers"],
                                    meta["shards"][s], arrays)
        exports.append((block, state))
    dirty = np.asarray(arrays["dirty"], dtype=np.int64)
    return owner, exports, dirty
