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

A capture holds the engine's state schema under its names
(``InferenceEngine.state_arrays``, handed back to ``load_state``):
nothing here spells out which arrays a model keeps.  A name the schema
expects that a capture lacks is a :class:`~repro.errors.StoreError`.

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


# TM-GCN's frame arrays: how many a capture holds is kept in its meta
_FRAMES = ("history/", "current_y/")


def _frame_names(meta_shard: dict) -> list[str]:
    """The frame names ``meta_shard``'s counts say a capture holds."""
    names = [f"history/{i}/{j}"
             for i, count in enumerate(meta_shard.get("history_lens", ()))
             for j in range(count)]
    return names + [f"current_y/{i}" for i, present in
                    enumerate(meta_shard.get("current_y_present", ()))
                    if present]


def _require(names: list[str], state: dict, prefix: str) -> None:
    missing = [name for name in names if name not in state]
    if missing:
        raise StoreError(
            f"capture lacks state array {prefix + missing[0]!r}")


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
                  "num_layers": len(engine.layers)}
    arrays: dict[str, np.ndarray] = {"dirty": cache.dirty,
                                     "expanded": cache._expanded}
    pack_shard_export("", engine.state_arrays(), engine.kind, meta, arrays)
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
    # the engine's schema names every array but TM-GCN's frames, whose
    # counts the capture's meta carries
    expected = [name for name in engine.state_arrays()
                if not name.startswith(_FRAMES)] + _frame_names(meta)
    _require(expected, arrays, "")
    engine.load_state(arrays)
    engine.steps = int(meta["steps"])
    engine._primed = bool(meta["primed"])
    # captures of the retired bounded cache also hold its LRU state
    # (``evicted`` / ``last_used`` arrays, a ``use_clock`` meta key);
    # nothing reads them
    cache = engine.cache
    cache._expanded = np.asarray(arrays["expanded"], dtype=np.int64)
    cache.restore_dirty(engine.resident, arrays["dirty"])


# ---------------------------------------------------------------------------
# sharded tier (ExecRouter)
# ---------------------------------------------------------------------------

def pack_shard_export(prefix: str, state: dict, kind: str, meta_shard: dict,
                      arrays: dict[str, np.ndarray]) -> None:
    """Write one engine's state (:meth:`InferenceEngine.state_arrays`,
    or a shard's ``export_state`` reply) into ``arrays``, every name
    prefixed by ``prefix``.  The arrays go in as they are (views, valid
    until the engine next moves).  TM-GCN's frame counts, which a fresh
    engine cannot know, land in ``meta_shard``."""
    for name, array in state.items():
        arrays[prefix + name] = array
    if kind == "tmgcn":
        layers = range(sum(name.startswith("layer_outputs/")
                           for name in state))
        meta_shard["history_lens"] = [
            sum(name.startswith(f"history/{i}/") for name in state)
            for i in layers]
        meta_shard["current_y_present"] = [f"current_y/{i}" in state
                                          for i in layers]


def unpack_shard_export(prefix: str, arrays: dict[str, np.ndarray]) -> dict:
    """Inverse of :func:`pack_shard_export`: the arrays under
    ``prefix``, by schema name.  Older captures also hold
    ``post_carry/{i}/h``, a bit-copy of ``layer_outputs/{i}``: no schema
    slot names it, so the engine leaves it unread."""
    return {name[len(prefix):]: array for name, array in arrays.items()
            if name.startswith(prefix)}


def unpack_sharded_state(meta: dict, arrays: dict[str, np.ndarray]
                         ) -> tuple[np.ndarray, list, np.ndarray]:
    """Decode a sharded capture into ``(owner, exports, dirty)`` where
    ``exports`` is the ``[(block_rows, state), ...]`` list every
    rebuilt worker adopts."""
    if meta.get("type") != "sharded":
        raise StoreError("capture is not a sharded-tier state record")
    owner = np.asarray(arrays["owner"], dtype=np.int64)
    exports = []
    for s in range(meta["num_shards"]):
        prefix = f"shard/{s}/"
        state = unpack_shard_export(prefix, arrays)
        _require(_frame_names(meta["shards"][s]), state, prefix)
        exports.append((np.flatnonzero(owner == s), state))
    dirty = np.asarray(arrays["dirty"], dtype=np.int64)
    return owner, exports, dirty
