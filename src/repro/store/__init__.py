"""Temporal graph store: delta-log WAL, snapshot compaction, time-travel
views, and crash-recoverable serving state.

The paper's core data-movement insight — consecutive DTDG snapshots are
cheap to represent as graph differences (§3.2, Fig. 4) — applied to
*durability*: the on-disk format of a dynamic graph is its delta log.
An append-only WAL holds one checksummed record per timestep transition
(:class:`~repro.graph.diff.SnapshotDiff`) or live
:class:`~repro.serve.ingest.EdgeEvent` batch; a compactor periodically
materializes CSR-packed base snapshots so time-travel replays a bounded
log tail; and the serving tier logs every ingested batch *before*
acknowledging it, making the resident graph and the engine's temporal
state exactly recoverable after a crash.
"""

from repro.store.wal import (DeltaLog, WalRecord, KIND_DIFF, KIND_EVENTS,
                             KIND_FEATURES, KIND_META, KIND_SEAL)
from repro.store.codec import (edge_checksum, fold_events, pack_record,
                               unpack_record)
from repro.store.compact import Compactor, list_bases, load_base, write_base
from repro.store.store import GraphStore, StoreView
from repro.store.recovery import (capture_engine_state,
                                  restore_engine_state,
                                  unpack_sharded_state)

__all__ = [
    "DeltaLog", "WalRecord",
    "KIND_META", "KIND_DIFF", "KIND_EVENTS", "KIND_SEAL", "KIND_FEATURES",
    "edge_checksum", "fold_events", "pack_record", "unpack_record",
    "Compactor", "list_bases", "load_base", "write_base",
    "GraphStore", "StoreView",
    "capture_engine_state", "restore_engine_state",
    "unpack_sharded_state",
]
