"""Cross-shard halo state: the frozen board and its traffic counters.

Ghost (halo) rows let each shard recompute its owned block exactly, but
their *frozen temporal state* — LSTM carries entering the current
timestep, M-product history frames — lives on the owning shard.  Owners
publish it to the tier's :class:`FrozenBoard` (shared memory on the real
backend, a heap array in-process) and ghosts pull it; the router moves
no ghost row.  An owner publishes its block after every promote
(``begin_advance``) and state adoption, then stamps the step that state
enters.  A shard pulls its whole halo on the router's
``import_temporal`` doorbell, rung once every shard's ``begin_advance``
returned: the bulk-synchronous halo exchange; and, in ``apply_delta``,
the entrant rows an edge event pulled into its halo mid-step.  It
copies only from owners stamped with its own step; the ghosts of an
owner that missed a boundary stay frozen.

Every owner recomputes its block at every layer, so published rows are
exact — the board never carries second-hand (ghost) state.  It holds
layers ``≤ L-2`` only: a ghost at ring ``d ≥ 1`` computes layers
``< L-d``.  EvolveGCN's board has no planes (its recurrence runs over
replicated weights); :class:`HaloTraffic` still records the rows pulled,
so halo *pressure* stays observable for every model.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field, replace

import numpy as np

from repro.graph.snapshot import sorted_unique
from repro.models.base import DynamicGNN
from repro.serve.engine import InferenceEngine

__all__ = ["FrozenBoard", "HaloTraffic", "frozen_layout"]

_ITEM = np.dtype(np.float64).itemsize


def frozen_layout(model: DynamicGNN) -> tuple:
    """What a ghost row pulls, ``((name, width), ...)`` in state-schema
    order: the ``pre_carry/`` and ``history/`` arrays of layers ``≤ L-2``
    (TM-GCN's history at its full ``window - 1`` frames)."""
    kind = InferenceEngine._detect_kind(model)
    layout = []
    for i in range(model.num_layers - 1):
        if kind == "cdgcn":
            hidden = model.lstm_layer(i).hidden_size
            layout += [(f"pre_carry/{i}/h", hidden),
                       (f"pre_carry/{i}/c", hidden)]
        elif kind == "tmgcn":
            layout += [(f"history/{i}/{j}", model.gcn_layer(i).output_dim)
                       for j in range(model.window - 1)]
    return tuple(layout)


class FrozenBoard:
    """``num_shards`` int64 step stamps, then one ``(N, width)`` float64
    plane per :func:`frozen_layout` entry, in one flat zero-filled
    ``buffer`` (a fresh heap array by default) every worker attaches
    to.  A zero stamp is unpublished: every pull asks for a step ≥ 1."""

    def __init__(self, model: DynamicGNN, num_vertices: int,
                 num_shards: int, buffer=None) -> None:
        if buffer is None:
            buffer = np.zeros(self.nbytes(model, num_vertices, num_shards),
                              dtype=np.uint8)
        self.stamps = np.ndarray((num_shards,), np.int64, buffer=buffer)
        self.planes: dict[str, np.ndarray] = {}
        offset = self.stamps.nbytes
        for name, width in frozen_layout(model):
            self.planes[name] = np.ndarray((num_vertices, width),
                                           np.float64, buffer=buffer,
                                           offset=offset)
            offset += num_vertices * width * _ITEM

    @staticmethod
    def nbytes(model: DynamicGNN, num_vertices: int, num_shards: int) -> int:
        return 8 * num_shards + _ITEM * num_vertices * sum(
            width for _, width in frozen_layout(model))

    def publish(self, shard: int, block: np.ndarray, state: dict,
                step: int) -> None:
        """Write ``block``'s rows of the planed arrays in ``state`` (an
        engine's ``state_arrays()``), then the stamp."""
        for name, plane in self.planes.items():
            if name in state:
                plane[block] = state[name][block]
        self.stamps[shard] = step

    def pull(self, rows: np.ndarray, owner: np.ndarray, state: dict,
             step: int) -> tuple[int, int, int]:
        """Copy into ``state`` the ``rows`` whose owner is stamped
        ``step``; returns ``(rows, bytes, owners)`` copied."""
        owners = owner[rows]
        fresh = self.stamps[owners] == step
        rows, owners = rows[fresh], owners[fresh]
        width = 0
        for name, plane in self.planes.items():
            if name in state:
                state[name][rows] = plane[rows]
                width += plane.shape[1]
        return len(rows), len(rows) * width * _ITEM, \
            len(sorted_unique(owners))


@dataclass
class HaloTraffic:
    """Monotonic counters of cross-shard state movement.

    ``bytes_per_shard`` / ``rows_per_shard`` break the aggregate down by
    *pulling* shard — the per-shard halo pressure the observability
    layer exports as labeled ``shard_halo_*`` series.
    """

    boundary_syncs: int = 0        # bulk pulls at timestep boundaries
    entrant_syncs: int = 0         # commits that pulled halo entrants
    rows_shipped: int = 0          # frozen rows pulled owner→ghost
    bytes_shipped: int = 0         # bytes of those rows
    messages: int = 0              # (owner, ghost shard) pairs pulled
    bytes_per_shard: dict = field(default_factory=lambda: defaultdict(int))
    rows_per_shard: dict = field(default_factory=lambda: defaultdict(int))

    def copy(self) -> "HaloTraffic":
        """Deep point-in-time copy (the per-shard dicts are mutable)."""
        return replace(self, bytes_per_shard=dict(self.bytes_per_shard),
                       rows_per_shard=dict(self.rows_per_shard))

    def count(self, shard: int, pulled: tuple[int, int, int]) -> bool:
        """Add one shard's pull report; True iff it copied a row."""
        rows, nbytes, owners = pulled
        if not rows:
            return False
        self.rows_shipped += rows
        self.bytes_shipped += nbytes
        self.messages += owners
        self.rows_per_shard[shard] += rows
        self.bytes_per_shard[shard] += nbytes
        return True
