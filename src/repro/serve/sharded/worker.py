"""The shard worker.

A :class:`ShardWorker` is one serving process of the sharded tier: it
owns a :class:`~repro.serve.sharded.engine.ShardEngine` over its vertex
block, applies routed deltas, refreshes its dirty rows, and scores the
queries the router assigns it.  Every unit of work is timed into
``busy_s`` — the per-worker busy clock from which the tier's critical
path is derived, exactly how the training side charges per-rank
:class:`~repro.cluster.clock.RankClock` seconds.  The worker is hosted
by a :class:`~repro.exec.service.WorkerService` (in-process or in its
own OS process); replication is the router-side
:class:`~repro.exec.channel.ShardChannel`'s business, not the worker's.
"""

from __future__ import annotations

import time
from typing import Callable

import numpy as np

from repro.errors import ConfigError
from repro.graph.snapshot import GraphSnapshot
from repro.models.base import DynamicGNN
from repro.nn.linear import EdgeScorer, Linear
from repro.serve.server import score_fraud, score_links
from repro.serve.sharded.engine import ShardEngine

__all__ = ["ShardWorker"]

_EMPTY = np.empty(0, dtype=np.int64)


class ShardWorker:
    """One shard's serving process (engine + heads + busy clock)."""

    def __init__(self, shard_id: int, replica_id: int, model: DynamicGNN,
                 snapshot: GraphSnapshot, block: np.ndarray, *,
                 link_head: EdgeScorer | None = None,
                 fraud_head: Linear | None = None,
                 k_hops: int | None = None,
                 features: np.ndarray | None = None,
                 dinv: np.ndarray | None = None,
                 maintainer=None, kernel_backend=None,
                 clock: Callable[[], float] = time.perf_counter) -> None:
        self.shard_id = shard_id
        self.replica_id = replica_id
        self.engine = ShardEngine(model, snapshot, block, k_hops=k_hops,
                                  features=features, dinv=dinv,
                                  maintainer=maintainer,
                                  kernel_backend=kernel_backend)
        self.link_head = link_head
        self.fraud_head = fraud_head
        self.clock = clock
        self.busy_s = 0.0
        self.rows_recomputed = 0
        self.rows_advanced = 0
        self.queries_scored = 0
        self.deltas_applied = 0

    # -- timing -----------------------------------------------------------------------
    def _charge(self, t0: float) -> None:
        self.busy_s += self.clock() - t0

    # -- lifecycle --------------------------------------------------------------------
    def begin_advance(self, snapshot: GraphSnapshot, features: np.ndarray,
                      dinv: np.ndarray, diff=None) -> None:
        t0 = self.clock()
        self.engine.begin_advance(snapshot, features=features, dinv=dinv,
                                  diff=diff)
        self._charge(t0)

    def finish_advance(self) -> int:
        t0 = self.clock()
        advanced = self.engine.finish_advance()
        self.rows_advanced += advanced
        self._charge(t0)
        return advanced

    def apply_delta(self, snapshot: GraphSnapshot, features: np.ndarray,
                    dinv: np.ndarray, dirty: np.ndarray,
                    diff=None) -> np.ndarray:
        """Install the routed snapshot + pre-expanded dirty region.

        ``diff`` is the full GD delta of the commit; each worker feeds
        it to its engine's Ã maintainer so the per-shard operator
        updates incrementally.  Returns the rows newly pulled into this
        shard's halo (whose frozen temporal state the exchange must
        import before the next refresh touches them).
        """
        t0 = self.clock()
        self.engine.set_snapshot(snapshot, seeds=_EMPTY, features=features,
                                 dinv=dinv, diff=diff)
        entrants = self.engine.relax_halo(dirty)
        self.engine.cache.mark_dirty(self.engine.restrict_to_coverage(dirty))
        self.deltas_applied += 1
        self._charge(t0)
        return entrants

    def refresh(self) -> int:
        """Recompute this shard's dirty rows; returns the row count."""
        t0 = self.clock()
        recomputed = self.engine.refresh()
        self.rows_recomputed += recomputed
        self._charge(t0)
        return recomputed

    # -- reads ------------------------------------------------------------------------
    def embedding_rows(self, rows: np.ndarray) -> np.ndarray:
        """Served embedding rows (caller must route owned/covered rows;
        the engine is authoritative for its block only)."""
        t0 = self.clock()
        out = self.engine.embeddings[rows]
        self._charge(t0)
        return out

    def score(self, link_pairs: np.ndarray, link_dst_rows: np.ndarray,
              fraud_accounts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Score a routed query group.

        ``link_pairs`` are ``(src, dst)`` vertex ids with every ``src``
        owned here; ``link_dst_rows`` carries the embedding rows of the
        ``dst`` column (gathered remotely by the router when the owner
        is another shard).  Returns (link scores, fraud scores).
        """
        t0 = self.clock()
        z = self.engine.embeddings
        link_scores = np.empty(0)
        fraud_scores = np.empty(0)
        if len(link_pairs):
            stacked = np.concatenate([z[link_pairs[:, 0]], link_dst_rows],
                                     axis=0)
            m = len(link_pairs)
            idx = np.stack([np.arange(m), np.arange(m, 2 * m)], axis=1)
            link_scores = score_links(stacked, idx, self.link_head)
        if len(fraud_accounts):
            if self.fraud_head is None:
                raise ConfigError("fraud queries need a fraud_head")
            fraud_scores = score_fraud(z, fraud_accounts, self.fraud_head)
        self.queries_scored += len(link_pairs) + len(fraud_accounts)
        self._charge(t0)
        return link_scores, fraud_scores
