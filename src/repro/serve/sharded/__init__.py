"""Sharded serving building blocks: plans and shard engines.

The resident graph's per-vertex model state is split across ``N`` shard
workers along a :class:`ShardPlan` built from the training-side
partitioners (contiguous, hypergraph-vertex, or hybrid row chunks).
Each shard owns its vertex block plus a ghost-vertex halo (k-hop
fringe, k = model depth) in a :class:`ShardEngine`; owners publish
frozen temporal state to the tier's :class:`FrozenBoard` and ghosts
pull it (:class:`HaloTraffic` counts the pulls), so incremental refresh
stays numerically equal to a single-worker full recompute even when an
edge event's k-hop cone crosses shards.
The front door over these pieces — routing, halo traffic, replication,
rebalancing — is :class:`repro.exec.router.ExecRouter`.
"""

from repro.serve.sharded.plan import ShardPlan, relax_distances
from repro.serve.sharded.engine import ShardEngine
from repro.serve.sharded.halo import FrozenBoard, HaloTraffic, \
    frozen_layout

__all__ = [
    "ShardPlan", "relax_distances",
    "ShardEngine",
    "FrozenBoard", "HaloTraffic", "frozen_layout",
]
