"""The assembled simulated system: devices + clocks + collectives.

:class:`Cluster` is the facade the distributed trainer talks to.  It
instantiates one :class:`Device` per rank (prefix of the spec's rank
grid), a shared :class:`Communicator`, and a per-rank transfer engine,
and exposes the critical-path :class:`TimeBreakdown` the benchmarks
report.
"""

from __future__ import annotations

from repro.cluster.clock import RankClock, TimeBreakdown, max_breakdown
from repro.cluster.comm import Communicator
from repro.cluster.config import ClusterSpec
from repro.cluster.device import Device
from repro.cluster.transfer import TransferEngine
from repro.errors import ConfigError

__all__ = ["Cluster"]


class Cluster:
    """A P-rank slice of a :class:`ClusterSpec` ready to execute on.

    Parameters
    ----------
    spec:
        Hardware model.  The cluster exposes ranks ``0 … num_ranks-1``
        placed on nodes in fill order (8-per-node on the paper layout).
    num_ranks:
        How many ranks to activate; defaults to every GPU in the spec.
    """

    def __init__(self, spec: ClusterSpec,
                 num_ranks: int | None = None) -> None:
        num_ranks = spec.total_gpus if num_ranks is None else int(num_ranks)
        if not 1 <= num_ranks <= spec.total_gpus:
            raise ConfigError(
                f"num_ranks {num_ranks} outside [1, {spec.total_gpus}]")
        self.spec = spec
        self.num_ranks = num_ranks
        self.clocks = [RankClock(r) for r in range(num_ranks)]
        self.devices = [Device(r, spec, self.clocks[r])
                        for r in range(num_ranks)]
        self.comm = Communicator(spec, self.clocks)
        self.transfers = [TransferEngine() for _ in range(num_ranks)]

    @classmethod
    def of_size(cls, num_ranks: int, gpus_per_node: int = 8,
                **spec_overrides) -> "Cluster":
        """Cluster with exactly ``num_ranks`` ranks on the paper's layout
        (nodes filled 8 ranks at a time, like the strong-scaling study)."""
        if num_ranks <= 0:
            raise ConfigError("num_ranks must be positive")
        nodes = max(1, -(-num_ranks // gpus_per_node))
        gpn = num_ranks if nodes == 1 else gpus_per_node
        spec = ClusterSpec.aimos(num_nodes=nodes, gpus_per_node=gpn,
                                 **spec_overrides)
        return cls(spec, num_ranks=num_ranks)

    # -- accessors ------------------------------------------------------------------
    def device(self, rank: int) -> Device:
        return self.devices[rank]

    def transfer(self, rank: int) -> TransferEngine:
        return self.transfers[rank]

    @property
    def breakdown(self) -> TimeBreakdown:
        """Critical-path time breakdown across ranks."""
        return max_breakdown(self.clocks)

    @property
    def elapsed(self) -> float:
        return self.breakdown.total

    def peak_memory(self) -> int:
        return max(d.peak_in_use for d in self.devices)

    def reset(self) -> None:
        for d in self.devices:
            d.reset()
        for t in self.transfers:
            t.reset()
        self.comm.reset()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"Cluster(P={self.num_ranks}, nodes≤{self.spec.num_nodes}, "
                f"gpus/node={self.spec.gpus_per_node})")
