"""Cluster hardware specification for the simulator.

The paper's testbed (AiMOS) is 16 nodes × 8 NVIDIA V100 GPUs, 768 GiB
host RAM per node, dual 100 Gb EDR InfiniBand between nodes, and
PCIe/NVLink inside a node.  :class:`ClusterSpec` captures the quantities
the execution-time model needs: per-class bandwidths and latencies, GPU
memory capacity, and effective compute rates.

Absolute constants are calibrated to commodity datasheet numbers; the
reproduced experiments compare *shapes* (speedup curves, crossovers), so
only the ratios between the constants matter.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError

__all__ = ["ClusterSpec", "GIB"]

GIB = 1024 ** 3


@dataclass(frozen=True)
class ClusterSpec:
    """Topology and rate model of a multi-node multi-GPU system.

    Attributes
    ----------
    num_nodes / gpus_per_node:
        Rank layout; rank ``r`` lives on node ``r // gpus_per_node``.
    gpu_memory_bytes:
        HBM capacity per GPU; allocations beyond it raise
        :class:`~repro.errors.DeviceOOM`.
    dense_flops / sparse_flops:
        Effective FLOP/s for dense GEMM-like and sparse (memory-bound)
        kernels on one GPU.
    h2d_bandwidth / h2d_latency:
        Pinned-memory CPU→GPU transfer rate and per-transfer latency
        (paper §3.2 uses pinned memory for both Base and GD methods).
    intra_bandwidth / intra_latency:
        GPU↔GPU links within a node.
    inter_bandwidth / inter_latency:
        Per-node NIC rate for traffic crossing node boundaries; all ranks
        of a node share this NIC (the paper's (K−1)/K analysis, §6.3).
    """

    num_nodes: int = 16
    gpus_per_node: int = 8
    gpu_memory_bytes: int = 32 * GIB
    dense_flops: float = 7.0e12
    sparse_flops: float = 4.0e11
    h2d_bandwidth: float = 11.0e9
    h2d_latency: float = 10.0e-6
    intra_bandwidth: float = 48.0e9
    intra_latency: float = 4.0e-6
    # the paper's nodes have *dual* 100 Gb EDR InfiniBand rails
    inter_bandwidth: float = 25.0e9
    inter_latency: float = 6.0e-6

    def __post_init__(self) -> None:
        if self.num_nodes <= 0 or self.gpus_per_node <= 0:
            raise ConfigError("cluster needs positive node/GPU counts")
        if self.gpu_memory_bytes <= 0:
            raise ConfigError("gpu_memory_bytes must be positive")
        for field in ("dense_flops", "sparse_flops", "h2d_bandwidth",
                      "intra_bandwidth", "inter_bandwidth"):
            if getattr(self, field) <= 0:
                raise ConfigError(f"{field} must be positive")

    # -- rank geometry -----------------------------------------------------------
    @property
    def total_gpus(self) -> int:
        return self.num_nodes * self.gpus_per_node

    def node_of(self, rank: int) -> int:
        if not 0 <= rank < self.total_gpus:
            raise ConfigError(f"rank {rank} outside [0, {self.total_gpus})")
        return rank // self.gpus_per_node

    def same_node(self, a: int, b: int) -> bool:
        return self.node_of(a) == self.node_of(b)

    def link(self, src: int, dst: int) -> tuple[float, float]:
        """(bandwidth, latency) of the src→dst link class."""
        if src == dst:
            return float("inf"), 0.0
        if self.same_node(src, dst):
            return self.intra_bandwidth, self.intra_latency
        return self.inter_bandwidth, self.inter_latency

    # -- convenience constructors ---------------------------------------------------
    @classmethod
    def aimos(cls, num_nodes: int = 16, gpus_per_node: int = 8,
              **overrides) -> "ClusterSpec":
        """The paper's testbed layout (defaults) with optional overrides."""
        return cls(num_nodes=num_nodes, gpus_per_node=gpus_per_node,
                   **overrides)

    @classmethod
    def single_node(cls, gpus: int = 8, **overrides) -> "ClusterSpec":
        return cls(num_nodes=1, gpus_per_node=gpus, **overrides)
