"""A simulated GPU: memory accounting plus a kernel-time model.

Memory is the paper's first-order constraint ("most of the model-dataset
configurations do not execute on fewer than 8 GPUs", §3.1): the
:class:`Device` tracks named allocations against a hard capacity and
raises :class:`~repro.errors.DeviceOOM` on overflow, which is how the
benchmark harness reproduces the baseline's single-node failures and the
checkpointed implementation's success.

Kernel cost: ``flops / rate`` with separate effective rates for dense
(GEMM-like) and sparse (memory-bound SpMM) work.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.clock import RankClock
from repro.cluster.config import ClusterSpec
from repro.errors import DeviceOOM

__all__ = ["Device", "Allocation"]


@dataclass(frozen=True)
class Allocation:
    """Handle for a live device-memory region."""

    tag: str
    nbytes: int
    serial: int


class Device:
    """One simulated GPU bound to a rank and its clock."""

    def __init__(self, rank: int, spec: ClusterSpec,
                 clock: RankClock | None = None) -> None:
        self.rank = rank
        self.spec = spec
        self.clock = clock or RankClock(rank)
        self.capacity = spec.gpu_memory_bytes
        self._live: dict[int, Allocation] = {}
        self._serial = 0
        self.in_use = 0
        self.peak_in_use = 0

    # -- memory ---------------------------------------------------------------------
    def alloc(self, nbytes: int, tag: str = "anon") -> Allocation:
        """Reserve ``nbytes``; raises :class:`DeviceOOM` past capacity."""
        nbytes = int(nbytes)
        if nbytes < 0:
            raise ValueError(f"negative allocation: {nbytes}")
        if self.in_use + nbytes > self.capacity:
            raise DeviceOOM(
                f"rank {self.rank}: OOM allocating {nbytes} bytes "
                f"({tag}); in use {self.in_use} of {self.capacity}",
                requested=nbytes, capacity=self.capacity,
                in_use=self.in_use)
        self._serial += 1
        handle = Allocation(tag=tag, nbytes=nbytes, serial=self._serial)
        self._live[handle.serial] = handle
        self.in_use += nbytes
        self.peak_in_use = max(self.peak_in_use, self.in_use)
        return handle

    def free(self, handle: Allocation) -> None:
        live = self._live.pop(handle.serial, None)
        if live is None:
            raise KeyError(f"double free / unknown allocation {handle}")
        self.in_use -= live.nbytes

    def free_all(self, tag: str | None = None) -> int:
        """Free every live allocation (optionally only those with ``tag``);
        returns bytes released."""
        released = 0
        for serial in list(self._live):
            if tag is None or self._live[serial].tag == tag:
                released += self._live[serial].nbytes
                self.in_use -= self._live[serial].nbytes
                del self._live[serial]
        return released

    @property
    def available(self) -> int:
        return self.capacity - self.in_use

    # -- kernels ----------------------------------------------------------------------
    def compute_dense(self, flops: float) -> float:
        """Charge a dense kernel; returns modeled seconds."""
        seconds = max(flops, 0.0) / self.spec.dense_flops
        self.clock.advance("compute", seconds)
        return seconds

    def compute_sparse(self, flops: float) -> float:
        """Charge a sparse (memory-bound) kernel; returns modeled seconds."""
        seconds = max(flops, 0.0) / self.spec.sparse_flops
        self.clock.advance("compute", seconds)
        return seconds

    def reset(self) -> None:
        self._live.clear()
        self.in_use = 0
        self.peak_in_use = 0
        self.clock.reset()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"Device(rank={self.rank}, in_use={self.in_use}/"
                f"{self.capacity})")
