"""Bulk-synchronous collectives over the simulated link model.

All ranks live in one Python process, so a collective is a function over
*lists indexed by rank*.  Timing follows the paper's §6.3 analysis:

* intra-node traffic rides the node's GPU↔GPU links;
* traffic crossing nodes is serialized through the node's NIC, which all
  ``gpus_per_node`` ranks share — this is what produces the speedup dip
  when P first crosses the node boundary (P=8→16 on the paper's system)
  and the gradual recovery as the number of NICs grows with K.

After every collective the participants synchronize to the slowest rank
(charged to ``comm``), matching synchronous data-parallel training.

Volume accounting: every event records its payload bytes and a label so
the Table-2 benchmark can report redistribution volume separately from
(insignificant) gradient aggregation, exactly as the paper does.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cluster.clock import RankClock
from repro.cluster.config import ClusterSpec
from repro.errors import CommunicationError

__all__ = ["Communicator", "CommEvent"]


@dataclass(frozen=True)
class CommEvent:
    """One logged collective: payload bytes exclude self-communication.

    ``full_equivalent_bytes`` is what the collective *would* have moved
    without delta-aware payload shrinking (the training tier's
    cross-timestep reuse ships only delta-touched boundary rows); it
    equals ``payload_bytes`` for ordinary collectives, mirroring the
    transfer engine's naive-equivalent accounting.
    """

    op: str
    label: str
    payload_bytes: int
    seconds: float
    full_equivalent_bytes: int = 0

    def __post_init__(self) -> None:
        if self.full_equivalent_bytes < self.payload_bytes:
            object.__setattr__(self, "full_equivalent_bytes",
                               self.payload_bytes)


class Communicator:
    """Collectives for ``num_ranks`` ranks laid out per ``spec``."""

    def __init__(self, spec: ClusterSpec, clocks: list[RankClock]) -> None:
        if not clocks:
            raise CommunicationError("communicator needs at least one rank")
        if len(clocks) > spec.total_gpus:
            raise CommunicationError(
                f"{len(clocks)} ranks exceed cluster capacity "
                f"{spec.total_gpus}")
        self.spec = spec
        self.clocks = clocks
        self.num_ranks = len(clocks)
        self.events: list[CommEvent] = []

    # -- helpers -----------------------------------------------------------------------
    def _barrier(self) -> None:
        latest = max(c.now for c in self.clocks)
        for c in self.clocks:
            c.wait_until(latest, "comm")

    def volume_bytes(self, label: str | None = None) -> int:
        return sum(e.payload_bytes for e in self.events
                   if label is None or e.label == label)

    def volume_units(self, label: str | None = None,
                     unit_bytes: int = 4) -> float:
        """Volume in feature-vector *units* (floats by default), the
        quantity Table 2 reports in billions."""
        return self.volume_bytes(label) / unit_bytes

    def full_equivalent_bytes(self, label: str | None = None) -> int:
        """Bytes the logged collectives would have moved without
        delta-aware payload shrinking."""
        return sum(e.full_equivalent_bytes for e in self.events
                   if label is None or e.label == label)

    def full_equivalent_units(self, label: str | None = None,
                              unit_bytes: int = 4) -> float:
        return self.full_equivalent_bytes(label) / unit_bytes

    # -- all-to-all ---------------------------------------------------------------------
    def all_to_all_bytes(self, payload: np.ndarray,
                         label: str = "redistribution",
                         full_equivalent: np.ndarray | None = None
                         ) -> float:
        """Charge an all-to-all with byte matrix ``payload[src, dst]``.

        ``full_equivalent`` optionally records the byte matrix a
        non-delta-aware exchange would have shipped (volume accounting
        only — the charged time follows ``payload``).  Returns the
        modeled wall-clock of the collective (slowest rank).
        """
        p = self.num_ranks
        payload = np.asarray(payload, dtype=np.float64)
        if payload.shape != (p, p):
            raise CommunicationError(
                f"payload matrix shape {payload.shape} != ({p}, {p})")
        spec = self.spec
        off_diag = payload.copy()
        np.fill_diagonal(off_diag, 0.0)

        nodes = [spec.node_of(r) for r in range(p)]
        num_nodes = max(nodes) + 1
        intra_out = np.zeros(p)
        intra_in = np.zeros(p)
        intra_msgs = np.zeros(p)
        inter_msgs = np.zeros(p)
        nic_out = np.zeros(num_nodes)
        nic_in = np.zeros(num_nodes)
        for src in range(p):
            for dst in range(p):
                b = off_diag[src, dst]
                if src == dst or b == 0.0:
                    continue
                if nodes[src] == nodes[dst]:
                    intra_out[src] += b
                    intra_in[dst] += b
                    intra_msgs[src] += 1
                else:
                    nic_out[nodes[src]] += b
                    nic_in[nodes[dst]] += b
                    inter_msgs[src] += 1

        # Bytes serialize through the links (shared NIC per node for
        # inter-node traffic); per-message setup overhead is paid by the
        # issuing rank and overlaps across ranks, not the NIC — real
        # collectives pipeline messages.
        seconds = np.zeros(p)
        for r in range(p):
            t_intra = (max(intra_out[r], intra_in[r]) / spec.intra_bandwidth
                       + intra_msgs[r] * spec.intra_latency)
            node = nodes[r]
            t_nic = (max(nic_out[node], nic_in[node]) / spec.inter_bandwidth
                     + inter_msgs[r] * spec.inter_latency)
            seconds[r] = t_intra + t_nic
            self.clocks[r].advance("comm", seconds[r])
        self._barrier()

        total_bytes = int(off_diag.sum())
        if full_equivalent is None:
            full_bytes = total_bytes
        else:
            full = np.asarray(full_equivalent, dtype=np.float64).copy()
            np.fill_diagonal(full, 0.0)
            full_bytes = int(full.sum())
        wall = float(seconds.max())
        self.events.append(CommEvent("all_to_all", label, total_bytes,
                                     wall, full_equivalent_bytes=full_bytes))
        return wall

    # -- all-reduce ---------------------------------------------------------------------
    def all_reduce_sum(self, arrays: list[np.ndarray],
                       label: str = "gradient") -> np.ndarray:
        """Ring all-reduce of per-rank arrays; every rank gets the sum."""
        p = self.num_ranks
        if len(arrays) != p:
            raise CommunicationError(
                f"{len(arrays)} buffers for {p} ranks")
        shape = arrays[0].shape
        for a in arrays:
            if a.shape != shape:
                raise CommunicationError("all_reduce buffers must match")
        total = np.sum(np.stack([np.asarray(a, dtype=np.float64)
                                 for a in arrays]), axis=0)
        nbytes = arrays[0].nbytes
        spec = self.spec
        if p > 1:
            multi_node = spec.node_of(p - 1) != spec.node_of(0)
            bw = spec.inter_bandwidth if multi_node else spec.intra_bandwidth
            lat = spec.inter_latency if multi_node else spec.intra_latency
            seconds = 2.0 * (p - 1) / p * nbytes / bw + 2 * (p - 1) * lat
        else:
            seconds = 0.0
        for c in self.clocks:
            c.advance("comm", seconds)
        self._barrier()
        # ring all-reduce moves 2(p-1)/p of the buffer per rank
        moved = int(2 * (p - 1) / p * nbytes * p) if p > 1 else 0
        self.events.append(CommEvent("all_reduce", label, moved, seconds))
        return total

    def collect_metrics(self, reg) -> None:
        """Mirror the volume ledger into a metrics registry as labeled
        counters — one telemetry family shared with the exec tier's
        real transports (``comm_bytes_total{label=}``)."""
        for label in sorted({e.label for e in self.events}):
            reg.counter("comm_bytes_total",
                        "Collective payload bytes by traffic class",
                        label=label).set_to(self.volume_bytes(label))
            reg.counter("comm_full_equivalent_bytes_total",
                        "Bytes a non-delta-aware exchange would have "
                        "shipped", label=label).set_to(
                self.full_equivalent_bytes(label))

    def reset(self) -> None:
        self.events.clear()
