"""Result records shared by the trainers and the benchmark harness."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.cluster.clock import TimeBreakdown

__all__ = ["EpochResult", "ConvergenceCurve", "collect_epoch_metrics"]


@dataclass
class EpochResult:
    """Everything one training epoch reports.

    Times come from the simulated clocks (critical-path rank), volumes
    from the communicator's event log, memory from the device ledgers —
    the same quantities the paper's Figs. 4/5 and Table 2 plot.
    """

    loss: float
    breakdown: TimeBreakdown
    test_accuracy: float = float("nan")
    comm_volume_units: float = 0.0        # feature-vector units (floats)
    gradient_volume_units: float = 0.0
    transfer_bytes: int = 0
    transfer_naive_equivalent_bytes: int = 0
    peak_memory_bytes: int = 0
    # wall seconds the epoch spent in forward sweeps (numerics, not the
    # simulated clocks)
    forward_wall_s: float = 0.0
    # full-halo equivalent of comm_volume_units: what the exchanges
    # would have shipped without delta-aware shrinking (equal to
    # comm_volume_units when reuse is off)
    comm_volume_full_units: float = 0.0
    # sparse FLOPs the aggregation stage actually executed vs what an
    # always-full execution would have (cache-reported; 0 when off)
    agg_flops: float = 0.0
    agg_flops_full_equivalent: float = 0.0
    # autograd tape nodes the epoch's backward sweeps visited: a
    # deterministic size of the recorded graph (a dense stage falling
    # back to composed ops shows here, not in a timing)
    tape_nodes: int = 0

    @property
    def gd_savings_ratio(self) -> float:
        if self.transfer_bytes == 0:
            return 1.0
        return self.transfer_naive_equivalent_bytes / self.transfer_bytes

    @property
    def total_ms(self) -> float:
        return self.breakdown.total * 1e3


@dataclass
class ConvergenceCurve:
    """Per-epoch loss/accuracy series (paper Fig. 6)."""

    losses: list[float] = field(default_factory=list)
    accuracies: list[float] = field(default_factory=list)

    def record(self, result: EpochResult) -> None:
        self.losses.append(result.loss)
        self.accuracies.append(result.test_accuracy)

    def max_divergence(self, other: "ConvergenceCurve") -> float:
        """Largest per-epoch |loss difference| against another run."""
        if len(self.losses) != len(other.losses):
            raise ValueError("curves must have equal length")
        return max((abs(a - b) for a, b in zip(self.losses, other.losses)),
                   default=0.0)


def collect_epoch_metrics(telemetry, result: EpochResult,
                          reuse_stats=None) -> None:
    """Fold one epoch's :class:`EpochResult` into a telemetry registry.

    Epoch results (and the aggregation cache's ``ReuseStats``, which
    resets every epoch) are per-epoch deltas, so everything accumulates
    with ``inc`` — unlike the serving tier's monotonic plain-int
    counters, which sync with ``set_to`` at export time.
    """
    reg = telemetry.registry
    reg.counter("train_epochs_total", "Epochs completed").inc()
    reg.counter("train_forward_seconds_total",
                "Wall seconds in forward sweeps").inc(result.forward_wall_s)
    reg.counter("train_comm_volume_units_total",
                "Feature-vector units exchanged").inc(
        result.comm_volume_units)
    reg.counter("train_comm_volume_full_units_total",
                "Full-halo equivalent of the exchanged units").inc(
        result.comm_volume_full_units)
    reg.counter("train_transfer_bytes_total",
                "Delta-encoded snapshot bytes moved").inc(
        result.transfer_bytes)
    reg.gauge("train_loss", "Most recent epoch loss").set(result.loss)
    if not math.isnan(result.test_accuracy):
        reg.gauge("train_test_accuracy",
                  "Most recent epoch test accuracy").set(
            result.test_accuracy)
    reg.gauge("train_peak_memory_bytes",
              "Peak device-ledger bytes last epoch").set(
        result.peak_memory_bytes)
    reg.gauge("train_tape_nodes",
              "Autograd tape nodes last epoch's backward visited").set(
        result.tape_nodes)
    if reuse_stats is None:
        return
    # per-timestep aggregation decisions, labeled by how each
    # aggregation was satisfied (memo reuse / sparse patch / full SpMM)
    for mode, value in (("memo", reuse_stats.memo_hits),
                        ("patch", reuse_stats.patches),
                        ("full", reuse_stats.full_spmm)):
        reg.counter("train_agg_decisions_total",
                    "Aggregation-cache decisions by mode",
                    mode=mode).inc(value)
    reg.counter("train_agg_flops_total",
                "Sparse FLOPs the aggregation stage executed").inc(
        reuse_stats.forward_flops + reuse_stats.backward_flops)
    reg.counter("train_agg_flops_full_equivalent_total",
                "FLOPs an always-full execution would have paid").inc(
        reuse_stats.full_equivalent_flops)
