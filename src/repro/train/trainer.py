"""Single-device training (paper §3).

:class:`SingleDeviceTrainer` runs real numerics through either the
baseline path (whole-timeline autograd graph) or the checkpointed path
(:class:`~repro.train.checkpoint.CheckpointRunner`), and — when handed a
simulated :class:`~repro.cluster.device.Device` — reproduces the paper's
single-GPU resource behaviour:

* **memory**: the baseline materializes inputs + activations for the
  whole timeline and OOMs on large configs; the checkpointed path holds
  one block plus the ``π`` carries (§3.1);
* **transfer**: snapshots stream CPU→GPU per block, twice per epoch when
  checkpointing (forward + backward re-run), via the naive or the
  graph-difference encoding (§3.2).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.cluster.clock import TimeBreakdown
from repro.cluster.device import Device
from repro.cluster.transfer import TransferEngine
from repro.errors import ConfigError
from repro.graph.dtdg import DTDG
from repro.models.base import DynamicGNN
from repro.obs import Telemetry
from repro.partition.snapshot_part import block_ranges
from repro.tensor import Adam, Tensor
from repro.train.checkpoint import CheckpointRunner, carry_nbytes
from repro.train.metrics import EpochResult, collect_epoch_metrics
from repro.train.preprocess import (compute_laplacians_with_diffs,
                                    degree_features)
from repro.train.reuse import AggregationCache
from repro.train.tasks import LinkPredictionTask

__all__ = ["TrainerConfig", "SingleDeviceTrainer"]


@dataclass(frozen=True)
class TrainerConfig:
    """Single-device training knobs.

    ``num_blocks = 1`` is the non-checkpointed baseline; larger values
    enable the §3.1 schedule.  ``use_graph_difference`` switches the
    snapshot transfer between Base and GD (§3.2).
    ``reuse_aggregation`` enables the cross-timestep aggregation cache
    (:mod:`repro.train.reuse`): per-layer ``Ã·X`` products are patched
    from the previous timestep's instead of recomputed in full —
    identical numerics, delta-proportional forward work — and the
    simulated device is charged for the rows actually recomputed.
    """

    num_blocks: int = 1
    use_graph_difference: bool = False
    learning_rate: float = 0.01
    backward_compute_factor: float = 2.0
    reuse_aggregation: bool = False
    reuse_crossover: float = 0.35

    def __post_init__(self) -> None:
        if self.num_blocks < 1:
            raise ConfigError("num_blocks must be >= 1")
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be positive")
        if not 0.0 < self.reuse_crossover <= 1.0:
            raise ConfigError("reuse_crossover must be in (0, 1]")


class SingleDeviceTrainer:
    """Train a dynamic GNN on one (simulated) GPU."""

    def __init__(self, model: DynamicGNN, dtdg: DTDG, task,
                 config: TrainerConfig,
                 device: Device | None = None, *,
                 telemetry: Telemetry | None = None,
                 kernel_backend=None) -> None:
        self.model = model
        self.task = task
        self.config = config
        self.device = device
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self.transfer = TransferEngine()
        if dtdg.features is None:
            dtdg.set_features(degree_features(dtdg))
        self.dtdg = dtdg
        # every per-timestep operator is pinned to one kernel backend;
        # the reuse cache's spmm/memo/patch calls pick it up implicitly
        self.laplacians, diffs = compute_laplacians_with_diffs(
            dtdg, backend=kernel_backend)
        self.frames = [Tensor(f) for f in dtdg.features]
        # train on the first T timesteps; the held-out last snapshot is
        # only used by the task's test set (paper §6.4)
        self.train_t = task.num_train_timesteps
        params = model.parameters() + task.head.parameters()
        self.optimizer = Adam(params, lr=config.learning_rate)
        self._runner = CheckpointRunner(model, config.num_blocks)
        self.reuse: AggregationCache | None = None
        if config.reuse_aggregation:
            self.reuse = AggregationCache(
                self.laplacians, diffs, dtdg.snapshots,
                model.reuse_profile(), crossover=config.reuse_crossover)

    @classmethod
    def from_store(cls, model: DynamicGNN, store, task_factory,
                   config: TrainerConfig, device: Device | None = None, *,
                   start: int = 0, stop: int | None = None,
                   telemetry: Telemetry | None = None,
                   kernel_backend=None) -> "SingleDeviceTrainer":
        """Train over a :class:`~repro.store.store.GraphStore` window.

        ``store.window(start, stop)`` hands the trainer a lazy
        :class:`~repro.store.store.StoreView`: snapshots decode from the
        delta log (nearest compacted base + tail replay) as the training
        loop touches them instead of the whole timeline being resident
        up front.  ``task_factory(dtdg)`` builds the training task over
        the view (tasks need the timeline to draw their samples)."""
        view = store.window(start, stop)
        return cls(model, view, task_factory(view), config, device,
                   telemetry=telemetry, kernel_backend=kernel_backend)

    # -- memory & transfer accounting -------------------------------------------------
    def _input_bytes(self, lo: int, hi: int) -> int:
        snaps = sum(self.laplacians[t].nbytes for t in range(lo, hi))
        frames = sum(self.frames[t].nbytes for t in range(lo, hi))
        return snaps + frames

    def _activation_bytes(self, lo: int, hi: int) -> int:
        n = self.dtdg.num_vertices
        return (hi - lo) * self.model.activation_bytes_per_step(n)

    def _account_epoch_resources(self) -> None:
        """Charge transfer time and exercise the device memory ledger the
        way the §3 execution would."""
        if self.device is None:
            return
        device = self.device
        nb = min(self.config.num_blocks, self.train_t)
        ranges = block_ranges(self.train_t, nb)
        checkpointed = nb > 1
        carry_handles = []
        if not checkpointed:
            # baseline: everything resident for the whole epoch
            with device.hold(self._input_bytes(0, self.train_t), "inputs"):
                with device.hold(self._activation_bytes(0, self.train_t),
                                 "activations"):
                    self._charge_block_transfer(0, self.train_t, passes=1)
                    self._charge_block_compute(0, self.train_t)
            return
        carry = self.model.init_carry(self.dtdg.num_vertices)
        for lo, hi in ranges:
            with device.hold(self._input_bytes(lo, hi), "block-inputs"):
                with device.hold(self._activation_bytes(lo, hi),
                                 "block-activations"):
                    # forward + backward re-run: two transfers, ~3x the
                    # forward compute (fwd + rerun + gradient sweep)
                    self._charge_block_transfer(lo, hi, passes=2)
                    self._charge_block_compute(lo, hi)
            # π_b stays resident until its block's backward completes
            _, carry = self._peek_carry(lo, hi, carry)
            carry_handles.append(
                device.alloc(max(carry_nbytes(carry), 1), "carry"))
        for handle in carry_handles:
            device.free(handle)

    def _peek_carry(self, lo: int, hi: int, carry):
        from repro.tensor import no_grad
        from repro.models.base import detach_carry
        with no_grad():
            outs, new_carry = self.model.forward_block(
                self.laplacians[lo:hi], self.frames[lo:hi], carry)
        return outs, detach_carry(new_carry)

    def _charge_block_transfer(self, lo: int, hi: int, passes: int) -> None:
        snaps = [self.dtdg.snapshots[t] for t in range(lo, hi)]
        for _ in range(passes):
            if self.config.use_graph_difference:
                self.transfer.send_block_gd(self.device, snaps)
            else:
                self.transfer.send_block_naive(self.device, snaps)
            for t in range(lo, hi):
                self.transfer.send_dense(self.device, self.frames[t].nbytes)

    def _charge_block_compute(self, lo: int, hi: int) -> None:
        n = self.dtdg.num_vertices
        factor = 1.0 + self.config.backward_compute_factor
        for t in range(lo, hi):
            nnz = self.laplacians[t].nnz
            sparse, dense = self.model.gcn_flops_per_step(nnz, n)
            rnn = self.model.rnn_flops_per_step(n)
            head = self.task.head_flops_per_step()
            if self.reuse is None:
                # always-full baseline: every aggregation at full nnz
                self.device.compute_sparse(sparse * factor)
            self.device.compute_dense((dense + rnn + head) * factor)

    def _charge_reuse_sparse(self) -> None:
        """Charge the aggregation work a delta-aware execution actually
        pays: the cache's measured forward FLOPs (patched rows only,
        re-runs memoized) plus its estimated backward FLOPs (the full
        Jacobian where the operand carries gradients, the sliced one on
        patched chains, nothing over leaf features)."""
        if self.device is None or self.reuse is None:
            return
        stats = self.reuse.stats
        self.device.compute_sparse(stats.forward_flops +
                                   stats.backward_flops)

    # -- training --------------------------------------------------------------------------
    def train_epoch(self) -> EpochResult:
        laps = self.laplacians[:self.train_t]
        frames = self.frames[:self.train_t]
        self.optimizer.zero_grad()
        # the reuse cache's products stay resident across the whole
        # epoch (and across epochs): hold them on the ledger so peak
        # memory reflects the compute-for-memory trade.  Epoch 0 sees
        # last epoch's footprint (zero on the first), steady-state
        # epochs the full one.
        cache_hold = None
        if self.device is not None and self.reuse is not None:
            cache_hold = self.device.alloc(
                max(self.reuse.resident_nbytes, 1), "reuse-cache")
        self._account_epoch_resources()
        if self.reuse is not None:
            self.reuse.begin_epoch()
        self.model.set_aggregation_hook(
            self.reuse.aggregate if self.reuse is not None else None)
        try:
            if self.config.num_blocks == 1:
                t0 = time.perf_counter()
                with self.telemetry.trace("train.forward",
                                          timesteps=self.train_t):
                    outs = self.model(laps, frames)
                forward_wall = time.perf_counter() - t0
                loss = self.task.loss_full(outs)
                with self.telemetry.trace("train.backward"):
                    tape_nodes = loss.backward()
                loss_value = loss.item()
                final_embed = outs[-1]
            else:
                # the checkpointed runner interleaves forward re-runs
                # and per-block backwards; one span covers the pair
                with self.telemetry.trace("train.forward",
                                          blocks=self.config.num_blocks):
                    result = self._runner.run_epoch(laps, frames,
                                                    self.task.loss_block)
                loss_value = result.loss
                tape_nodes = result.tape_nodes
                t0 = time.perf_counter()
                final_embed = self._runner.forward_streaming(
                    laps, frames)[-1]
                forward_wall = result.forward_seconds + \
                    (time.perf_counter() - t0)
        finally:
            self.model.set_aggregation_hook(None)
            if self.reuse is not None:
                self.reuse.release()
            if cache_hold is not None:
                self.device.free(cache_hold)
        self._charge_reuse_sparse()
        self.optimizer.step()

        breakdown = (self.device.clock.breakdown if self.device
                     else TimeBreakdown())
        agg_flops = agg_full = 0.0
        if self.reuse is not None:
            agg_flops = self.reuse.stats.forward_flops
            agg_full = self.reuse.stats.full_equivalent_flops
        result = EpochResult(
            loss=loss_value,
            breakdown=TimeBreakdown(breakdown.transfer, breakdown.compute,
                                    breakdown.comm),
            test_accuracy=self._test_accuracy(final_embed),
            transfer_bytes=self.transfer.stats.bytes_moved,
            transfer_naive_equivalent_bytes=(
                self.transfer.stats.snapshot_bytes_naive_equivalent),
            peak_memory_bytes=(self.device.peak_in_use if self.device
                               else 0),
            forward_wall_s=forward_wall,
            agg_flops=agg_flops,
            agg_flops_full_equivalent=agg_full,
            tape_nodes=tape_nodes,
        )
        collect_epoch_metrics(self.telemetry, result,
                              self.reuse.stats if self.reuse is not None
                              else None)
        return result

    def _test_accuracy(self, final_embed: Tensor) -> float:
        if isinstance(self.task, LinkPredictionTask):
            return self.task.test_accuracy(final_embed)
        return float("nan")

    def fit(self, epochs: int) -> list[EpochResult]:
        results = []
        for _ in range(epochs):
            if self.device is not None:
                self.device.clock.reset()
            self.transfer.reset()
            results.append(self.train_epoch())
        return results
