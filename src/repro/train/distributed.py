"""Distributed training (paper §4) on the simulated cluster: one
forward, three cost plans.

Three data distributions are implemented:

* **snapshot** (§4.2) — ranks own contiguous runs of timesteps (within
  each checkpoint block); the GCN stage is communication-free and the
  RNN stage is reached through two all-to-all redistributions per layer
  with fixed ``O(T·N)`` volume.  EvolveGCN additionally skips the
  redistributions entirely (§5.5) because its recurrence runs over
  replicated weights.
* **vertex** (§4.1) — ranks own (hypergraph-partitioned, consecutively
  renamed) vertex sets; the RNN is free but every SpMM exchanges
  neighbor feature rows along precomputed send lists, with volume that
  grows with P and an irregular packing/indexing overhead.
* **hybrid** (§6.5) — ranks form groups; snapshots are partitioned
  across groups and split row-wise within a group (per-snapshot
  all-gather), which is how the paper trains snapshots too large for a
  single GPU.

Numerics run *once* per epoch through the shared autograd graph — all
ranks live in one process, and the simulated schemes are mathematically
exact simulations of the sequential algorithm (the paper makes the same
argument in §6.4: "both schemes simulate the underlying sequential
algorithms faithfully").  Time, volume and memory are charged per rank
onto the cluster's clocks/ledgers as the real schedule would.

So a distribution is a *cost plan*, not a second forward: the trainer
drives :meth:`~repro.models.base.DynamicGNN.layer_block` — the model's
one numeric step — and a plan says what each stage costs each rank.
One GPU is this trainer on a one-rank cluster (``Cluster.of_size(1)``),
as the paper's 1-GPU points are its algorithm at ``P = 1``.  Charges
are issued in schedule order, which is part of the ledger: every
collective barriers the rank clocks, so moving a charge across one
changes who waits for whom.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.cluster.cluster import Cluster
from repro.errors import ConfigError, PartitionError
from repro.graph.dtdg import DTDG
from repro.graph.snapshot import GraphSnapshot
from repro.models.base import DynamicGNN
from repro.obs import Telemetry
from repro.partition.base import VertexChunks, contiguous_chunks
from repro.partition.hybrid import hybrid_partition
from repro.partition.snapshot_part import block_ranges
from repro.partition.vertex_part import (SnapshotCommPlan,
                                         hypergraph_vertex_partition,
                                         random_vertex_partition)
from repro.tensor import Adam, Tensor
from repro.tensor.sparse import WIRE_FLOAT_BYTES, SparseMatrix, spmm
from repro.train.metrics import EpochResult, collect_epoch_metrics
from repro.train.preprocess import (compute_laplacians_with_diffs,
                                    degree_features)
from repro.train.reuse import AggregateCall, AggregationCache
from repro.train.tasks import LinkPredictionTask

__all__ = ["DistConfig", "DistributedTrainer"]


@dataclass(frozen=True)
class DistConfig:
    """Distributed-training knobs.

    ``partitioning`` selects the cost plan (``"snapshot"``, ``"vertex"``,
    ``"hybrid"``); ``vertex_method`` picks the §4.1 partitioner
    (``"hypergraph"`` or ``"random"``); ``group_size`` is the §6.5
    intra-group split width.  ``packing_overhead_per_byte`` models the
    send/recv buffer construction + irregular indexing cost that the
    paper identifies as vertex-partitioning's implementation overhead.
    """

    num_blocks: int = 1
    use_graph_difference: bool = True
    partitioning: str = "snapshot"
    vertex_method: str = "hypergraph"
    group_size: int = 1
    learning_rate: float = 0.01
    backward_compute_factor: float = 2.0
    packing_overhead_per_byte: float = 1.5e-10
    # per-peer send/recv buffer construction + index maintenance cost of
    # the irregular vertex-partitioning exchange (paper §6.4: "the
    # irregular indexing and buffering operations induce significant
    # overheads, especially when performed on GPU") — a latency-class
    # constant, charged per message on the issuing/receiving rank
    vertex_message_overhead: float = 8.0e-5
    # cross-timestep aggregation reuse (repro.train.reuse): patch
    # delta-touched rows of each Ã·X instead of recomputing in full,
    # charge the simulated devices for the rows actually recomputed,
    # and — under vertex/hybrid partitioning — shrink the halo
    # exchanges to the delta-touched boundary rows
    reuse_aggregation: bool = False
    reuse_crossover: float = 0.35
    seed: int = 0

    def __post_init__(self) -> None:
        if self.partitioning not in _PLANS:
            raise ConfigError(
                f"unknown partitioning {self.partitioning!r}")
        if self.vertex_method not in ("hypergraph", "random"):
            raise ConfigError(
                f"unknown vertex_method {self.vertex_method!r}")
        if self.num_blocks < 1:
            raise ConfigError("num_blocks must be >= 1")
        if self.group_size < 1:
            raise ConfigError("group_size must be >= 1")
        if not 0.0 < self.reuse_crossover <= 1.0:
            raise ConfigError("reuse_crossover must be in (0, 1]")


# ----------------------------------------------------------------------
# cost plans: what each §4 distribution charges each rank
# ----------------------------------------------------------------------
class _Plan:
    """What one data distribution costs, stage by stage.

    A plan owns the operator space the numerics multiply in (the
    trainer's own; renamed under vertex partitioning), the checkpoint
    block schedule and every per-rank charge.  It never computes a
    model value.  The epoch driver calls, per block,
    ``load_block → [charge_recurrence · charge_aggregate…] per layer →
    restore → charge_head → retire_block``, then ``charge_backward``.
    """

    def __init__(self, trainer: "DistributedTrainer", diffs: list) -> None:
        self.cluster = trainer.cluster
        self.cfg = trainer.config
        self.model = trainer.model
        self.task = trainer.task
        self.num_ranks = trainer.num_ranks
        self.train_t = trainer.train_t
        self.n = trainer.dtdg.num_vertices
        self.snapshots = trainer.dtdg.snapshots
        self.laplacians, self.diffs = trainer.laplacians, diffs
        self.frames = trainer.frames
        self.ranges = block_ranges(self.train_t,
                                   min(self.cfg.num_blocks, self.train_t))
        self.act_per_step = self.model.activation_bytes_per_step(self.n)

    def begin_epoch(self) -> None:
        self._handles: list = []
        # what backward replays: every exchange (transposed) and, under
        # checkpointing, every block transfer (§3.1 forward re-run)
        self._exchanges: list = []
        self._transfers: list = []
        # seconds of per-rank sparse compute charged by the reuse path
        # (forward + its exact backward estimate) — excluded from the
        # backward factor sweep, which would otherwise re-multiply them
        self._reuse_sparse_s = [0.0] * self.num_ranks

    # -- shared charging helpers ------------------------------------------------------
    def _exchange(self, matrix: np.ndarray, label: str,
                  full_equivalent: np.ndarray | None = None,
                  record: bool = True) -> None:
        self.cluster.comm.all_to_all_bytes(matrix, label=label,
                                           full_equivalent=full_equivalent)
        if record:
            self._exchanges.append((matrix, label, full_equivalent))

    def _transfer(self, *args) -> None:
        """Charge one block transfer (``_send``'s arguments) and
        remember it for the checkpointed backward's re-run."""
        self._send(*args)
        self._transfers.append(args)

    def _send(self, rank: int, *payload) -> None:
        """Stream one rank's share of a block's inputs host→device."""
        raise NotImplementedError

    def _alloc_block(self, rank: int, input_bytes: int,
                     activation_bytes: int) -> None:
        """Reserve a block's inputs + activations on the rank's device
        (freed when the block retires).  Raising
        :class:`~repro.errors.DeviceOOM` here is how the benchmark
        harness reproduces the paper's blank entries ("did not execute
        on small numbers of GPUs due to insufficient memory")."""
        self._handles.append((rank, self.cluster.device(rank).alloc(
            max(input_bytes + activation_bytes, 1), "block")))

    def _charge_sparse(self, rank: int, flops: float) -> None:
        """Charge delta-aware sparse FLOPs (forward + exact-backward
        estimate) onto one rank, remembering the seconds so the
        backward factor sweep does not re-multiply them."""
        self._reuse_sparse_s[rank] += \
            self.cluster.device(rank).compute_sparse(flops)

    # -- the stages ---------------------------------------------------------------------
    def load_block(self, lo: int, hi: int) -> None:
        """Reserve and stream timesteps ``[lo, hi)`` to their ranks."""
        raise NotImplementedError

    def charge_aggregate(self, idx: int, t: int,
                         call: AggregateCall | None) -> None:
        """Layer ``idx``'s GCN stage at timestep ``t``; ``call`` is the
        reuse cache's record of the product (``None`` = always-full)."""
        raise NotImplementedError

    def charge_recurrence(self, idx: int, count: int) -> None:
        """Layer ``idx``'s recurrence over a ``count``-timestep block.

        ``evolve``: every rank replays the tiny weight evolution over
        its replicated weights (§5.5) — before the layer's GCN stage,
        which consumes the evolved weights.  ``gcn_rnn``: the per-vertex
        RNN, after the GCN stage that feeds it."""
        if self.model.kind == "evolve":
            flops = self.model.rnn_flops_per_step(self.n) * count
            for device in self.cluster.devices:
                device.compute_dense(flops / max(self.model.num_layers, 1))
        else:
            self._charge_rnn(idx, count)

    def _charge_rnn(self, idx: int, count: int) -> None:
        """The row-independent RNN: each rank pays for the vertex rows
        it holds (``row_chunks``; a gcn_rnn model under hybrid has one
        group, so there too a rank is a row block)."""
        for rank in range(self.num_ranks):
            rows = self.row_chunks.size(rank)
            if rows:
                self.cluster.device(rank).compute_dense(
                    self.model.rnn_flops_per_step(rows) * count)

    def restore(self, xs: list[Tensor]) -> list[Tensor]:
        """Block embeddings in the task's (original) vertex ids."""
        return xs

    def charge_head(self, lo: int, hi: int) -> None:
        """The task head over the block's embeddings."""
        raise NotImplementedError

    def retire_block(self) -> None:
        for rank, handle in self._handles:
            self.cluster.device(rank).free(handle)
        self._handles.clear()

    def charge_backward(self) -> None:
        """The backward sweep: ``backward_compute_factor`` × the forward
        compute (reuse-charged sparse seconds already carry their exact
        backward), every exchange transposed and — under checkpointing
        — every block transfer again."""
        for rank, clock in enumerate(self.cluster.clocks):
            fwd = clock.breakdown.compute - self._reuse_sparse_s[rank]
            clock.advance("compute", self.cfg.backward_compute_factor * fwd)
        for matrix, label, full in self._exchanges:
            self._exchange(matrix.T, label,
                           full.T if full is not None else None,
                           record=False)
        # checkpointing is more than one *effective* block: ``ranges``
        # holds min(num_blocks, train_t) of them
        if len(self.ranges) > 1:
            for args in self._transfers:
                self._send(*args)


class _SnapshotPlan(_Plan):
    """§4.2: ranks own contiguous timesteps of each block; the RNN is
    reached through two all-to-all redistributions per layer."""

    def __init__(self, trainer, diffs) -> None:
        super().__init__(trainer, diffs)
        # the redistribution target: N/P contiguous rows per rank
        self.row_chunks = VertexChunks.uniform(self.n, self.num_ranks)

    def _send(self, rank: int, snaps: list[GraphSnapshot],
              frame_bytes: int) -> None:
        engine = self.cluster.transfer(rank)
        device = self.cluster.device(rank)
        if self.cfg.use_graph_difference:
            engine.send_block_gd(device, snaps)
        else:
            engine.send_block_naive(device, snaps)
        if frame_bytes:
            engine.send_dense(device, frame_bytes)

    def load_block(self, lo: int, hi: int) -> None:
        self._lo = lo
        self._owner = np.empty(hi - lo, dtype=np.int64)
        for r, (s, e) in enumerate(contiguous_chunks(hi - lo,
                                                     self.num_ranks)):
            self._owner[s:e] = r
            snaps = self.snapshots[lo + s:lo + e]
            frame_bytes = sum(f.size * WIRE_FLOAT_BYTES
                              for f in self.frames[lo + s:lo + e])
            # forward activations + gradient buffers live together
            # during backward (factor 2); baseline (nb=1) therefore
            # holds the whole timeline's activations at once
            self._alloc_block(r, sum(sn.nbytes for sn in snaps) +
                              frame_bytes, 2 * (e - s) * self.act_per_step)
            if snaps or frame_bytes:
                self._transfer(r, snaps, frame_bytes)

    def charge_aggregate(self, idx, t, call) -> None:
        rank = int(self._owner[t - self._lo])
        device = self.cluster.device(rank)
        sparse, dense = self.model.gcn_layer(idx).flops(
            self.laplacians[t].nnz, self.n)
        if call is None:
            device.compute_sparse(sparse)
        else:
            self._charge_sparse(rank,
                                call.forward_flops + call.backward_flops)
        device.compute_dense(dense)

    def _charge_rnn(self, idx: int, count: int) -> None:
        # redistribution 1: snapshot layout -> vertex-chunk layout
        steps_of = np.bincount(self._owner, minlength=self.num_ranks)
        sizes = [self.row_chunks.size(q) for q in range(self.num_ranks)]
        matrix = np.outer(steps_of, sizes) * \
            self.model.gcn_layer(idx).output_dim * WIRE_FLOAT_BYTES
        self._exchange(matrix, "redistribution")
        # The RNN is row-independent, so executing it monolithically is
        # mathematically identical to running it per vertex chunk (the
        # paper's §6.4 faithful-simulation argument); per-rank time is
        # still charged chunk-by-chunk.
        super()._charge_rnn(idx, count)
        # redistribution 2: back to snapshot layout for the next layer
        self._exchange(matrix.T, "redistribution")

    def charge_head(self, lo: int, hi: int) -> None:
        flops = self.task.head_flops_per_step()
        for rank in self._owner:
            self.cluster.device(int(rank)).compute_dense(flops)

    def retire_block(self) -> None:
        super().retire_block()
        if len(self.ranges) > 1:
            # the π_b carry stays resident until backward (§3.1)
            for device in self.cluster.devices:
                device.alloc(max(self.act_per_step // 4, 1), "carry")


class _RowSplitPlan(_Plan):
    """Snapshots split row-wise across cooperating ranks (all of them
    under vertex partitioning, one group under hybrid): every SpMM
    first exchanges the input rows its row blocks read remotely, then
    each member multiplies and projects its own rows."""

    def _split_rows(self, chunks: VertexChunks) -> None:
        """Per-snapshot nnz within each member's row block."""
        self.row_chunks = chunks
        self.row_nnz = [[int(lap.csr.indptr[hi] - lap.csr.indptr[lo])
                         for lo, hi in chunks.ranges]
                        for lap in self.laplacians]

    def _members(self, t: int):
        """Ranks cooperating on timestep ``t``, in row-block order."""
        raise NotImplementedError

    def _send(self, rank: int, nbytes: int) -> None:
        # a member's row share streams raw (no per-rank GD chain)
        engine = self.cluster.transfer(rank)
        engine.h2d(self.cluster.device(rank), nbytes)
        engine.stats.snapshot_bytes_naive_equivalent += nbytes

    def _charge_gather(self, t: int, feat: int,
                       halo_rows: np.ndarray | None) -> None:
        """Charge the input-row exchange ahead of one SpMM.

        ``halo_rows`` (delta-aware mode) are the input rows whose
        values changed since the previous timestep: members mirror
        remote rows across timesteps, so only those rows move — the
        full exchange is recorded as the event's full-equivalent
        volume.  ``None`` ships everything (the always-full baseline, a
        chain reset, or an unknown delta)."""
        raise NotImplementedError

    def charge_aggregate(self, idx, t, call) -> None:
        gcn = self.model.gcn_layer(idx)
        feat = gcn.in_features
        self._charge_gather(t, feat,
                            call.halo_rows if call is not None else None)
        if call is not None:
            shares = AggregationCache.rank_sparse_flops(
                call, self.laplacians[t], self.row_chunks.ranges)
        for i, rank in enumerate(self._members(t)):
            device = self.cluster.device(rank)
            if call is None:
                device.compute_sparse(2.0 * self.row_nnz[t][i] * feat)
            else:
                self._charge_sparse(rank, shares[i])
            device.compute_dense(2.0 * self.row_chunks.size(i) * feat *
                                 gcn.out_features)

    def charge_head(self, lo: int, hi: int) -> None:
        flops = self.task.head_flops_per_step() / self.num_ranks
        for device in self.cluster.devices:
            device.compute_dense(flops * (hi - lo))


class _VertexPlan(_RowSplitPlan):
    """§4.1: ranks own hypergraph-partitioned, consecutively renamed
    vertex sets; the RNN is free, every SpMM pays an irregular
    send-list exchange."""

    def __init__(self, trainer, diffs) -> None:
        """§4.1 preprocessing: partition, rename, precompute send lists.

        All of this happens once before training (the paper charges it
        as preprocessing, not per-epoch time)."""
        super().__init__(trainer, diffs)
        cfg = self.cfg
        if cfg.vertex_method == "hypergraph":
            self.vpart = hypergraph_vertex_partition(
                DTDG(self.snapshots[:self.train_t], name="train"),
                self.num_ranks, seed=cfg.seed)
        else:
            self.vpart = random_vertex_partition(self.n, self.num_ranks,
                                                 seed=cfg.seed)
        # the operator space the numerics run in: renamed snapshots /
        # Laplacians (+ their GD deltas, for the reuse cache) / features
        self.snapshots = [
            GraphSnapshot(self.n, self.vpart.rename_edges(snap.edges),
                          snap.values) for snap in self.snapshots]
        self.laplacians, self.diffs = compute_laplacians_with_diffs(
            DTDG(self.snapshots, name="renamed"),
            backend=trainer.kernel_backend)
        old_of_new = np.argsort(self.vpart.perm)
        self.frames = [Tensor(f.data[old_of_new]) for f in self.frames]
        self.comm_plans = [SnapshotCommPlan.build(lap, self.vpart)
                           for lap in self.laplacians[:self.train_t]]
        self._split_rows(self.vpart.chunks)

    def _members(self, t: int):
        return range(self.num_ranks)

    def _exchange(self, matrix, label, full_equivalent=None,
                  record=True) -> None:
        """The irregular exchange also pays per-byte gather/scatter
        packing plus per-peer message setup on both ends."""
        super()._exchange(matrix, label, full_equivalent, record)
        peers = matrix > 0
        volume = matrix.sum(axis=1) + matrix.sum(axis=0)
        messages = peers.sum(axis=1) + peers.sum(axis=0)
        for r in range(self.num_ranks):
            seconds = \
                float(volume[r]) * self.cfg.packing_overhead_per_byte + \
                float(messages[r]) * self.cfg.vertex_message_overhead
            if seconds > 0:
                self.cluster.clocks[r].advance("comm", seconds)

    def _charge_gather(self, t, feat, halo_rows) -> None:
        plan = self.comm_plans[t]
        full = plan.bytes_matrix(feat)
        self._exchange(full if halo_rows is None
                       else plan.bytes_matrix_rows(feat, halo_rows),
                       "redistribution", full)

    def load_block(self, lo: int, hi: int) -> None:
        # transfer: each rank streams its row share of the block
        block = range(lo, hi)
        total_nnz = sum(max(self.laplacians[t].nnz, 1) for t in block)
        snap_bytes = sum(self.snapshots[t].nbytes for t in block)
        frame_bytes = sum(self.frames[t].size * WIRE_FLOAT_BYTES
                          for t in block)
        for r in range(self.num_ranks):
            rows = self.row_chunks.size(r)
            share = sum(self.row_nnz[t][r] for t in block)
            nbytes = int(snap_bytes * share / total_nnz +
                         frame_bytes * rows / self.n)
            self._alloc_block(
                r, nbytes, 2 * (hi - lo) * self.act_per_step * rows // self.n)
            self._transfer(r, nbytes)

    def restore(self, xs):
        return [x[self.vpart.perm] for x in xs]


class _HybridPlan(_RowSplitPlan):
    """§6.5: snapshots partitioned across groups, each split row-wise
    within its group behind a per-snapshot all-gather."""

    def __init__(self, trainer, diffs) -> None:
        super().__init__(trainer, diffs)
        cfg = self.cfg
        if self.num_ranks % cfg.group_size != 0:
            raise PartitionError("group_size must divide num_ranks")
        self.layout = hybrid_partition(
            self.train_t, self.n, self.num_ranks, cfg.group_size,
            num_blocks=cfg.num_blocks if cfg.num_blocks > 1 else None)
        if self.layout.num_groups > 1 and self.model.kind == "gcn_rnn":
            raise ConfigError(
                "hybrid partitioning with multiple groups is implemented "
                "for EvolveGCN only; gcn_rnn models need a single group "
                "(the paper's §6.5 configuration)")
        self._owner = self.layout.timestep_assignment.owner_map()
        self._split_rows(self.layout.row_chunks)
        # the groups' row shares stay resident for the whole epoch: one
        # block, never re-streamed by the backward
        self.ranges = [(0, self.train_t)]

    def _members(self, t: int):
        return self.layout.groups[int(self._owner[t])]

    def _charge_gather(self, t, feat, halo_rows) -> None:
        # intra-group all-gather of X_t row blocks; delta-aware
        # members mirror each other's rows across timesteps and
        # gather only the rows that changed since t-1
        members = self._members(t)
        full = np.zeros((self.num_ranks, self.num_ranks))
        matrix = np.zeros((self.num_ranks, self.num_ranks))
        for i, src in enumerate(members):
            c_lo, c_hi = self.row_chunks.ranges[i]
            changed = c_hi - c_lo if halo_rows is None else \
                int(np.searchsorted(halo_rows, c_hi) -
                    np.searchsorted(halo_rows, c_lo))
            for dst in members:
                if dst != src:
                    full[src, dst] = (c_hi - c_lo) * feat * WIRE_FLOAT_BYTES
                    matrix[src, dst] = changed * feat * WIRE_FLOAT_BYTES
        self._exchange(matrix, "allgather", full)

    def load_block(self, lo: int, hi: int) -> None:
        # transfer: each member streams its row share of owned snapshots
        g_size = self.cfg.group_size
        for t in range(lo, hi):
            total_nnz = max(self.laplacians[t].nnz, 1)
            for i, rank in enumerate(self._members(t)):
                nbytes = int(
                    self.snapshots[t].nbytes * (self.row_nnz[t][i] /
                                                total_nnz) +
                    self.frames[t].size * WIRE_FLOAT_BYTES / g_size)
                # row share of the snapshot + this member's activation
                # slice stay resident for the backward pass
                self._alloc_block(rank, nbytes,
                                  2 * self.act_per_step // g_size)
                self._send(rank, nbytes)

    def retire_block(self) -> None:
        # resident until the end-of-epoch free_all
        self._handles.clear()


_PLANS = {"snapshot": _SnapshotPlan, "vertex": _VertexPlan,
          "hybrid": _HybridPlan}


class DistributedTrainer:
    """Drives one model over one DTDG on a simulated cluster."""

    def __init__(self, model: DynamicGNN, dtdg: DTDG, task,
                 cluster: Cluster, config: DistConfig, *,
                 telemetry: Telemetry | None = None,
                 kernel_backend=None) -> None:
        self.model = model
        self.task = task
        self.cluster = cluster
        self.config = config
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        if dtdg.features is None:
            dtdg.set_features(degree_features(dtdg))
        self.dtdg = dtdg
        self.num_ranks = cluster.num_ranks
        self.train_t = task.num_train_timesteps
        if self.train_t < 1:
            raise ConfigError("no training timesteps")

        # one kernel backend for every operator this trainer multiplies
        # through (renamed operators included — _VertexPlan reads it)
        self.kernel_backend = kernel_backend
        self.laplacians, diffs = \
            compute_laplacians_with_diffs(dtdg, backend=kernel_backend)
        self.frames = [Tensor(f) for f in dtdg.features]
        self.plan: _Plan = _PLANS[config.partitioning](self, diffs)

        # cross-timestep reuse cache over whichever operator space the
        # plan multiplies in (renamed for vertex partitioning)
        self.reuse: AggregationCache | None = None
        if config.reuse_aggregation:
            self.reuse = AggregationCache(
                self.plan.laplacians, self.plan.diffs, self.plan.snapshots,
                model.reuse_profile(), crossover=config.reuse_crossover)

        params = model.parameters() + task.head.parameters()
        self.optimizer = Adam(params, lr=config.learning_rate)
        self._grad_nbytes = sum(p.nbytes for p in params)

    @classmethod
    def from_store(cls, model: DynamicGNN, store, task_factory,
                   cluster: Cluster, config: DistConfig, *,
                   start: int = 0, stop: int | None = None,
                   telemetry: Telemetry | None = None,
                   kernel_backend=None) -> "DistributedTrainer":
        """Train over a :class:`~repro.store.store.GraphStore` window
        (lazy :class:`~repro.store.store.StoreView`) instead of an
        in-memory DTDG; ``task_factory(dtdg)`` builds the task over the
        view."""
        view = store.window(start, stop)
        return cls(model, view, task_factory(view), cluster, config,
                   telemetry=telemetry, kernel_backend=kernel_backend)

    # ------------------------------------------------------------------
    # the one forward
    # ------------------------------------------------------------------
    def _aggregate(self, idx: int, t: int, lap: SparseMatrix,
                   x: Tensor) -> Tensor:
        """The model's aggregation hook for the epoch: the product
        through the reuse cache (plain SpMM without one), then the
        plan's charge for what that call cost each rank."""
        call = None
        if self.reuse is None:
            out = spmm(lap, x)
        else:
            out = self.reuse.aggregate(idx, t, lap, x)
            call = self.reuse.last_call
        self.plan.charge_aggregate(idx, t, call)
        return out

    def _epoch_forward(self) -> tuple[Tensor, Tensor | None]:
        """The sequential algorithm, block by block and layer by layer,
        with the plan charging each stage as it runs."""
        plan, model = self.plan, self.model
        evolve = model.kind == "evolve"
        carry = model.init_carry(self.dtdg.num_vertices)
        total_loss: Tensor | None = None
        last_embedding: Tensor | None = None
        for lo, hi in plan.ranges:
            plan.load_block(lo, hi)
            laps, xs = plan.laplacians[lo:hi], list(plan.frames[lo:hi])
            for idx in range(model.num_layers):
                # order is part of the ledger (collectives barrier the
                # clocks): the replicated weight evolution precedes an
                # evolve layer's GCN stage, redistribution → RNN →
                # redistribution follows a gcn_rnn layer's
                if evolve:
                    plan.charge_recurrence(idx, hi - lo)
                xs, carry[idx] = model.layer_block(idx, laps, xs,
                                                   carry[idx], lo)
                if not evolve:
                    plan.charge_recurrence(idx, hi - lo)
            # the loss reads embeddings in original vertex ids
            outs = plan.restore(xs)
            block_loss = self.task.loss_block(outs, lo)
            plan.charge_head(lo, hi)
            if block_loss is not None:
                total_loss = block_loss if total_loss is None \
                    else total_loss + block_loss
            if hi == self.train_t:
                last_embedding = outs[-1]
            plan.retire_block()
        if total_loss is None:
            raise ConfigError("epoch produced no loss terms")
        return total_loss, last_embedding

    # ------------------------------------------------------------------
    # epoch driver
    # ------------------------------------------------------------------
    def train_epoch(self) -> EpochResult:
        cfg = self.config
        self.cluster.reset()
        self.plan.begin_epoch()
        self.optimizer.zero_grad()
        if self.reuse is not None:
            self.reuse.begin_epoch()
            # the cache's resident products are sharded by row
            # ownership in a real delta-aware execution: hold each
            # rank's share on its ledger for the epoch (retired by the
            # end-of-epoch free_all with the carries and row shares)
            share = max(self.reuse.resident_nbytes // self.num_ranks, 1)
            for device in self.cluster.devices:
                device.alloc(share, "reuse-cache")

        t0 = time.perf_counter()
        self.model.set_aggregation_hook(self._aggregate)
        try:
            with self.telemetry.trace("train.forward",
                                      partitioning=cfg.partitioning,
                                      ranks=self.num_ranks):
                loss, last_embed = self._epoch_forward()
            forward_wall = time.perf_counter() - t0
            with self.telemetry.trace("train.backward"):
                tape_nodes = loss.backward()
        finally:
            self.model.set_aggregation_hook(None)
            if self.reuse is not None:
                self.reuse.release()
        self.plan.charge_backward()

        # end-of-epoch gradient aggregation (replicated weights, §5.5)
        self.cluster.comm.all_reduce_sum(
            [np.zeros(max(self._grad_nbytes // 8, 1))
             for _ in range(self.num_ranks)], label="gradient")
        self.optimizer.step()

        transfer_bytes = sum(t.stats.bytes_moved for t in
                             self.cluster.transfers)
        naive_equiv = sum(t.stats.snapshot_bytes_naive_equivalent
                          for t in self.cluster.transfers)
        breakdown = self.cluster.breakdown
        for device in self.cluster.devices:  # retire carries & row shares
            device.free_all()
        agg_flops = agg_full = 0.0
        if self.reuse is not None:
            agg_flops = self.reuse.stats.forward_flops
            agg_full = self.reuse.stats.full_equivalent_flops
        result = EpochResult(
            loss=loss.item(),
            breakdown=breakdown,
            test_accuracy=self._test_accuracy(last_embed),
            comm_volume_units=(
                self.cluster.comm.volume_units("redistribution") +
                self.cluster.comm.volume_units("allgather")),
            gradient_volume_units=self.cluster.comm.volume_units("gradient"),
            transfer_bytes=transfer_bytes,
            transfer_naive_equivalent_bytes=naive_equiv,
            peak_memory_bytes=self.cluster.peak_memory(),
            forward_wall_s=forward_wall,
            comm_volume_full_units=(
                self.cluster.comm.full_equivalent_units("redistribution") +
                self.cluster.comm.full_equivalent_units("allgather")),
            agg_flops=agg_flops,
            agg_flops_full_equivalent=agg_full,
            tape_nodes=tape_nodes,
        )
        collect_epoch_metrics(self.telemetry, result,
                              self.reuse.stats if self.reuse is not None
                              else None)
        self.cluster.comm.collect_metrics(self.telemetry.registry)
        return result

    def _test_accuracy(self, last_embed: Tensor | None) -> float:
        if last_embed is None:
            return float("nan")
        if isinstance(self.task, LinkPredictionTask):
            return self.task.test_accuracy(last_embed)
        return float("nan")

    def fit(self, epochs: int) -> list[EpochResult]:
        return [self.train_epoch() for _ in range(epochs)]
