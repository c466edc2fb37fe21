"""Distributed training engines (paper §4) on the simulated cluster.

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
from repro.partition.vertex_part import (SnapshotCommPlan, VertexPartition,
                                         hypergraph_vertex_partition,
                                         random_vertex_partition)
from repro.tensor import Adam, Tensor, ops
from repro.tensor.sparse import WIRE_FLOAT_BYTES
from repro.train.metrics import EpochResult, collect_epoch_metrics
from repro.train.preprocess import (compute_laplacians,
                                    compute_laplacians_with_diffs,
                                    degree_features)
from repro.train.reuse import AggregationCache
from repro.train.tasks import LinkPredictionTask

__all__ = ["DistConfig", "DistributedTrainer"]


@dataclass(frozen=True)
class DistConfig:
    """Distributed-training knobs.

    ``partitioning`` selects the engine (``"snapshot"``, ``"vertex"``,
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
    precompute_first_layer: bool = False
    # cross-timestep aggregation reuse (repro.train.reuse): patch
    # delta-touched rows of each Ã·X instead of recomputing in full,
    # charge the simulated devices for the rows actually recomputed,
    # and — under vertex/hybrid partitioning — shrink the halo
    # exchanges to the delta-touched boundary rows
    reuse_aggregation: bool = False
    reuse_crossover: float = 0.35
    seed: int = 0

    def __post_init__(self) -> None:
        if self.partitioning not in ("snapshot", "vertex", "hybrid"):
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
        # through (renamed operators included — _setup_vertex reads it)
        self.kernel_backend = kernel_backend
        self.laplacians, self._lap_diffs = \
            compute_laplacians_with_diffs(dtdg, backend=kernel_backend)
        self.frames = [Tensor(f) for f in dtdg.features]

        if config.partitioning == "vertex":
            self._setup_vertex()
        elif config.partitioning == "hybrid":
            self._setup_hybrid()
        else:
            self._setup_snapshot()

        # cross-timestep reuse cache over whichever operator space the
        # engine multiplies in (renamed for vertex partitioning)
        self.reuse: AggregationCache | None = None
        if config.reuse_aggregation:
            if config.partitioning == "vertex":
                from repro.graph.diff import encode_sequence
                _, renamed_diffs = encode_sequence(self.renamed_snaps)
                self.reuse = AggregationCache(
                    self.renamed_laps, renamed_diffs, self.renamed_snaps,
                    model.reuse_profile(),
                    crossover=config.reuse_crossover)
            else:
                self.reuse = AggregationCache(
                    self.laplacians, self._lap_diffs, dtdg.snapshots,
                    model.reuse_profile(),
                    crossover=config.reuse_crossover)

        params = model.parameters() + task.head.parameters()
        self.optimizer = Adam(params, lr=config.learning_rate)
        self._grad_nbytes = sum(p.nbytes for p in params)
        self._replay_comm: list[np.ndarray] = []
        self._block_transfer_log: list = []
        # seconds of per-rank sparse compute charged by the reuse path
        # (forward + its exact backward estimate) — excluded from the
        # backward factor sweep, which would otherwise re-multiply them
        self._reuse_sparse_s = [0.0] * self.num_ranks

    @classmethod
    def from_store(cls, model: DynamicGNN, store, task_factory,
                   cluster: Cluster, config: DistConfig, *,
                   start: int = 0, stop: int | None = None
                   ) -> "DistributedTrainer":
        """Train over a :class:`~repro.store.store.GraphStore` window
        (lazy :class:`~repro.store.store.StoreView`) instead of an
        in-memory DTDG; ``task_factory(dtdg)`` builds the task over the
        view."""
        view = store.window(start, stop)
        return cls(model, view, task_factory(view), cluster, config)

    # ------------------------------------------------------------------
    # setup per partitioning scheme
    # ------------------------------------------------------------------
    def _setup_snapshot(self) -> None:
        self.vertex_chunks = VertexChunks.uniform(self.dtdg.num_vertices,
                                                  self.num_ranks)

    def _setup_vertex(self) -> None:
        """§4.1 preprocessing: partition, rename, precompute send lists.

        All of this happens once before training (the paper charges it
        as preprocessing, not per-epoch time)."""
        cfg = self.config
        n = self.dtdg.num_vertices
        train_view = DTDG(self.dtdg.snapshots[:self.train_t], name="train")
        if cfg.vertex_method == "hypergraph":
            self.vpart = hypergraph_vertex_partition(train_view,
                                                     self.num_ranks,
                                                     seed=cfg.seed)
        else:
            self.vpart = random_vertex_partition(n, self.num_ranks,
                                                 seed=cfg.seed)
        # renamed snapshots / Laplacians / features
        self.renamed_laps = []
        self.renamed_snaps = []
        for snap in self.dtdg.snapshots:
            renamed = GraphSnapshot(n, self.vpart.rename_edges(snap.edges),
                                    snap.values)
            self.renamed_snaps.append(renamed)
        self.renamed_laps = compute_laplacians(
            DTDG(self.renamed_snaps, name="renamed"),
            backend=self.kernel_backend)
        old_of_new = np.argsort(self.vpart.perm)
        self.renamed_frames = [Tensor(f.data[old_of_new])
                               for f in self.frames]
        self.comm_plans = [SnapshotCommPlan.build(lap, self.vpart)
                           for lap in self.renamed_laps[:self.train_t]]
        # per-rank row ranges and per-snapshot nnz shares
        self.row_nnz = []
        for lap in self.renamed_laps:
            indptr = lap.csr.indptr
            per_rank = []
            for p in range(self.num_ranks):
                lo, hi = self.vpart.chunks.ranges[p]
                per_rank.append(int(indptr[hi] - indptr[lo]))
            self.row_nnz.append(per_rank)

    def _setup_hybrid(self) -> None:
        cfg = self.config
        if self.num_ranks % cfg.group_size != 0:
            raise PartitionError("group_size must divide num_ranks")
        self.hplan = hybrid_partition(
            self.train_t, self.dtdg.num_vertices, self.num_ranks,
            cfg.group_size,
            num_blocks=cfg.num_blocks if cfg.num_blocks > 1 else None)
        if self.hplan.num_groups > 1 and self.model.kind == "gcn_rnn":
            raise ConfigError(
                "hybrid partitioning with multiple groups is implemented "
                "for EvolveGCN only; gcn_rnn models need a single group "
                "(the paper's §6.5 configuration)")
        # per-snapshot nnz within each member's row block
        self.hybrid_row_nnz = []
        for lap in self.laplacians:
            indptr = lap.csr.indptr
            per_member = []
            for i in range(cfg.group_size):
                lo, hi = self.hplan.row_chunks.ranges[i]
                per_member.append(int(indptr[hi] - indptr[lo]))
            self.hybrid_row_nnz.append(per_member)

    # ------------------------------------------------------------------
    # shared charging helpers
    # ------------------------------------------------------------------
    def _charge_a2a(self, matrix: np.ndarray, label: str,
                    record: bool = True,
                    full_equivalent: np.ndarray | None = None) -> None:
        self.cluster.comm.all_to_all_bytes(matrix, label=label,
                                           full_equivalent=full_equivalent)
        if record:
            self._replay_comm.append((matrix, label, full_equivalent))

    def _charge_sparse_rank(self, rank: int, flops: float) -> None:
        """Charge delta-aware sparse FLOPs (forward + exact-backward
        estimate) onto one rank, remembering the seconds so the
        backward factor sweep does not re-multiply them."""
        secs = self.cluster.device(rank).compute_sparse(flops)
        self._reuse_sparse_s[rank] += secs

    def _charge_packing(self, matrix: np.ndarray) -> None:
        """Irregular exchange overheads (vertex partitioning): per-byte
        gather/scatter packing plus per-peer message setup."""
        rate = self.config.packing_overhead_per_byte
        setup = self.config.vertex_message_overhead
        sent = matrix.sum(axis=1)
        received = matrix.sum(axis=0)
        sends = (matrix > 0).sum(axis=1)
        recvs = (matrix > 0).sum(axis=0)
        for r in range(self.num_ranks):
            seconds = float(sent[r] + received[r]) * rate + \
                float(sends[r] + recvs[r]) * setup
            if seconds > 0:
                self.cluster.clocks[r].advance("comm", seconds)

    def _charge_block_transfer(self, rank: int,
                               snaps: list[GraphSnapshot],
                               frame_bytes: int, use_gd: bool) -> None:
        engine = self.cluster.transfer(rank)
        device = self.cluster.device(rank)
        if use_gd:
            engine.send_block_gd(device, snaps)
        else:
            engine.send_block_naive(device, snaps)
        if frame_bytes:
            engine.send_dense(device, frame_bytes)

    def _account_block_memory(self, rank: int, input_bytes: int,
                              activation_bytes: int):
        """Reserve a block's inputs + activations on the rank's device.

        Returns the allocation handle (freed when the block retires).
        Raising :class:`~repro.errors.DeviceOOM` here is how the
        benchmark harness reproduces the paper's blank entries ("did not
        execute on small numbers of GPUs due to insufficient memory")."""
        device = self.cluster.device(rank)
        return device.alloc(max(input_bytes + activation_bytes, 1), "block")

    # ------------------------------------------------------------------
    # snapshot engine (§4.2)
    # ------------------------------------------------------------------
    def _snapshot_epoch_forward(self) -> tuple[Tensor, Tensor]:
        cfg = self.config
        p_count = self.num_ranks
        nb = min(cfg.num_blocks, self.train_t)
        ranges = block_ranges(self.train_t, nb)
        chunks = self.vertex_chunks
        n = self.dtdg.num_vertices

        if self.model.kind == "evolve":
            wstates = self.model.init_carry(n)
        else:
            # The RNN is row-independent, so executing it monolithically
            # is mathematically identical to running it per vertex chunk
            # (the paper's §6.4 faithful-simulation argument); per-rank
            # time is still charged chunk-by-chunk below.
            rnn_states = [self.model.rnn_init(idx, n)
                          for idx in range(self.model.num_layers)]

        total_loss: Tensor | None = None
        last_embedding: Tensor | None = None
        act_per_step = self.model.activation_bytes_per_step(n)
        for lo, hi in ranges:
            local = contiguous_chunks(hi - lo, p_count)
            owner = np.empty(hi - lo, dtype=np.int64)
            block_handles = []
            for r, (s, e) in enumerate(local):
                owner[s:e] = r
                snaps = [self.dtdg.snapshots[lo + t] for t in range(s, e)]
                frame_bytes = sum(self.frames[lo + t].size *
                                  WIRE_FLOAT_BYTES for t in range(s, e))
                input_bytes = sum(sn.nbytes for sn in snaps) + frame_bytes
                # forward activations + gradient buffers live together
                # during backward (factor 2); baseline (nb=1) therefore
                # holds the whole timeline's activations at once
                block_handles.append(self._account_block_memory(
                    r, input_bytes, 2 * (e - s) * act_per_step))
                if snaps or frame_bytes:
                    self._charge_block_transfer(
                        r, snaps, frame_bytes, cfg.use_graph_difference)
                    self._block_transfer_log.append(
                        (r, snaps, frame_bytes, cfg.use_graph_difference))

            xs = list(self.frames[lo:hi])
            if self.model.kind == "evolve":
                xs, wstates = self._evolve_block(lo, hi, xs, owner, wstates)
            else:
                for idx in range(self.model.num_layers):
                    xs, rnn_states[idx] = self._gcn_rnn_layer_block(
                        idx, lo, hi, xs, owner, rnn_states[idx])

            block_loss = self.task.loss_block(xs, lo)
            head_flops = self.task.head_flops_per_step()
            for i in range(hi - lo):
                self.cluster.device(int(owner[i])).compute_dense(head_flops)
            if block_loss is not None:
                total_loss = block_loss if total_loss is None \
                    else total_loss + block_loss
            if hi == self.train_t:
                last_embedding = xs[-1]
            for r, handle in enumerate(block_handles):
                self.cluster.device(r).free(handle)
                if cfg.num_blocks > 1:
                    # the π_b carry stays resident until backward (§3.1)
                    self.cluster.device(r).alloc(
                        max(act_per_step // 4, 1), "carry")
        if total_loss is None:
            raise ConfigError("epoch produced no loss terms")
        return total_loss, last_embedding

    def _evolve_block(self, lo, hi, xs, owner, wstates):
        """EvolveGCN: replicated weight evolution + local GCN (§5.5)."""
        n = self.dtdg.num_vertices
        count = hi - lo
        for idx in range(self.model.num_layers):
            weights, wstates[idx] = self.model.evolve_weights(
                idx, count, wstates[idx])
            rnn_flops = self.model.rnn_flops_per_step(n) * count
            for device in self.cluster.devices:
                device.compute_dense(rnn_flops /
                                     max(self.model.num_layers, 1))
            new_xs = []
            for i in range(count):
                t = lo + i
                lap = self.laplacians[t]
                sparse, dense = self.model.gcn_layer(idx).flops(lap.nnz, n)
                device = self.cluster.device(int(owner[i]))
                agg = None
                if self.reuse is not None:
                    agg = self.reuse.aggregate(idx, t, lap, xs[i])
                    call = self.reuse.last_call
                    self._charge_sparse_rank(
                        int(owner[i]),
                        call.forward_flops + call.backward_flops)
                else:
                    device.compute_sparse(sparse)
                device.compute_dense(dense)
                new_xs.append(self.model.gcn_layer(idx).forward_with_weight(
                    lap, xs[i], weights[i], precomputed=agg))
            xs = new_xs
        return xs, wstates

    def _gcn_rnn_layer_block(self, idx, lo, hi, xs, owner, layer_states):
        """One GCN stage + redistribution + RNN + redistribution (§4.2)."""
        p_count = self.num_ranks
        chunks = self.vertex_chunks
        n = self.dtdg.num_vertices
        count = hi - lo

        ys = []
        for i in range(count):
            t = lo + i
            lap = self.laplacians[t]
            sparse, dense = self.model.gcn_layer(idx).flops(lap.nnz, n)
            device = self.cluster.device(int(owner[i]))
            agg = None
            if self.reuse is not None:
                agg = self.reuse.aggregate(idx, t, lap, xs[i])
                call = self.reuse.last_call
                self._charge_sparse_rank(
                    int(owner[i]),
                    call.forward_flops + call.backward_flops)
            else:
                device.compute_sparse(sparse)
            device.compute_dense(dense)
            ys.append(self.model.gcn_forward(idx, lap, xs[i],
                                             precomputed=agg))
        feat = ys[0].shape[1]

        # redistribution 1: snapshot layout -> vertex-chunk layout
        matrix = np.zeros((p_count, p_count))
        steps_of = np.bincount(owner, minlength=p_count)
        for src in range(p_count):
            for dst in range(p_count):
                matrix[src, dst] = (steps_of[src] * chunks.size(dst) *
                                    feat * WIRE_FLOAT_BYTES)
        self._charge_a2a(matrix, "redistribution")

        # RNN over vertex chunks: charge each rank for its rows, execute
        # the row-independent numerics once (identical results)
        for q in range(p_count):
            rows = chunks.size(q)
            if rows:
                self.cluster.device(q).compute_dense(
                    self.model.rnn_flops_per_step(rows) * count)
        zs, new_state = self.model.rnn_block(idx, ys, layer_states)

        # redistribution 2: back to snapshot layout for the next layer
        self._charge_a2a(matrix.T, "redistribution")
        return zs, new_state

    # ------------------------------------------------------------------
    # vertex engine (§4.1)
    # ------------------------------------------------------------------
    def _vertex_epoch_forward(self) -> tuple[Tensor, Tensor]:
        cfg = self.config
        p_count = self.num_ranks
        nb = min(cfg.num_blocks, self.train_t)
        ranges = block_ranges(self.train_t, nb)
        n = self.dtdg.num_vertices
        sizes = [self.vpart.chunks.size(p) for p in range(p_count)]

        if self.model.kind == "evolve":
            wstates = self.model.init_carry(n)
        else:
            rnn_states = [self.model.rnn_init(idx, n)
                          for idx in range(self.model.num_layers)]

        total_loss: Tensor | None = None
        last_embedding: Tensor | None = None
        act_per_step = self.model.activation_bytes_per_step(n)
        for lo, hi in ranges:
            # transfer: each rank streams its row share of the block
            block_handles = []
            for r in range(p_count):
                share = sum(self.row_nnz[t][r] for t in range(lo, hi))
                total_nnz = sum(max(self.renamed_laps[t].nnz, 1)
                                for t in range(lo, hi))
                snap_bytes = sum(self.renamed_snaps[t].nbytes
                                 for t in range(lo, hi))
                frame_bytes = sum(self.renamed_frames[t].size *
                                  WIRE_FLOAT_BYTES
                                  for t in range(lo, hi))
                nbytes = int(snap_bytes * share / total_nnz +
                             frame_bytes * sizes[r] / n)
                act_bytes = 2 * (hi - lo) * act_per_step * sizes[r] // n
                block_handles.append(self._account_block_memory(
                    r, nbytes, act_bytes))
                engine = self.cluster.transfer(r)
                engine.h2d(self.cluster.device(r), nbytes)
                engine.stats.snapshot_bytes_naive_equivalent += nbytes
                self._block_transfer_log.append(
                    ("raw", r, nbytes))

            xs = list(self.renamed_frames[lo:hi])
            if self.model.kind == "evolve":
                xs, wstates = self._vertex_evolve_block(lo, hi, xs, wstates)
            else:
                for idx in range(self.model.num_layers):
                    xs, rnn_states[idx] = self._vertex_layer_block(
                        idx, lo, hi, xs, rnn_states[idx])

            # loss computed on embeddings mapped back to original ids
            orig = [x[self.vpart.perm] for x in xs]
            block_loss = self.task.loss_block(orig, lo)
            head_flops = self.task.head_flops_per_step() / p_count
            for device in self.cluster.devices:
                device.compute_dense(head_flops * (hi - lo))
            if block_loss is not None:
                total_loss = block_loss if total_loss is None \
                    else total_loss + block_loss
            if hi == self.train_t:
                last_embedding = orig[-1]
            for r, handle in enumerate(block_handles):
                self.cluster.device(r).free(handle)
        if total_loss is None:
            raise ConfigError("epoch produced no loss terms")
        return total_loss, last_embedding

    def _vertex_spmm_comm(self, t: int, feat: int,
                          halo_rows: np.ndarray | None = None) -> None:
        """Charge one SpMM's neighbor-row exchange.

        ``halo_rows`` (delta-aware mode) are the renamed input rows
        whose values changed since the previous timestep: receivers
        mirror remote rows across timesteps, so only the changed
        send-list rows move — the full exchange is recorded as the
        event's full-equivalent volume.  ``None`` ships everything (the
        always-full baseline, a chain reset, or an unknown delta).
        """
        plan = self.comm_plans[t]
        full = plan.bytes_matrix(feat)
        if halo_rows is None:
            self._charge_a2a(full, "redistribution")
            self._charge_packing(full)
            return
        matrix = plan.bytes_matrix_rows(feat, halo_rows)
        self._charge_a2a(matrix, "redistribution", full_equivalent=full)
        self._charge_packing(matrix)

    def _vertex_layer_block(self, idx, lo, hi, xs, layer_states):
        p_count = self.num_ranks
        gcn = self.model.gcn_layer(idx)
        ys = []
        for i, t in enumerate(range(lo, hi)):
            lap = self.renamed_laps[t]
            agg = None
            if self.reuse is not None:
                agg = self.reuse.aggregate(idx, t, lap, xs[i])
                call = self.reuse.last_call
                self._vertex_spmm_comm(t, gcn.in_features,
                                       halo_rows=call.halo_rows)
                per_rank = AggregationCache.rank_sparse_flops(
                    call, lap, self.vpart.chunks.ranges)
                for r in range(p_count):
                    self._charge_sparse_rank(r, per_rank[r])
            else:
                self._vertex_spmm_comm(t, gcn.in_features)
            for r in range(p_count):
                rows = self.vpart.chunks.size(r)
                dense = 2.0 * rows * gcn.in_features * gcn.out_features
                device = self.cluster.device(r)
                if self.reuse is None:
                    device.compute_sparse(
                        2.0 * self.row_nnz[t][r] * gcn.in_features)
                device.compute_dense(dense)
            ys.append(self.model.gcn_forward(idx, lap, xs[i],
                                             precomputed=agg))

        # RNN: communication-free; charge each rank for its own vertices,
        # execute the row-independent numerics once (identical results)
        for q in range(p_count):
            rows = self.vpart.chunks.size(q)
            if rows:
                self.cluster.device(q).compute_dense(
                    self.model.rnn_flops_per_step(rows) * len(ys))
        zs, new_state = self.model.rnn_block(idx, ys, layer_states)
        return zs, new_state

    def _vertex_evolve_block(self, lo, hi, xs, wstates):
        n = self.dtdg.num_vertices
        count = hi - lo
        for idx in range(self.model.num_layers):
            gcn = self.model.gcn_layer(idx)
            weights, wstates[idx] = self.model.evolve_weights(
                idx, count, wstates[idx])
            for device in self.cluster.devices:
                device.compute_dense(
                    self.model.rnn_flops_per_step(n) * count /
                    max(self.model.num_layers, 1))
            new_xs = []
            for i, t in enumerate(range(lo, hi)):
                lap = self.renamed_laps[t]
                agg = None
                if self.reuse is not None:
                    agg = self.reuse.aggregate(idx, t, lap, xs[i])
                    call = self.reuse.last_call
                    self._vertex_spmm_comm(t, gcn.in_features,
                                           halo_rows=call.halo_rows)
                    per_rank = AggregationCache.rank_sparse_flops(
                        call, lap, self.vpart.chunks.ranges)
                    for r in range(self.num_ranks):
                        self._charge_sparse_rank(r, per_rank[r])
                else:
                    self._vertex_spmm_comm(t, gcn.in_features)
                for r in range(self.num_ranks):
                    rows = self.vpart.chunks.size(r)
                    device = self.cluster.device(r)
                    if self.reuse is None:
                        device.compute_sparse(
                            2.0 * self.row_nnz[t][r] * gcn.in_features)
                    device.compute_dense(
                        2.0 * rows * gcn.in_features * gcn.out_features)
                new_xs.append(gcn.forward_with_weight(
                    lap, xs[i], weights[i], precomputed=agg))
            xs = new_xs
        return xs, wstates

    # ------------------------------------------------------------------
    # hybrid engine (§6.5)
    # ------------------------------------------------------------------
    def _hybrid_epoch_forward(self) -> tuple[Tensor, Tensor]:
        cfg = self.config
        plan = self.hplan
        n = self.dtdg.num_vertices
        g_size = cfg.group_size
        owner_map = plan.timestep_assignment.owner_map()

        if self.model.kind == "evolve":
            carry = self.model.init_carry(n)
        else:
            # single group: member i carries RNN state for its row chunk
            carry = [[self.model.rnn_init(idx, plan.row_chunks.size(i))
                      for i in range(g_size)]
                     for idx in range(self.model.num_layers)]

        # transfer: each member streams its row share of owned snapshots
        act_per_step = self.model.activation_bytes_per_step(n)
        for t in range(self.train_t):
            group = int(owner_map[t])
            snap = self.dtdg.snapshots[t]
            total_nnz = max(self.laplacians[t].nnz, 1)
            for i, rank in enumerate(plan.groups[group]):
                share = self.hybrid_row_nnz[t][i] / total_nnz
                nbytes = int(snap.nbytes * share +
                             self.frames[t].size *
                             WIRE_FLOAT_BYTES / g_size)
                # row share of the snapshot + this member's activation
                # slice stay resident for the backward pass
                self._account_block_memory(
                    rank, nbytes, 2 * act_per_step // g_size)
                engine = self.cluster.transfer(rank)
                engine.h2d(self.cluster.device(rank), nbytes)
                engine.stats.snapshot_bytes_naive_equivalent += nbytes

        xs = list(self.frames[:self.train_t])
        for idx in range(self.model.num_layers):
            gcn = self.model.gcn_layer(idx)
            if self.model.kind == "evolve":
                weights, carry[idx] = self.model.evolve_weights(
                    idx, self.train_t, carry[idx])
            ys = []
            for t in range(self.train_t):
                group = int(owner_map[t])
                members = plan.groups[group]
                feat = gcn.in_features
                lap = self.laplacians[t]
                agg = None
                call = None
                if self.reuse is not None:
                    agg = self.reuse.aggregate(idx, t, lap, xs[t])
                    call = self.reuse.last_call
                # intra-group all-gather of X_t row blocks; delta-aware
                # members mirror each other's rows across timesteps and
                # gather only the rows that changed since t-1
                halo = call.halo_rows if call is not None else None
                full = np.zeros((self.num_ranks, self.num_ranks))
                matrix = np.zeros((self.num_ranks, self.num_ranks))
                for i, src in enumerate(members):
                    rows = plan.row_chunks.size(i)
                    c_lo, c_hi = plan.row_chunks.ranges[i]
                    if halo is None:
                        changed = rows
                    else:
                        changed = int(np.searchsorted(halo, c_hi)
                                      - np.searchsorted(halo, c_lo))
                    for dst in members:
                        if dst != src:
                            full[src, dst] = rows * feat * WIRE_FLOAT_BYTES
                            matrix[src, dst] = changed * feat * \
                                WIRE_FLOAT_BYTES
                if halo is None:
                    self._charge_a2a(full, "allgather")
                else:
                    self._charge_a2a(matrix, "allgather",
                                     full_equivalent=full)
                if call is not None:
                    per_member = AggregationCache.rank_sparse_flops(
                        call, lap, plan.row_chunks.ranges)
                for i, rank in enumerate(members):
                    device = self.cluster.device(rank)
                    if call is None:
                        device.compute_sparse(
                            2.0 * self.hybrid_row_nnz[t][i] * feat)
                    else:
                        self._charge_sparse_rank(rank, per_member[i])
                    device.compute_dense(
                        2.0 * plan.row_chunks.size(i) * feat *
                        gcn.out_features)
                if self.model.kind == "evolve":
                    ys.append(gcn.forward_with_weight(
                        lap, xs[t], weights[t], precomputed=agg))
                else:
                    ys.append(self.model.gcn_forward(
                        idx, lap, xs[t], precomputed=agg))
            if self.model.kind == "evolve":
                xs = ys
                continue
            # RNN: single group ⇒ member i already holds rows R_i across
            # the whole timeline — communication-free
            outs_per_member = []
            for i in range(g_size):
                sl = plan.row_chunks.slice_of(i)
                rows = plan.row_chunks.size(i)
                seq = [y[sl] for y in ys]
                for rank in [grp[i] for grp in plan.groups]:
                    self.cluster.device(rank).compute_dense(
                        self.model.rnn_flops_per_step(rows) * len(seq) /
                        plan.num_groups)
                outs, carry[idx][i] = self.model.rnn_block(
                    idx, seq, carry[idx][i])
                outs_per_member.append(outs)
            xs = [ops.concat([outs_per_member[i][t] for i in range(g_size)],
                             axis=0) if g_size > 1 else outs_per_member[0][t]
                  for t in range(self.train_t)]

        total_loss = self.task.loss_block(xs, 0)
        if total_loss is None:
            raise ConfigError("epoch produced no loss terms")
        head_flops = self.task.head_flops_per_step() / self.num_ranks
        for device in self.cluster.devices:
            device.compute_dense(head_flops * self.train_t)
        return total_loss, xs[-1]

    # ------------------------------------------------------------------
    # epoch driver
    # ------------------------------------------------------------------
    def train_epoch(self) -> EpochResult:
        cfg = self.config
        self.cluster.reset()
        self._replay_comm.clear()
        self._block_transfer_log.clear()
        self.optimizer.zero_grad()
        self._reuse_sparse_s = [0.0] * self.num_ranks
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
        try:
            with self.telemetry.trace("train.forward",
                                      partitioning=cfg.partitioning,
                                      ranks=self.num_ranks):
                if cfg.partitioning == "vertex":
                    loss, last_embed = self._vertex_epoch_forward()
                elif cfg.partitioning == "hybrid":
                    loss, last_embed = self._hybrid_epoch_forward()
                else:
                    loss, last_embed = self._snapshot_epoch_forward()
            forward_wall = time.perf_counter() - t0
            with self.telemetry.trace("train.backward"):
                tape_nodes = loss.backward()
        finally:
            if self.reuse is not None:
                self.reuse.release()
        rerun = cfg.num_blocks > 1 and cfg.partitioning != "hybrid"
        # reuse-charged sparse seconds already include their own exact
        # backward estimate — exclude them from the factor sweep
        self._charge_backward_mixed(list(self._reuse_sparse_s), rerun)

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

    def _charge_backward_mixed(self, fwd_compute: list[float],
                               rerun_transfers: bool) -> None:
        cfg = self.config
        for r, clock in enumerate(self.cluster.clocks):
            fwd = clock.breakdown.compute - fwd_compute[r]
            clock.advance("compute", cfg.backward_compute_factor * fwd)
        for matrix, label, full in list(self._replay_comm):
            matrix = np.asarray(matrix).T
            full = np.asarray(full).T if full is not None else None
            self.cluster.comm.all_to_all_bytes(matrix, label=label,
                                               full_equivalent=full)
            if cfg.partitioning == "vertex":
                self._charge_packing(matrix)
        if rerun_transfers:
            for entry in self._block_transfer_log:
                if entry[0] == "raw":
                    _, r, nbytes = entry
                    engine = self.cluster.transfer(r)
                    engine.h2d(self.cluster.device(r), nbytes)
                    engine.stats.snapshot_bytes_naive_equivalent += nbytes
                else:
                    rank, snaps, frame_bytes, use_gd = entry
                    self._charge_block_transfer(rank, snaps, frame_bytes,
                                                use_gd)
        self._replay_comm.clear()
        self._block_transfer_log.clear()

    def _test_accuracy(self, last_embed: Tensor | None) -> float:
        if last_embed is None:
            return float("nan")
        if isinstance(self.task, LinkPredictionTask):
            return self.task.test_accuracy(last_embed)
        return float("nan")

    def fit(self, epochs: int) -> list[EpochResult]:
        return [self.train_epoch() for _ in range(epochs)]
