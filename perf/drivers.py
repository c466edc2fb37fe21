"""Workload drivers: boot the system, replay the inputs, read the result.

One driver per workload kind (``serve``, ``exec``, ``train``).  Each
drives only public entry points — ``ModelServer``,
``ExecRouter(backend="multiprocess")``, ``GraphStore``,
``DistributedTrainer`` — as one closed-loop client on one thread: it
submits a micro-batch, calls ``flush()`` and proceeds.  A *repeat* boots
a fresh system from the same inputs, replays them once and tears the
system down; boot time is excluded from the replay wall.  Everything a
repeat observed comes back in one :class:`Repeat`:

* timings taken by the client: the replay as contiguous *segments* (one
  per front-door call group), each followed by a host-speed probe, the
  per-query latencies and ``recover_s``;
* ``exact`` — counts read from public stats objects, which must repeat
  to the digit for the same inputs;
* ``public`` / ``clocks`` — layer metrics that public stats objects
  already hold: deterministic counts, and measured clocks such as
  worker busy time;
* ``embeddings`` / ``losses`` — the outputs the checks compare.
"""

from __future__ import annotations

import os
import shutil
import statistics
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from repro.cluster.cluster import Cluster
from repro.exec import ExecRouter
from repro.graph.dtdg import DTDG
from repro.models import build_model
from repro.nn.linear import Linear
from repro.serve.server import ModelServer
from repro.store.store import GraphStore
from repro.train.distributed import DistConfig, DistributedTrainer
from repro.train.tasks import LinkPredictionTask

from workloads import build_serve_inputs, build_train_inputs

__all__ = ["Repeat", "make_driver"]

MODEL = "cdgcn"
FLUSH_LATENCY_MS = 50.0   # never reached: the client flushes explicitly


def _vm_hwm_kb(pid: int | str = "self") -> int:
    """High-water resident set of a process, in KiB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


class HostProbe:
    """A fixed piece of work, about a millisecond long, that tells how
    fast the host runs right now: a dozen small sparse·dense products
    (like the kernels) and a short pure-Python loop (like the ingest fold
    and the submit path).  Its working set is ~250 KB, so what the
    segment before it left in the caches matters little.  The host this
    benchmark was built on slows down by up to 2x for seconds to minutes
    at a time; a segment's time over the time of the probes around it
    cancels that."""

    BURST = 16   # probes around a segment too long to sample with one

    def __init__(self) -> None:
        n, rng = 1000, np.random.default_rng(0)
        self._a = sp.csr_matrix(
            (rng.standard_normal(5 * n),
             (np.repeat(np.arange(n), 5), rng.integers(n, size=5 * n))),
            shape=(n, n))
        self._x = rng.standard_normal((n, 16))
        self.samples: list[float] = []   # every probe of this process

    def __call__(self) -> float:
        t0 = time.perf_counter()
        for _ in range(12):
            self._a @ self._x
        counts: dict = {}
        for i in range(1500):
            counts[i & 63] = counts.get(i & 63, 0) + i
        duration = time.perf_counter() - t0
        self.samples.append(duration)
        return duration

    def burst(self) -> float:
        return statistics.median(self() for _ in range(self.BURST))


class Laps:
    """A split timer: ``lap()`` closes the segment that has been running
    since the previous lap, runs the host probe (outside any segment)
    and starts the next segment.  ``probes[i]`` is the probe time that
    goes with ``segments[i]``: the mean of the probe before and the
    probe after it."""

    def __init__(self, probe: HostProbe) -> None:
        self.probe = probe
        self.segments: list[float] = []
        self.probes: list[float] = []
        self._before = probe()
        self._start = time.perf_counter()

    def lap(self) -> None:
        now = time.perf_counter()
        self.segments.append(now - self._start)
        after = self.probe()
        self.probes.append((self._before + after) / 2)
        self._before = after
        self._start = time.perf_counter()


@dataclass
class Repeat:
    # split times of the boot (constructor, each warm-up step, ...) and of
    # the timed unit (each front-door call group / each epoch), each with
    # the probe time that goes with it.  The same index is the same work
    # in every repeat of a run.
    boot: Laps
    timed: Laps
    attempted: int
    units: int = 1           # whole timed units in ``timed`` (epochs)
    failed: int = 0
    query_ms: np.ndarray = field(default_factory=lambda: np.empty(0))
    ingest_at: list = field(default_factory=list)   # ingest segment ids
    flushes: int = 0
    recover_s: float = 0.0
    recover_probe: float = 0.0
    rss_kb: int = 0
    exact: dict = field(default_factory=dict)
    public: dict = field(default_factory=dict)
    clocks: dict = field(default_factory=dict)
    checks: dict = field(default_factory=dict)
    embeddings: np.ndarray | None = None
    losses: tuple = ()

    @property
    def boot_s(self) -> float:
        return sum(self.boot.segments)

    @property
    def wall_s(self) -> float:
        return sum(self.timed.segments) / self.units


class _NullTracer:
    def phase(self, label: str) -> None:
        pass


class _StreamDriver:
    """Shared replay loop of the serve and exec kinds."""

    def __init__(self, spec: dict, seed: int, workdir: str) -> None:
        self.spec, self.seed, self.workdir = spec, seed, workdir
        self.inputs = None
        self.probe = HostProbe()

    def make_inputs(self) -> str:
        self.inputs = build_serve_inputs(self.spec, self.seed)
        return self.inputs.input_sha

    def _model(self):
        spec = self.spec
        model = build_model(MODEL, in_features=2, hidden=spec["hidden"],
                            embed_dim=spec["embed_dim"], seed=0)
        fraud = Linear(spec["embed_dim"], 2, np.random.default_rng(7))
        return model, fraud

    def _replay(self, front, boot: Laps) -> Repeat:
        """One closed-loop pass over the stream.  A segment ends after
        every ``advance_time``, every ``ingest_events``, every chunk of
        submits and every ``flush``."""
        submit_link, submit_fraud = front.submit_link, front.submit_fraud
        handles, ingest_at = [], []
        timed = Laps(self.probe)
        lap = timed.lap
        for batches, step_plan in zip(self.inputs.schedule,
                                      self.inputs.plan):
            front.advance_time()
            lap()
            for events, chunks in zip(batches, step_plan):
                if events:
                    front.ingest_events(events)
                    ingest_at.append(len(timed.segments))
                    lap()
                for queries in chunks:
                    for is_link, a, b in queries:
                        handles.append(submit_link(a, b) if is_link
                                       else submit_fraud(a))
                    lap()
                front.flush()
                lap()
        front.drain()
        lap()

        failed = sum(1 for q in handles
                     if q.shed or not q.done or q.result is None)
        return Repeat(
            boot=boot, timed=timed, ingest_at=ingest_at,
            attempted=len(handles) + len(ingest_at), failed=failed,
            query_ms=np.array([q.latency_ms for q in handles if q.done
                               and not q.shed]))

    @staticmethod
    def observations(repeats) -> tuple[list, list]:
        """(segment times, probe times), one row per repeat; a column is
        the same work in every row."""
        return ([r.timed.segments for r in repeats],
                [r.timed.probes for r in repeats])

    def oracle_embeddings(self) -> np.ndarray:
        """Final embeddings of a full-recompute server fed the identical
        events with no queries and refreshed once."""
        model, fraud = self._model()
        snaps = self.inputs.boot_snapshots
        oracle = ModelServer(model, snaps[0], fraud_head=fraud,
                             incremental=False)
        for snap in snaps[1:]:
            oracle.advance_time(snap)
        for batches in self.inputs.schedule:
            oracle.advance_time()
            for events in batches:
                if events:
                    oracle.ingest_events(events)
        oracle.engine.refresh()
        return oracle.engine.embeddings


class ServeDriver(_StreamDriver):
    def repeat(self, tracer=None, warmup: bool = False) -> Repeat:
        tracer = tracer or _NullTracer()
        spec, snaps = self.spec, self.inputs.boot_snapshots
        durable = spec.get("durable", False)
        store_dir = os.path.join(self.workdir, "store")
        model, fraud = self._model()
        tracer.phase("boot")
        boot = Laps(self.probe)
        server = ModelServer(model, snaps[0], fraud_head=fraud,
                             max_batch_size=spec["max_batch_size"],
                             flush_latency_ms=FLUSH_LATENCY_MS)
        boot.lap()
        for snap in snaps[1:]:
            server.advance_time(snap)
            boot.lap()
        if durable:
            store = GraphStore.create(store_dir, spec["num_accounts"])
            server.attach_store(store,
                                state_interval=spec["state_interval"])
            boot.lap()

        tracer.phase("replay")
        out = self._replay(server, boot)
        tracer.phase("finish")

        counters = server.counters
        maintainer = server.engine.maintainer
        out.flushes = counters.batches_flushed
        out.exact = {
            "queries_completed": counters.queries_completed,
            "batches_flushed": counters.batches_flushed,
            "events_ingested": counters.events_ingested,
            "commits": counters.commits,
            "advances": counters.advances,
            "rows_advanced": counters.rows_advanced,
        }
        out.public = {
            "serve.ingest.events": server.ingestor.total_events,
            "serve.ingest.delta_payload_bytes":
                server.ingestor.total_payload_nbytes,
            "graph.inc_laplacian.incremental_updates":
                maintainer.incremental_updates,
            "graph.inc_laplacian.fallbacks": maintainer.fallbacks,
            "graph.inc_laplacian.full_rebuilds": maintainer.full_rebuilds,
            "serve.cache.hit_rate": counters.cache_hit_rate,
            "serve.cache.rows_recomputed": counters.rows_recomputed,
            "serve.cache.refreshes": counters.refreshes,
        }
        if durable:
            out.public.update({
                "store.wal_bytes": store.wal_nbytes,
                "store.base_bytes": store.base_nbytes,
                "store.records": store.wal.num_records,
            })
            self._recover(server, store_dir, out, tracer)
        server.engine.refresh()
        out.embeddings = server.engine.embeddings.copy()
        out.rss_kb = _vm_hwm_kb()
        return out

    def _recover(self, live: ModelServer, store_dir: str, out: Repeat,
                 tracer) -> None:
        """Reopen the store the live server wrote and recover a second
        server from it; both, refreshed, must hold the same state."""
        spec = self.spec
        model, fraud = self._model()
        tracer.phase("recover")
        t0 = time.perf_counter()
        recovered = ModelServer.recover(
            GraphStore.open(store_dir), model=model, fraud_head=fraud,
            max_batch_size=spec["max_batch_size"],
            flush_latency_ms=FLUSH_LATENCY_MS,
            state_interval=spec["state_interval"])
        out.recover_s = time.perf_counter() - t0
        out.recover_probe = self.probe.burst()
        tracer.phase("finish")
        # without the refresh the two differ by the deferred dirty rows
        live.engine.refresh()
        recovered.engine.refresh()
        out.checks["recovered_resident_equal"] = bool(
            recovered.ingestor.resident == live.ingestor.resident)
        out.checks["recovery_divergence"] = float(np.abs(
            recovered.engine.embeddings - live.engine.embeddings).max())
        shutil.rmtree(store_dir)


class ExecDriver(_StreamDriver):
    def repeat(self, tracer=None, warmup: bool = False) -> Repeat:
        tracer = tracer or _NullTracer()
        spec, snaps = self.spec, self.inputs.boot_snapshots
        model, fraud = self._model()
        tracer.phase("boot")
        boot = Laps(self.probe)
        router = ExecRouter(model, snaps[0], backend="multiprocess",
                            num_shards=spec["num_shards"], fraud_head=fraud,
                            max_batch_size=spec["max_batch_size"],
                            flush_latency_ms=FLUSH_LATENCY_MS,
                            pipeline=True)
        try:
            boot.lap()
            for snap in snaps[1:]:
                router.advance_time(snap)
                boot.lap()
            base = router.stats()

            tracer.phase("replay")
            out = self._replay(router, boot)
            tracer.phase("finish")
            self._read_stats(router, base, out)
            out.embeddings = router.gathered_embeddings()
            out.rss_kb = _vm_hwm_kb() + sum(
                _vm_hwm_kb(t.process.pid) for t in router.transports)
        finally:
            router.close()
        return out

    def _read_stats(self, router: ExecRouter, base, out: Repeat) -> None:
        """Replay-only deltas of the router's public stats (``base`` was
        read after boot) plus the workers' own counters."""
        stats = router.stats()
        workers = [t.worker_stats() for t in router.transports]
        c, c0 = stats.counters, base.counters
        busy = [b - b0 for b, b0 in zip(stats.per_shard_busy_s,
                                        base.per_shard_busy_s)]
        steps = len(self.inputs.schedule)
        roundtrips = stats.rpc_roundtrips - base.rpc_roundtrips
        out.flushes = c.batches_flushed - c0.batches_flushed
        out.exact = {
            "queries_completed": c.queries_completed - c0.queries_completed,
            "queries_shed": c.queries_shed - c0.queries_shed,
            "batches_flushed": out.flushes,
            "events_ingested": c.events_ingested - c0.events_ingested,
            "commits": c.commits - c0.commits,
            "advances": c.advances - c0.advances,
            "rows_advanced": c.rows_advanced - c0.rows_advanced,
            "refreshes": c.refreshes - c0.refreshes,
            "worker_restarts": c.worker_restarts - c0.worker_restarts,
            "rpc_retries": c.rpc_retries - c0.rpc_retries,
        }
        rpc_calls = [sum(w.rpc_calls.values()) for w in workers]
        halo_calls = [w.rpc_calls.get("import_temporal", 0)
                      + w.rpc_calls.get("export_temporal", 0)
                      for w in workers]
        out.public = {
            "serve.ingest.events": router.ingestor.total_events,
            "serve.ingest.delta_payload_bytes":
                router.ingestor.total_payload_nbytes,
            "serve.cache.rows_recomputed":
                c.rows_recomputed - c0.rows_recomputed,
            "serve.cache.refreshes": c.refreshes - c0.refreshes,
            "exec.router.score_rpcs": c.score_rpcs - c0.score_rpcs,
            "exec.router.delta_bytes_fanout":
                c.delta_bytes_fanout - c0.delta_bytes_fanout,
            "exec.router.remote_row_fetches":
                c.remote_row_fetches - c0.remote_row_fetches,
            "exec.router.remote_row_bytes":
                c.remote_row_bytes - c0.remote_row_bytes,
            "exec.router.cross_shard_events":
                c.cross_shard_events - c0.cross_shard_events,
            "exec.transport.roundtrips": roundtrips,
            "exec.transport.roundtrips_per_step": roundtrips / steps,
            "exec.transport.bytes_sent":
                stats.rpc_bytes_sent - base.rpc_bytes_sent,
            "exec.transport.bytes_received":
                stats.rpc_bytes_received - base.rpc_bytes_received,
            "exec.transport.shm_bytes_mapped": stats.shm_bytes_mapped,
            # worker counters run from worker boot (warm-up included)
            "exec.worker.rows_recomputed":
                sum(w.rows_recomputed for w in workers),
            "exec.worker.rpc_calls": sum(rpc_calls),
            "exec.worker.halo_rpc_calls": sum(halo_calls),
            "serve.sharded.halo.rows_shipped":
                stats.traffic.rows_shipped - base.traffic.rows_shipped,
            "serve.sharded.halo.bytes_shipped":
                stats.traffic.bytes_shipped - base.traffic.bytes_shipped,
            "serve.sharded.halo.dirty_rows":
                c.halo_dirty_rows - c0.halo_dirty_rows,
        }
        out.clocks = {
            "exec.router.busy_s": stats.router_busy_s - base.router_busy_s,
            "exec.worker.busy_sum_s": sum(busy),
            "exec.worker.busy_max_s": max(busy),
        }


class TrainDriver:
    def __init__(self, spec: dict, seed: int, workdir: str) -> None:
        self.spec, self.seed = spec, seed
        self.inputs = None
        self.probe = HostProbe()

    def make_inputs(self) -> str:
        self.inputs = build_train_inputs(self.spec, self.seed)
        return self.inputs.input_sha

    @staticmethod
    def observations(repeats) -> tuple[list, list]:
        """Every warm epoch of every repeat is the same work, so each is
        a row of its own (one column)."""
        return ([[e] for r in repeats for e in r.timed.segments],
                [[p] for r in repeats for p in r.timed.probes])

    def _epochs(self, trainer, count: int, results: list) -> Laps:
        """Run ``count`` epochs, one segment each.  An epoch cannot be
        split from outside and is too long for one probe, so the probe
        time that goes with it is the mean of a burst before and a
        burst after it."""
        laps = Laps(self.probe)
        before = self.probe.burst()
        for _ in range(count):
            start = time.perf_counter()
            results.append(trainer.train_epoch())
            laps.segments.append(time.perf_counter() - start)
            after = self.probe.burst()
            laps.probes.append((before + after) / 2)
            before = after
        return laps

    def repeat(self, tracer=None, warmup: bool = False) -> Repeat:
        """A fresh trainer: one cache-building epoch (counted as boot),
        then ``timed_epochs`` warm epochs, one segment each (the warm-up
        repeat, which only has to fault the heap in, runs one)."""
        tracer = tracer or _NullTracer()
        spec = self.spec
        results = []
        tracer.phase("boot")
        boot = Laps(self.probe)
        model = build_model(MODEL, in_features=2, hidden=spec["hidden"],
                            embed_dim=spec["embed_dim"], seed=0)
        view = DTDG(list(self.inputs.snapshots), name=spec["name"])
        task = LinkPredictionTask(view, embed_dim=model.embed_dim, seed=1)
        trainer = DistributedTrainer(
            model, view, task, Cluster.of_size(spec["num_ranks"]),
            DistConfig(num_blocks=spec["num_blocks"],
                       partitioning="snapshot", use_graph_difference=True,
                       reuse_aggregation=True,
                       reuse_crossover=spec["reuse_crossover"]))
        boot.lap()
        first = self._epochs(trainer, 1, results)
        boot.segments += first.segments
        boot.probes += first.probes

        epochs = 1 if warmup else spec["timed_epochs"]
        tracer.phase("replay")
        timed = self._epochs(trainer, epochs, results)
        tracer.phase("finish")

        last = results[-1]
        out = Repeat(boot=boot, timed=timed, attempted=epochs, units=epochs,
                     losses=tuple(r.loss for r in results))
        forward_s = sum(r.forward_wall_s for r in results[1:]) / epochs
        out.failed = sum(1 for loss in out.losses if not np.isfinite(loss))
        out.exact = {"epochs": len(results),
                     "total_nnz": self.inputs.total_nnz}
        out.clocks = {"train.forward_s": forward_s,
                      "train.backward_optim_s": out.wall_s - forward_s}
        out.public = {
            "train.reuse.agg_flops": last.agg_flops,
            "train.reuse.agg_flops_full": last.agg_flops_full_equivalent,
            "train.transfer_bytes": last.transfer_bytes,
            "train.transfer_naive_bytes":
                last.transfer_naive_equivalent_bytes,
            "train.comm_volume_units": last.comm_volume_units,
            "train.gradient_volume_units": last.gradient_volume_units,
            "train.loss_final": last.loss,
            "cluster.sim_transfer_ms": last.breakdown.transfer * 1e3,
            "cluster.sim_compute_ms": last.breakdown.compute * 1e3,
            "cluster.sim_comm_ms": float(last.breakdown.comm) * 1e3,
            "cluster.sim_peak_memory_bytes": last.peak_memory_bytes,
        }
        out.rss_kb = _vm_hwm_kb()
        return out

    def oracle_embeddings(self) -> None:
        return None   # the check is loss reproducibility across repeats


_DRIVERS = {"serve": ServeDriver, "exec": ExecDriver, "train": TrainDriver}


def make_driver(spec: dict, seed: int, workdir: str):
    return _DRIVERS[spec["kind"]](spec, seed, workdir)

