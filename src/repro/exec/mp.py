"""The real backend: one OS process per shard worker.

:class:`MultiprocessBackend` spawns each shard worker into its own
process (fork start method).  The read-mostly blocks — canonical edge
list, edge values, the worker's embedding block, the frozen board —
live in ``multiprocessing.shared_memory`` segments mapped once at
spawn; the pipe carries only GD deltas, row sets, scores, and control
messages.  The worker binds its engine's
output layer directly onto the shared embedding block, so the router
reads served rows with a memcpy instead of an RPC round-trip.

Failure surface (the part the simulated backend cannot have): a broken
pipe or EOF raises :class:`~repro.errors.WorkerDeadError`, a reply that
misses the call timeout kills the worker and raises
:class:`~repro.errors.WorkerTimeoutError`; the router's crash-recovery
path (:meth:`ExecRouter._revive`) handles both.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle

import numpy as np

import repro.errors as errors
from repro.errors import ExecError, ReproError, WorkerDeadError, \
    WorkerTimeoutError
from repro.exec.service import WorkerService
from repro.exec.shm import ArraySpec, map_array, share_array, \
    share_zeros, snapshot_from_shared
from repro.exec.transport import TransportStats, WorkerBoot, WorkerTransport
from repro.serve.sharded.halo import FrozenBoard

__all__ = ["ProcessTransport", "MultiprocessBackend"]


def _worker_main(conn, boot: WorkerBoot, manifest: dict) -> None:
    """Worker-process entry: map segments, build the service, serve RPCs."""
    handles = []
    mapped = 0
    views = {}
    # the board (a multi-shard tier's) and the embeddings are written
    for key in ("edges", "values", "embeddings", "board"):
        if key in manifest:
            seg, views[key] = map_array(
                manifest[key], writeable=key in ("embeddings", "board"))
            handles.append(seg)
            mapped += manifest[key].nbytes
    emb_view = views["embeddings"]
    board = FrozenBoard(boot.model, manifest["num_vertices"],
                        boot.num_shards, views["board"]) \
        if "board" in views else None

    boot.snapshot = snapshot_from_shared(manifest["num_vertices"],
                                         views["edges"], views["values"])
    service = WorkerService(boot, board=board)

    def bind_embeddings() -> None:
        # the engine recomputes in place, so once the output layer IS
        # the shared block every refresh lands in shared memory; state
        # restores may swap the array object, hence the identity check
        cache = service.engine.cache
        z = cache.layer_outputs[-1]
        if z is not emb_view:
            emb_view[...] = z
            cache.layer_outputs[-1] = emb_view

    service.on_embeddings = bind_embeddings
    bind_embeddings()

    conn.send_bytes(pickle.dumps(("ok", ("ready", mapped))))
    try:
        while True:
            # envelope: (method, args) untraced — byte-identical to the
            # pre-tracing wire — (method, args, trace_ctx) when the
            # router carries a trace context, or (method, args,
            # trace_ctx, seq) when the call is sequenced for dedup
            msg = pickle.loads(conn.recv_bytes())
            method, args = msg[0], msg[1]
            ctx = msg[2] if len(msg) > 2 else None
            seq = msg[3] if len(msg) > 3 else None
            if method == "shutdown":
                conn.send_bytes(pickle.dumps(("ok", None)))
                break
            if method == "debug_exit":
                os._exit(17)  # crash simulation: no reply, no cleanup
            try:
                out = service.dispatch(method, args, ctx, seq=seq)
                reply = ("ok", out)
            except Exception as exc:
                reply = ("err", (type(exc).__name__, str(exc)))
            conn.send_bytes(pickle.dumps(reply))
    except (EOFError, KeyboardInterrupt):
        pass
    finally:
        del service, views, boot, board
        for seg in handles:
            seg.close()


def _rebuild_error(name: str, message: str) -> Exception:
    cls = getattr(errors, name, None)
    if isinstance(cls, type) and issubclass(cls, ReproError):
        return cls(message)
    return ExecError(f"worker raised {name}: {message}")


class ProcessTransport(WorkerTransport):
    """RPC over a pipe to one worker process."""

    def __init__(self, shard_id: int, process, conn, emb_view,
                 emb_handle, call_timeout_s: float) -> None:
        self.shard_id = shard_id
        self.process = process
        self.conn = conn
        self.call_timeout_s = call_timeout_s
        self.stats = TransportStats()
        self._pending = False
        self._dead = False
        self._emb_view = emb_view
        self._emb_handle = emb_handle

    # -- wire -------------------------------------------------------------------------
    def submit(self, method: str, *args, seq: int | None = None) -> None:
        if self._pending:
            raise WorkerDeadError(
                f"shard {self.shard_id}: RPC already pending")
        if not self.alive:
            raise WorkerDeadError(
                f"shard {self.shard_id} worker process is dead")
        # tracing off and unsequenced => the wire stays the plain
        # (method, args) 2-tuple: zero envelope overhead on the hot path
        ctx = self._trace_context()
        if seq is not None:
            envelope = (method, args, ctx, seq)
        elif ctx is not None:
            envelope = (method, args, ctx)
        else:
            envelope = (method, args)
        payload = pickle.dumps(envelope)
        try:
            self.conn.send_bytes(payload)
        except (BrokenPipeError, OSError) as exc:
            self._dead = True
            raise WorkerDeadError(
                f"shard {self.shard_id}: pipe broke on send") from exc
        self.stats.roundtrips += 1
        self.stats.bytes_sent += len(payload)
        self._pending = True

    def result(self, timeout: float | None = None):
        if not self._pending:
            raise WorkerDeadError(f"shard {self.shard_id}: no RPC pending")
        self._pending = False
        timeout = self.call_timeout_s if timeout is None else timeout
        if not self.conn.poll(timeout):
            # a worker that blew its deadline is indistinguishable from
            # a hung one — kill it so recovery can respawn cleanly
            self._dead = True
            self.process.terminate()
            raise WorkerTimeoutError(
                f"shard {self.shard_id}: no reply within {timeout:.1f}s")
        try:
            raw = self.conn.recv_bytes()
        except (EOFError, OSError) as exc:
            self._dead = True
            raise WorkerDeadError(
                f"shard {self.shard_id}: worker died mid-call") from exc
        self.stats.bytes_received += len(raw)
        status, out = pickle.loads(raw)
        if status == "err":
            raise _rebuild_error(*out)
        return out

    # -- shared-memory fast path -------------------------------------------------------
    def embedding_rows(self, rows: np.ndarray) -> np.ndarray:
        """Read served rows straight from the worker's shared embedding
        block (the worker binds its output layer onto it, and the
        router only reads after the owning refresh RPC completed)."""
        if self._emb_view is not None and not self._pending and self.alive:
            out = self._emb_view[rows].copy()
            self.stats.shm_rows_read += len(rows)
            return out
        return self.call("embedding_rows", rows)

    # -- liveness ----------------------------------------------------------------------
    def ping(self, timeout: float | None = None) -> bool:
        timeout = 1.0 if timeout is None else timeout
        if not self.alive:
            return False
        try:
            self.submit("ping")
        except WorkerDeadError:
            return False
        try:
            return self.result(timeout=timeout) == "pong"
        except (WorkerDeadError, WorkerTimeoutError):
            return False

    @property
    def alive(self) -> bool:
        return not self._dead and self.process.is_alive()

    def close(self) -> None:
        if self.alive and not self._pending:
            try:
                self.call("shutdown")
            except (WorkerDeadError, WorkerTimeoutError):
                pass
        self.process.join(timeout=1.0)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=1.0)
        self._dead = True
        self.conn.close()
        if self._emb_handle is not None:
            self._emb_handle.close()
            self._emb_handle = None
            self._emb_view = None

    def debug_exit(self) -> None:
        """Hard-kill the worker from inside (``os._exit``): no reply,
        no shutdown handshake — the crash the recovery tests inject."""
        try:
            self.conn.send_bytes(pickle.dumps(("debug_exit", ())))
        except (BrokenPipeError, OSError):
            pass
        self.process.join(timeout=5.0)


class MultiprocessBackend:
    """Spawns one worker process per shard over shared-memory blocks."""

    name = "multiprocess"

    def __init__(self, *, call_timeout_s: float = 120.0) -> None:
        self.call_timeout_s = call_timeout_s
        self._ctx = multiprocessing.get_context("fork")
        self._segments = []            # every handle this backend created
        self._topology = None          # (snapshot id, manifest fragment)
        self._board = None             # the tier's board (>1 shard)
        self.shm_bytes_mapped = 0      # summed across worker mappings

    def _topology_manifest(self, boot: WorkerBoot) -> dict:
        """Share the boot snapshot's read-mostly blocks once; sibling
        workers booted from the same resident reuse the segments."""
        if self._topology is not None and \
                self._topology[0] is boot.snapshot:
            return self._topology[1]
        snap = boot.snapshot
        fragment = {"num_vertices": snap.num_vertices}
        for key, arr in (("edges", snap.edges), ("values", snap.values)):
            seg, spec = share_array(arr, key)
            self._segments.append(seg)
            fragment[key] = spec
        self._topology = (snap, fragment)
        return fragment

    def spawn(self, boot: WorkerBoot, *, clock=None) -> ProcessTransport:
        # ``clock`` is an oracle-backend knob: every real worker is its
        # own process with its own perf_counter
        manifest = dict(self._topology_manifest(boot))
        n = boot.snapshot.num_vertices
        emb_seg, emb_spec = share_array(
            np.zeros((n, boot.model.embed_dim)), f"emb{boot.shard_id}")
        self._segments.append(emb_seg)
        manifest["embeddings"] = emb_spec
        if boot.num_shards > 1:
            # one board per tier: revived and rebalanced workers attach
            if self._board is None:
                seg, self._board = share_zeros((FrozenBoard.nbytes(
                    boot.model, n, boot.num_shards),), np.uint8, "board")
                self._segments.append(seg)
            manifest["board"] = self._board

        lite = WorkerBoot(shard_id=boot.shard_id, model=boot.model,
                          snapshot=None, owner=boot.owner,
                          num_shards=boot.num_shards,
                          replica_id=boot.replica_id,
                          kernel_backend=boot.kernel_backend)
        parent_conn, child_conn = self._ctx.Pipe()
        proc = self._ctx.Process(target=_worker_main,
                                 args=(child_conn, lite, manifest),
                                 daemon=True)
        proc.start()
        child_conn.close()

        emb_handle, emb_view = map_array(emb_spec)
        transport = ProcessTransport(boot.shard_id, proc, parent_conn,
                                     emb_view, emb_handle,
                                     self.call_timeout_s)
        # the ready handshake doubles as the mapping receipt
        transport._pending = True
        status, mapped = transport.result(timeout=60.0)
        if status != "ready":
            raise ExecError(f"shard {boot.shard_id}: bad boot handshake")
        self.shm_bytes_mapped += int(mapped)
        return transport

    def close(self) -> None:
        for seg in self._segments:
            try:
                seg.close()
                seg.unlink()
            except FileNotFoundError:
                pass
        self._segments.clear()
        self._topology = None
        self._board = None
