"""The simulated backend: the in-process tier, and the test oracle.

:class:`SimulatedBackend` runs every worker in the router's process,
reached through the same :class:`WorkerTransport` verbs the real backend
speaks and hosting the same
:class:`~repro.exec.service.WorkerService` — private topology mirror,
private ``Ã`` maintainer, every delta checksum-verified before it is
folded.  It differs from the multiprocessing backend by the transport
and nothing else; being deterministic and single-process, it is the
oracle the real backend must match bit for bit.  A multi-shard tier's
frozen board is a heap array every in-process worker holds.
"""

from __future__ import annotations

import time
from typing import Callable

from repro.errors import WorkerDeadError
from repro.exec.service import WorkerService
from repro.serve.sharded.halo import FrozenBoard
from repro.exec.transport import TransportStats, WorkerBoot, \
    WorkerTransport, payload_nbytes

__all__ = ["LocalTransport", "SimulatedBackend"]


class LocalTransport(WorkerTransport):
    """Executes RPCs immediately against an in-process service.

    ``submit`` runs the handler synchronously and parks the outcome for
    ``result`` — the pipelined fan-out pattern degenerates to serial
    execution, which is exactly the simulated tier's semantics."""

    def __init__(self, shard_id: int, service: WorkerService) -> None:
        self.shard_id = shard_id
        self.service = service
        self.stats = TransportStats()
        self._pending: tuple | None = None
        self._dead = False

    def submit(self, method: str, *args, seq: int | None = None) -> None:
        if self._pending is not None:
            raise WorkerDeadError(
                f"shard {self.shard_id}: RPC already pending")
        if self._dead:
            raise WorkerDeadError(f"shard {self.shard_id} worker is dead")
        self.stats.roundtrips += 1
        self.stats.bytes_sent += payload_nbytes(args)
        try:
            out = self.service.dispatch(method, args,
                                        self._trace_context(), seq=seq)
            self._pending = ("ok", out)
        except Exception as exc:  # parked, re-raised at result()
            self._pending = ("err", exc)

    def result(self):
        if self._pending is None:
            raise WorkerDeadError(
                f"shard {self.shard_id}: no RPC pending")
        status, out = self._pending
        self._pending = None
        if status == "err":
            raise out
        self.stats.bytes_received += payload_nbytes(out)
        return out

    def ping(self, timeout: float | None = None) -> bool:
        if self._dead:
            return False
        return self.call("ping") == "pong"

    @property
    def alive(self) -> bool:
        return not self._dead

    def close(self) -> None:
        self._dead = True

    def debug_exit(self) -> None:
        """Simulate an abrupt worker death: every later RPC raises."""
        self._dead = True
        self._pending = None


class SimulatedBackend:
    """Spawns in-process workers."""

    name = "simulated"
    shm_bytes_mapped = 0  # nothing is mapped: workers share the heap
    _board: FrozenBoard | None = None  # the tier's; none for one shard

    def spawn(self, boot: WorkerBoot, *,
              clock: Callable[[], float] = time.perf_counter
              ) -> LocalTransport:
        if boot.num_shards > 1 and self._board is None:
            self._board = FrozenBoard(boot.model,
                                      boot.snapshot.num_vertices,
                                      boot.num_shards)
        return LocalTransport(boot.shard_id, WorkerService(
            boot, clock=clock, board=self._board))

    def close(self) -> None:
        self._board = None
