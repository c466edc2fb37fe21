"""The simulated backend: the in-process tier, and the test oracle.

:class:`SimulatedBackend` runs every worker in the router's process,
sharing one :class:`~repro.exec.service.Substrate` (snapshot, derived
features) and one tier-wide Ã
:class:`~repro.graph.inc_laplacian.LaplacianMaintainer` — a
memory-sharing fiction (topology is simulation substrate; the router
applies each GD delta to the operator once and every worker/replica
engine reads it), reached through the same :class:`WorkerTransport`
verbs the real backend speaks.  Being deterministic and
single-process, it is the oracle the multiprocessing backend must
match bit for bit.

``spawn(boot, solo=True)`` builds a worker *without* the shared
substrate/maintainer (it folds deltas into a private mirror, like a
real worker).  Crash recovery uses this for revived workers: a freshly
revived engine must not full-rebuild the tier-shared operator to its
older capture-time snapshot.
"""

from __future__ import annotations

import time
from typing import Callable

import numpy as np

from repro.errors import WorkerDeadError
from repro.graph.inc_laplacian import LaplacianMaintainer
from repro.graph.snapshot import GraphSnapshot
from repro.exec.service import Substrate, WorkerService
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
    """Spawns in-process workers over a shared substrate."""

    name = "simulated"
    # workers read router-published shared state; the router must
    # publish() before fanning a delta/advance out
    shares_substrate = True

    def __init__(self) -> None:
        self.substrate: Substrate | None = None
        self.maintainer: LaplacianMaintainer | None = None
        self.shm_bytes_mapped = 0

    def attach(self, snapshot: GraphSnapshot, kernel_backend=None) -> None:
        self.substrate = Substrate(snapshot)
        # one Ã maintainer for the whole tier: the router applies each
        # GD delta once, worker engines short-circuit on the
        # already-current resident.  Pinned to the workers' kernel
        # backend — an engine refuses an operator built on another one
        self.maintainer = LaplacianMaintainer(snapshot,
                                              backend=kernel_backend)

    def publish(self, snapshot: GraphSnapshot, features: np.ndarray,
                dinv: np.ndarray, diff=None) -> None:
        self.maintainer.update(snapshot, diff)
        self.substrate.publish(snapshot, features, dinv)

    def spawn(self, boot: WorkerBoot, *, solo: bool = False,
              clock: Callable[[], float] = time.perf_counter
              ) -> LocalTransport:
        if solo:
            service = WorkerService(boot, clock=clock)
        else:
            service = WorkerService(boot, substrate=self.substrate,
                                    maintainer=self.maintainer, clock=clock)
        return LocalTransport(boot.shard_id, service)

    def close(self) -> None:
        self.substrate = None
        self.maintainer = None
