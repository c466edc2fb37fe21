"""The sharded tier's front door and wire: one router, two transports.

:class:`~repro.exec.router.ExecRouter` is the only sharded router.  It
drives the :mod:`repro.serve.sharded` building blocks (plan, shard
engine) through a small RPC surface
(:class:`~repro.exec.transport.WorkerTransport`) and does not care who
answers —

* :class:`~repro.exec.simulated.SimulatedBackend` runs the workers
  in-process (deterministic; the test oracle), while
* :class:`~repro.exec.mp.MultiprocessBackend` runs each worker in its
  own OS process with the boot topology and embedding blocks in
  ``multiprocessing.shared_memory`` and only deltas/queries on the
  pipe.

Both backends host the same :class:`~repro.exec.service.WorkerService`
— private mirror, private maintainer, every delta checksum-verified —
so their outputs agree bit for bit; the real backend adds what the
simulation cannot — true wall-clock overlap, crash surfaces, and wire
costs.

On top of the transports sits the resilience layer:
:class:`~repro.exec.channel.ShardChannel` replicates each shard,
retries idempotent reads with backoff, sequences mutating writes for
exactly-once application, trips per-replica circuit breakers and fails
reads over to live replicas; :class:`~repro.exec.faults.FaultPlan`
injects deterministic, seeded wire faults (drops, delays, duplicates,
crashes, detectable corruption) underneath any transport for chaos
testing.
"""

from repro.exec.channel import CircuitBreaker, IDEMPOTENT_VERBS, \
    MUTATING_VERBS, RetryPolicy, ShardChannel
from repro.exec.faults import FAULT_KINDS, FaultPlan, FaultSpec, \
    FaultyTransport
from repro.exec.mp import MultiprocessBackend, ProcessTransport
from repro.exec.router import ExecCounters, ExecRouter, ExecStats
from repro.exec.service import WorkerService
from repro.exec.shm import ArraySpec, map_array, share_array, \
    snapshot_from_shared
from repro.exec.simulated import LocalTransport, SimulatedBackend
from repro.exec.transport import TransportStats, WorkerBoot, \
    WorkerStats, WorkerTransport

__all__ = [
    "ArraySpec",
    "CircuitBreaker",
    "ExecCounters",
    "ExecRouter",
    "ExecStats",
    "FAULT_KINDS",
    "FaultPlan",
    "FaultSpec",
    "FaultyTransport",
    "IDEMPOTENT_VERBS",
    "LocalTransport",
    "MUTATING_VERBS",
    "MultiprocessBackend",
    "ProcessTransport",
    "RetryPolicy",
    "ShardChannel",
    "SimulatedBackend",
    "TransportStats",
    "WorkerBoot",
    "WorkerService",
    "WorkerStats",
    "WorkerTransport",
    "map_array",
    "share_array",
    "snapshot_from_shared",
]
