"""Replicated, retrying shard channel: the resilience half of the RPC.

A :class:`ShardChannel` owns every replica transport of one shard and
presents the same ``submit``/``result``/``call`` surface a single
:class:`~repro.exec.transport.WorkerTransport` does, so the router's
pipelined fan-out code is unchanged.  Underneath it implements the
tier's delivery contract:

* **verb classes** — :data:`IDEMPOTENT_VERBS` are pure reads (safe to
  re-execute anywhere); :data:`MUTATING_VERBS` change worker state and
  are *sequenced*: the channel stamps each with a per-shard monotonic
  call id and the worker's dedup cache answers redeliveries from its
  reply log, turning at-least-once wire delivery into exactly-once
  application.
* **retry with backoff** — a failed idempotent call retries against
  any live replica under a :class:`RetryPolicy` (deadline-bounded
  exponential backoff with deterministic jitter).  A failed *sequenced*
  call retries against the same replica with the same id while that
  replica lives; a replica that cannot be made to apply a committed
  write is dropped from the set (it has missed history and can never
  serve reads again).
* **failover** — reads target the current primary; a dead or
  breaker-tripped primary fails over to the first live, admitted
  replica and that replica *becomes* the primary.  Replicas converge
  through the same sequenced delta stream, so failover is bit-exact.
  A ``refresh`` reaches only the read target and a read never
  refreshes, so a read on any replica but the one that answered the
  last refresh refreshes its rows there first.
* **circuit breaker** — per replica, consecutive failures past a
  threshold open the breaker: the replica is skipped (fail-fast)
  until a cooldown elapses, then one half-open probe either closes it
  or re-arms the cooldown.

The channel raises :class:`WorkerDeadError` only when *no* replica can
serve — the signal the router's degraded mode keys on.  Every retry,
timeout, failover, breaker trip and replica death is reported through
``on_event`` so the router can count them into the telemetry registry,
and so is every refresh the channel runs (``rows`` it recomputed).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.errors import DatasetError, ExecError, StoreError, \
    WorkerDeadError, WorkerTimeoutError
from repro.exec.transport import WorkerTransport

__all__ = ["IDEMPOTENT_VERBS", "MUTATING_VERBS", "RetryPolicy",
           "CircuitBreaker", "ShardChannel"]

# pure reads: re-executing on any replica returns the same answer
# (a refresh only recomputes rows to the values they already denote)
IDEMPOTENT_VERBS = frozenset({
    "refresh", "embedding_rows", "ping", "export_state", "stats",
    "telemetry", "debug_sleep"})

# state-changing verbs: sequenced for exactly-once application
MUTATING_VERBS = frozenset({
    "apply_delta", "begin_advance", "finish_advance", "import_temporal",
    "adopt_state"})

# transport failures are always retryable; DatasetError / StoreError
# from a *sequenced* delivery mean the payload failed its integrity
# check before touching state (e.g. a corrupted delta's base checksum),
# so a pristine redelivery is safe and worth attempting
RETRYABLE = (WorkerDeadError, WorkerTimeoutError, DatasetError,
             StoreError)


@dataclass(frozen=True)
class RetryPolicy:
    """Bounds on how hard one logical call may try."""

    max_attempts: int = 4          # total deliveries per logical call
    base_backoff_s: float = 0.002  # first retry's nominal sleep
    backoff_multiplier: float = 2.0
    max_backoff_s: float = 0.05
    jitter: float = 0.5            # fraction of the sleep randomized
    deadline_s: float = 5.0        # wall-clock budget per logical call

    def backoff_s(self, attempt: int, rng: np.random.Generator) -> float:
        """Sleep before retry ``attempt`` (1-based): capped exponential
        with deterministic (seeded) jitter to de-correlate replicas."""
        nominal = min(self.max_backoff_s,
                      self.base_backoff_s
                      * self.backoff_multiplier ** (attempt - 1))
        if self.jitter <= 0.0:
            return nominal
        return nominal * (1.0 - self.jitter * rng.random())


class CircuitBreaker:
    """Consecutive-failure breaker with half-open probes.

    ``closed`` admits every call.  ``threshold`` consecutive failures
    trip it ``open``: calls are refused (fail-fast) until
    ``cooldown_s`` elapses, after which one probe is admitted — success
    closes the breaker, failure re-arms the cooldown."""

    def __init__(self, threshold: int = 5, cooldown_s: float = 0.25,
                 clock=time.perf_counter) -> None:
        if threshold < 1:
            raise ExecError("breaker threshold must be >= 1")
        self.threshold = threshold
        self.cooldown_s = cooldown_s
        self.clock = clock
        self.state = "closed"
        self.failures = 0        # consecutive
        self.trips = 0
        self._opened_at: float | None = None

    def allow(self) -> bool:
        if self.state == "closed":
            return True
        return self.clock() - self._opened_at >= self.cooldown_s

    def record_success(self) -> None:
        self.failures = 0
        self.state = "closed"
        self._opened_at = None

    def record_failure(self) -> bool:
        """Count one failure; True iff this one tripped the breaker."""
        self.failures += 1
        if self.state == "open":
            self._opened_at = self.clock()  # failed probe re-arms
            return False
        if self.failures >= self.threshold:
            self.state = "open"
            self._opened_at = self.clock()
            self.trips += 1
            return True
        return False


_WRITE_FAILED = object()  # sentinel: replica permanently lost the write


class ShardChannel:
    """All replicas of one shard behind a transport-shaped surface."""

    def __init__(self, shard_id: int, transports: list, *,
                 policy: RetryPolicy | None = None,
                 breaker_threshold: int = 5,
                 breaker_cooldown_s: float = 0.25,
                 seed: int = 0,
                 clock=time.perf_counter,
                 on_event=None) -> None:
        if not transports:
            raise ExecError(f"shard {shard_id}: channel needs a replica")
        self.shard_id = shard_id
        self.policy = policy if policy is not None else RetryPolicy()
        self.clock = clock
        self.on_event = on_event if on_event is not None \
            else (lambda event, **kw: None)
        self._breaker_threshold = breaker_threshold
        self._breaker_cooldown_s = breaker_cooldown_s
        self._rng = np.random.default_rng([seed, shard_id])
        self._seq = 0            # survives replica resets: ids are per
        #                          shard, not per incarnation
        self._primary = 0
        self._pending: tuple | None = None
        self.replicas: list[WorkerTransport] = []
        self.breakers: list[CircuitBreaker] = []
        self._failed: list[bool] = []
        self.reset(transports)

    # -- replica-set management -------------------------------------------------------
    def reset(self, transports: list) -> None:
        """Install a fresh replica set (revival); the sequence counter
        carries over, so a fresh worker's empty dedup cache never
        collides with in-flight ids."""
        self.replicas = list(transports)
        self.breakers = [CircuitBreaker(self._breaker_threshold,
                                        self._breaker_cooldown_s,
                                        self.clock)
                         for _ in self.replicas]
        self._failed = [False] * len(self.replicas)
        self._primary = 0
        self._refreshed: int | None = None  # replica of the last refresh
        self._pending = None

    def _live(self) -> list[int]:
        out = []
        for i, t in enumerate(self.replicas):
            if self._failed[i]:
                continue
            if not t.alive:
                # a death observed via liveness (no failed RPC needed)
                # still counts: mark it so the event fires exactly once
                self._failed[i] = True
                self.on_event("replica_dead", replica=i)
                continue
            out.append(i)
        return out

    @property
    def alive(self) -> bool:
        """True while any replica can still serve this shard."""
        return bool(self._live())

    @property
    def primary(self) -> WorkerTransport:
        """The current read target (the original primary until a
        failover promoted a replica)."""
        return self.replicas[self._primary]

    def _record_success(self, i: int) -> None:
        self.breakers[i].record_success()

    def _record_failure(self, i: int, verb: str, exc: Exception) -> None:
        if isinstance(exc, WorkerTimeoutError):
            self.on_event("timeout", verb=verb, replica=i)
        if self.breakers[i].record_failure():
            self.on_event("breaker_trip", replica=i)
        if not self.replicas[i].alive and not self._failed[i]:
            self._failed[i] = True
            self.on_event("replica_dead", replica=i)

    def _read_target(self) -> int:
        """The replica index reads should hit, promoting on failover;
        raises :class:`WorkerDeadError` when no replica is admissible."""
        live = self._live()
        if not live:
            raise WorkerDeadError(
                f"shard {self.shard_id} has no live replica")
        admitted = [i for i in live if self.breakers[i].allow()]
        if not admitted:
            raise WorkerDeadError(
                f"shard {self.shard_id}: every live replica's circuit "
                f"breaker is open")
        if self._primary in admitted:
            return self._primary
        target = admitted[0]
        self.on_event("failover", from_replica=self._primary,
                      to_replica=target)
        self._primary = target
        return target

    def _sleep_backoff(self, attempt: int) -> None:
        delay = self.policy.backoff_s(attempt, self._rng)
        if delay > 0.0:
            time.sleep(delay)

    # -- transport-shaped surface -----------------------------------------------------
    def submit(self, verb: str, *args) -> None:
        """Post one logical call.  Reads go to the read target; writes
        take a fresh sequence id and fan to *every* live replica (the
        shared delta stream is what keeps replicas convergent)."""
        if self._pending is not None:
            raise ExecError(
                f"shard {self.shard_id}: channel call already pending")
        seq = None
        if verb in MUTATING_VERBS:
            self._seq += 1
            seq = self._seq
            targets = self._live()
            if not targets:
                raise WorkerDeadError(
                    f"shard {self.shard_id} has no live replica")
        else:
            targets = [self._read_target()]
        posted = []
        for i in targets:
            try:
                self.replicas[i].submit(verb, *args, seq=seq)
                posted.append(i)
            except RETRYABLE as exc:
                self._record_failure(i, verb, exc)
        self._pending = (verb, args, seq, targets, posted, self.clock())

    def result(self):
        if self._pending is None:
            raise ExecError(f"shard {self.shard_id}: no call pending")
        verb, args, seq, targets, posted, t0 = self._pending
        self._pending = None
        deadline = t0 + self.policy.deadline_s
        replies: dict[int, object] = {}
        fatal: Exception | None = None
        for i in posted:
            try:
                replies[i] = self.replicas[i].result()
                self._record_success(i)
            except RETRYABLE as exc:
                self._record_failure(i, verb, exc)
            except Exception as exc:
                # a genuine handler error is not the wire's fault: drain
                # every other pending reply, then let it propagate
                fatal = exc
        if fatal is not None:
            raise fatal
        if seq is None:
            if replies:
                i, out = next(iter(replies.items()))
            else:
                i, out = self._retry_read(
                    verb, lambda i: self.replicas[i].call(verb, *args),
                    deadline, attempts=1)
            if verb == "refresh":
                self._refreshed = i
                self.on_event("refresh", rows=out)
            return out
        # sequenced write: every replica that has not yet applied it
        # either applies on retry or leaves the replica set
        for i in targets:
            if i in replies or self._failed[i]:
                continue
            out = self._retry_write(i, verb, args, seq, deadline)
            if out is not _WRITE_FAILED:
                replies[i] = out
        if not replies:
            raise WorkerDeadError(
                f"shard {self.shard_id}: no replica could apply {verb}")
        # the read target's reply: its counts are the ones its reads see
        return replies.get(self._primary, replies[min(replies)])

    def call(self, verb: str, *args):
        self.submit(verb, *args)
        return self.result()

    # -- retry loops ------------------------------------------------------------------
    def _retry_read(self, verb: str, invoke, deadline: float,
                    attempts: int):
        last: Exception | None = None
        while attempts < self.policy.max_attempts \
                and self.clock() < deadline:
            self._sleep_backoff(attempts)
            attempts += 1
            i = self._read_target()  # raises once the shard is down
            self.on_event("retry", verb=verb, replica=i)
            try:
                out = invoke(i)
                self._record_success(i)
                return i, out
            except RETRYABLE as exc:
                last = exc
                self._record_failure(i, verb, exc)
        raise WorkerDeadError(
            f"shard {self.shard_id}: {verb} failed after {attempts} "
            f"attempts") from last

    def _retry_write(self, i: int, verb: str, args: tuple, seq: int,
                     deadline: float):
        """Redeliver a sequenced write to replica ``i`` (same id — the
        worker's dedup cache absorbs any double application).  A replica
        that cannot be made to apply is marked failed: it has missed
        committed history."""
        attempts = 1
        last: Exception | None = None
        while attempts < self.policy.max_attempts \
                and self.clock() < deadline and self.replicas[i].alive:
            self._sleep_backoff(attempts)
            attempts += 1
            self.on_event("retry", verb=verb, replica=i)
            try:
                out = self.replicas[i].call(verb, *args, seq=seq)
                self._record_success(i)
                return out
            except RETRYABLE as exc:
                last = exc
                self._record_failure(i, verb, exc)
        if not self._failed[i]:
            self._failed[i] = True
            self.on_event("replica_dead", replica=i, verb=verb,
                          reason=str(last) if last is not None else
                          "write retries exhausted")
        return _WRITE_FAILED

    # -- reads with transport fast paths ----------------------------------------------
    def embedding_rows(self, rows: np.ndarray) -> np.ndarray:
        """Stored rows from the read target (keeps each transport's
        shared-memory fast path), with read failover on failure.  A read
        does not refresh, and only the replica that answered the last
        ``refresh`` computed the rows it was asked for, so a read that
        lands on any other replica (a failover, silent or not) refreshes
        ``rows``' cone there first."""
        def read(i: int) -> np.ndarray:
            t = self.replicas[i]
            if i != self._refreshed:
                self.on_event("refresh", rows=t.call("refresh", rows))
            return t.embedding_rows(rows)

        t0 = self.clock()
        i = self._read_target()
        try:
            out = read(i)
            self._record_success(i)
            return out
        except RETRYABLE as exc:
            self._record_failure(i, "embedding_rows", exc)
        return self._retry_read("embedding_rows", read,
                                t0 + self.policy.deadline_s, attempts=1)[1]

    # -- liveness ---------------------------------------------------------------------
    def ping(self, timeout: float | None = None) -> bool:
        """Ping every live replica; True while at least one answers."""
        ok = False
        for i in self._live():
            if self.replicas[i].ping(timeout=timeout):
                self._record_success(i)
                ok = True
            else:
                self._record_failure(
                    i, "ping",
                    WorkerTimeoutError(
                        f"shard {self.shard_id} replica {i}: ping "
                        f"timed out")
                    if self.replicas[i].alive else
                    WorkerDeadError(
                        f"shard {self.shard_id} replica {i} is dead"))
        return ok

    def close(self) -> None:
        for t in self.replicas:
            t.close()
