"""The consolidated exception surface of the repro package.

Every structured failure the engine and the serving tier can raise
lives here, dependency-free, so any layer (storage, cluster, serve,
CLI) can catch them without import cycles:

- :class:`InjectedFault` — a fault fired by a
  :class:`~repro.storage.faults.FaultInjector` on a storage read;
- :class:`PartitionReadError` — one partition read stayed failed after
  the configured retries (injected or real damage);
- :class:`DegradedReadError` — a query exhausted every replica and
  repair could not restore a readable copy;
- :class:`ReplicaExists` — registering a replica under a taken name;
- :class:`OverloadError` — the serving tier shed a query at admission
  (load shedding is explicit, never silent truncation);
- :class:`QuotaExceededError` — a tenant ran out of request budget;
- :class:`DeadlineExceededError` — a request's propagated deadline
  expired before (or while) a shard served it;
- :class:`SnapshotMergeError` — two per-process metric snapshots could
  not be merged (mismatched sketch resolution).

Import them from here, from ``repro`` or (the storage ones) from
``repro.storage``; the modules that raise them no longer re-export them.
"""

from __future__ import annotations


class InjectedFault(RuntimeError):
    """A fault fired by a :class:`~repro.storage.faults.FaultInjector`
    on a storage read.

    ``scope`` is ``"replica"`` when the whole replica is down (retry and
    repair are pointless — the node is gone) or ``"partition"`` when a
    single storage unit is unreadable (repair from a diverse replica can
    restore it).
    """

    def __init__(self, replica_name: str, partition_id: int | None = None,
                 scope: str = "partition"):
        self.replica_name = replica_name
        self.partition_id = partition_id
        self.scope = scope
        where = (f"replica {replica_name!r}" if scope == "replica"
                 else f"partition {partition_id} of replica {replica_name!r}")
        super().__init__(f"injected fault: {where} is failed")


class PartitionReadError(RuntimeError):
    """A partition read that stayed failed after the configured retries.

    Wraps the last underlying error (an :class:`InjectedFault`, a
    :class:`~repro.storage.unit.UnitNotFound`, a decoder error on
    corrupt bytes, ...) so callers can tell injected faults from real
    damage, and whole-replica outages from single-unit ones.
    """

    def __init__(self, replica_name: str, partition_id: int | None,
                 cause: BaseException, attempts: int = 1):
        self.replica_name = replica_name
        self.partition_id = partition_id
        self.cause = cause
        self.attempts = attempts
        super().__init__(
            f"replica {replica_name!r} partition {partition_id}: read failed "
            f"after {attempts} attempt(s): {cause}"
        )

    @property
    def replica_failed(self) -> bool:
        """True when the failure is a whole-replica outage."""
        return (isinstance(self.cause, InjectedFault)
                and self.cause.scope == "replica")


class DegradedReadError(RuntimeError):
    """Every replica able to serve a query failed, and repair could not
    restore a readable copy.

    ``attempts`` records ``(replica_name, error)`` per replica tried, in
    fallback-ranking order, so operators see exactly which copies were
    consulted and why each one failed.
    """

    def __init__(self, message: str,
                 attempts: tuple[tuple[str, Exception], ...] = ()):
        self.attempts = tuple(attempts)
        detail = "; ".join(f"{name}: {err}" for name, err in self.attempts)
        super().__init__(message + (f" [{detail}]" if detail else ""))


class ReplicaExists(ValueError):
    """Raised when adding a replica under a name already in use."""


class OverloadError(RuntimeError):
    """The serving tier refused a query at admission: the in-flight
    limit was reached and the query was shed rather than queued without
    bound.  Shedding is always this structured signal — a shed query
    never silently returns a truncated result.

    ``inflight``/``limit`` report the pressure at rejection time so
    clients can back off proportionally.
    """

    def __init__(self, inflight: int, limit: int):
        self.inflight = inflight
        self.limit = limit
        super().__init__(
            f"serving tier overloaded: {inflight} queries in flight "
            f"(admission limit {limit})"
        )


class QuotaExceededError(RuntimeError):
    """A tenant exhausted its request budget and the query was rejected
    before admission.  ``retry_after_seconds`` is the token-bucket
    refill horizon — the earliest time a retry can succeed."""

    def __init__(self, tenant: str, retry_after_seconds: float = 0.0):
        self.tenant = tenant
        self.retry_after_seconds = float(retry_after_seconds)
        super().__init__(
            f"tenant {tenant!r} exceeded its query quota"
            + (f" (retry in {retry_after_seconds:.2f}s)"
               if retry_after_seconds > 0 else "")
        )


class DeadlineExceededError(RuntimeError):
    """A request's propagated deadline (absolute wall-clock seconds,
    carried by :class:`~repro.obs.distributed.TraceContext`) expired
    before the work completed.  The front door raises it instead of
    dispatching; a shard worker reports it as the task failure when the
    frame arrives already expired."""

    def __init__(self, deadline: float, now: float):
        self.deadline = float(deadline)
        self.now = float(now)
        super().__init__(
            f"deadline exceeded: {now - deadline:.3f}s past the deadline"
        )


class WorkerLostError(RuntimeError):
    """A shard worker's pipe reached end-of-file: the process (or
    thread) behind ``shard_id`` is gone, so its slice of every answer
    is unreachable.  Every request pending on that shard, and every
    later one, fails with this error instead of waiting forever.
    ``exitcode`` is the dead process's exit status (negative for a
    signal) when it could be reaped, else None."""

    def __init__(self, shard_id: int, exitcode: int | None = None):
        self.shard_id = int(shard_id)
        self.exitcode = exitcode
        super().__init__(
            f"shard worker {shard_id} is gone"
            + (f" (exit code {exitcode})" if exitcode is not None else "")
        )


class SnapshotMergeError(ValueError):
    """Two per-process metric snapshots disagree on a quantile sketch's
    resolution (``alpha``), so a bucket-wise merge would silently
    misbin observations.  Carries the metric identity and both
    resolutions for diagnosis."""

    def __init__(self, name: str, labels: dict, reason: str,
                 ours=None, theirs=None):
        self.name = name
        self.labels = dict(labels)
        self.reason = reason
        self.ours = ours
        self.theirs = theirs
        detail = f" (ours={ours!r}, theirs={theirs!r})" \
            if ours is not None or theirs is not None else ""
        super().__init__(
            f"cannot merge metric {name!r} {self.labels!r}: {reason}{detail}"
        )


__all__ = [
    "DeadlineExceededError",
    "DegradedReadError",
    "InjectedFault",
    "OverloadError",
    "PartitionReadError",
    "QuotaExceededError",
    "ReplicaExists",
    "SnapshotMergeError",
    "WorkerLostError",
]
