"""Unified execution options for the query engine.

Every read of :class:`~repro.storage.BlotStore` — ``query()``,
``count()``, ``execute_workload()`` and ``execute_each()`` — accepts one
:class:`ExecOptions` value instead of a growing pile of ad-hoc keyword
arguments; routing alone (``route*``) is a pure cost computation and
takes none.  The deprecated bare
``parallelism=`` keyword shim has been removed; spell it
``options=ExecOptions(parallelism=...)``.

Default instances hold only plain data (``sleep`` is None unless a test
injects a recorder), so an :class:`ExecOptions` pickles cleanly and can
cross a ``spawn`` process boundary inside a serving-tier request.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.obs.distributed import TraceContext


@dataclass(frozen=True, slots=True)
class ExecOptions:
    """How a query or workload should be executed.

    - ``parallelism``: partition scans per query on the persistent
      thread pool (1 = serial).
    - ``use_cache``: consult/populate the store's decoded-partition
      cache when one is configured (False bypasses it for this call).
    - ``retries``: extra read attempts per partition after the first
      failure (transient faults, flaky object stores).  Whole-replica
      outages are never retried — the node is gone.
    - ``backoff_seconds``: base sleep before retry *k* (exponential:
      ``backoff_seconds * 2**(k-1)``); 0 retries immediately.
    - ``sleep``: the callable that performs the backoff sleep; None
      means ``time.sleep``.  Fault-injection tests and drills pass a
      no-op (or recording) sleeper so retried reads don't block
      wall-clock time.
    - ``failover``: on a failed partition read, re-route the query to
      the next-cheapest replica per the Eq. 6–7 cost ranking.
    - ``repair``: when every replica failed, attempt
      :func:`~repro.storage.recovery.repair_partition` from a surviving
      diverse replica before giving up with
      :class:`~repro.storage.faults.DegradedReadError`.
    - ``trace``: collect per-query spans into the store's
      :class:`~repro.obs.TraceRecorder` (requires an
      :class:`~repro.obs.Observability` attached to the store;
      a no-op otherwise).
    - ``trace_context``: a remote parent
      (:class:`~repro.obs.distributed.TraceContext`) for this call's
      root spans.  A shard worker sets it from the request frame so the
      engine's ``query``/``workload`` roots join the front door's
      trace instead of starting their own; None (the default) keeps
      roots local.  Plain frozen data, so the options still pickle
      across the spawn boundary.
    """

    parallelism: int = 1
    use_cache: bool = True
    retries: int = 2
    backoff_seconds: float = 0.0
    sleep: Callable[[float], None] | None = None
    failover: bool = True
    repair: bool = True
    trace: bool = False
    trace_context: "TraceContext | None" = None

    def __post_init__(self) -> None:
        if self.parallelism < 1:
            raise ValueError("parallelism must be >= 1")
        if self.retries < 0:
            raise ValueError("retries must be >= 0")
        if self.backoff_seconds < 0:
            raise ValueError("backoff_seconds must be non-negative")


#: The default options every entry point starts from.
DEFAULT_EXEC_OPTIONS = ExecOptions()
