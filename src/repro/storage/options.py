"""Unified execution options for the query engine.

Every read of :class:`~repro.storage.BlotStore` — ``query()``,
``count()``, ``execute_workload()`` and ``execute_each()`` — accepts one
:class:`ExecOptions` value instead of a growing pile of ad-hoc keyword
arguments; routing alone (``route*``) is a pure cost computation and
takes none.

An :class:`ExecOptions` holds only plain data, so it pickles cleanly
and can cross a ``spawn`` process boundary inside a serving-tier
request.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs.distributed import TraceContext


@dataclass(frozen=True, slots=True)
class ExecOptions:
    """How a query or workload should be executed.

    - ``use_cache``: consult/populate the store's decoded-partition
      cache when one is configured (False bypasses it for this call).
    - ``retries``: extra read attempts per partition after the first
      failure (transient faults, flaky object stores), made at once.
      Whole-replica outages are never retried — the node is gone.
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
      roots local.
    """

    use_cache: bool = True
    retries: int = 2
    failover: bool = True
    repair: bool = True
    trace: bool = False
    trace_context: "TraceContext | None" = None

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ValueError("retries must be >= 0")


#: The default options every entry point starts from.
DEFAULT_EXEC_OPTIONS = ExecOptions()
