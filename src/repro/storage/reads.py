"""The read surface: request/result types and the four public reads.

``query`` / ``count`` / ``execute_workload`` / ``execute_each`` are the
same thing — a list of :class:`ReadRequest` handed to one
``_execute`` hook — so they live here once, as :class:`ReadSurface`, and
both stores inherit them: :class:`~repro.storage.engine.BlotStore` runs
the plan → fetch → decode → filter → fold pipeline behind the hook,
:class:`~repro.storage.ingest.IngestingBlotStore` fans the same request
list over its layers and merges per request.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.costmodel.model import RoutingPlan
from repro.data.dataset import Dataset
from repro.errors import DegradedReadError
from repro.geometry import Box3
from repro.storage.options import DEFAULT_EXEC_OPTIONS, ExecOptions
from repro.workload.query import Query, Workload


@dataclass(frozen=True, slots=True)
class QueryStats:
    """Execution accounting for one range query.

    ``scanned_fraction`` is the paper's ``S`` (Figure 2): the share of the
    dataset's records that had to be scanned.  ``bytes_read`` counts bytes
    actually fetched from the unit store — partitions served from the
    decoded-partition cache contribute zero.  ``retries`` and
    ``failovers`` are 0 on a healthy read; a positive ``failovers`` means
    ``replica_name`` is not the replica routing originally chose.
    """

    replica_name: str
    partitions_involved: int
    records_scanned: int
    records_returned: int
    bytes_read: int
    seconds: float
    total_records: int
    retries: int = 0
    failovers: int = 0
    #: Ingest-path delta-buffer accounting, kept OUT of ``seconds`` /
    #: ``bytes_read`` so Eq. 7 calibration over measured replica scans
    #: never sees the buffer filter; the bytes are those of the buffered
    #: batches the request scanned.  Zero on plain
    #: :class:`BlotStore` reads; only
    #: :class:`~repro.storage.ingest.IngestingBlotStore` sets them.
    buffer_seconds: float = 0.0
    buffer_bytes_scanned: int = 0

    @property
    def scanned_fraction(self) -> float:
        if self.total_records == 0:
            return 0.0
        return self.records_scanned / self.total_records


@dataclass(frozen=True, slots=True)
class QueryResult:
    """Records matching the query plus execution statistics."""

    records: Dataset
    stats: QueryStats


@dataclass(frozen=True, slots=True)
class WorkloadStats:
    """Aggregate accounting for one :meth:`BlotStore.execute_workload` run.

    ``bytes_read`` counts unique store fetches — a partition shared by
    several queries (or served from the cache) is charged once or not at
    all, which is the whole point of the batch path.  ``cache_hits`` /
    ``cache_misses`` are deltas over this run only; ``cache_hit_rate`` is
    0.0 when no cache is configured.

    The degradation fields report failure handling: ``retries`` (partition
    reads retried), ``failovers`` (query re-routes to a fallback replica),
    ``repairs`` (units restored from a diverse replica mid-run),
    ``failed_replicas`` (replicas observed down), and
    ``degraded_cost_delta`` — the estimated extra cost (Eq. 7 seconds) of
    the replicas that actually served versus the healthy routing plan.
    All are zero/empty on a healthy run.
    """

    n_queries: int
    seconds: float
    bytes_read: int
    records_scanned: int
    records_returned: int
    #: Partitions fetched from the unit store and decoded (cache hits and
    #: partitions shared across queries are not re-counted).
    partitions_decoded: int
    cache_hits: int
    cache_misses: int
    per_replica_queries: dict[str, int]
    retries: int = 0
    failovers: int = 0
    repairs: int = 0
    degraded_cost_delta: float = 0.0
    failed_replicas: tuple[str, ...] = ()
    #: Ingest delta-buffer accounting (see :class:`QueryStats`); zero
    #: outside the ingest path.
    buffer_seconds: float = 0.0
    buffer_bytes_scanned: int = 0

    @property
    def cache_hit_rate(self) -> float:
        lookups = self.cache_hits + self.cache_misses
        if lookups == 0:
            return 0.0
        return self.cache_hits / lookups

    @property
    def degraded(self) -> bool:
        """True when any failure handling happened during the run."""
        return bool(self.retries or self.failovers or self.repairs
                    or self.failed_replicas)


@dataclass(frozen=True, slots=True)
class WorkloadResult:
    """Per-query results (workload order), the routing plan that produced
    them, and the aggregate execution statistics.  From
    :meth:`BlotStore.execute_each` a slot holds the
    :class:`~repro.storage.faults.DegradedReadError` its query ended in
    instead of a result; :meth:`BlotStore.execute_workload` raises the
    first such error rather than return a partial set."""

    results: tuple[QueryResult | DegradedReadError, ...]
    plan: RoutingPlan
    stats: WorkloadStats


@dataclass(frozen=True, slots=True)
class ReadRequest:
    """One read handed to the pipeline: the positioned ``query`` (what
    routing and telemetry see), the exact ``box`` to filter by, and the
    fold — records by default, ``count=True`` for the counting fold,
    whose :class:`QueryResult` carries the ``int`` total in ``records``.

    ``box`` is kept beside the query because re-deriving it from the
    centered form can move a face by one ulp, dropping or admitting
    records that lie exactly on the query boundary: a caller's raw
    :class:`Box3` is scanned against those exact bounds.
    """

    query: Query
    box: Box3
    count: bool = False

    @classmethod
    def of(cls, query: Query | Box3, count: bool = False) -> "ReadRequest":
        if isinstance(query, Box3):
            return cls(Query.from_box(query), query, count)
        return cls(query, query.box(), count)


def positioned_requests(workload: Workload) -> list[ReadRequest]:
    """One records-fold request per query of ``workload``; a batch reads
    positioned queries only."""
    requests = []
    for i, (q, _) in enumerate(workload):
        if not isinstance(q, Query):
            raise ValueError(
                f"batch reads need positioned queries; entry {i} is a "
                f"grouped query {q!r} (position it with .at())"
            )
        requests.append(ReadRequest(q, q.box()))
    return requests


class ReadSurface:
    """The four public reads over one ``_execute(requests, opts, batch=,
    replica=)`` hook (see the module docstring): they only build
    :class:`ReadRequest` lists and unwrap outcomes."""

    def query(
        self,
        query: Query | Box3,
        replica: str | None = None,
        options: ExecOptions | None = None,
    ) -> QueryResult:
        """Process a range query (Section II-D): a batch of one with the
        records fold.

        ``query`` may be a positioned :class:`Query` or a raw box (then
        scanned against its exact bounds; the derived :class:`Query` is
        used only for routing).  When ``replica`` is None the engine
        routes by estimated cost.  Execution behavior — cache policy,
        retries, failover, repair — comes from ``options`` (:class:`~repro.storage.options.ExecOptions`).
        When the serving replica fails mid-read the query transparently
        fails over down the cost ranking; on exhaustion the engine tries
        a diverse-replica repair, then raises
        :class:`~repro.storage.faults.DegradedReadError`.
        """
        return self._read_one(ReadRequest.of(query), replica, options)

    def count(
        self,
        query: Query | Box3,
        replica: str | None = None,
        options: ExecOptions | None = None,
    ) -> tuple[int, QueryStats]:
        """Count records in a range without materializing them: a batch
        of one with the counting fold.

        Partitions wholly *contained* by the query range contribute their
        metadata record count with no decoding at all; only boundary
        partitions — intersected but not contained — are decoded (their
        ``x``/``y``/``t`` columns only, on columnar v2) and filtered.  For
        large ranges this touches a tiny fraction of the data: the
        count-query analogue of the paper's sequential-scan argument.
        Same options, same retry/failover/repair semantics and same
        exact-bounds rule as :meth:`query` — it is the same pipeline.
        """
        result = self._read_one(ReadRequest.of(query, count=True),
                                replica, options)
        return result.records, result.stats

    def _read_one(self, request: ReadRequest, replica: str | None,
                  options: ExecOptions | None) -> QueryResult:
        opts = options if options is not None else DEFAULT_EXEC_OPTIONS
        (outcome,), _, _ = self._execute([request], opts, batch=False,
                                         replica=replica)
        if isinstance(outcome, DegradedReadError):
            raise outcome
        return outcome

    def execute_each(
        self,
        workload: Workload,
        options: ExecOptions | None = None,
        replica: str | None = None,
    ) -> WorkloadResult:
        """Execute a whole workload of positioned queries in one batch
        and return one outcome per query: a :class:`QueryResult`, or the
        :class:`~repro.storage.faults.DegradedReadError` that query
        ended in — one unreadable partition never costs the other
        queries their answers.

        The workload is routed the way :meth:`BlotStore.route_workload`
        routes it (unless ``replica`` pins every query the way
        ``query(replica=)`` does), grouped by chosen replica, and each
        replica's involved-partition *union* is read exactly once, on the
        calling thread, with every query that touches a partition
        evaluated against it.
        A query's records therefore match sequential
        ``query(q, replica=...)`` exactly, record order included.

        Failure handling is the per-query path's, at batch granularity:
        queries touching a failed partition move as a group to each
        one's next-cheapest replica and join that replica's union scan
        in the next round; a query that exhausts every replica goes
        through the repair path.  The degradation is accounted in
        :class:`WorkloadStats` (retries, failovers, repairs, failed
        replicas, and the estimated cost delta vs. the healthy plan).
        """
        opts = options if options is not None else DEFAULT_EXEC_OPTIONS
        outcomes, plan, stats = self._execute(positioned_requests(workload),
                                              opts, batch=True, replica=replica)
        return WorkloadResult(results=tuple(outcomes), plan=plan, stats=stats)

    def execute_workload(
        self,
        workload: Workload,
        options: ExecOptions | None = None,
    ) -> WorkloadResult:
        """:meth:`execute_each`, all-or-nothing: if any query could not
        be served the call raises that query's
        :class:`~repro.storage.faults.DegradedReadError` — never a
        partial result set."""
        result = self.execute_each(workload, options=options)
        for outcome in result.results:
            if isinstance(outcome, DegradedReadError):
                raise outcome
        return result
