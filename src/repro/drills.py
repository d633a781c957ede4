"""The drill scenarios behind ``repro drill``, ``repro ingest``,
``repro reselect``, ``repro serve`` and ``repro slo``, as importable
functions.

The CLI parses arguments, calls one of these and prints; the test suite
calls the same functions, so the code a CI drill exercises on the
command line is the code Tier-1 executes.
"""

from __future__ import annotations

import asyncio
import dataclasses
from collections import Counter
from typing import NamedTuple

import numpy as np

from repro.core import (
    AdvisorConfig,
    ReplicaAdvisor,
    ReselectionConfig,
    ReselectionController,
    replica_builder,
)
from repro.costmodel import CostModel, EncodingCostParams
from repro.encoding import encoding_scheme_by_name
from repro.errors import DegradedReadError
from repro.geometry import Box3
from repro.obs import Observability, SLOEngine, build_report, validate_report
from repro.partition import small_partitioning_schemes
from repro.serve import (
    FleetReport,
    FleetSpec,
    ShardServer,
    fleet_queries,
    run_fleet,
)
from repro.storage import (
    BlotStore,
    FaultInjector,
    FaultSpec,
    WorkloadResult,
    hydrate_store,
)
from repro.storage.ingest import IngestingBlotStore
from repro.storage.wal import wal_state_exists
from repro.verify.oracle import (
    canonical,
    datasets_identical,
    oracle_answer,
    random_boxes,
)
from repro.workload import GroupedQuery, Query, Workload

# -- failure drill ------------------------------------------------------------


class FailureDrill(NamedTuple):
    healthy: WorkloadResult
    #: The degraded pass, or the error it ended in when the schedule
    #: left some query unservable.
    degraded: WorkloadResult | DegradedReadError
    injector: FaultInjector
    #: The replica taken down when no schedule was given, else None.
    victim: str | None
    #: Whether every answer of both passes is bit-equal to the oracle.
    identical: bool


def run_failure_drill(store: BlotStore, workload: Workload,
                      faults: FaultSpec | None, options=None
                      ) -> FailureDrill:
    """Run ``workload`` healthy, impose ``faults`` and run it again.
    Without a schedule, the replica the healthy routing leaned on
    hardest goes down — the most informative single-node drill."""
    healthy = store.execute_workload(workload, options=options)
    victim = None
    if faults is None:
        victim = max(healthy.stats.per_replica_queries.items(),
                     key=lambda kv: (kv[1], kv[0]))[0]
        faults = FaultSpec(fail_replicas=(victim,))
    injector = faults.build()
    store.set_fault_injector(injector)
    if store.partition_cache is not None:
        # A drill measures the degraded read path, not yesterday's cache.
        store.partition_cache.clear()
    try:
        degraded = store.execute_workload(workload, options=options)
    except DegradedReadError as exc:
        return FailureDrill(healthy, exc, injector, victim, False)
    data = store.dataset
    oracles = [oracle_answer(data, q.box()) for q in workload.queries()]
    identical = all(datasets_identical(r.records, want)
                    for result in (healthy, degraded)
                    for r, want in zip(result.results, oracles))
    return FailureDrill(healthy, degraded, injector, victim, identical)


# -- ingest -------------------------------------------------------------------

#: Seeded sub-boxes the ingest drill checks besides the full range.
INGEST_SUB_BOXES = 8


class IngestDrill(NamedTuple):
    #: ``(records, buffered)`` as reopened when ``wal_dir`` held state.
    resumed: tuple[int, int] | None
    #: The phase whose reads were not bit-equal to the oracle, or None.
    failed_phase: str | None
    #: What ``repro ingest --json`` prints (empty after a failed phase).
    summary: dict


def ingest_reads_bit_equal(store: IngestingBlotStore, seed: int) -> bool:
    """The full range and seeded sub-boxes, through ``query`` and
    ``count``, against the oracle over the store's logical dataset."""
    logical = store.dataset()  # decoded from one replica per layer
    for box in [logical.bounding_box(),
                *random_boxes(logical, INGEST_SUB_BOXES, seed)]:
        want = oracle_answer(logical, box)
        if (not datasets_identical(store.query(box).records, want)
                or store.count(box)[0] != len(want)):
            return False
    return True


def run_ingest_drill(data, specs, wal_dir: str, *, batch_size: int,
                     seed: int, anti_entropy: bool = False,
                     **settings) -> IngestDrill:
    """Stream ``data`` into an :class:`IngestingBlotStore` durable under
    ``wal_dir`` and check every acknowledged record reads back.

    A fresh directory starts from the first half of ``data`` and appends
    the rest in order, so a directory holding WAL state holds an
    acknowledged prefix of ``data``: it is reopened (the recovery path)
    and the records past that prefix are appended.  Reads are checked right
    after the last append, while the buffer still holds batches, and
    again once compaction has folded them.  ``settings`` are the store's
    keyword arguments."""
    resumed = None
    if wal_state_exists(wal_dir):
        store = IngestingBlotStore.open(wal_dir, specs, **settings)
        resumed, start = (len(store), store.buffered_records), len(store)
    else:
        start = max(1, len(data) // 2)
        store = IngestingBlotStore(data.take(np.arange(start)), specs,
                                   wal_dir=wal_dir, **settings)
    try:
        for lo in range(start, len(data), batch_size):
            store.append(data.take(np.arange(lo, min(lo + batch_size,
                                                     len(data)))))
        if not ingest_reads_bit_equal(store, seed):
            return IngestDrill(resumed, "after the last append", {})
        store.wait_for_compaction()
        if not ingest_reads_bit_equal(store, seed):
            return IngestDrill(resumed, "after compaction", {})
        reports = store.anti_entropy() if anti_entropy else []
        return IngestDrill(resumed, None, {
            "records": len(store),
            "appended": len(data) - start,
            "buffered": store.buffered_records,
            "compactions": store.compactions,
            "compaction_failures": store.compaction_failures,
            "windows": len(store.windows),
            "anti_entropy_ok": (all(r.ok for r in reports)
                                if reports else None),
            "wal_dir": wal_dir,
            "wal_segments": len(store.wal.segment_ids()),
        })
    finally:
        store.close()


# -- reselection --------------------------------------------------------------


class ReselectScenario(NamedTuple):
    """A live store serving the Eq. 1-5 selection for a wide-scan
    baseline, with a reselection controller wired through the engine's
    obs hooks."""

    store: BlotStore
    controller: ReselectionController
    obs: Observability
    #: The data's bounding box (the query generators position in it).
    bb: Box3
    #: Replica names deployed for the baseline workload.
    incumbent: list[str]


def reselect_scenario(data, *, copies: int = 3,
                      config: ReselectionConfig | None = None,
                      cache_bytes: int | None = None, timeseries=None,
                      seed: int = 0) -> ReselectScenario:
    """Data -> cost regime -> advisor -> baseline -> initial set ->
    attached controller.  ``copies`` is the storage budget in copies of
    the best single replica; ``seed`` seeds the controller's workload
    clustering."""
    bb = data.bounding_box()
    encodings = [encoding_scheme_by_name(n)
                 for n in ("ROW-PLAIN", "COL-GZIP")]
    schemes = small_partitioning_schemes((4, 16, 64), (2, 4))
    # A scan-bound cost regime (low per-partition overhead): wide scans
    # favor coarse row-plain replicas, hot-spot probes favor fine
    # compressed ones — so a workload shift genuinely moves the Eq. 5
    # optimum, which is the point of the drill.
    model = CostModel({
        "ROW-PLAIN": EncodingCostParams(scan_rate=250_000,
                                        extra_time=0.004),
        "COL-GZIP": EncodingCostParams(scan_rate=100_000,
                                       extra_time=0.001),
    })
    advisor = ReplicaAdvisor(data, schemes, encodings, model,
                             AdvisorConfig(n_records=len(data)))
    baseline = Workload([
        (GroupedQuery(bb.width * 0.6, bb.height * 0.6, bb.duration * 0.6),
         0.9),
        (GroupedQuery(bb.width * 0.2, bb.height * 0.2, bb.duration * 0.2),
         0.1),
    ])
    budget = advisor.single_replica_budget(baseline, copies=copies)
    initial = advisor.recommend(baseline, budget, method="local-search")
    build = replica_builder(data, schemes, encodings,
                            universe=advisor.universe)

    obs = Observability.create()
    store = BlotStore(data, cost_model=model, cache_bytes=cache_bytes,
                      observability=obs)
    for name in initial.replica_names:
        store.register_replica(build(name))
    controller = obs.attach_reselector(ReselectionController(
        store, advisor, budget, baseline, build=build, config=config,
        obs=obs, timeseries=timeseries, rng=np.random.default_rng(seed)))
    return ReselectScenario(store, controller, obs, bb,
                            list(store.replica_names()))


def positioned_query(bb, frac: float, rng) -> Query:
    """A query spanning ``frac`` of every axis, uniformly positioned."""
    w, h, t = bb.width * frac, bb.height * frac, bb.duration * frac
    return Query(
        w, h, t,
        rng.uniform(bb.x_min + w / 2, bb.x_max - w / 2),
        rng.uniform(bb.y_min + h / 2, bb.y_max - h / 2),
        rng.uniform(bb.t_min + t / 2, bb.t_max - t / 2))


def baseline_query(bb, rng) -> Query:
    """One query shaped like the scenario's baseline workload: 90 % wide
    scans, 10 % mid-size, uniformly positioned."""
    return positioned_query(bb, 0.6 if rng.uniform() < 0.9 else 0.2, rng)


def hotspot_query(bb, rng) -> Query:
    """One tiny probe jittered around a fixed corner of the universe —
    the drifted workload."""
    return Query(
        bb.width * 0.02, bb.height * 0.02, bb.duration * 0.02,
        bb.x_min + bb.width * 0.25
        + rng.uniform(-bb.width, bb.width) * 0.05,
        bb.y_min + bb.height * 0.25
        + rng.uniform(-bb.height, bb.height) * 0.05,
        bb.t_min + bb.duration * 0.25
        + rng.uniform(-bb.duration, bb.duration) * 0.05)


def probe_set(data, rng, n: int = 3, frac: float = 0.25):
    """``n`` fixed probe queries and their brute-force oracle answers,
    to re-run across a transition."""
    bb = data.bounding_box()
    probes = [positioned_query(bb, frac, rng) for _ in range(n)]
    return probes, [oracle_answer(data, p.box()) for p in probes]


def probes_bit_equal(store, probes, oracles) -> bool:
    return all(datasets_identical(store.query(p).records, want)
               for p, want in zip(probes, oracles))


def run_reselect_drill(data, seed: int, **scenario_options
                       ) -> tuple[ReselectScenario, bool]:
    """Serve baseline-shaped traffic, then a hot-spot shift, entirely
    through ``store.query`` on a :func:`reselect_scenario`: the engine
    hook trips the controller, which re-solves warm and swaps the
    serving set online.  Returns the scenario (the caller closes its
    store) and whether fixed probes stayed bit-equal to the brute-force
    oracle before and after the transition."""
    scenario = reselect_scenario(data, seed=seed, **scenario_options)
    store, controller, bb = scenario.store, scenario.controller, scenario.bb
    rng = np.random.default_rng(seed)

    def serve(query) -> None:
        # Evaluations run on the controller's background thread; joining
        # after each query pins every evaluation to the query that
        # tripped it, so a seeded drill makes the same decisions on a
        # loaded CI box as on an idle one.
        store.query(query)
        controller.wait()

    probes, oracles = probe_set(data, rng)
    window = controller.config.min_queries
    for _ in range(window):
        serve(baseline_query(bb, rng))
    verified = probes_bit_equal(store, probes, oracles)
    for _ in range(window * 2):
        serve(hotspot_query(bb, rng))
    verified = probes_bit_equal(store, probes, oracles) and verified
    controller.wait()
    return scenario, verified


# -- serving ------------------------------------------------------------------


def single_process_answers(config, spec: FleetSpec):
    """The bit-equality referee: the fleet's queries and their canonical
    answers from one single-process engine.  It hydrates fault-free —
    the true result of a query does not depend on the fault schedule."""
    referee = hydrate_store(dataclasses.replace(config, faults=None))
    queries = fleet_queries(referee.universe, spec)
    return queries, [canonical(referee.query(q).records) for q in queries]


class ServeDrill(NamedTuple):
    report: FleetReport
    stats: dict
    snapshot: dict
    trace_paths: list
    #: Referee pass tallies (all zero without ``verify``).
    verified: int = 0
    mismatched: int = 0
    degraded: int = 0


def run_serve_drill(config, spec: FleetSpec, *, verify: bool = False,
                    trace_dir: str | None = None,
                    **server_options) -> ServeDrill:
    """Boot a :class:`ShardServer` (``server_options`` are its keyword
    arguments), drive the fleet through it and — with ``verify`` —
    re-answer every fleet query against :func:`single_process_answers`."""
    queries, answers = single_process_answers(config, spec) if verify \
        else ([], [])

    async def go() -> ServeDrill:
        async with ShardServer(config, tracing=trace_dir is not None,
                               **server_options) as server:
            report = await run_fleet(server, spec)
            tally: Counter = Counter()
            if verify:
                server.quotas = None  # the referee pass is not traffic
            for q, want in zip(queries, answers):
                try:
                    got = await server.query(q, tenant="verify")
                except DegradedReadError:
                    tally["degraded"] += 1
                    continue
                same = datasets_identical(got, want)
                tally["verified" if same else "mismatched"] += 1
            return ServeDrill(
                report, server.server_stats(),
                await server.metrics_snapshot(),
                await server.dump_traces(trace_dir) if trace_dir else [],
                **tally)

    return asyncio.run(go())


class SloDrill(NamedTuple):
    fleet: FleetReport
    snapshot: dict
    #: The schema-validated operational report (with its slo section).
    report: dict
    engine: SLOEngine


def run_slo_drill(config, spec: FleetSpec, objectives,
                  **server_options) -> SloDrill:
    """Serve the fleet under per-tenant objectives and evaluate the
    burn-rate alerts once the traffic has drained."""
    obs = Observability.create()
    engine = SLOEngine(objectives, metrics=obs.metrics)

    async def go():
        async with ShardServer(config, observability=obs, slo=engine,
                               **server_options) as server:
            fleet = await run_fleet(server, spec)
            engine.evaluate()
            return fleet, await server.metrics_snapshot()

    fleet, snapshot = asyncio.run(go())
    report = build_report(obs, slo=engine)
    validate_report(report)
    return SloDrill(fleet, snapshot, report, engine)
