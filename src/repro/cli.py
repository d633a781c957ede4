"""Command-line interface for the BLOT reproduction.

Usage (after ``pip install -e .``)::

    python -m repro info
    python -m repro generate --records 50000 --out taxis.csv
    python -m repro ratios --records 20000
    python -m repro calibrate --environment local-hadoop
    python -m repro advise --records-target 65e6 --budget-copies 3 --method exact
    python -m repro query --input taxis.csv --frac 0.1 --encoding COL-GZIP
    python -m repro run-workload --queries 500 --replicas 3
    python -m repro drill --fail-replica kd16t4/COL-SNAPPY
    python -m repro stats --queries 200 --json
    python -m repro verify-store --store units/ --manifest kd.json --manifest grid.json

Every subcommand is deterministic given ``--seed``.  Shared argument
groups (``--seed``, the ``--input/--records/--header`` data source, the
workload shape, the fault schedule) are defined once as argparse parent
parsers, so every subcommand spells them identically.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np


def _cmd_info(args: argparse.Namespace) -> int:
    import repro
    from repro.cluster import ENVIRONMENTS
    from repro.encoding import paper_encoding_schemes
    from repro.partition import paper_partitioning_schemes

    print(f"repro {repro.__version__} — BLOT diverse replicas (ICDCS 2014)")
    print(f"environments: {', '.join(sorted(ENVIRONMENTS))}")
    print(f"encodings ({len(paper_encoding_schemes())}): "
          + ", ".join(s.name for s in paper_encoding_schemes()))
    schemes = paper_partitioning_schemes()
    print(f"paper partitioning grid: {len(schemes)} schemes "
          f"({schemes[0].name} .. {schemes[-1].name})")
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    from repro.data import dataset_to_csv, synthetic_shanghai_taxis

    data = synthetic_shanghai_taxis(args.records, seed=args.seed,
                                    num_taxis=args.taxis)
    dataset_to_csv(data, args.out, header=args.header)
    bb = data.bounding_box()
    print(f"wrote {len(data):,} records to {args.out}")
    print(f"bbox lon [{bb.x_min:.4f}, {bb.x_max:.4f}] "
          f"lat [{bb.y_min:.4f}, {bb.y_max:.4f}] "
          f"time [{bb.t_min:.0f}, {bb.t_max:.0f}]")
    return 0


def _load_or_generate(args: argparse.Namespace):
    from repro.data import dataset_from_csv, synthetic_shanghai_taxis

    if getattr(args, "input", None):
        return dataset_from_csv(args.input, header=args.header)
    return synthetic_shanghai_taxis(args.records, seed=args.seed)


def _cmd_ratios(args: argparse.Namespace) -> int:
    from repro.encoding import all_encoding_schemes, measure_compression_ratio

    sample = _load_or_generate(args).sorted_by_time()
    print(f"compression ratios vs uncompressed row binary "
          f"({len(sample):,} records):")
    for scheme in all_encoding_schemes():
        ratio = measure_compression_ratio(scheme, sample)
        print(f"  {scheme.name:11s} {ratio:6.3f}")
    return 0


def _cmd_calibrate(args: argparse.Namespace) -> int:
    from repro.cluster import calibrate_environment, make_cluster
    from repro.encoding import paper_encoding_schemes

    cluster = make_cluster(args.environment, seed=args.seed)
    names = args.encodings or [s.name for s in paper_encoding_schemes()]
    fits = calibrate_environment(cluster, names)
    print(f"[{args.environment}] fitted Eq. 6 parameters:")
    print(f"  {'encoding':11s} {'us/record':>10s} {'ExtraTime s':>12s} {'R^2':>7s}")
    for name in names:
        fit = fits[name]
        print(f"  {name:11s} {1e6 / fit.params.scan_rate:10.2f} "
              f"{fit.params.extra_time:12.2f} {fit.r_squared:7.4f}")
    return 0


def _cmd_advise(args: argparse.Namespace) -> int:
    from repro.cluster import cost_model_for, make_cluster
    from repro.core import AdvisorConfig, ReplicaAdvisor
    from repro.encoding import paper_encoding_schemes
    from repro.partition import paper_partitioning_schemes, small_partitioning_schemes
    from repro.workload import paper_workload

    sample = _load_or_generate(args)
    cluster = make_cluster(args.environment, seed=args.seed)
    encodings = paper_encoding_schemes()
    model = cost_model_for(cluster, [s.name for s in encodings])
    schemes = (paper_partitioning_schemes() if args.full_grid
               else small_partitioning_schemes((4, 16, 64, 256), (4, 16, 64)))
    advisor = ReplicaAdvisor(
        sample, schemes, encodings, model,
        AdvisorConfig(n_records=args.records_target),
    )
    workload = paper_workload(advisor.universe)
    budget = advisor.single_replica_budget(workload, copies=args.budget_copies)
    report = advisor.recommend(workload, budget, method=args.method)
    print(f"candidates: {len(advisor.candidates)}  "
          f"budget: {budget / 1e9:.2f} GB "
          f"({args.budget_copies} copies of {report.single_name})")
    print(f"selected ({report.selection.solver}):")
    for name in report.replica_names:
        print(f"  {name}")
    print(f"workload cost: {report.cost:.1f}s | single replica: "
          f"{report.single_cost:.1f}s | ideal: {report.ideal_cost:.1f}s")
    print(f"speedup vs single: {report.speedup_vs_single:.2f}x | "
          f"approximation ratio: {report.approximation_ratio:.3f}")
    print("routing:")
    for label, replica in report.assignment.items():
        print(f"  {label} -> {replica}")
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    from repro.encoding import encoding_scheme_by_name
    from repro.partition import CompositeScheme, KdTreePartitioner
    from repro.storage import BlotStore, ExecOptions, InMemoryStore
    from repro.workload import Query

    data = _load_or_generate(args)
    store = BlotStore(data)
    store.add_replica(
        CompositeScheme(KdTreePartitioner(args.spatial_leaves), args.time_slices),
        encoding_scheme_by_name(args.encoding),
        InMemoryStore(),
    )
    bb = data.bounding_box()
    c = bb.centroid
    q = Query(bb.width * args.frac, bb.height * args.frac,
              bb.duration * args.frac, c.x, c.y, c.t)
    result = store.query(q, options=ExecOptions(parallelism=args.parallelism))
    s = result.stats
    print(f"replica {s.replica_name}: {s.records_returned:,} of "
          f"{s.total_records:,} records returned")
    print(f"scanned {s.records_scanned:,} records "
          f"({s.scanned_fraction:.1%}) across {s.partitions_involved} "
          f"partitions, {s.bytes_read / 1e6:.2f} MB read, {s.seconds * 1e3:.1f} ms")
    return 0


#: (kd-tree leaves, time slices, encoding) per replica built by
#: ``run-workload``, diverse in both granularity and codec so routing has
#: genuinely different options to choose from.
_WORKLOAD_REPLICA_SPECS: tuple[tuple[int, int, str], ...] = (
    (4, 2, "ROW-PLAIN"),
    (16, 4, "COL-SNAPPY"),
    (64, 8, "COL-GZIP"),
    (256, 8, "COL-LZMA2"),
    (16, 16, "ROW-SNAPPY"),
    (64, 2, "ROW-GZIP"),
)


def _build_workload_store(args: argparse.Namespace, observability=None,
                          quiet: bool = False):
    """Build the diverse-replica store shared by ``run-workload``,
    ``drill`` and ``stats``: ``args.replicas`` kd-tree/time-slice
    combinations over one dataset, with an optional decoded-partition
    cache and (when more than one replica exists) a calibrated cost
    model for routing — plus the seeded positioned workload they run
    and, with ``--inject-faults``, the fault schedule already applied.
    ``observability`` attaches a telemetry bundle; ``quiet`` suppresses
    the banner (machine-readable output modes).

    Returns ``(store, workload, 0)`` or ``(None, None, exit_code)`` on
    bad arguments.
    """
    from repro.cluster import cost_model_for, make_cluster
    from repro.encoding import encoding_scheme_by_name
    from repro.partition import CompositeScheme, KdTreePartitioner
    from repro.storage import BlotStore, InMemoryStore
    from repro.workload import positioned_random_workload

    if getattr(args, "repeat", 1) < 1:
        print("--repeat must be >= 1", file=sys.stderr)
        return None, None, 2
    if not 1 <= args.replicas <= len(_WORKLOAD_REPLICA_SPECS):
        print(f"--replicas must be 1..{len(_WORKLOAD_REPLICA_SPECS)}",
              file=sys.stderr)
        return None, None, 2
    if args.queries < 1:
        print("--queries must be >= 1", file=sys.stderr)
        return None, None, 2
    data = _load_or_generate(args)
    specs = _WORKLOAD_REPLICA_SPECS[:args.replicas]
    model = None
    if args.replicas > 1:
        cluster = make_cluster(args.environment, seed=args.seed)
        model = cost_model_for(cluster, sorted({enc for _, _, enc in specs}))
    cache_bytes = int(args.cache_mb * 1e6) if args.cache_mb > 0 else None
    store = BlotStore(data, cost_model=model, cache_bytes=cache_bytes,
                      observability=observability)
    for leaves, slices, enc in specs:
        store.add_replica(
            CompositeScheme(KdTreePartitioner(leaves), slices),
            encoding_scheme_by_name(enc), InMemoryStore(),
        )
    if not quiet:
        print(f"{len(data):,} records, {args.replicas} replicas: "
              + ", ".join(store.replica_names()))
    if getattr(args, "inject_faults", False):
        injector, err = _make_injector(args, store)
        if injector is None:
            return None, None, err
        store.set_fault_injector(injector)
    workload = positioned_random_workload(
        data.bounding_box(), args.queries, np.random.default_rng(args.seed),
        max_fraction=args.max_frac)
    return store, workload, 0


def _make_injector(args: argparse.Namespace, store):
    """A :class:`FaultInjector` per the shared fault arguments, or an
    error exit code when a ``--fail-replica`` names an unknown replica."""
    from repro.storage import FaultInjector

    injector = FaultInjector(
        seed=args.fault_seed,
        partition_fail_rate=args.fault_rate,
        slow_seconds=args.slow_ms / 1e3,
    )
    for name in args.fail_replica or []:
        if name not in store.replica_names():
            print(f"--fail-replica: no replica named {name!r}; have "
                  + ", ".join(store.replica_names()), file=sys.stderr)
            return None, 2
        injector.fail_replica(name)
    return injector, 0


def _exec_options(args: argparse.Namespace, trace: bool | None = None):
    from repro.storage import ExecOptions

    if trace is None:
        trace = bool(getattr(args, "trace", False))
    return ExecOptions(parallelism=args.parallelism,
                       retries=getattr(args, "retries", 2),
                       trace=trace)


def _print_workload_pass(label: str, s, cache_enabled: bool) -> None:
    print(f"[{label}] {s.n_queries} queries in {s.seconds * 1e3:.1f} ms "
          f"({s.n_queries / s.seconds:,.0f} q/s)")
    print(f"  read {s.bytes_read / 1e6:.2f} MB across "
          f"{s.partitions_decoded} partition decodes, scanned "
          f"{s.records_scanned:,} records, returned {s.records_returned:,}")
    if cache_enabled:
        print(f"  cache hit rate {s.cache_hit_rate:.1%} "
              f"({s.cache_hits} hits / {s.cache_misses} misses)")
    routed = ", ".join(f"{name}={count}" for name, count in
                       sorted(s.per_replica_queries.items()))
    print(f"  routing: {routed}")
    if s.degraded:
        failed = ", ".join(s.failed_replicas) or "none"
        print(f"  degraded: {s.failovers} failovers, {s.retries} retries, "
              f"{s.repairs} repairs; failed replicas: {failed}; "
              f"est. extra cost {s.degraded_cost_delta:+.2f}s")


def _print_telemetry(obs) -> None:
    """The human-readable telemetry block shared by ``stats``,
    ``run-workload --trace`` and ``drill``."""
    m = obs.metrics
    print("telemetry:")
    hits = m.counter_value("repro_cache_hits_total")
    misses = m.counter_value("repro_cache_misses_total")
    lookups = hits + misses
    if lookups:
        print(f"  cache: {hits:.0f} of {lookups:.0f} lookups hit "
              f"({hits / lookups:.1%})")
    print(f"  degradation: {m.counter_value('repro_retries_total'):.0f} "
          f"retries, {m.counter_value('repro_failovers_total'):.0f} "
          f"failovers, {m.counter_value('repro_repairs_total'):.0f} repairs")
    counts = obs.tracer.span_counts()
    if counts:
        spans = ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))
        print(f"  trace: {obs.tracer.recorded} spans ({spans})")
    for st in obs.drift.statuses():
        verdict = "DRIFTING — recalibrate" if st.flagged else "ok"
        print(f"  drift[{st.replica_name}]: {st.samples} samples, "
              f"mean rel. error {st.mean_relative_error:.2f}, "
              f"measured/predicted x{st.scale_factor:.2f} ({verdict})")


def _cmd_run_workload(args: argparse.Namespace) -> int:
    from repro.obs import Observability
    from repro.storage import DegradedReadError

    obs = Observability.create() if args.trace else None
    store, workload, err = _build_workload_store(args, observability=obs)
    if store is None:
        return err
    opts = _exec_options(args)
    cache_enabled = store.partition_cache is not None
    for pass_no in range(1, args.repeat + 1):
        label = f"pass {pass_no}/{args.repeat}" if args.repeat > 1 else "workload"
        try:
            result = store.execute_workload(workload, options=opts)
        except DegradedReadError as exc:
            print(f"[{label}] degraded beyond recovery: {exc}", file=sys.stderr)
            store.close()
            return 1
        _print_workload_pass(label, result.stats, cache_enabled)
    if obs is not None:
        _print_telemetry(obs)
        if args.trace_out:
            obs.tracer.dump_jsonl(args.trace_out)
            print(f"wrote {len(obs.tracer.spans())} spans to {args.trace_out}")
    store.close()
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    """Run a workload with full telemetry and report the engine's
    metrics, trace summary and cost-model drift — as text, JSON
    (``--json``) or Prometheus exposition text (``--prom``)."""
    import json

    from repro.obs import Observability
    from repro.storage import DegradedReadError

    machine = args.json or args.prom
    obs = Observability.create(drift_threshold=args.drift_threshold)
    store, workload, err = _build_workload_store(args, observability=obs,
                                                 quiet=machine)
    if store is None:
        return err
    opts = _exec_options(args, trace=True)
    try:
        for _ in range(args.repeat):
            result = store.execute_workload(workload, options=opts)
    except DegradedReadError as exc:
        print(f"degraded beyond recovery: {exc}", file=sys.stderr)
        store.close()
        return 1
    store.close()
    if args.prom:
        print(obs.metrics.render_prometheus(), end="")
        return 0
    if args.json:
        print(json.dumps(obs.snapshot(), indent=2, sort_keys=True))
        return 0
    _print_workload_pass("workload", result.stats,
                         store.partition_cache is not None)
    _print_telemetry(obs)
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    """Run a seeded workload under full telemetry and render the
    operational report — optionally persisting history to an on-disk
    timeseries store (``--timeseries``), deliberately staling the
    routing model (``--stale-factor``), and letting the closed loop
    heal it (``--recalibrate``)."""
    import json

    from repro.obs import Observability, TimeseriesStore, build_report
    from repro.obs.report import render_report_text
    from repro.storage import DegradedReadError

    if args.dry_run and not args.recalibrate:
        print("--dry-run requires --recalibrate", file=sys.stderr)
        return 2
    obs = Observability.create(drift_threshold=args.drift_threshold)
    store, workload, err = _build_workload_store(args, observability=obs,
                                                 quiet=args.json)
    if store is None:
        return err

    model = store.cost_model
    if (args.stale_factor != 1.0 or args.recalibrate) and model is None:
        print("--stale-factor/--recalibrate need a routing cost model; "
              "use --replicas >= 2", file=sys.stderr)
        store.close()
        return 2
    if args.stale_factor != 1.0:
        # Deliberately mis-calibrate the live model in place (the
        # drift-detection / self-healing demonstration).
        from repro.costmodel import EncodingCostParams

        if args.stale_factor <= 0:
            print("--stale-factor must be positive", file=sys.stderr)
            store.close()
            return 2
        for enc in model.encoding_names:
            p = model.params_for(enc)
            model.update_params(enc, EncodingCostParams(
                scan_rate=p.scan_rate * args.stale_factor,
                extra_time=p.extra_time))

    ts = None
    if args.timeseries:
        ts = TimeseriesStore(args.timeseries, retention=args.retention,
                             rollup_every=args.rollup_every)
        obs.attach_checkpointer(ts, interval_seconds=5.0)
        obs.maybe_checkpoint(force=True)  # the "before" point of trends
    rec = None
    if args.recalibrate:
        rec = obs.attach_recalibrator(model, dry_run=args.dry_run,
                                      timeseries=ts)

    opts = _exec_options(args, trace=True)
    try:
        for _ in range(args.repeat):
            store.execute_workload(workload, options=opts)
    except DegradedReadError as exc:
        print(f"degraded beyond recovery: {exc}", file=sys.stderr)
        store.close()
        return 1
    store.close()
    if ts is not None:
        obs.maybe_checkpoint(force=True)  # the "after" point

    report = build_report(obs, timeseries=ts, recalibrator=rec)
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(render_report_text(report))
    return 0


def _cmd_drill(args: argparse.Namespace) -> int:
    """Failure drill: run a workload healthy, impose a failure schedule,
    run it again, and report the degradation (failovers, retries,
    repairs, extra estimated cost) plus a result-integrity check."""
    from repro.obs import Observability
    from repro.storage import DegradedReadError

    obs = Observability.create()
    store, workload, err = _build_workload_store(args, observability=obs)
    if store is None:
        return err
    opts = _exec_options(args, trace=True)
    cache_enabled = store.partition_cache is not None

    healthy = store.execute_workload(workload, options=opts)
    _print_workload_pass("healthy", healthy.stats, cache_enabled)

    injector, err = _make_injector(args, store)
    if injector is None:
        store.close()
        return err
    if not args.fail_replica and args.fault_rate == 0 and args.slow_ms == 0:
        # No schedule given: take down the replica the healthy routing
        # leaned on hardest — the most informative single-node drill.
        victim = max(healthy.stats.per_replica_queries.items(),
                     key=lambda kv: (kv[1], kv[0]))[0]
        injector.fail_replica(victim)
        print(f"no failure schedule given; failing busiest replica {victim!r}")
    store.set_fault_injector(injector)
    if store.partition_cache is not None:
        # A drill measures the degraded read path, not yesterday's cache.
        store.partition_cache.clear()

    try:
        degraded = store.execute_workload(workload, options=opts)
    except DegradedReadError as exc:
        print("drill FAILED: workload cannot be served under this schedule",
              file=sys.stderr)
        print(f"  {exc}", file=sys.stderr)
        store.close()
        return 1
    _print_workload_pass("degraded", degraded.stats, cache_enabled)

    per_query_ok = all(
        h.stats.records_returned == d.stats.records_returned
        for h, d in zip(healthy.results, degraded.results)
    )
    hs, ds = healthy.stats, degraded.stats
    print("degradation report:")
    print(f"  results identical: {'yes' if per_query_ok else 'NO'} "
          f"({ds.records_returned:,} records, healthy {hs.records_returned:,})")
    print(f"  failovers: {ds.failovers}  retries: {ds.retries}  "
          f"repairs: {ds.repairs}")
    print(f"  failed replicas: {', '.join(ds.failed_replicas) or 'none'}")
    print(f"  est. extra cost vs healthy plan: {ds.degraded_cost_delta:+.2f}s")
    print(f"  wall clock: healthy {hs.seconds * 1e3:.1f} ms -> "
          f"degraded {ds.seconds * 1e3:.1f} ms")
    if injector.stats().faults_injected:
        fstats = injector.stats()
        print(f"  injector: {fstats.faults_injected} faults over "
              f"{fstats.reads_checked} read checks")
    _print_telemetry(obs)
    store.close()
    return 0 if per_query_ok else 1


def _cmd_reselect(args: argparse.Namespace) -> int:
    """Workload-drift reselection drill: deploy the Eq. 1-5 selection
    for a wide-scan baseline workload, serve a deliberately drifted
    hot-spot workload, and let the attached controller detect the
    drift, re-solve warm from the incumbent, and swap the serving set
    online — verifying bit-equal reads across the transition."""
    import json

    from repro.core import ReselectionConfig
    from repro.drills import run_reselect_drill
    from repro.obs import TimeseriesStore, build_report
    from repro.obs.report import render_report_text

    if args.budget_copies < 1:
        print("--budget-copies must be >= 1", file=sys.stderr)
        return 2
    try:
        config = ReselectionConfig(drift_threshold=args.drift_threshold,
                                   min_queries=args.min_queries,
                                   min_improvement=args.min_improvement)
    except ValueError as exc:
        print(f"bad reselection guard: {exc}", file=sys.stderr)
        return 2

    ts = TimeseriesStore(args.timeseries) if args.timeseries else None
    scenario, verified = run_reselect_drill(
        _load_or_generate(args), args.seed, copies=args.budget_copies,
        config=config, timeseries=ts,
        cache_bytes=int(args.cache_mb * 1e6) if args.cache_mb > 0 else None)
    store, controller = scenario.store, scenario.controller
    applied = [u for u in controller.audit_log if u.action == "applied"]
    if args.json:
        print(json.dumps({
            "epoch": controller.epoch,
            "evaluations": len(controller.audit_log),
            "applied": len(applied),
            "incumbent": scenario.incumbent,
            "serving": store.replica_names(),
            "verified_bit_equal": verified,
            "audit": controller.audit_dicts(),
        }, indent=2, sort_keys=True))
    else:
        print(f"initial set ({len(scenario.incumbent)}): "
              + ", ".join(scenario.incumbent))
        for u in controller.audit_log:
            if u.action == "applied":
                print(f"[epoch {u.epoch}] drift {u.divergence:.3f} >= "
                      f"{u.drift_threshold}: cost {u.incumbent_cost:.4g} "
                      f"-> {u.candidate_cost:.4g} "
                      f"(+{u.improvement:.1%})")
                print(f"  built:   {', '.join(u.built) or '-'}")
                print(f"  retired: {', '.join(u.retired) or '-'}")
            else:
                print(f"[{u.action}] drift {u.divergence:.3f}: "
                      f"{u.reason or ''}")
        print(f"serving set ({len(store.replica_names())}): "
              + ", ".join(store.replica_names()))
        print("probe reads bit-equal across transition: "
              + ("yes" if verified else "NO"))
    if args.report:
        report = build_report(scenario.obs, timeseries=ts,
                              reselector=controller)
        print(render_report_text(report))
    store.close()
    if not verified:
        return 1
    if args.expect_applied and not applied:
        print("no reselection was applied", file=sys.stderr)
        return 1
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.data import (
        od_matrix,
        split_trips,
        trajectories_of,
        trajectory_stats,
    )

    data = _load_or_generate(args)
    trajs = trajectories_of(data)
    stats = [trajectory_stats(oid, t) for oid, t in trajs.items()]
    n_trips = sum(len(split_trips(t)) for t in trajs.values())
    total_km = sum(s.length_km for s in stats)
    print(f"fleet: {len(trajs)} vehicles, {len(data):,} samples, "
          f"{n_trips:,} trips, {total_km:,.0f} km driven")
    mean_occ = np.mean([s.occupied_fraction for s in stats])
    print(f"mean occupancy {mean_occ:.0%}, mean speed "
          f"{np.mean([s.mean_speed_kmh for s in stats]):.1f} km/h")
    top = sorted(stats, key=lambda s: -s.length_km)[:args.top]
    print(f"top {args.top} vehicles by distance:")
    for s in top:
        print(f"  taxi {s.oid:4d}: {s.length_km:8.1f} km over "
              f"{s.duration_seconds / 3600:.1f} h, occupied "
              f"{s.occupied_fraction:.0%}")
    od = od_matrix(data, args.grid, args.grid)
    flows = np.argsort(od, axis=None)[::-1]
    print(f"top origin->destination flows ({args.grid}x{args.grid} grid):")
    shown = 0
    for flat in flows:
        o, d = np.unravel_index(flat, od.shape)
        if od[o, d] == 0 or shown >= args.top:
            break
        print(f"  cell {int(o):3d} -> cell {int(d):3d}: {int(od[o, d]):5d} trips")
        shown += 1
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    import json

    from repro.storage import DirectoryStore, load_replica, verify_replica

    with open(args.manifest, "r", encoding="utf-8") as f:
        manifest = json.load(f)
    replica = load_replica(manifest, DirectoryStore(args.store))
    damaged = verify_replica(replica, manifest)
    if not damaged:
        print(f"replica {replica.name!r}: all "
              f"{sum(1 for k in replica.unit_keys if k)} units verified OK")
        return 0
    print(f"replica {replica.name!r}: {len(damaged)} damaged units: "
          + ", ".join(str(p) for p in damaged[:20])
          + (" ..." if len(damaged) > 20 else ""))
    return 1


def _cmd_verify_store(args: argparse.Namespace) -> int:
    """Differential oracle sweep over an on-disk store: CRC integrity,
    cross-replica content recovery, and bit-identical query answers.
    Exits non-zero on any mismatch."""
    import json

    from repro.data import dataset_from_csv
    from repro.obs import MetricsRegistry
    from repro.storage import DirectoryStore
    from repro.verify import verify_store

    reference = None
    if args.input:
        reference = dataset_from_csv(args.input, header=args.header)
    metrics = MetricsRegistry()
    result = verify_store(
        DirectoryStore(args.store),
        list(args.manifest),
        n_queries=args.queries,
        seed=args.seed,
        reference=reference,
        metrics=metrics,
    )
    if args.json:
        print(json.dumps({
            "ok": result.ok,
            "checks": result.checks,
            "queries": result.n_queries,
            "replicas": [
                {
                    "name": r.name,
                    "ok": r.ok,
                    "units": r.units,
                    "damaged_units": list(r.damaged),
                    "content_ok": r.content_ok,
                    "read_errors": list(r.read_errors),
                }
                for r in result.replicas
            ],
            "mismatches": [m.describe() for m in result.mismatches],
            "metrics": metrics.snapshot(),
        }, indent=2))
    else:
        print(result.summary())
    return 0 if result.ok else 1


def _cmd_repair(args: argparse.Namespace) -> int:
    import json

    from repro.storage import (
        DirectoryStore,
        load_replica,
        repair_replica,
        verify_replica,
    )

    with open(args.manifest, "r", encoding="utf-8") as f:
        manifest = json.load(f)
    damaged_replica = load_replica(manifest, DirectoryStore(args.store))
    source = load_replica(args.source_manifest,
                          DirectoryStore(args.source_store))
    damaged = verify_replica(damaged_replica, manifest)
    if not damaged:
        print("nothing to repair")
        return 0
    restored = repair_replica(damaged_replica, damaged, source)
    remaining = verify_replica(damaged_replica, manifest)
    print(f"repaired {len(damaged)} units ({restored:,} records) from "
          f"{source.name!r}; {len(remaining)} still damaged")
    return 0 if not remaining else 1


#: Seeded sub-boxes ``repro ingest`` checks besides the full range.
_INGEST_SUB_BOXES = 8


def _cmd_ingest(args: argparse.Namespace) -> int:
    """Stream a dataset into an always-on ingesting store.

    The store is durable under ``--wal-dir``: re-running with the same
    directory resumes from the WAL (crash-safe), which is also how the
    recovery path is exercised from the command line.  Every appended
    record is verified queryable — a full-range box and seeded sub-boxes,
    through ``query`` and ``count``, once right after the last append
    (buffered batches skipped, taken whole and filtered) and once after
    compaction; the final summary reports compactions, sealed windows
    and WAL traffic.
    """
    import json

    from repro.encoding import encoding_scheme_by_name
    from repro.obs import Observability
    from repro.storage import parse_scheme_spec
    from repro.storage.ingest import IngestingBlotStore, ReplicaSpec
    from repro.storage.wal import wal_state_exists
    from repro.verify.oracle import canonical, datasets_identical, random_boxes

    if args.batch_size < 1:
        print("--batch-size must be >= 1", file=sys.stderr)
        return 2
    if args.auto_compact_at < 1:
        print("--auto-compact-at must be >= 1", file=sys.stderr)
        return 2
    if args.window_seconds is not None and args.window_seconds <= 0:
        print("--window-seconds must be positive", file=sys.stderr)
        return 2
    schemes = args.scheme or ["kd:16/t:4"]
    encodings = args.encoding or ["COL-GZIP"] * len(schemes)
    if len(schemes) != len(encodings):
        print("need as many --encoding values as --scheme values",
              file=sys.stderr)
        return 2
    quiet = args.json
    data = _load_or_generate(args).sorted_by_time()
    specs = [
        ReplicaSpec(parse_scheme_spec(scheme),
                    encoding_scheme_by_name(encoding),
                    name=f"r{i}-{scheme.replace(':', '').replace('/', '-')}")
        for i, (scheme, encoding) in enumerate(zip(schemes, encodings))
    ]
    settings = dict(
        auto_compact_at=args.auto_compact_at,
        background_compaction=not args.sync,
        window_seconds=args.window_seconds,
        fsync_wal=args.fsync,
        observability=Observability.create(),
    )
    resuming = wal_state_exists(args.wal_dir)
    n_initial = max(1, len(data) // 2)
    if resuming:
        store = IngestingBlotStore.open(args.wal_dir, specs, **settings)
        if not quiet:
            print(f"resumed from {args.wal_dir}: {len(store):,} records "
                  f"({store.buffered_records:,} replayed into the buffer)")
    else:
        store = IngestingBlotStore(data.take(np.arange(0, n_initial)), specs,
                                   wal_dir=args.wal_dir, **settings)

    appended = 0
    start = n_initial if not resuming else 0
    for lo in range(start, len(data), args.batch_size):
        batch = data.take(np.arange(lo, min(lo + args.batch_size,
                                            len(data))))
        store.append(batch)
        appended += len(batch)

    def verified(phase: str) -> bool:
        """Every record ever acknowledged must come back bit-equal."""
        logical = store.dataset()  # decoded from one replica per layer
        boxes = [logical.bounding_box(),
                 *random_boxes(logical, _INGEST_SUB_BOXES, args.seed)]
        for i, box in enumerate(boxes):
            want = canonical(logical.filter_box(box))
            got = canonical(store.query(box).records)
            if (not datasets_identical(got, want)
                    or store.count(box)[0] != len(want)):
                print(f"ingest verification FAILED {phase}: box #{i} does "
                      "not match the logical dataset", file=sys.stderr)
                return False
        return True

    # Right after the last append the buffer still holds batches (a
    # background fold leaves them there until its swap); after the wait,
    # the compacted layers answer.
    if not verified("after the last append"):
        store.close()
        return 1
    store.wait_for_compaction()
    if not verified("after compaction"):
        store.close()
        return 1

    reports = store.anti_entropy() if args.anti_entropy else []
    bad = [r for r in reports if not r.ok]
    summary = {
        "records": len(store),
        "appended": appended,
        "buffered": store.buffered_records,
        "compactions": store.compactions,
        "compaction_failures": store.compaction_failures,
        "windows": len(store.windows),
        "anti_entropy_ok": not bad if reports else None,
        "wal_dir": args.wal_dir,
        "wal_segments": len(store.wal.segment_ids()),
    }
    store.close()
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
        return 0 if not bad else 1
    print(f"ingested {appended:,} records in batches of "
          f"{args.batch_size:,} -> {summary['records']:,} total")
    print(f"  compactions: {summary['compactions']} "
          f"({summary['compaction_failures']} failed), "
          f"buffered: {summary['buffered']:,}")
    print(f"  sealed windows: {summary['windows']}, "
          f"wal segments live: {summary['wal_segments']}")
    if reports:
        verdict = "OK" if not bad else f"{len(bad)} layer(s) FAILED"
        print(f"  anti-entropy sweep: {verdict}")
    print(f"  full-range and {_INGEST_SUB_BOXES} sub-box reads (query + "
          "count) verified bit-equal against the logical dataset")
    return 0 if not bad else 1


def _serve_replica_specs(n_replicas: int):
    """The ``(scheme, encoding, name)`` triples ``serve`` and ``fleet``
    materialize — the same diversity ladder as ``run-workload``."""
    from repro.encoding import encoding_scheme_by_name
    from repro.partition import CompositeScheme, KdTreePartitioner

    return [
        (CompositeScheme(KdTreePartitioner(leaves), slices),
         encoding_scheme_by_name(enc),
         f"kd{leaves}t{slices}-{enc.lower()}")
        for leaves, slices, enc in _WORKLOAD_REPLICA_SPECS[:n_replicas]
    ]


def _materialize_serve_store(args: argparse.Namespace):
    """Materialize the on-disk store ``serve``/``fleet`` run against and
    return its :class:`~repro.storage.StoreConfig` (or ``(None, code)``
    on bad arguments)."""
    import tempfile

    from repro.storage import FaultSpec, materialize_store

    if not 1 <= args.replicas <= len(_WORKLOAD_REPLICA_SPECS):
        print(f"--replicas must be 1..{len(_WORKLOAD_REPLICA_SPECS)}",
              file=sys.stderr)
        return None, 2
    data = _load_or_generate(args)
    specs = _serve_replica_specs(args.replicas)
    faults = None
    if (getattr(args, "fail_replica", None)
            or getattr(args, "fault_rate", 0.0)):
        known = {name for _, _, name in specs}
        unknown = [n for n in (args.fail_replica or []) if n not in known]
        if unknown:
            print(f"--fail-replica: no replica named {unknown[0]!r}; have "
                  + ", ".join(sorted(known)), file=sys.stderr)
            return None, 2
        faults = FaultSpec(
            seed=args.fault_seed,
            partition_fail_rate=args.fault_rate,
            slow_seconds=args.slow_ms / 1e3,
            fail_replicas=tuple(args.fail_replica or ()),
        )
    root = args.store_root or tempfile.mkdtemp(prefix="repro-serve-")
    config = materialize_store(data, specs, root, faults=faults,
                               observability=True)
    print(f"materialized {len(data):,} records x {args.replicas} replicas "
          f"under {root}")
    return config, 0


def _fleet_spec(args: argparse.Namespace):
    """The simulated traffic ``serve``, ``fleet`` and ``slo`` share."""
    from repro.serve import FleetSpec

    return FleetSpec(
        n_queries=args.queries,
        tenants=tuple(f"tenant-{i}" for i in range(args.tenants)),
        concurrency=args.concurrency,
        seed=args.seed,
    )


def _cmd_serve(args: argparse.Namespace) -> int:
    """Boot the sharded serving tier against a materialized store, drive
    a simulated fleet through it, and optionally verify every answer
    bit-equal against a single-process engine (exit 1 on mismatch)."""
    import json

    from repro.drills import run_serve_drill
    from repro.serve import QuotaConfig, TenantQuotas

    tracing = args.trace_dir is not None
    if (args.stitch or args.trace_out or args.min_stitch is not None) \
            and not tracing:
        print("--stitch/--trace-out/--min-stitch need --trace-dir",
              file=sys.stderr)
        return 2
    config, err = _materialize_serve_store(args)
    if config is None:
        return err
    quotas = None
    if args.quota_rate > 0:
        quotas = TenantQuotas(QuotaConfig(rate=args.quota_rate,
                                          burst=args.quota_burst))
    drill = run_serve_drill(
        config, _fleet_spec(args), verify=args.verify,
        trace_dir=args.trace_dir, n_shards=args.shards,
        sharding=args.sharding, worker_mode=args.worker_mode,
        max_inflight=args.max_inflight, quotas=quotas)
    report, stats, trace_paths = drill.report, drill.stats, drill.trace_paths

    print(f"[fleet] {report.n_queries} queries over {args.tenants} tenants: "
          f"{report.served} served ({report.records_returned:,} records), "
          f"{report.shed} shed, {report.quota_rejected} quota-rejected, "
          f"{report.degraded} degraded")
    print(f"[server] {args.shards} {args.worker_mode} shards "
          f"({args.sharding} sharding): {stats['batches_flushed']} batches "
          f"for {stats['queries_batched']} queries, "
          f"{stats['failovers']} failovers")
    if args.metrics_out:
        with open(args.metrics_out, "w", encoding="utf-8") as f:
            json.dump(drill.snapshot, f, indent=2, sort_keys=True)
        print(f"wrote shard metrics to {args.metrics_out}")
    if tracing:
        print(f"[trace] wrote {len(trace_paths)} span streams "
              f"under {args.trace_dir}")
    if args.stitch:
        from repro.obs import stitch_files, validate_trace_tree

        stitched = stitch_files(trace_paths)
        try:
            for tree in stitched.requests:
                validate_trace_tree(tree)
        except ValueError as exc:
            print(f"stitched trace tree INVALID: {exc}", file=sys.stderr)
            return 1
        print(f"[stitch] {len(stitched.requests)} request trees, "
              f"{stitched.engine_spans} engine spans "
              f"({stitched.stitched_engine_spans} stitched, ratio "
              f"{stitched.engine_stitch_ratio:.3f}), "
              f"{stitched.orphans} orphans")
        if args.trace_out:
            with open(args.trace_out, "w", encoding="utf-8") as f:
                json.dump(stitched.to_dict(), f, indent=2, sort_keys=True)
            print(f"wrote stitched trace forest to {args.trace_out}")
        if (args.min_stitch is not None
                and stitched.engine_stitch_ratio < args.min_stitch):
            print(f"stitch ratio {stitched.engine_stitch_ratio:.3f} below "
                  f"--min-stitch {args.min_stitch}", file=sys.stderr)
            return 1
    if args.verify:
        print(f"[verify] {drill.verified} bit-equal, "
              f"{drill.mismatched} MISMATCHED, "
              f"{drill.degraded} degraded (skipped)")
        if drill.mismatched or not drill.verified:
            print("verification FAILED: sharded answers are not bit-equal "
                  "to the single-process engine", file=sys.stderr)
            return 1
    return 0


def _cmd_fleet(args: argparse.Namespace) -> int:
    """The single-process baseline for ``serve``: the identical fleet
    traffic batch-executed through one engine, no sharding, no front
    door — the number the serving tier's throughput is judged against."""
    import time

    from repro.serve import fleet_queries
    from repro.storage import hydrate_store
    from repro.workload import Workload

    config, err = _materialize_serve_store(args)
    if config is None:
        return err
    store = hydrate_store(config)
    try:
        queries = fleet_queries(store.universe, _fleet_spec(args))
        start = time.perf_counter()
        result = store.execute_workload(Workload.unweighted(queries))
        seconds = time.perf_counter() - start
    finally:
        store.close()
    s = result.stats
    print(f"[baseline] {s.n_queries} queries in {seconds * 1e3:.1f} ms "
          f"({s.n_queries / seconds:,.0f} q/s), "
          f"{s.records_returned:,} records returned")
    routed = ", ".join(f"{name}={count}" for name, count in
                       sorted(s.per_replica_queries.items()))
    print(f"  routing: {routed}")
    return 0


def _quantile_ms(entry: dict, q: str) -> str:
    value = (entry.get("quantiles") or {}).get(q)
    if value is None:
        return "-"
    return f"{value * 1e3:.1f}ms"


def _render_top(snapshot: dict) -> str:
    """The serving snapshot as a text board: front-door counters,
    per-tenant latency quantiles, per-shard dispatch quantiles, SLO
    state."""
    lines: list[str] = []
    server = snapshot.get("server", {})
    lines.append(
        f"served {server.get('queries_served', 0)}  "
        f"shed {server.get('shed', 0)}  "
        f"quota-rejected {server.get('quota_rejected', 0)}  "
        f"failovers {server.get('failovers', 0)}  "
        f"degraded {server.get('degraded', 0)}  "
        f"batches {server.get('batches_flushed', 0)}")
    merged = snapshot.get("merged", {})
    outcomes: dict[tuple[str, str], float] = {}
    for counter in merged.get("counters", []):
        if counter.get("name") != "repro_requests_total":
            continue
        labels = counter.get("labels") or {}
        key = (labels.get("tenant", "?"), labels.get("outcome", "?"))
        outcomes[key] = outcomes.get(key, 0.0) + counter.get("value", 0.0)
    request_sketches = []
    shard_sketches = []
    for entry in merged.get("quantiles", []):
        if entry.get("name") == "repro_request_seconds":
            request_sketches.append(entry)
        elif entry.get("name") == "repro_shard_dispatch_seconds":
            shard_sketches.append(entry)
    if request_sketches:
        lines.append("tenant latencies (merged sketches):")
        for entry in request_sketches:
            tenant = (entry.get("labels") or {}).get("tenant", "?")
            tallies = " ".join(
                f"{outcome}={int(n)}" for (t, outcome), n
                in sorted(outcomes.items()) if t == tenant)
            lines.append(
                f"  {tenant:<12} n={entry.get('count', 0):<6} "
                f"p50={_quantile_ms(entry, '0.5'):<9} "
                f"p95={_quantile_ms(entry, '0.95'):<9} "
                f"p99={_quantile_ms(entry, '0.99'):<9} {tallies}")
    if shard_sketches:
        lines.append("shard dispatch:")
        for entry in shard_sketches:
            shard = (entry.get("labels") or {}).get("shard", "?")
            lines.append(
                f"  shard-{shard:<6} n={entry.get('count', 0):<6} "
                f"p50={_quantile_ms(entry, '0.5'):<9} "
                f"p99={_quantile_ms(entry, '0.99'):<9}")
    slo = snapshot.get("slo")
    if slo is not None:
        firing = slo.get("firing", [])
        if firing:
            lines.append("SLO: FIRING " + ", ".join(
                f"{f['tenant']}/{f['objective']}" for f in firing))
        else:
            lines.append(
                f"SLO: healthy ({len(slo.get('objectives', []))} "
                "objectives)")
        for status in slo.get("status", []):
            burns = " ".join(
                f"{w['seconds']:g}s:{w['burn_rate']:.2f}x"
                for w in status.get("windows", []))
            flag = "FIRING" if status.get("firing") else "ok"
            lines.append(f"  {status['tenant']}/{status['objective']}: "
                         f"{flag} burn {burns}")
    return "\n".join(lines)


def _cmd_top(args: argparse.Namespace) -> int:
    """Render a serving metrics snapshot (``repro serve --metrics-out``)
    as a refreshing text board — ``top`` for the serving tier."""
    import json
    import time

    iterations = 1 if args.once else args.iterations
    shown = 0
    while True:
        try:
            with open(args.snapshot, encoding="utf-8") as f:
                snapshot = json.load(f)
        except FileNotFoundError:
            print(f"no snapshot at {args.snapshot} (yet)", file=sys.stderr)
            snapshot = None
        except json.JSONDecodeError:
            snapshot = None  # torn mid-write; retry next refresh
        if snapshot is not None:
            if sys.stdout.isatty() and not args.once:  # pragma: no cover
                print("\x1b[2J\x1b[H", end="")
            print(_render_top(snapshot))
        shown += 1
        if iterations and shown >= iterations:
            return 0 if snapshot is not None else 1
        print("-" * 64)
        time.sleep(args.interval)


def _cmd_slo(args: argparse.Namespace) -> int:
    """SLO drill: serve fleet traffic (optionally under an injected
    fault schedule), evaluate per-tenant burn-rate objectives, and exit
    by SLO health — 0 healthy / 1 firing, inverted by
    ``--expect-alert`` for deterministic alert drills in CI."""
    import json

    from repro.drills import run_slo_drill
    from repro.obs import SLObjective, parse_slo_config
    from repro.obs.report import render_report_text

    objectives: list[SLObjective] = []
    if args.slo_config:
        with open(args.slo_config, encoding="utf-8") as f:
            objectives.extend(parse_slo_config(json.load(f)))
    if args.availability is not None:
        objectives.append(SLObjective(tenant="*", kind="availability",
                                      target=args.availability))
    if args.latency_p99_ms is not None:
        objectives.append(SLObjective(tenant="*", kind="latency",
                                      target=0.99,
                                      latency_seconds=args.latency_p99_ms
                                      / 1e3))
    if not objectives:
        print("declare at least one objective: --availability, "
              "--latency-p99-ms or --slo-config", file=sys.stderr)
        return 2

    config, err = _materialize_serve_store(args)
    if config is None:
        return err
    drill = run_slo_drill(config, _fleet_spec(args), objectives,
                          min_events=args.min_events, n_shards=args.shards,
                          worker_mode=args.worker_mode)
    fleet, engine, report = drill.fleet, drill.engine, drill.report
    if args.report_out:
        with open(args.report_out, "w", encoding="utf-8") as f:
            json.dump(report, f, indent=2, sort_keys=True)
    firing = engine.firing
    if args.json:
        print(json.dumps({
            "served": fleet.served,
            "degraded": fleet.degraded,
            "objectives": engine.objective_dicts(),
            "status": engine.status_dicts(),
            "firing": [{"tenant": t, "objective": o} for t, o in firing],
            "audit": engine.audit_dicts(),
        }, indent=2, sort_keys=True))
    else:
        print(f"[fleet] {fleet.n_queries} queries: {fleet.served} served, "
              f"{fleet.degraded} degraded")
        print(_render_top(drill.snapshot))
        print(render_report_text(report))
    if args.report_out and not args.json:
        print(f"wrote v{report['schema_version']} report "
              f"to {args.report_out}")
    if args.expect_alert:
        if firing:
            return 0
        print("expected an SLO alert but none is firing", file=sys.stderr)
        return 1
    return 1 if firing else 0


def _seed_parent(default: int = 7) -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--seed", type=int, default=default)
    return p


def _data_parent(records_default: int = 20_000,
                 with_input: bool = True) -> argparse.ArgumentParser:
    """The ``--input/--records/--header`` data-source group shared by
    every subcommand that reads or synthesizes a taxi log."""
    p = argparse.ArgumentParser(add_help=False)
    if with_input:
        p.add_argument("--input", help="CSV file (default: synthesize)")
        p.add_argument("--records", type=int, default=records_default,
                       help="records to synthesize when no --input")
    else:
        p.add_argument("--records", type=int, default=records_default)
    p.add_argument("--header", action="store_true",
                   help="CSV files carry a header row")
    return p


def _workload_parent() -> argparse.ArgumentParser:
    """The workload-shape group shared by ``run-workload`` and ``drill``."""
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--queries", type=int, default=500,
                   help="positioned queries to generate")
    p.add_argument("--replicas", type=int, default=3,
                   help="diverse replicas to build (1..6)")
    p.add_argument("--max-frac", type=float, default=0.3,
                   help="largest query extent as a fraction of the universe")
    p.add_argument("--parallelism", type=int, default=4,
                   help="partition-scan threads in the persistent pool")
    p.add_argument("--cache-mb", type=float, default=64.0,
                   help="decoded-partition cache budget in MB (0 disables)")
    p.add_argument("--environment", default="amazon-s3-emr")
    return p


def _faults_parent() -> argparse.ArgumentParser:
    """The fault-schedule group shared by ``run-workload --inject-faults``
    and ``drill``."""
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--fault-rate", type=float, default=0.0,
                   help="fail this fraction of (replica, partition) units, "
                        "deterministically per --fault-seed")
    p.add_argument("--fault-seed", type=int, default=0,
                   help="seed of the deterministic fault schedule")
    p.add_argument("--fail-replica", action="append", default=None,
                   metavar="NAME",
                   help="mark a whole replica down (repeatable)")
    p.add_argument("--slow-ms", type=float, default=0.0,
                   help="injected latency per storage read, in ms")
    p.add_argument("--retries", type=int, default=2,
                   help="extra read attempts per partition before failover")
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="BLOT diverse-replica storage (ICDCS 2014 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    seed = _seed_parent()
    data = _data_parent()
    workload_shape = _workload_parent()
    faults = _faults_parent()

    p = sub.add_parser("info", help="version, environments, scheme registry")
    p.set_defaults(handler=_cmd_info)

    p = sub.add_parser("generate", help="synthesize a taxi GPS log as CSV",
                       parents=[_data_parent(50_000, with_input=False), seed])
    p.add_argument("--taxis", type=int, default=64)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_generate)

    p = sub.add_parser("ratios", help="Table I: compression ratios",
                       parents=[data, seed])
    p.set_defaults(handler=_cmd_ratios)

    p = sub.add_parser("calibrate", help="Table II: ScanRate/ExtraTime fits",
                       parents=[seed])
    p.add_argument("--environment", default="amazon-s3-emr")
    p.add_argument("--encodings", nargs="*", default=None)
    p.set_defaults(handler=_cmd_calibrate)

    p = sub.add_parser("advise", help="recommend a diverse replica set",
                       parents=[data, seed])
    p.add_argument("--records-target", type=float, default=65e6,
                   help="size of the full dataset being planned for")
    p.add_argument("--environment", default="amazon-s3-emr")
    p.add_argument("--budget-copies", type=int, default=3)
    p.add_argument("--method", default="greedy",
                   choices=["greedy", "exact", "mip"])
    p.add_argument("--full-grid", action="store_true",
                   help="use the paper's full 25-scheme grid (slow)")
    p.set_defaults(handler=_cmd_advise)

    p = sub.add_parser("verify", help="CRC-check a replica against its manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--store", required=True, help="replica unit directory")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser(
        "verify-store",
        help="differential oracle sweep over an on-disk store "
             "(CRC + cross-replica content + query answers)",
        parents=[seed])
    p.add_argument("--manifest", required=True, action="append",
                   help="replica manifest JSON (repeat per replica)")
    p.add_argument("--store", required=True, help="replica unit directory")
    p.add_argument("--queries", type=int, default=12,
                   help="random oracle queries per replica")
    p.add_argument("--input", default=None,
                   help="reference CSV (ground truth; default: "
                        "cross-replica majority)")
    p.add_argument("--header", action="store_true",
                   help="reference CSV carries a header row")
    p.add_argument("--json", action="store_true",
                   help="machine-readable report (includes metrics)")
    p.set_defaults(handler=_cmd_verify_store)

    p = sub.add_parser("repair",
                       help="repair damaged units from a diverse replica")
    p.add_argument("--manifest", required=True)
    p.add_argument("--store", required=True)
    p.add_argument("--source-manifest", required=True)
    p.add_argument("--source-store", required=True)
    p.set_defaults(handler=_cmd_repair)

    p = sub.add_parser("analyze", help="fleet analytics (trips, OD flows)",
                       parents=[data, seed])
    p.add_argument("--top", type=int, default=5)
    p.add_argument("--grid", type=int, default=4)
    p.set_defaults(handler=_cmd_analyze)

    p = sub.add_parser(
        "run-workload",
        help="batch-route and execute a whole query workload",
        parents=[data, seed, workload_shape, faults],
    )
    p.add_argument("--repeat", type=int, default=2,
                   help="execute the workload this many times "
                        "(second pass shows the cache effect)")
    p.add_argument("--inject-faults", action="store_true",
                   help="apply the fault schedule (--fault-rate, "
                        "--fail-replica, --slow-ms) to every pass")
    p.add_argument("--trace", action="store_true",
                   help="collect per-query trace spans and print the "
                        "telemetry summary")
    p.add_argument("--trace-out", default=None, metavar="PATH",
                   help="with --trace, dump the retained spans as "
                        "JSON lines to PATH")
    p.set_defaults(handler=_cmd_run_workload)

    p = sub.add_parser(
        "stats",
        help="run a workload with full telemetry and report metrics, "
             "traces and cost-model drift",
        parents=[data, seed, workload_shape, faults],
    )
    p.add_argument("--repeat", type=int, default=2,
                   help="workload passes to accumulate telemetry over")
    p.add_argument("--inject-faults", action="store_true",
                   help="apply the fault schedule before the passes")
    p.add_argument("--drift-threshold", type=float, default=0.5,
                   help="mean relative error above which a replica's "
                        "cost model is flagged as drifting")
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true",
                     help="emit the full telemetry snapshot as JSON")
    fmt.add_argument("--prom", action="store_true",
                     help="emit the metrics in Prometheus text format")
    p.set_defaults(handler=_cmd_stats)

    p = sub.add_parser(
        "report",
        help="run a seeded workload and render the operational report "
             "(cache, degradation, drift, recalibration audit, trends)",
        parents=[data, seed, workload_shape, faults],
    )
    p.add_argument("--repeat", type=int, default=2,
                   help="workload passes to accumulate telemetry over")
    p.add_argument("--inject-faults", action="store_true",
                   help="apply the fault schedule before the passes")
    p.add_argument("--drift-threshold", type=float, default=0.5,
                   help="mean relative error above which a replica's "
                        "cost model is flagged as drifting")
    p.add_argument("--stale-factor", type=float, default=1.0,
                   help="scale every ScanRate by this factor before "
                        "serving (deliberate mis-calibration; 4 = the "
                        "paper's drift scenario)")
    p.add_argument("--recalibrate", action="store_true",
                   help="attach the auto-recalibrator: a flagged "
                        "replica's stored units are re-timed and Eq. 6 "
                        "refitted (the writer's Section V-B procedure), "
                        "and the routing constants hot-swapped")
    p.add_argument("--dry-run", action="store_true",
                   help="with --recalibrate, audit proposed updates "
                        "without applying them")
    p.add_argument("--timeseries", default=None, metavar="PATH",
                   help="persist snapshots + calibration audit to this "
                        "JSONL history file (survives restarts)")
    p.add_argument("--retention", type=int, default=512,
                   help="max history entries kept before rollup "
                        "compaction")
    p.add_argument("--rollup-every", type=int, default=8,
                   help="raw entries folded into one rollup when "
                        "compacting")
    p.add_argument("--json", action="store_true",
                   help="emit the schema-versioned report as JSON")
    p.set_defaults(handler=_cmd_report)

    p = sub.add_parser(
        "drill",
        help="failure drill: healthy pass, inject faults, degraded pass, "
             "degradation report",
        parents=[data, seed, workload_shape, faults],
    )
    p.set_defaults(handler=_cmd_drill)

    p = sub.add_parser(
        "reselect",
        help="workload-drift drill: serve a shifted workload and let the "
             "controller re-solve Eq. 1-5 warm and swap replicas online",
        parents=[data, seed],
    )
    p.add_argument("--budget-copies", type=int, default=3,
                   help="storage budget as copies of the best single "
                        "replica (paper Section V-C)")
    p.add_argument("--min-queries", type=int, default=24,
                   help="observed queries per drift evaluation window")
    p.add_argument("--drift-threshold", type=float, default=0.2,
                   help="Jensen-Shannon divergence (0..1) that counts "
                        "as workload drift")
    p.add_argument("--min-improvement", type=float, default=0.02,
                   help="relative Eq. 5 improvement required to swap")
    p.add_argument("--cache-mb", type=float, default=32.0,
                   help="decoded-partition cache budget in MB (0 disables)")
    p.add_argument("--timeseries", default=None, metavar="PATH",
                   help="persist the reselection audit trail to this "
                        "JSONL history file")
    p.add_argument("--expect-applied", action="store_true",
                   help="exit nonzero unless a reselection was applied "
                        "(CI gate)")
    p.add_argument("--report", action="store_true",
                   help="print the full operational report (with its "
                        "reselection section) after the drill")
    p.add_argument("--json", action="store_true",
                   help="emit the drill summary as JSON")
    p.set_defaults(handler=_cmd_reselect)

    serving_shape = argparse.ArgumentParser(add_help=False)
    serving_shape.add_argument("--replicas", type=int, default=2,
                               help="diverse replicas to materialize (1..6)")
    serving_shape.add_argument("--store-root", default=None, metavar="DIR",
                               help="materialize the store here "
                                    "(default: a fresh temp dir)")
    serving_shape.add_argument("--queries", type=int, default=100,
                               help="fleet queries to issue")
    serving_shape.add_argument("--tenants", type=int, default=2,
                               help="simulated tenants issuing traffic")
    serving_shape.add_argument("--concurrency", type=int, default=16,
                               help="concurrent in-flight client queries")

    p = sub.add_parser(
        "serve",
        help="boot the sharded multi-worker serving tier and drive a "
             "simulated fleet through it",
        parents=[data, seed, serving_shape, faults],
    )
    p.add_argument("--shards", type=int, default=2,
                   help="shard workers to start")
    p.add_argument("--sharding", default="hash",
                   choices=["hash", "spatial"],
                   help="unit-to-shard assignment mode")
    p.add_argument("--worker-mode", default="process",
                   choices=["process", "thread"],
                   help="spawn real worker processes or in-process threads")
    p.add_argument("--max-inflight", type=int, default=256,
                   help="admission limit before queries are shed")
    p.add_argument("--quota-rate", type=float, default=0.0,
                   help="per-tenant sustained queries/second "
                        "(0 disables quotas)")
    p.add_argument("--quota-burst", type=float, default=20.0,
                   help="per-tenant burst allowance")
    p.add_argument("--verify", action="store_true",
                   help="re-answer every fleet query on a single-process "
                        "engine and exit 1 unless all answers are bit-equal")
    p.add_argument("--metrics-out", default=None, metavar="PATH",
                   help="write the per-shard + merged metrics snapshot "
                        "as JSON")
    p.add_argument("--trace-dir", default=None, metavar="DIR",
                   help="enable end-to-end tracing and dump per-worker "
                        "span streams (JSONL) here")
    p.add_argument("--stitch", action="store_true",
                   help="reassemble the dumped span streams into one "
                        "tree per request and print stitch stats")
    p.add_argument("--trace-out", default=None, metavar="PATH",
                   help="write the stitched trace forest as JSON "
                        "(with --stitch)")
    p.add_argument("--min-stitch", type=float, default=None,
                   metavar="RATIO",
                   help="exit 1 unless at least this fraction of "
                        "worker-side engine spans stitched under a "
                        "request root (with --stitch)")
    p.set_defaults(handler=_cmd_serve)

    p = sub.add_parser(
        "top",
        help="render a `serve --metrics-out` snapshot as a refreshing "
             "text board (latency quantiles, outcomes, SLO state)",
    )
    p.add_argument("--snapshot", required=True, metavar="PATH",
                   help="metrics snapshot JSON to watch")
    p.add_argument("--once", action="store_true",
                   help="render once and exit")
    p.add_argument("--interval", type=float, default=2.0,
                   help="seconds between refreshes")
    p.add_argument("--iterations", type=int, default=0,
                   help="refreshes before exiting (0 = forever)")
    p.set_defaults(handler=_cmd_top)

    p = sub.add_parser(
        "slo",
        help="SLO drill: serve fleet traffic under per-tenant "
             "objectives and exit by burn-rate alert state",
        parents=[data, seed, serving_shape, faults],
    )
    p.add_argument("--shards", type=int, default=2,
                   help="shard workers to start")
    p.add_argument("--worker-mode", default="thread",
                   choices=["process", "thread"],
                   help="spawn real worker processes or in-process threads")
    p.add_argument("--availability", type=float, default=None,
                   metavar="FRACTION",
                   help="availability objective for every tenant "
                        "(e.g. 0.999)")
    p.add_argument("--latency-p99-ms", type=float, default=None,
                   metavar="MS",
                   help="p99 latency objective for every tenant")
    p.add_argument("--slo-config", default=None, metavar="PATH",
                   help='declarative objectives JSON ({"tenants": ...})')
    p.add_argument("--min-events", type=int, default=10,
                   help="events a window needs before it may fire")
    p.add_argument("--report-out", default=None, metavar="PATH",
                   help="write the schema-v4 operational report as JSON")
    p.add_argument("--json", action="store_true",
                   help="emit the drill result as JSON")
    p.add_argument("--expect-alert", action="store_true",
                   help="invert the exit code: 0 when an alert is "
                        "firing (for deterministic CI drills)")
    p.set_defaults(handler=_cmd_slo)

    p = sub.add_parser(
        "fleet",
        help="single-process baseline: the identical fleet traffic "
             "through one engine (compare against `serve`)",
        parents=[data, seed, serving_shape],
    )
    p.set_defaults(handler=_cmd_fleet)

    p = sub.add_parser(
        "ingest",
        help="stream records into an always-on store (WAL + background "
             "compaction); re-run with the same --wal-dir to resume",
        parents=[data, seed],
    )
    p.add_argument("--wal-dir", required=True,
                   help="durable state directory (WAL segments, compaction "
                        "snapshot, sealed windows)")
    p.add_argument("--batch-size", type=int, default=1000,
                   help="records per appended batch")
    p.add_argument("--scheme", action="append",
                   default=None, metavar="SPEC",
                   help="replica partitioning spec like 'kd:16/t:4' or "
                        "'grid:8x8' (repeatable; default kd:16/t:4)")
    p.add_argument("--encoding", action="append", default=None,
                   help="encoding per --scheme (default COL-GZIP)")
    p.add_argument("--auto-compact-at", type=int, default=4000,
                   help="buffered records that trigger a compaction")
    p.add_argument("--sync", action="store_true",
                   help="compact inline on the appending thread instead of "
                        "the background worker")
    p.add_argument("--window-seconds", type=float, default=None,
                   help="seal records older than the open window into "
                        "read-only on-disk replica sets of this span")
    p.add_argument("--anti-entropy", action="store_true",
                   help="run the CRC + majority-vote sweep over every "
                        "sealed window before exiting")
    p.add_argument("--fsync", action="store_true",
                   help="fsync every WAL frame (power-loss durability)")
    p.add_argument("--json", action="store_true",
                   help="emit the ingest summary as JSON")
    p.set_defaults(handler=_cmd_ingest)

    p = sub.add_parser("query", help="run one range query through the engine",
                       parents=[data, seed])
    p.add_argument("--frac", type=float, default=0.1,
                   help="query extent as a fraction of the universe per axis")
    p.add_argument("--encoding", default="COL-GZIP")
    p.add_argument("--spatial-leaves", type=int, default=16)
    p.add_argument("--time-slices", type=int, default=8)
    p.add_argument("--parallelism", type=int, default=1)
    p.set_defaults(handler=_cmd_query)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
