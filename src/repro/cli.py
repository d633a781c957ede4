"""Command-line interface for the BLOT reproduction: ``python -m repro
<command> [options]``.  ``docs/operations.md`` has the quick reference
and a line for every option.

Each subcommand declares its arguments beside its handler with
``@_command``; :func:`build_parser` turns that table into argparse
subparsers.  Option groups several subcommands share (the data source,
the workload shape, the fault schedule, ...) are declared once as
tuples, so every subcommand spells them identically.  Every subcommand
is deterministic given ``--seed``.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np


class _Usage(Exception):
    """Bad arguments: :func:`main` prints the message and exits 2."""


#: Subcommand name -> (handler, help, argument specs), in declaration order.
_COMMANDS: dict[str, tuple] = {}


def _arg(*flags, **kwargs):
    return flags, kwargs


def _either(*specs):
    """Mutually exclusive options."""
    return None, specs


def _command(name: str, help: str, *specs):
    """Register the decorated handler as subcommand ``name`` taking the
    ``_arg`` / ``_either`` ``specs``."""
    def register(handler):
        _COMMANDS[name] = (handler, help, specs)
        return handler
    return register


_SEED = (_arg("--seed", type=int, default=7,
              help="seed of every random choice"),)
_DATA = (_arg("--input", help="CSV file (default: synthesize)"),
         _arg("--records", type=int, default=20_000,
              help="records to synthesize when no --input"))
_ENVIRONMENT = (_arg("--environment", default="amazon-s3-emr",
                     help="simulated cluster (Table II cost regime)"),)
_JSON = (_arg("--json", action="store_true",
              help="machine-readable output"),)
_TIMESERIES = (_arg("--timeseries", default=None, metavar="PATH",
                    help="JSONL history file for snapshots and audits"),)
_BUDGET = (_arg("--budget-copies", type=int, default=3,
                help="storage budget in copies of the best single replica"),)


def _cache_mb(default: float):
    return (_arg("--cache-mb", type=float, default=default,
                 help="decoded-partition cache budget in MB (0 disables)"),)


_WORKLOAD = (
    _arg("--queries", type=int, default=500,
         help="positioned queries to generate"),
    _arg("--replicas", type=int, default=3,
         help="diverse replicas to build (1..6)"),
    *_cache_mb(64.0),
)
_FAULTS = (
    _arg("--fault-rate", type=float, default=0.0,
         help="fail this fraction of (replica, partition) units, "
              "deterministically per --fault-seed"),
    _arg("--fault-seed", type=int, default=0,
         help="seed of the deterministic fault schedule"),
    _arg("--fail-replica", action="append", default=None, metavar="NAME",
         help="mark a whole replica down (repeatable)"),
    _arg("--slow-ms", type=float, default=0.0,
         help="injected latency per storage read, in ms"),
    _arg("--retries", type=int, default=2,
         help="extra read attempts per partition before failover"),
)
_PASSES = (
    _arg("--repeat", type=int, default=2,
         help="workload passes (the second shows the cache effect)"),
    _arg("--inject-faults", action="store_true",
         help="apply the fault schedule to every pass"),
)
_DRIFT = (_arg("--drift-threshold", type=float, default=0.5,
               help="mean relative error above which a replica's cost "
                    "model is flagged as drifting"),)
_SERVING = (
    _arg("--replicas", type=int, default=2,
         help="diverse replicas to materialize (1..6)"),
    _arg("--store-root", default=None, metavar="DIR",
         help="materialize the store here (default: a fresh temp dir)"),
    _arg("--queries", type=int, default=100, help="fleet queries to issue"),
)


def _shards(worker_mode: str):
    return (_arg("--shards", type=int, default=2,
                 help="shard workers to start"),
            _arg("--worker-mode", default=worker_mode,
                 choices=["process", "thread"],
                 help="spawn real worker processes or in-process threads"))


def _load_or_generate(args: argparse.Namespace):
    from repro.data import dataset_from_csv, synthetic_shanghai_taxis

    if args.input:
        return dataset_from_csv(args.input)
    return synthetic_shanghai_taxis(args.records, seed=args.seed)


@_command("info", "version, environments, scheme registry")
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


@_command("generate", "synthesize a taxi GPS log as CSV",
          _arg("--records", type=int, default=50_000,
               help="records to synthesize"),
          *_SEED,
          _arg("--taxis", type=int, default=64, help="fleet size"),
          _arg("--out", required=True, help="CSV file to write"))
def _cmd_generate(args: argparse.Namespace) -> int:
    from repro.data import dataset_to_csv, synthetic_shanghai_taxis

    data = synthetic_shanghai_taxis(args.records, seed=args.seed,
                                    num_taxis=args.taxis)
    dataset_to_csv(data, args.out)
    bb = data.bounding_box()
    print(f"wrote {len(data):,} records to {args.out}")
    print(f"bbox lon [{bb.x_min:.4f}, {bb.x_max:.4f}] "
          f"lat [{bb.y_min:.4f}, {bb.y_max:.4f}] "
          f"time [{bb.t_min:.0f}, {bb.t_max:.0f}]")
    return 0


@_command("ratios", "Table I: compression ratios", *_DATA, *_SEED)
def _cmd_ratios(args: argparse.Namespace) -> int:
    from repro.encoding import all_encoding_schemes, measure_compression_ratio

    sample = _load_or_generate(args).sorted_by_time()
    print(f"compression ratios vs uncompressed row binary "
          f"({len(sample):,} records):")
    for scheme in all_encoding_schemes():
        ratio = measure_compression_ratio(scheme, sample)
        print(f"  {scheme.name:11s} {ratio:6.3f}")
    return 0


@_command("calibrate", "Table II: ScanRate/ExtraTime fits",
          *_SEED, *_ENVIRONMENT,
          _arg("--encodings", nargs="*", default=None,
               help="encodings to fit (default: the paper's six)"))
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


@_command("advise", "recommend a diverse replica set",
          *_DATA, *_SEED, *_ENVIRONMENT, *_BUDGET,
          _arg("--records-target", type=float, default=65e6,
               help="size of the full dataset being planned for"),
          _arg("--method", default="greedy",
               choices=["greedy", "exact", "mip"],
               help="Eq. 1-5 solver"))
def _cmd_advise(args: argparse.Namespace) -> int:
    from repro.cluster import cost_model_for, make_cluster
    from repro.core import AdvisorConfig, ReplicaAdvisor
    from repro.encoding import paper_encoding_schemes
    from repro.partition import small_partitioning_schemes
    from repro.workload import paper_workload

    sample = _load_or_generate(args)
    cluster = make_cluster(args.environment, seed=args.seed)
    encodings = paper_encoding_schemes()
    model = cost_model_for(cluster, [s.name for s in encodings])
    advisor = ReplicaAdvisor(
        sample, small_partitioning_schemes((4, 16, 64, 256), (4, 16, 64)),
        encodings, model, AdvisorConfig(n_records=args.records_target),
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


@_command("query", "run one range query through the engine",
          *_DATA, *_SEED,
          _arg("--frac", type=float, default=0.1,
               help="query extent as a fraction of the universe per axis"),
          _arg("--scheme", default="kd:16/t:8", metavar="SPEC",
               help="partitioning spec like 'kd:16/t:8' or 'grid:8x8'"),
          _arg("--encoding", default="COL-GZIP", help="the replica's encoding"))
def _cmd_query(args: argparse.Namespace) -> int:
    from repro.encoding import encoding_scheme_by_name
    from repro.storage import BlotStore, InMemoryStore, parse_scheme_spec
    from repro.workload import Query

    data = _load_or_generate(args)
    store = BlotStore(data)
    store.add_replica(parse_scheme_spec(args.scheme),
                      encoding_scheme_by_name(args.encoding), InMemoryStore())
    bb = data.bounding_box()
    c = bb.centroid
    q = Query(bb.width * args.frac, bb.height * args.frac,
              bb.duration * args.frac, c.x, c.y, c.t)
    result = store.query(q)
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


def _replica_ladder(args: argparse.Namespace) -> list:
    """``(scheme, encoding, name)`` of the first ``--replicas`` rungs; the
    name is the one ``serve``/``fleet``/``slo`` materialize under."""
    from repro.encoding import encoding_scheme_by_name
    from repro.partition import CompositeScheme, KdTreePartitioner

    if not 1 <= args.replicas <= len(_WORKLOAD_REPLICA_SPECS):
        raise _Usage(f"--replicas must be 1..{len(_WORKLOAD_REPLICA_SPECS)}")
    return [
        (CompositeScheme(KdTreePartitioner(leaves), slices),
         encoding_scheme_by_name(enc), f"kd{leaves}t{slices}-{enc.lower()}")
        for leaves, slices, enc in _WORKLOAD_REPLICA_SPECS[:args.replicas]
    ]


def _fault_spec(args: argparse.Namespace, replica_names):
    """The shared fault arguments as one :class:`~repro.storage.FaultSpec`
    (``.build()`` for an in-process store), or None when they inject
    nothing.  A ``--fail-replica`` must name one of ``replica_names``."""
    from repro.storage import FaultSpec

    for name in args.fail_replica or ():
        if name not in replica_names:
            raise _Usage(f"--fail-replica: no replica named {name!r}; "
                         f"have {', '.join(replica_names)}")
    if not (args.fail_replica or args.fault_rate or args.slow_ms):
        return None
    return FaultSpec(seed=args.fault_seed, partition_fail_rate=args.fault_rate,
                     slow_seconds=args.slow_ms / 1e3,
                     fail_replicas=tuple(args.fail_replica or ()))


def _build_workload_store(args: argparse.Namespace, observability=None,
                          quiet: bool = False):
    """The diverse-replica store ``run-workload``, ``stats``, ``report``
    and ``drill`` run: ``args.replicas`` kd-tree/time-slice combinations
    over one dataset, with an optional decoded-partition cache and (when
    more than one replica exists) a cost model whose Eq. 6 rows are
    timed on the units just written, as ``materialize_store`` does —
    plus the seeded positioned workload they run and, with
    ``--inject-faults``, the fault schedule already applied.
    ``quiet`` suppresses the banner (machine-readable output modes)."""
    from repro.costmodel.calibrate import measure_cost_params
    from repro.storage import InMemoryStore, build_replica, open_store
    from repro.storage.config import cost_model_from_params
    from repro.workload import positioned_random_workload

    if getattr(args, "repeat", 1) < 1:
        raise _Usage("--repeat must be >= 1")
    ladder = _replica_ladder(args)
    if args.queries < 1:
        raise _Usage("--queries must be >= 1")
    data = _load_or_generate(args)
    replicas = [build_replica(data, scheme, encoding, InMemoryStore())
                for scheme, encoding, _ in ladder]
    model = (cost_model_from_params(measure_cost_params(replicas))
             if len(replicas) > 1 else None)
    cache_bytes = int(args.cache_mb * 1e6) if args.cache_mb > 0 else None
    store = open_store(data, tuple(replicas), cost_model=model,
                       cache_bytes=cache_bytes, observability=observability)
    if not quiet:
        print(f"{len(data):,} records, {args.replicas} replicas: "
              + ", ".join(store.replica_names()))
    if getattr(args, "inject_faults", False):
        faults = _fault_spec(args, store.replica_names())
        if faults is not None:
            store.set_fault_injector(faults.build())
    workload = positioned_random_workload(
        data.bounding_box(), args.queries, np.random.default_rng(args.seed),
        max_fraction=0.3)
    return store, workload


def _exec_options(args: argparse.Namespace, trace: bool):
    from repro.storage import ExecOptions

    return ExecOptions(retries=args.retries, trace=trace)


@_command("run-workload", "batch-route and execute a whole query workload",
          *_DATA, *_SEED, *_WORKLOAD, *_FAULTS, *_PASSES,
          _arg("--trace", action="store_true",
               help="collect trace spans and print the telemetry summary"),
          _arg("--trace-out", default=None, metavar="PATH",
               help="with --trace, dump the retained spans as JSON lines"))
def _cmd_run_workload(args: argparse.Namespace) -> int:
    from repro.obs import Observability
    from repro.obs.report import render_telemetry_text, render_workload_pass

    obs = Observability.create() if args.trace else None
    store, workload = _build_workload_store(args, observability=obs)
    opts = _exec_options(args, args.trace)
    for pass_no in range(1, args.repeat + 1):
        result = store.execute_workload(workload, options=opts)
        print(render_workload_pass(
            f"pass {pass_no}/{args.repeat}" if args.repeat > 1
            else "workload",
            result.stats, store.partition_cache is not None))
    if obs is not None:
        print(render_telemetry_text(obs))
        if args.trace_out:
            obs.tracer.dump_jsonl(args.trace_out)
            print(f"wrote {len(obs.tracer.spans())} spans to {args.trace_out}")
    return 0


@_command("stats", "run a workload with full telemetry and report metrics, "
                   "traces and cost-model drift",
          *_DATA, *_SEED, *_WORKLOAD, *_FAULTS, *_PASSES, *_DRIFT,
          _either(*_JSON, _arg("--prom", action="store_true",
                               help="Prometheus text exposition")))
def _cmd_stats(args: argparse.Namespace) -> int:
    import json

    from repro.obs import Observability
    from repro.obs.report import render_telemetry_text, render_workload_pass

    obs = Observability.create(drift_threshold=args.drift_threshold)
    store, workload = _build_workload_store(args, observability=obs,
                                            quiet=args.json or args.prom)
    opts = _exec_options(args, trace=True)
    for _ in range(args.repeat):
        result = store.execute_workload(workload, options=opts)
    if args.prom:
        print(obs.metrics.render_prometheus(), end="")
    elif args.json:
        print(json.dumps(obs.snapshot(), indent=2, sort_keys=True))
    else:
        print(render_workload_pass("workload", result.stats,
                                   store.partition_cache is not None))
        print(render_telemetry_text(obs))
    return 0


@_command("report", "run a seeded workload and render the operational "
                    "report (cache, degradation, drift, recalibration "
                    "audit, trends)",
          *_DATA, *_SEED, *_WORKLOAD, *_FAULTS, *_PASSES, *_DRIFT,
          *_TIMESERIES, *_JSON,
          _arg("--stale-factor", type=float, default=1.0,
               help="serve with every Eq. 6 row this many times faster "
                    "(ScanRate x f, ExtraTime / f): a deliberate "
                    "mis-calibration"),
          _arg("--recalibrate", action="store_true",
               help="re-time a drifting replica's units and refit Eq. 6"),
          _arg("--dry-run", action="store_true",
               help="with --recalibrate, audit updates without applying"),
          _arg("--retention", type=int, default=512,
               help="max history entries kept before rollup compaction"),
          _arg("--rollup-every", type=int, default=8,
               help="raw entries folded into one rollup when compacting"))
def _cmd_report(args: argparse.Namespace) -> int:
    import json

    from repro.obs import Observability, TimeseriesStore, build_report
    from repro.obs.report import render_report_text

    if args.dry_run and not args.recalibrate:
        raise _Usage("--dry-run requires --recalibrate")
    if args.stale_factor <= 0:
        raise _Usage("--stale-factor must be positive")
    if (args.stale_factor != 1.0 or args.recalibrate) and args.replicas < 2:
        raise _Usage("--stale-factor/--recalibrate need a routing cost "
                     "model; use --replicas >= 2")
    obs = Observability.create(drift_threshold=args.drift_threshold)
    store, workload = _build_workload_store(args, observability=obs,
                                            quiet=args.json)
    model = store.cost_model
    if args.stale_factor != 1.0:  # mis-calibrate the live model in place
        stale = model.scaled_rates(args.stale_factor)
        for enc in model.encoding_names:
            model.update_params(enc, stale.params_for(enc))
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
    for _ in range(args.repeat):
        store.execute_workload(workload, options=opts)
    if ts is not None:
        obs.maybe_checkpoint(force=True)  # the "after" point
    report = build_report(obs, timeseries=ts, recalibrator=rec)
    print(json.dumps(report, indent=2, sort_keys=True) if args.json
          else render_report_text(report))
    return 0


@_command("drill", "failure drill: healthy pass, inject faults (default: "
                   "lose the busiest replica), degraded pass, degradation "
                   "report with an oracle check of every answer",
          *_DATA, *_SEED, *_WORKLOAD, *_FAULTS)
def _cmd_drill(args: argparse.Namespace) -> int:
    from repro.drills import run_failure_drill
    from repro.errors import DegradedReadError
    from repro.obs import Observability
    from repro.obs.report import render_telemetry_text, render_workload_pass

    obs = Observability.create()
    store, workload = _build_workload_store(args, observability=obs)
    drill = run_failure_drill(
        store, workload, _fault_spec(args, store.replica_names()),
        _exec_options(args, trace=True))
    cache_enabled = store.partition_cache is not None
    print(render_workload_pass("healthy", drill.healthy.stats, cache_enabled))
    if drill.victim is not None:
        print("no failure schedule given; failing busiest replica "
              f"{drill.victim!r}")
    if isinstance(drill.degraded, DegradedReadError):
        print("drill FAILED: workload cannot be served under this schedule",
              file=sys.stderr)
        print(f"  {drill.degraded}", file=sys.stderr)
        return 1
    print(render_workload_pass("degraded", drill.degraded.stats,
                               cache_enabled))
    hs, ds = drill.healthy.stats, drill.degraded.stats
    print("degradation report:")
    print(f"  results identical: {'yes' if drill.identical else 'NO'} "
          f"({ds.records_returned:,} records, healthy {hs.records_returned:,})")
    print(f"  failovers: {ds.failovers}  retries: {ds.retries}  "
          f"repairs: {ds.repairs}")
    print(f"  failed replicas: {', '.join(ds.failed_replicas) or 'none'}")
    print(f"  est. extra cost vs healthy plan: {ds.degraded_cost_delta:+.2f}s")
    print(f"  wall clock: healthy {hs.seconds * 1e3:.1f} ms -> "
          f"degraded {ds.seconds * 1e3:.1f} ms")
    fstats = drill.injector.stats()
    if fstats.faults_injected:
        print(f"  injector: {fstats.faults_injected} faults over "
              f"{fstats.reads_checked} read checks")
    print(render_telemetry_text(obs))
    return 0 if drill.identical else 1


@_command("reselect", "workload-drift drill: serve a shifted workload and "
                      "let the controller re-solve Eq. 1-5 warm and swap "
                      "replicas online",
          *_DATA, *_SEED, *_BUDGET, *_cache_mb(32.0), *_TIMESERIES, *_JSON,
          _arg("--min-queries", type=int, default=24,
               help="observed queries per drift evaluation window"),
          _arg("--drift-threshold", type=float, default=0.2,
               help="Jensen-Shannon divergence that counts as drift"),
          _arg("--min-improvement", type=float, default=0.02,
               help="relative Eq. 5 improvement required to swap"),
          _arg("--expect-applied", action="store_true",
               help="exit nonzero unless a reselection was applied (CI gate)"),
          _arg("--report", action="store_true",
               help="print the full operational report after the drill"))
def _cmd_reselect(args: argparse.Namespace) -> int:
    import json

    from repro.core import ReselectionConfig
    from repro.drills import run_reselect_drill
    from repro.obs import TimeseriesStore, build_report
    from repro.obs.report import render_report_text

    if args.budget_copies < 1:
        raise _Usage("--budget-copies must be >= 1")
    try:
        config = ReselectionConfig(drift_threshold=args.drift_threshold,
                                   min_queries=args.min_queries,
                                   min_improvement=args.min_improvement)
    except ValueError as exc:
        raise _Usage(f"bad reselection guard: {exc}") from exc

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
    if not verified:
        return 1
    if args.expect_applied and not applied:
        print("no reselection was applied", file=sys.stderr)
        return 1
    return 0


@_command("analyze", "fleet analytics (trips, OD flows)", *_DATA, *_SEED,
          _arg("--top", type=int, default=5,
               help="vehicles and flows to list"),
          _arg("--grid", type=int, default=4,
               help="cells per axis of the origin-destination grid"))
def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.data import od_matrix, split_trips, trajectories_of, trajectory_stats

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
    print(f"top origin->destination flows ({args.grid}x{args.grid} grid):")
    for flat in np.argsort(od, axis=None)[::-1][:args.top]:
        o, d = np.unravel_index(flat, od.shape)
        if od[o, d] == 0:
            break
        print(f"  cell {int(o):3d} -> cell {int(d):3d}: {int(od[o, d]):5d} trips")
    return 0


@_command("verify", "CRC-check a replica against its manifest",
          _arg("--manifest", required=True, help="replica manifest JSON"),
          _arg("--store", required=True, help="replica unit directory"))
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


@_command("verify-store", "differential oracle sweep over an on-disk store "
                          "(CRC + cross-replica content + query answers)",
          *_SEED, *_JSON,
          _arg("--manifest", required=True, action="append",
               help="replica manifest JSON (repeat per replica)"),
          _arg("--store", required=True, help="replica unit directory"),
          _arg("--queries", type=int, default=12,
               help="random oracle queries per replica"),
          _arg("--input", default=None,
               help="ground-truth CSV (default: cross-replica majority)"))
def _cmd_verify_store(args: argparse.Namespace) -> int:
    import json

    from repro.data import dataset_from_csv
    from repro.obs import MetricsRegistry
    from repro.storage import DirectoryStore
    from repro.verify import verify_store

    metrics = MetricsRegistry()
    result = verify_store(
        DirectoryStore(args.store),
        list(args.manifest),
        n_queries=args.queries,
        seed=args.seed,
        reference=dataset_from_csv(args.input) if args.input else None,
        metrics=metrics,
    )
    if args.json:
        print(json.dumps({**result.to_dict(), "metrics": metrics.snapshot()},
                         indent=2))
    else:
        print(result.summary())
    return 0 if result.ok else 1


@_command("repair", "repair damaged units from a diverse replica",
          _arg("--manifest", required=True, help="damaged replica's manifest"),
          _arg("--store", required=True, help="damaged replica's unit directory"),
          _arg("--source-manifest", required=True,
               help="manifest of the replica to repair from"),
          _arg("--source-store", required=True,
               help="unit directory of the replica to repair from"))
def _cmd_repair(args: argparse.Namespace) -> int:
    import json

    from repro.storage import DirectoryStore, load_replica, repair_replica, verify_replica

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


@_command("ingest", "stream records into an always-on store (WAL + "
                    "background compaction); re-run with the same "
                    "--wal-dir to resume",
          *_DATA, *_SEED, *_JSON,
          _arg("--wal-dir", required=True,
               help="durable state directory (WAL, snapshot, windows)"),
          _arg("--batch-size", type=int, default=1000,
               help="records per appended batch"),
          _arg("--scheme", action="append", default=None, metavar="SPEC",
               help="replica partitioning spec like 'kd:16/t:4' or "
                    "'grid:8x8' (repeatable; default kd:16/t:4)"),
          _arg("--encoding", action="append", default=None,
               help="encoding per --scheme (default COL-GZIP)"),
          _arg("--auto-compact-at", type=int, default=4000,
               help="buffered records that trigger a compaction"),
          _arg("--sync", action="store_true",
               help="compact inline instead of in the background"),
          _arg("--window-seconds", type=float, default=None,
               help="seal records into on-disk windows of this span"),
          _arg("--anti-entropy", action="store_true",
               help="CRC + majority-vote sweep over every layer at exit"),
          _arg("--fsync", action="store_true",
               help="fsync every WAL frame (power-loss durability)"))
def _cmd_ingest(args: argparse.Namespace) -> int:
    import json

    from repro.drills import INGEST_SUB_BOXES, run_ingest_drill
    from repro.encoding import encoding_scheme_by_name
    from repro.obs import Observability
    from repro.storage import parse_scheme_spec
    from repro.storage.ingest import ReplicaSpec

    if args.batch_size < 1:
        raise _Usage("--batch-size must be >= 1")
    if args.auto_compact_at < 1:
        raise _Usage("--auto-compact-at must be >= 1")
    if args.window_seconds is not None and args.window_seconds <= 0:
        raise _Usage("--window-seconds must be positive")
    schemes = args.scheme or ["kd:16/t:4"]
    encodings = args.encoding or ["COL-GZIP"] * len(schemes)
    if len(schemes) != len(encodings):
        raise _Usage("need as many --encoding values as --scheme values")
    specs = [
        ReplicaSpec(parse_scheme_spec(scheme),
                    encoding_scheme_by_name(encoding),
                    name=f"r{i}-{scheme.replace(':', '').replace('/', '-')}")
        for i, (scheme, encoding) in enumerate(zip(schemes, encodings))
    ]
    drill = run_ingest_drill(
        _load_or_generate(args).sorted_by_time(), specs, args.wal_dir,
        batch_size=args.batch_size, seed=args.seed,
        anti_entropy=args.anti_entropy,
        auto_compact_at=args.auto_compact_at,
        background_compaction=not args.sync,
        window_seconds=args.window_seconds, fsync_wal=args.fsync,
        observability=Observability.create())
    if drill.resumed is not None and not args.json:
        print(f"resumed from {args.wal_dir}: {drill.resumed[0]:,} records "
              f"({drill.resumed[1]:,} replayed into the buffer)")
    if drill.failed_phase is not None:
        print(f"ingest verification FAILED {drill.failed_phase}: reads do "
              "not match the logical dataset", file=sys.stderr)
        return 1
    summary = drill.summary
    status = 1 if summary["anti_entropy_ok"] is False else 0
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
        return status
    print(f"ingested {summary['appended']:,} records in batches of "
          f"{args.batch_size:,} -> {summary['records']:,} total")
    print(f"  compactions: {summary['compactions']} "
          f"({summary['compaction_failures']} failed), "
          f"buffered: {summary['buffered']:,}")
    print(f"  sealed windows: {summary['windows']}, "
          f"wal segments live: {summary['wal_segments']}")
    if summary["anti_entropy_ok"] is not None:
        print("  anti-entropy sweep: "
              + ("OK" if summary["anti_entropy_ok"] else "FAILED"))
    print(f"  full-range and {INGEST_SUB_BOXES} sub-box reads (query + "
          "count) verified bit-equal against the logical dataset")
    return status


def _materialize_serve_store(args: argparse.Namespace):
    """Materialize the on-disk store ``serve``/``fleet``/``slo`` run
    against — the same diversity ladder as ``run-workload`` — under the
    fault schedule, and return its :class:`~repro.storage.StoreConfig`."""
    import tempfile

    from repro.storage import materialize_store

    specs = _replica_ladder(args)
    faults = (_fault_spec(args, [name for _, _, name in specs])
              if hasattr(args, "fail_replica") else None)
    data = _load_or_generate(args)
    root = args.store_root or tempfile.mkdtemp(prefix="repro-serve-")
    config = materialize_store(data, specs, root, faults=faults,
                               observability=True)
    print(f"materialized {len(data):,} records x {args.replicas} replicas "
          f"under {root}")
    return config


def _fleet_spec(args: argparse.Namespace):
    """The simulated traffic ``serve``, ``fleet`` and ``slo`` share."""
    from repro.serve import FleetSpec

    return FleetSpec(n_queries=args.queries, seed=args.seed)


@_command("serve", "boot the sharded multi-worker serving tier and drive a "
                   "simulated fleet through it",
          *_DATA, *_SEED, *_SERVING, *_FAULTS, *_shards("process"),
          _arg("--sharding", default="hash", choices=["hash", "spatial"],
               help="unit-to-shard assignment mode"),
          _arg("--max-inflight", type=int, default=256,
               help="admission limit before queries are shed"),
          _arg("--quota-rate", type=float, default=0.0,
               help="per-tenant sustained queries/second (0 disables quotas)"),
          _arg("--quota-burst", type=float, default=20.0,
               help="per-tenant burst allowance"),
          _arg("--verify", action="store_true",
               help="re-answer every fleet query on a single-process engine "
                    "and exit 1 unless all answers are bit-equal"),
          _arg("--metrics-out", default=None, metavar="PATH",
               help="write the per-shard + merged metrics snapshot as JSON"),
          _arg("--trace-dir", default=None, metavar="DIR",
               help="trace end to end; dump per-worker spans here"),
          _arg("--stitch", action="store_true",
               help="stitch the dumped spans into one tree per request"),
          _arg("--trace-out", default=None, metavar="PATH",
               help="write the stitched trace forest as JSON (with --stitch)"),
          _arg("--min-stitch", type=float, default=None, metavar="RATIO",
               help="exit 1 unless at least this fraction of worker-side "
                    "engine spans stitched under a request root"))
def _cmd_serve(args: argparse.Namespace) -> int:
    import json

    from repro.drills import run_serve_drill
    from repro.serve import QuotaConfig, TenantQuotas

    tracing = args.trace_dir is not None
    if (args.stitch or args.trace_out or args.min_stitch is not None) \
            and not tracing:
        raise _Usage("--stitch/--trace-out/--min-stitch need --trace-dir")
    config = _materialize_serve_store(args)
    quotas = None
    if args.quota_rate > 0:
        quotas = TenantQuotas(QuotaConfig(rate=args.quota_rate,
                                          burst=args.quota_burst))
    spec = _fleet_spec(args)
    drill = run_serve_drill(
        config, spec, verify=args.verify,
        trace_dir=args.trace_dir, n_shards=args.shards,
        sharding=args.sharding, worker_mode=args.worker_mode,
        max_inflight=args.max_inflight, quotas=quotas)
    report, stats, trace_paths = drill.report, drill.stats, drill.trace_paths

    print(f"[fleet] {report.n_queries} queries over {len(spec.tenants)} "
          f"tenants: {report.served} served ({report.records_returned:,} "
          f"records), {report.shed} shed, {report.quota_rejected} "
          f"quota-rejected, {report.degraded} degraded")
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


@_command("fleet", "single-process baseline: the identical fleet traffic "
                   "through one engine (compare against `serve`)",
          *_DATA, *_SEED, *_SERVING)
def _cmd_fleet(args: argparse.Namespace) -> int:
    import time

    from repro.serve import fleet_queries
    from repro.storage import hydrate_store
    from repro.workload import Workload

    store = hydrate_store(_materialize_serve_store(args))
    queries = fleet_queries(store.universe, _fleet_spec(args))
    start = time.perf_counter()
    result = store.execute_workload(Workload.unweighted(queries))
    seconds = time.perf_counter() - start
    s = result.stats
    print(f"[baseline] {s.n_queries} queries in {seconds * 1e3:.1f} ms "
          f"({s.n_queries / seconds:,.0f} q/s), "
          f"{s.records_returned:,} records returned")
    routed = ", ".join(f"{name}={count}" for name, count in
                       sorted(s.per_replica_queries.items()))
    print(f"  routing: {routed}")
    return 0


@_command("top", "render a `serve --metrics-out` snapshot as a refreshing "
                 "text board (latency quantiles, outcomes, SLO state)",
          _arg("--snapshot", required=True, metavar="PATH",
               help="metrics snapshot JSON to watch"),
          _arg("--once", action="store_true", help="render once and exit"),
          _arg("--interval", type=float, default=2.0,
               help="seconds between refreshes"))
def _cmd_top(args: argparse.Namespace) -> int:
    import json
    import time

    from repro.obs.report import render_top_text

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
            print(render_top_text(snapshot))
        if args.once:
            return 0 if snapshot is not None else 1
        print("-" * 64)
        time.sleep(args.interval)


@_command("slo", "SLO drill: serve fleet traffic under per-tenant "
                 "objectives and exit by burn-rate alert state",
          *_DATA, *_SEED, *_SERVING, *_FAULTS, *_shards("thread"), *_JSON,
          _arg("--availability", type=float, default=None,
               metavar="FRACTION",
               help="availability objective for every tenant (e.g. 0.999)"),
          _arg("--latency-p99-ms", type=float, default=None, metavar="MS",
               help="p99 latency objective for every tenant"),
          _arg("--slo-config", default=None, metavar="PATH",
               help='declarative objectives JSON ({"tenants": ...})'),
          _arg("--report-out", default=None, metavar="PATH",
               help="write the schema-v4 operational report as JSON"),
          _arg("--expect-alert", action="store_true",
               help="exit 0 only when an alert is firing"))
def _cmd_slo(args: argparse.Namespace) -> int:
    import json

    from repro.drills import run_slo_drill
    from repro.obs import SLObjective, parse_slo_config
    from repro.obs.report import render_report_text, render_top_text

    objectives: list[SLObjective] = []
    if args.slo_config:
        with open(args.slo_config, encoding="utf-8") as f:
            objectives.extend(parse_slo_config(json.load(f)))
    if args.availability is not None:
        objectives.append(SLObjective(tenant="*", kind="availability",
                                      target=args.availability))
    if args.latency_p99_ms is not None:
        objectives.append(SLObjective(
            tenant="*", kind="latency", target=0.99,
            latency_seconds=args.latency_p99_ms / 1e3))
    if not objectives:
        raise _Usage("declare at least one objective: --availability, "
                     "--latency-p99-ms or --slo-config")

    drill = run_slo_drill(_materialize_serve_store(args), _fleet_spec(args),
                          objectives, n_shards=args.shards,
                          worker_mode=args.worker_mode)
    fleet, engine, report = drill.fleet, drill.engine, drill.report
    if args.report_out:
        with open(args.report_out, "w", encoding="utf-8") as f:
            json.dump(report, f, indent=2, sort_keys=True)
    firing = engine.firing
    if args.json:
        print(json.dumps({"served": fleet.served, "degraded": fleet.degraded,
                          **report["slo"]}, indent=2, sort_keys=True))
    else:
        print(f"[fleet] {fleet.n_queries} queries: {fleet.served} served, "
              f"{fleet.degraded} degraded")
        print(render_top_text(drill.snapshot))
        print(render_report_text(report))
        if args.report_out:
            print(f"wrote v{report['schema_version']} report "
                  f"to {args.report_out}")
    if args.expect_alert:
        if firing:
            return 0
        print("expected an SLO alert but none is firing", file=sys.stderr)
        return 1
    return 1 if firing else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="BLOT diverse-replica storage (ICDCS 2014 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, help, specs) in _COMMANDS.items():
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler)
        for flags, kwargs in specs:
            if flags is None:  # an _either group
                group = p.add_mutually_exclusive_group()
                for group_flags, group_kwargs in kwargs:
                    group.add_argument(*group_flags, **group_kwargs)
            else:
                p.add_argument(*flags, **kwargs)
    return parser


def main(argv: list[str] | None = None) -> int:
    from repro.errors import DegradedReadError

    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except _Usage as exc:
        print(exc, file=sys.stderr)
        return 2
    except DegradedReadError as exc:
        print(f"degraded beyond recovery: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
