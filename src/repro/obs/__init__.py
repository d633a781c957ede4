"""Observability for the BLOT engine: metrics, traces, drift detection.

The paper's serving loop is *predict → route → scan → calibrate*
(Eq. 6–7 predicts, the selector routes, Section IV-B calibrates from
measured scan times).  This package is the instrumentation of that
loop:

- :class:`MetricsRegistry` — thread-safe counters / gauges / quantile
  sketches that the engine, the decoded-partition cache, the fault
  injector and the selection solvers publish into;
- :class:`TraceRecorder` — per-query spans (``route`` →
  ``scan[partition]`` → ``decode`` / ``cache`` / ``retry`` /
  ``failover`` / ``repair``) with parent/child structure, retained in a
  ring buffer and dumpable as JSON lines;
- :class:`DriftMonitor` — rolling (predicted Eq. 7, measured seconds)
  comparison per replica that flags when recalibration is due;
- :class:`TimeseriesStore` / :class:`Checkpointer` — append-only
  on-disk JSONL history of registry + drift snapshots, so telemetry
  survives restarts (see :mod:`repro.obs.timeseries`);
- :class:`Recalibrator` — acts on a drift flag: re-times the flagged
  replica's stored units with the writer's Section V-B procedure and
  hot-swaps its encoding's ``ScanRate``/``ExtraTime`` (or, in dry-run
  mode, only audits them), with a full audit trail (see
  :mod:`repro.obs.recalibrate`);
- :func:`build_report` / :func:`render_report_text` /
  :func:`validate_report` — the ``repro report`` operational summary
  (see :mod:`repro.obs.report`).

:class:`Observability` bundles them; pass one to
:class:`~repro.storage.BlotStore` (or ``open_store``) and enable span
collection per call with ``ExecOptions(trace=True)``.  With no bundle
attached, the engine holds the no-op :data:`NULL_RECORDER` and skips
every publication — the disabled path stays on the PR 1 benchmark
budget.

PR 10 adds the distributed layer: :class:`TraceContext` /
:func:`stitch_traces` (:mod:`repro.obs.distributed`) carry a trace
across the serving tier's process boundary and reassemble per-worker
dumps into one tree per request; :class:`QuantileSketch` gives
mergeable per-tenant/per-shard latency percentiles; and
:class:`SLOEngine` (:mod:`repro.obs.slo`) turns request outcomes into
multi-window burn-rate alerts surfaced in report schema v4.

Dependency discipline: the metrics/trace/drift/timeseries core imports
nothing from the rest of ``repro``, so any layer can depend on it
without cycles.  Two exceptions: :mod:`repro.obs.recalibrate` closes
the loop *into* :mod:`repro.costmodel`, and
:mod:`repro.obs.aggregate` raises
:class:`~repro.errors.SnapshotMergeError` from the consolidated
exception surface — both targets import nothing back, keeping the
graph acyclic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs.aggregate import merge_metric_snapshots
from repro.obs.distributed import (
    StitchResult,
    TraceContext,
    load_spans_jsonl,
    new_trace_id,
    stitch_files,
    stitch_traces,
    validate_trace_tree,
)
from repro.obs.drift import DriftMonitor, DriftStatus, relative_error
from repro.obs.metrics import (
    SKETCH_QUANTILES,
    Counter,
    Gauge,
    MetricsRegistry,
    QuantileSketch,
)
from repro.obs.recalibrate import CalibrationUpdate, Recalibrator
from repro.obs.slo import (
    DEFAULT_WINDOWS,
    BurnWindow,
    SLOEngine,
    SLOStatus,
    SLObjective,
    parse_slo_config,
)
from repro.obs.reselection import ReselectionUpdate
from repro.obs.report import (
    REPORT_SCHEMA_VERSION,
    build_report,
    render_report_text,
    validate_report,
)
from repro.obs.timeseries import Checkpointer, TimeseriesStore
from repro.obs.trace import (
    NULL_RECORDER,
    NullTraceRecorder,
    Span,
    TraceRecorder,
)


@dataclass
class Observability:
    """One engine's telemetry bundle: registry + tracer + drift monitor.

    Construct with :meth:`create` for tuned capacities, or directly with
    pre-built components (tests inject deterministic clocks this way).
    """

    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)
    tracer: TraceRecorder = field(default_factory=TraceRecorder)
    drift: DriftMonitor = field(default_factory=DriftMonitor)
    #: Optional closed-loop pieces, attached after construction (the
    #: recalibrator needs the engine's :class:`CostModel`, which does
    #: not exist yet when the bundle is built).
    recalibrator: Recalibrator | None = None
    checkpointer: Checkpointer | None = None
    #: Duck-typed reselection controller (see
    #: :class:`repro.core.reselect.ReselectionController` — held as an
    #: opaque attribute so ``obs`` never imports ``core``): anything
    #: with ``observe(query)`` and ``maybe_reselect()``.
    reselector: object | None = None

    @classmethod
    def create(cls, drift_threshold: float = 0.5) -> "Observability":
        return cls(
            metrics=MetricsRegistry(),
            tracer=TraceRecorder(),
            drift=DriftMonitor(threshold=drift_threshold),
        )

    def attach_recalibrator(self, cost_model, **guards) -> Recalibrator:
        """Build and attach a :class:`Recalibrator` wired to this
        bundle's drift monitor, tracer and registry.  ``guards`` are
        forwarded (``dry_run``, ``timeseries``)."""
        self.recalibrator = Recalibrator(
            cost_model, self.drift, self.tracer,
            metrics=self.metrics, **guards)
        return self.recalibrator

    def attach_checkpointer(self, store: TimeseriesStore,
                            interval_seconds: float = 60.0,
                            **kwargs) -> Checkpointer:
        """Build and attach a :class:`Checkpointer` persisting this
        bundle's snapshots into ``store``."""
        self.checkpointer = Checkpointer(
            self, store, interval_seconds=interval_seconds, **kwargs)
        return self.checkpointer

    def attach_reselector(self, controller):
        """Attach a reselection controller (duck-typed: ``observe`` +
        ``maybe_reselect``).  The engine then feeds served queries into
        it and offers it one shot per served call."""
        self.reselector = controller
        return controller

    def observe_query(self, query) -> None:
        """Engine hook: feed one served query to the attached
        reselection controller.  No-op without one."""
        if self.reselector is not None:
            self.reselector.observe(query)

    def maybe_reselect(self) -> None:
        """Engine hook: give the reselection controller (when attached)
        a chance to act on accumulated workload drift — it evaluates on
        its own thread, so this returns at once.  No-op without one."""
        if self.reselector is not None:
            self.reselector.maybe_reselect()

    def maybe_recalibrate(self, replica) -> "CalibrationUpdate | None":
        """Engine hook: give the recalibrator (when attached) a chance
        to act on ``replica``'s drift flag.  No-op without one."""
        if self.recalibrator is None:
            return None
        return self.recalibrator.maybe_recalibrate(replica)

    def maybe_checkpoint(self, force: bool = False) -> int | None:
        """Engine hook: persist a snapshot if the schedule says so."""
        if self.checkpointer is None:
            return None
        return self.checkpointer.maybe_checkpoint(force=force)

    def snapshot(self) -> dict:
        """The full telemetry picture as JSON-safe data."""
        return {
            "metrics": self.metrics.snapshot(),
            "drift": self.drift.snapshot(),
            "trace": {
                "recorded": self.tracer.recorded,
                "retained": len(self.tracer.spans()),
                "span_counts": dict(sorted(
                    self.tracer.span_counts().items())),
            },
        }


__all__ = [
    "BurnWindow",
    "CalibrationUpdate",
    "Checkpointer",
    "Counter",
    "DEFAULT_WINDOWS",
    "DriftMonitor",
    "DriftStatus",
    "Gauge",
    "MetricsRegistry",
    "NULL_RECORDER",
    "NullTraceRecorder",
    "Observability",
    "QuantileSketch",
    "REPORT_SCHEMA_VERSION",
    "Recalibrator",
    "ReselectionUpdate",
    "SKETCH_QUANTILES",
    "SLOEngine",
    "SLOStatus",
    "SLObjective",
    "Span",
    "StitchResult",
    "TimeseriesStore",
    "TraceContext",
    "TraceRecorder",
    "build_report",
    "load_spans_jsonl",
    "merge_metric_snapshots",
    "new_trace_id",
    "parse_slo_config",
    "relative_error",
    "render_report_text",
    "stitch_files",
    "stitch_traces",
    "validate_report",
    "validate_trace_tree",
]
