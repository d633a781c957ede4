"""Drift-triggered auto-recalibration (closing the Section V-B loop).

The paper's serving loop is *predict → route → scan → calibrate*:
Eq. 6–7 route on the calibrated ``ScanRate``/``ExtraTime`` constants and
Section V-B re-fits them by linear regression over measured scans.  The
:class:`~repro.obs.DriftMonitor` detects when the constants have gone
stale; this module acts on the flag instead of waiting for a human:

1. harvest measured ``(partition records, seconds)`` pairs from the
   :class:`~repro.obs.TraceRecorder`'s finished ``scan`` spans (cache
   hits — ``bytes == 0`` — are excluded: a hit's near-zero duration
   says nothing about scan throughput);
2. re-run the Section V-B regression
   (:func:`repro.costmodel.calibrate.fit_cost_params`) when the
   harvested partition sizes span a wide enough range to identify both
   constants, or fall back to *rescale* mode — divide ``ScanRate`` and
   multiply ``ExtraTime`` by the window's measured/predicted scale
   factor — when every partition is the same size (the common case for
   equal-count kd-tree replicas, where the regression is
   ill-conditioned);
3. hot-swap the replica's constants in the :class:`CostModel` behind a
   guard: minimum sample count, maximum step factor (a single
   recalibration may not move a constant by more than ``x``-fold), and
   a dry-run mode that audits what *would* change without applying it.

Every decision — applied, rejected, or dry-run — lands in a bounded
in-memory :class:`~repro.obs.audit.AuditTrail`, in the ``repro_recalib_applied_total`` /
``repro_recalib_rejected_total`` counters, and (when a
:class:`~repro.obs.timeseries.TimeseriesStore` is attached) in the
on-disk history as a ``"calibration"`` entry, so the full trail
survives restarts.

A fit that raises (``calibrate.py`` rejects a non-positive fitted
``1/ScanRate``) is caught and counted as a rejection; the
:class:`CostModel` is swapped via
:meth:`~repro.costmodel.model.CostModel.update_params`, which replaces
both constants in one locked assignment — a failed or rejected attempt
never leaves the model half-updated.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

from repro.costmodel.calibrate import MeasurementPoint, fit_cost_params
from repro.costmodel.model import CostModel, EncodingCostParams
from repro.obs.audit import AuditTrail

__all__ = ["CalibrationUpdate", "Recalibrator"]

#: Partition-size spread (max/min harvested records) below which the
#: Section V-B regression is considered ill-conditioned and the
#: rescale fallback is used instead.  Equal-count kd partitions sit at
#: ~1.0x; the paper's measurement plan spans 40x.
MIN_FIT_SIZE_SPREAD = 1.5

#: Cap on harvested measurement points per attempt (newest kept) — the
#: regression gains nothing past a few hundred points and the tracer
#: ring can hold thousands.
MAX_HARVEST_POINTS = 512


@dataclass(frozen=True, slots=True)
class CalibrationUpdate:
    """One audited recalibration decision."""

    replica: str
    encoding: str
    #: ``"applied"`` | ``"rejected"`` | ``"dry-run"``
    action: str
    #: ``"fit"`` (full Section V-B regression) | ``"rescale"``
    #: (scale-factor fallback); None when rejected before choosing.
    mode: str | None
    reason: str | None
    old_scan_rate: float
    old_extra_time: float
    new_scan_rate: float | None
    new_extra_time: float | None
    n_samples: int
    r_squared: float | None
    clamped: bool

    def to_dict(self) -> dict:
        return {
            "replica": self.replica,
            "encoding": self.encoding,
            "action": self.action,
            "mode": self.mode,
            "reason": self.reason,
            "old_scan_rate": self.old_scan_rate,
            "old_extra_time": self.old_extra_time,
            "new_scan_rate": self.new_scan_rate,
            "new_extra_time": self.new_extra_time,
            "n_samples": self.n_samples,
            "r_squared": self.r_squared,
            "clamped": self.clamped,
        }


class Recalibrator:
    """Turns drift flags into audited :class:`CostModel` updates.

    Guards:

    - ``min_samples``: fewer harvested scan measurements than this is a
      rejection, and after any rejection the replica is on cooldown
      until ``min_samples`` *new* drift pairs arrive (no busy-looping
      on a replica that cannot currently be fixed);
    - ``max_step_factor``: one update may not move ``ScanRate`` (or a
      non-zero ``ExtraTime``) by more than this factor in either
      direction; a proposal outside the band is clamped to it and the
      update is audited with ``clamped=True``.  ``None`` disables the
      clamp (the CLI uses this when recalibrating a simulated-cluster
      model against local wall-clock, where the honest correction is
      orders of magnitude);
    - ``dry_run``: audit what would change, apply nothing.

    Thread-safe: attempts are serialized under one lock, and the
    constant swap itself happens inside
    :meth:`CostModel.update_params`'s lock.
    """

    def __init__(
        self,
        cost_model: CostModel,
        drift,
        tracer,
        *,
        min_samples: int = 8,
        max_step_factor: float | None = 32.0,
        dry_run: bool = False,
        metrics=None,
        timeseries=None,
    ):
        if min_samples < 2:
            raise ValueError("min_samples must be >= 2")
        if max_step_factor is not None and max_step_factor <= 1.0:
            raise ValueError("max_step_factor must be > 1 (or None)")
        self.cost_model = cost_model
        self.drift = drift
        self.tracer = tracer
        self.min_samples = int(min_samples)
        self.max_step_factor = max_step_factor
        self.dry_run = bool(dry_run)
        self.metrics = metrics
        self.audit_log = AuditTrail("calibration", timeseries=timeseries,
                                    metrics=metrics)
        self._cooldown_until: dict[str, int] = {}
        self._lock = threading.Lock()

    # -- harvesting ----------------------------------------------------------

    def harvest_points(self, replica_name: str) -> list[MeasurementPoint]:
        """Measured ``(partition records, seconds)`` pairs for one
        replica from the tracer's finished ``scan`` spans.  Cache hits
        (``bytes == 0``) are excluded — a hit never scanned anything."""
        points: list[MeasurementPoint] = []
        for span in self.tracer.spans():
            if span.name != "scan" or span.end is None:
                continue
            attrs = span.attrs
            if attrs.get("replica") != replica_name:
                continue
            records = attrs.get("records")
            if not records or not attrs.get("bytes"):
                continue
            points.append(MeasurementPoint(int(records), span.seconds))
        return points[-MAX_HARVEST_POINTS:]

    # -- the decision --------------------------------------------------------

    def maybe_recalibrate(self, replica_name: str,
                          encoding_name: str,
                          force: bool = False) -> CalibrationUpdate | None:
        """Recalibrate ``encoding_name``'s constants if ``replica_name``
        is flagged (or ``force``).  Returns the audited update, or None
        when nothing was attempted (not flagged, or on cooldown)."""
        with self._lock:
            status = self.drift.status(replica_name)
            if not force:
                if not status.flagged:
                    return None
                if self.drift.recorded < self._cooldown_until.get(
                        replica_name, 0):
                    return None
            return self._attempt_locked(replica_name, encoding_name, status)

    def _attempt_locked(self, replica_name: str, encoding_name: str,
                        status) -> CalibrationUpdate:
        # The attempt is itself a (background) span in the same stream
        # the request traces land in, so a latency blip can be lined up
        # against a concurrent recalibration.
        with self.tracer.start("bg_recalibrate", kind="background",
                               replica=replica_name,
                               encoding=encoding_name) as span:
            update = self._recalibrate_locked(replica_name, encoding_name,
                                              status)
            span.annotate(action=update.action,
                          mode=update.mode, n_samples=update.n_samples)
            return update

    def _recalibrate_locked(self, replica_name: str, encoding_name: str,
                            status) -> CalibrationUpdate:
        old = self.cost_model.params_for(encoding_name)
        points = self.harvest_points(replica_name)

        if len(points) < self.min_samples:
            return self._reject(
                replica_name, encoding_name, old, len(points),
                f"insufficient scan measurements "
                f"({len(points)} < {self.min_samples})")

        sizes = [p.partition_records for p in points]
        spread = max(sizes) / max(min(sizes), 1)
        if spread >= MIN_FIT_SIZE_SPREAD:
            mode = "fit"
            try:
                fit = fit_cost_params(points)
            except ValueError as exc:
                return self._reject(replica_name, encoding_name, old,
                                    len(points), str(exc))
            proposed = fit.params
            r_squared = fit.r_squared
        else:
            mode = "rescale"
            r_squared = None
            scale = status.scale_factor
            if not math.isfinite(scale) or scale <= 0:
                return self._reject(
                    replica_name, encoding_name, old, len(points),
                    f"rescale fallback needs a finite positive scale "
                    f"factor, got {scale!r}")
            proposed = EncodingCostParams(
                scan_rate=old.scan_rate / scale,
                extra_time=old.extra_time * scale,
            )

        proposed, clamped = self._clamp(old, proposed)
        update = CalibrationUpdate(
            replica=replica_name,
            encoding=encoding_name,
            action="dry-run" if self.dry_run else "applied",
            mode=mode,
            reason=None,
            old_scan_rate=old.scan_rate,
            old_extra_time=old.extra_time,
            new_scan_rate=proposed.scan_rate,
            new_extra_time=proposed.extra_time,
            n_samples=len(points),
            r_squared=r_squared,
            clamped=clamped,
        )
        if self.dry_run:
            # Without an applied fix the flag stays up; cool down so a
            # hook calling per-query doesn't audit the same proposal
            # hundreds of times.
            self._cooldown_until[replica_name] = (
                self.drift.recorded + self.min_samples)
        else:
            self.cost_model.update_params(encoding_name, proposed)
            # Hysteresis: the stale-model pairs that raised the flag are
            # obsolete now; drop them so the flag clears immediately and
            # the fresh window judges the corrected constants.
            self.drift.clear_replica(replica_name)
        return self.audit_log.append(
            update, None if self.dry_run else "repro_recalib_applied_total")

    def _clamp(self, old: EncodingCostParams,
               proposed: EncodingCostParams
               ) -> tuple[EncodingCostParams, bool]:
        step = self.max_step_factor
        if step is None:
            return proposed, False
        scan = min(max(proposed.scan_rate, old.scan_rate / step),
                   old.scan_rate * step)
        extra = proposed.extra_time
        if old.extra_time > 0:
            extra = min(max(extra, old.extra_time / step),
                        old.extra_time * step)
        clamped = (scan != proposed.scan_rate or extra != proposed.extra_time)
        if not clamped:
            return proposed, False
        return EncodingCostParams(scan_rate=scan, extra_time=extra), True

    def _reject(self, replica_name: str, encoding_name: str,
                old: EncodingCostParams, n_samples: int,
                reason: str) -> CalibrationUpdate:
        # Cooldown: don't retry until min_samples fresh pairs arrive.
        self._cooldown_until[replica_name] = (
            self.drift.recorded + self.min_samples)
        return self.audit_log.append(CalibrationUpdate(
            replica=replica_name,
            encoding=encoding_name,
            action="rejected",
            mode=None,
            reason=reason,
            old_scan_rate=old.scan_rate,
            old_extra_time=old.extra_time,
            new_scan_rate=None,
            new_extra_time=None,
            n_samples=n_samples,
            r_squared=None,
            clamped=False,
        ), "repro_recalib_rejected_total")

    def audit_dicts(self) -> list[dict]:
        """The in-memory audit trail as JSON-safe data."""
        return self.audit_log.dicts()
