"""Drift-triggered auto-recalibration (closing the Section V-B loop).

The paper's serving loop is *predict → route → scan → calibrate*:
Eq. 6–7 route on the calibrated ``ScanRate``/``ExtraTime`` constants and
Section V-B re-fits them by linear regression over measured scans.  The
:class:`~repro.obs.DriftMonitor` detects when the constants have gone
stale; this module acts on the flag instead of waiting for a human.

It runs the one calibration procedure the writer runs:
:func:`repro.costmodel.calibrate.measure_cost_params` re-times the
flagged replica's own stored units (a few evenly spaced units plus one
tiny unit that pins the intercept), fits Eq. 6, and the new row is
hot-swapped into the :class:`CostModel` — or, in dry-run mode, only
audited.

Every decision — applied, rejected, or dry-run — lands in a bounded
in-memory :class:`~repro.obs.audit.AuditTrail`, in the ``repro_recalib_applied_total`` /
``repro_recalib_rejected_total`` counters, and (when a
:class:`~repro.obs.timeseries.TimeseriesStore` is attached) in the
on-disk history as a ``"calibration"`` entry, so the full trail
survives restarts.

A re-time that raises (a unit that cannot be read, a replica retired
mid-swap, a replica with no stored units) is caught and counted as a
rejection; the :class:`CostModel` is swapped via
:meth:`~repro.costmodel.model.CostModel.update_params`, which replaces
both constants in one locked assignment — a failed or rejected attempt
never leaves the model half-updated.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from repro.costmodel.calibrate import CALIBRATION_UNITS, measure_cost_params
from repro.costmodel.model import CostModel, EncodingCostParams
from repro.obs.audit import AuditTrail

__all__ = ["CalibrationUpdate", "Recalibrator"]


@dataclass(frozen=True, slots=True)
class CalibrationUpdate:
    """One audited recalibration decision."""

    replica: str
    encoding: str
    #: ``"applied"`` | ``"rejected"`` | ``"dry-run"``
    action: str
    reason: str | None
    old_scan_rate: float
    old_extra_time: float
    new_scan_rate: float | None
    new_extra_time: float | None
    #: Points timed: the replica's sampled units plus the tiny unit.
    n_samples: int

    def to_dict(self) -> dict:
        return {
            "replica": self.replica,
            "encoding": self.encoding,
            "action": self.action,
            "reason": self.reason,
            "old_scan_rate": self.old_scan_rate,
            "old_extra_time": self.old_extra_time,
            "new_scan_rate": self.new_scan_rate,
            "new_extra_time": self.new_extra_time,
            "n_samples": self.n_samples,
        }


class Recalibrator:
    """Turns drift flags into audited :class:`CostModel` updates.

    Guards:

    - cooldown: after a rejection or a dry-run the replica is left alone
      until the drift monitor's ``min_samples`` *new* pairs arrive (no
      busy-looping on a replica that cannot currently be fixed, and no
      auditing the same proposal once per served call);
    - ``dry_run``: audit what would change, apply nothing.

    Thread-safe: attempts are serialized under one lock, and the
    constant swap itself happens inside
    :meth:`CostModel.update_params`'s lock.
    """

    def __init__(self, cost_model: CostModel, drift, tracer, *,
                 dry_run: bool = False, metrics=None, timeseries=None):
        self.cost_model = cost_model
        self.drift = drift
        self.tracer = tracer
        self.dry_run = bool(dry_run)
        self.metrics = metrics
        self.audit_log = AuditTrail("calibration", timeseries=timeseries,
                                    metrics=metrics)
        self._cooldown_until: dict[str, int] = {}
        self._lock = threading.Lock()

    def maybe_recalibrate(self, replica) -> CalibrationUpdate | None:
        """Re-time ``replica`` (anything with ``name``, ``encoding``,
        ``store`` and ``unit_keys``, like a
        :class:`~repro.storage.StoredReplica`) and refit its encoding's
        constants if its drift is flagged.  Returns the audited update,
        or None when nothing was attempted (not flagged, or on
        cooldown)."""
        with self._lock:
            if not self.drift.status(replica.name).flagged:
                return None
            if self.drift.recorded < self._cooldown_until.get(
                    replica.name, 0):
                return None
            # The attempt is itself a (background) span in the same
            # stream the request traces land in, so a latency blip can
            # be lined up against a concurrent recalibration.
            with self.tracer.start("bg_recalibrate", kind="background",
                                   replica=replica.name,
                                   encoding=replica.encoding.name) as span:
                update = self._recalibrate_locked(replica)
                span.annotate(action=update.action,
                              n_samples=update.n_samples)
                return update

    def _recalibrate_locked(self, replica) -> CalibrationUpdate:
        name, encoding = replica.name, replica.encoding.name
        old = self.cost_model.params_for(encoding)
        stored = sum(key is not None for key in replica.unit_keys)
        if not stored:
            return self._reject(name, encoding, old, 0,
                                "no stored units to re-time")
        n_samples = min(stored, CALIBRATION_UNITS) + 1
        try:
            [(_, scan_rate, extra_time)] = measure_cost_params([replica])
        except Exception as exc:
            # This runs in a served call's telemetry tail, which must
            # keep serving: any failure becomes an audited rejection.
            return self._reject(name, encoding, old, n_samples,
                                f"re-timing failed: {exc!r}")
        proposed = EncodingCostParams(scan_rate=scan_rate,
                                      extra_time=extra_time)
        update = CalibrationUpdate(
            replica=name,
            encoding=encoding,
            action="dry-run" if self.dry_run else "applied",
            reason=None,
            old_scan_rate=old.scan_rate,
            old_extra_time=old.extra_time,
            new_scan_rate=proposed.scan_rate,
            new_extra_time=proposed.extra_time,
            n_samples=n_samples,
        )
        if self.dry_run:
            # Without an applied fix the flag stays up.
            self._cool_down(name)
        else:
            self.cost_model.update_params(encoding, proposed)
            # Hysteresis: the stale-model pairs that raised the flag are
            # obsolete now; drop them so the flag clears immediately and
            # the fresh window judges the corrected constants.
            self.drift.clear_replica(name)
        return self.audit_log.append(
            update, None if self.dry_run else "repro_recalib_applied_total")

    def _cool_down(self, replica_name: str) -> None:
        self._cooldown_until[replica_name] = (
            self.drift.recorded + self.drift.min_samples)

    def _reject(self, replica_name: str, encoding_name: str,
                old: EncodingCostParams, n_samples: int,
                reason: str) -> CalibrationUpdate:
        self._cool_down(replica_name)
        return self.audit_log.append(CalibrationUpdate(
            replica=replica_name,
            encoding=encoding_name,
            action="rejected",
            reason=reason,
            old_scan_rate=old.scan_rate,
            old_extra_time=old.extra_time,
            new_scan_rate=None,
            new_extra_time=None,
            n_samples=n_samples,
        ), "repro_recalib_rejected_total")

    def audit_dicts(self) -> list[dict]:
        """The in-memory audit trail as JSON-safe data."""
        return self.audit_log.dicts()
