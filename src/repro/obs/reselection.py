"""Audit record for workload-drift-triggered replica reselection.

The selection ``R*`` is optimal for the workload it was solved against
(Eq. 1-5); when the live query mix drifts away from that workload the
incumbent set silently stops being the right one.  The
:class:`~repro.core.reselect.ReselectionController` closes that loop —
this module holds only the *audit side* of it, mirroring
:class:`~repro.obs.recalibrate.CalibrationUpdate`:

- :class:`ReselectionUpdate` — one frozen, JSON-safe record of a
  reselection decision (applied, rejected, dry-run, or skipped), with
  enough detail to replay the decision offline: the measured workload
  divergence, the incumbent and candidate sets with their Eq. 5
  objectives, what was built and retired, and the observed workload
  itself (so a restarted controller can re-seed its baseline from the
  persisted history).

The decision logic lives in :mod:`repro.core.reselect`; keeping the
record here preserves the package's dependency discipline (``obs``
never imports ``core``) while letting the operational report and the
timeseries history speak the same schema.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["ReselectionUpdate"]


@dataclass(frozen=True, slots=True)
class ReselectionUpdate:
    """One audited reselection decision.

    ``observed`` carries the grouped observed workload as
    ``[width, height, duration, weight]`` rows — the baseline the next
    epoch's drift is measured against, persisted so the anchor survives
    restarts.
    """

    #: Monotonic reselection epoch (0 = the initially deployed set).
    epoch: int
    #: ``"applied"`` | ``"rejected"`` | ``"dry-run"`` | ``"skipped"``
    action: str
    #: Why a non-applied decision was taken; None when applied.
    reason: str | None
    #: Jensen-Shannon divergence in [0, 1] between the baseline and the
    #: observed workload's grouped weight distributions.
    divergence: float
    drift_threshold: float
    #: Queries in the observation window the decision was made from.
    observed_queries: int
    incumbent: tuple[str, ...]
    incumbent_cost: float
    candidate: tuple[str, ...]
    candidate_cost: float
    #: Relative Eq. 5 improvement ``(incumbent - candidate) / incumbent``.
    improvement: float
    built: tuple[str, ...]
    retired: tuple[str, ...]
    storage_used: float
    budget: float
    solver: str
    #: Candidate pool size the warm solve ran over.
    n_pool: int
    #: Grouped observed workload rows ``[w, h, t, weight]``.
    observed: tuple[tuple[float, float, float, float], ...] = field(
        default=())

    def to_dict(self) -> dict:
        return {
            "epoch": self.epoch,
            "action": self.action,
            "reason": self.reason,
            "divergence": self.divergence,
            "drift_threshold": self.drift_threshold,
            "observed_queries": self.observed_queries,
            "incumbent": list(self.incumbent),
            "incumbent_cost": self.incumbent_cost,
            "candidate": list(self.candidate),
            "candidate_cost": self.candidate_cost,
            "improvement": self.improvement,
            "built": list(self.built),
            "retired": list(self.retired),
            "storage_used": self.storage_used,
            "budget": self.budget,
            "solver": self.solver,
            "n_pool": self.n_pool,
            "observed": [list(row) for row in self.observed],
        }
