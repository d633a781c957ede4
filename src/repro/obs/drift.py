"""Cost-model drift detection: is Section IV-B recalibration due?

The engine routes every query on its Eq. 7 predicted cost; Section IV-B
calibrates the underlying ``ScanRate``/``ExtraTime`` constants by
regressing measured scan times.  Those constants go stale — hardware
changes, data grows skewed, a codec update shifts decode speed — and
when they do, routing silently picks the wrong replicas while reporting
healthy-looking plans.

:class:`DriftMonitor` closes the loop: for every executed query it
records the ``(predicted seconds, measured seconds)`` pair against the
replica that served it, keeps a rolling window per replica, and flags a
replica whose mean *symmetric relative error*

    err(p, m) = |p - m| / max(p, m)

exceeds ``threshold`` over at least ``min_samples`` observations.
The symmetric form is scale-free and bounded in [0, 1): a model whose
``ScanRate`` is off by 4x scores ~0.75 no matter the absolute costs,
so one threshold works across environments.  A flagged replica means
"re-run the Section IV-B calibration for this encoding".
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass

#: Guard against 0/0 when both predicted and measured are ~zero.
_EPS = 1e-12

#: Finite ceiling for a timing sample.  Metadata-only counts predict
#: exactly zero seconds, and a broken timer can hand back inf/NaN; both
#: must be clamped *before* they enter a drift window, because a single
#: non-finite pair makes every downstream mean (and the JSON snapshot)
#: inf/NaN forever after.
_MAX_SECONDS = 1e9

#: Finite ceiling for :attr:`DriftStatus.scale_factor` when the window's
#: mean prediction is ~zero (the measured/0 case).  Reported as "capped"
#: rather than ``inf`` so the value stays arithmetic- and JSON-safe.
SCALE_FACTOR_CAP = 1e6


def _finite_seconds(value: float) -> float:
    """Clamp one timing sample to a finite non-negative float: NaN
    becomes 0.0 (no evidence), +/-inf becomes ``_MAX_SECONDS``."""
    v = float(value)
    if v != v:  # NaN
        return 0.0
    if v == float("inf") or v == float("-inf"):
        return _MAX_SECONDS
    return min(abs(v), _MAX_SECONDS)


def relative_error(predicted: float, measured: float) -> float:
    """Symmetric relative error in [0, 1): 0 = perfect, ->1 = off by
    orders of magnitude.  Zero-vs-zero counts as no error; non-finite
    inputs are clamped first, so the result is always finite."""
    p, m = _finite_seconds(predicted), _finite_seconds(measured)
    denom = max(p, m)
    if denom <= _EPS:
        return 0.0
    return abs(p - m) / denom


@dataclass(frozen=True, slots=True)
class DriftStatus:
    """The rolling drift picture of one replica."""

    replica_name: str
    samples: int
    mean_relative_error: float
    max_relative_error: float
    mean_predicted: float
    mean_measured: float
    flagged: bool

    @property
    def scale_factor(self) -> float:
        """measured/predicted over the window — >1 means the model is
        optimistic (predicts faster than reality), <1 pessimistic.
        A consistent factor of ~k suggests ``ScanRate`` is off by ~k.
        Always finite: a window whose mean prediction is ~zero (e.g.
        metadata-only counts) caps at :data:`SCALE_FACTOR_CAP` instead
        of going infinite."""
        if self.mean_predicted <= _EPS:
            return SCALE_FACTOR_CAP if self.mean_measured > _EPS else 1.0
        return min(self.mean_measured / self.mean_predicted,
                   SCALE_FACTOR_CAP)


class DriftMonitor:
    """Rolling per-replica comparison of predicted vs. measured cost.

    ``window`` bounds the samples retained per replica (drift is a
    *current* property — ancient history would mask a recent change);
    ``min_samples`` suppresses alarms from a handful of noisy
    observations.  Thread-safe: reads on several caller threads may
    record into one monitor.
    """

    def __init__(self, window: int = 64, threshold: float = 0.5,
                 min_samples: int = 5):
        if window < 1:
            raise ValueError("window must be >= 1")
        if not 0.0 < threshold < 1.0:
            raise ValueError("threshold must be in (0, 1)")
        if min_samples < 1:
            raise ValueError("min_samples must be >= 1")
        self.window = int(window)
        self.threshold = float(threshold)
        self.min_samples = int(min_samples)
        self._pairs: dict[str, deque[tuple[float, float]]] = {}
        self._recorded = 0
        self._lock = threading.Lock()

    def record(self, replica_name: str, predicted_seconds: float,
               measured_seconds: float) -> None:
        """One executed query: what Eq. 7 predicted for the serving
        replica vs. what the scan actually took.  Samples are clamped
        finite on the way in (metadata-only counts predict 0.0 and a
        broken timer can produce inf/NaN) so windows never poison the
        rolling means."""
        pair = (_finite_seconds(predicted_seconds),
                _finite_seconds(measured_seconds))
        with self._lock:
            window = self._pairs.get(replica_name)
            if window is None:
                window = deque(maxlen=self.window)
                self._pairs[replica_name] = window
            window.append(pair)
            self._recorded += 1

    @property
    def recorded(self) -> int:
        """Pairs recorded over the monitor's lifetime."""
        with self._lock:
            return self._recorded

    def replica_names(self) -> list[str]:
        with self._lock:
            return sorted(self._pairs)

    def status(self, replica_name: str) -> DriftStatus:
        """The rolling drift picture of one replica (zero-sample status
        for a replica never observed)."""
        with self._lock:
            pairs = list(self._pairs.get(replica_name, ()))
        if not pairs:
            return DriftStatus(replica_name, 0, 0.0, 0.0, 0.0, 0.0, False)
        errors = [relative_error(p, m) for p, m in pairs]
        mean_err = sum(errors) / len(errors)
        return DriftStatus(
            replica_name=replica_name,
            samples=len(pairs),
            mean_relative_error=mean_err,
            max_relative_error=max(errors),
            mean_predicted=sum(p for p, _ in pairs) / len(pairs),
            mean_measured=sum(m for _, m in pairs) / len(pairs),
            flagged=(len(pairs) >= self.min_samples
                     and mean_err > self.threshold),
        )

    def statuses(self) -> list[DriftStatus]:
        """Every observed replica's status, sorted by name."""
        return [self.status(name) for name in self.replica_names()]

    def flagged(self) -> list[str]:
        """Replicas whose cost model has drifted past the threshold —
        the 'recalibration due' list."""
        return [s.replica_name for s in self.statuses() if s.flagged]

    def clear(self) -> None:
        """Drop all windows (e.g. right after a recalibration)."""
        with self._lock:
            self._pairs.clear()

    def clear_replica(self, replica_name: str) -> None:
        """Drop one replica's window — the hysteresis half of the
        recalibration loop.  The stale-model samples that raised the
        flag predate the correction; keeping them would leave the
        replica flagged until ``window`` fresh pairs dilute them, so the
        :class:`~repro.obs.recalibrate.Recalibrator` clears the window
        on every applied update and the flag drops immediately (a
        zero-sample status is never flagged)."""
        with self._lock:
            self._pairs.pop(replica_name, None)

    def snapshot(self) -> list[dict]:
        """JSON-safe per-replica statuses."""
        return [
            {
                "replica": s.replica_name,
                "samples": s.samples,
                "mean_relative_error": s.mean_relative_error,
                "max_relative_error": s.max_relative_error,
                "mean_predicted_seconds": s.mean_predicted,
                "mean_measured_seconds": s.mean_measured,
                "scale_factor": (None if s.scale_factor >= SCALE_FACTOR_CAP
                                 else s.scale_factor),
                "flagged": s.flagged,
            }
            for s in self.statuses()
        ]
