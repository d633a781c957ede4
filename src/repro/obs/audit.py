"""The one audit sink the control loops share.

:class:`~repro.obs.recalibrate.Recalibrator`,
:class:`~repro.core.reselect.ReselectionController` and
:class:`~repro.obs.slo.SLOEngine` each record decisions the same way:
the newest few in memory for the live report, every one in the on-disk
timeseries so the trail survives restarts, and a counter for the
dashboards.  Their gates share nothing; this sink is the part that was
written three times.
"""

from __future__ import annotations

import threading
from collections import deque

__all__ = ["AUDIT_CAPACITY", "AuditTrail"]

#: Entries an always-on process keeps in memory per trail; the
#: timeseries store holds the full history.
AUDIT_CAPACITY = 256


class AuditTrail:
    """A bounded, locked ring of audit entries (dicts, or records with
    ``to_dict()``) that forwards each one to an optional timeseries
    store under ``kind`` and bumps an optional counter.  Iteration,
    ``len`` and indexing read a snapshot taken under the lock, so a
    reader never races an appending background thread."""

    def __init__(self, kind: str, capacity: int = AUDIT_CAPACITY,
                 timeseries=None, metrics=None):
        self.kind = kind
        self._ring: deque = deque(maxlen=int(capacity))
        self._timeseries = timeseries
        self._metrics = metrics
        self._lock = threading.Lock()

    def append(self, entry, counter: str | None = None,
               labels: dict | None = None):
        with self._lock:
            self._ring.append(entry)
        if self._timeseries is not None:
            self._timeseries.append(self.kind, _as_dict(entry))
        if counter is not None and self._metrics is not None:
            self._metrics.counter(counter, labels=labels).inc()
        return entry

    def _snapshot(self) -> list:
        with self._lock:
            return list(self._ring)

    def dicts(self) -> list[dict]:
        """The retained entries as JSON-safe data."""
        return [_as_dict(e) for e in self._snapshot()]

    def __iter__(self):
        return iter(self._snapshot())

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)

    def __getitem__(self, index):
        return self._snapshot()[index]


def _as_dict(entry) -> dict:
    return dict(entry) if isinstance(entry, dict) else entry.to_dict()
