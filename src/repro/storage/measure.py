"""Local wall-clock scan measurement (the in-process calibration backend).

The paper measures ``Cost(q, p)`` by timing mappers that each scan one
partition.  This backend does the single-node equivalent: encode
partitions of controlled sizes, then time decode + filter end-to-end.
The fitted slope/intercept capture the *real* per-record decode rate and
per-partition setup overhead of each encoding on this machine.

:func:`measure_cost_params` is the same regression run where replica
sets are written: it times units that were just stored, so the rows a
store routes with describe the very units it serves.

For the cluster-shaped numbers of Table II use the simulated environments
in :mod:`repro.cluster` instead.
"""

from __future__ import annotations

import time

import numpy as np

from repro.costmodel.calibrate import MeasurementPoint, fit_cost_params
from repro.costmodel.model import EncodingCostParams
from repro.data.dataset import Dataset
from repro.encoding.base import EncodingScheme, encoding_scheme_by_name

#: Written units timed per encoding, evenly spaced over its stored units.
CALIBRATION_UNITS = 8
#: Timed runs per unit; the fastest counts (first touches and scheduler
#: noise only ever add time).
CALIBRATION_REPEATS = 3
#: Records in the tiny unit that pins ``ExtraTime``: with ~250-record
#: units at the fine end, 16 keeps a >= 15x size spread to regress over.
TINY_UNIT_RECORDS = 16


def _best_of(scan) -> tuple[float, Dataset]:
    """The fastest of :data:`CALIBRATION_REPEATS` runs of ``scan()``,
    and what it returned."""
    best = float("inf")
    for _ in range(CALIBRATION_REPEATS):
        t0 = time.perf_counter()
        records = scan()
        best = min(best, time.perf_counter() - t0)
    return best, records


def _fit(points: list[MeasurementPoint]) -> EncodingCostParams:
    """Eq. 6 over ``points``; when the sizes are too alike for timer
    noise to leave a positive slope (a store of a few records per unit),
    every second is charged to the records instead."""
    try:
        return fit_cost_params(points).params
    except ValueError:
        records = sum(p.partition_records for p in points)
        seconds = sum(p.seconds for p in points)
        return EncodingCostParams(scan_rate=records / max(seconds, 1e-9),
                                  extra_time=0.0)


def measure_cost_params(replicas) -> tuple[tuple[str, float, float], ...]:
    """Fit Eq. 6 per encoding from replicas that have just been written:
    ``(encoding name, scan_rate, extra_time)`` rows, sorted by name — the
    plain-data form :class:`~repro.storage.StoreConfig` carries.

    For each encoding this times what a contained scan pays per unit —
    ``get_view`` + ``encoding.open`` + full decode, best of
    :data:`CALIBRATION_REPEATS` — on :data:`CALIBRATION_UNITS` evenly
    spaced written units, plus one tiny unit of the same encoding
    encoded from the first :data:`TINY_UNIT_RECORDS` records of a timed
    one, and regresses seconds on records
    (:func:`~repro.costmodel.calibrate.fit_cost_params`, Section V-B).
    The tiny unit pins the intercept: the units of one equal-count
    replica are all about one size, too alike to separate per-record
    from per-unit cost.
    """
    units: dict[str, list] = {}
    for replica in replicas:
        for key in replica.unit_keys:
            if key is not None:
                units.setdefault(replica.encoding.name, []).append(
                    (replica.encoding, replica.store, key))
    rows = []
    for name, found in sorted(units.items()):
        n = min(len(found), CALIBRATION_UNITS)
        points = []
        for i in range(n):
            encoding, store, key = found[i * len(found) // n]
            seconds, records = _best_of(
                lambda: encoding.open(store.get_view(key)).dataset())
            points.append(MeasurementPoint(len(records), seconds))
        tiny = records.take(np.arange(min(TINY_UNIT_RECORDS, len(records))))
        blob = memoryview(encoding.encode(tiny))
        seconds, _ = _best_of(lambda: encoding.open(blob).dataset())
        points.append(MeasurementPoint(len(tiny), seconds))
        params = _fit(points)
        rows.append((name, params.scan_rate, params.extra_time))
    return tuple(rows)


class LocalScanMeasurer:
    """Callable backend for :func:`repro.costmodel.calibrate_encoding`.

    ``measurer(encoding_name, partition_records, partitions_per_set)``
    returns the average wall seconds to scan one partition of the given
    size, averaged over ``partitions_per_set`` distinct partitions.
    """

    def __init__(self, dataset: Dataset, repeats: int = 1):
        if len(dataset) == 0:
            raise ValueError("measurement dataset must be non-empty")
        if repeats < 1:
            raise ValueError("repeats must be >= 1")
        self._dataset = dataset.sorted_by_time()
        self._repeats = repeats

    def _partitions(self, partition_records: int, count: int) -> list[Dataset]:
        """``count`` consecutive chunks of ``partition_records`` records,
        cycling through the dataset when it is shorter than needed."""
        n = len(self._dataset)
        if partition_records < 1:
            raise ValueError("partition_records must be >= 1")
        if partition_records > n:
            raise ValueError(
                f"partition of {partition_records} records exceeds dataset size {n}"
            )
        parts = []
        start = 0
        for _ in range(count):
            if start + partition_records > n:
                start = 0
            parts.append(self._dataset.take(np.arange(start, start + partition_records)))
            start += partition_records
        return parts

    def __call__(
        self, encoding_name: str, partition_records: int, partitions_per_set: int
    ) -> float:
        scheme: EncodingScheme = encoding_scheme_by_name(encoding_name)
        parts = self._partitions(partition_records, partitions_per_set)
        blobs = [scheme.encode(p) for p in parts]
        bb = self._dataset.bounding_box()
        total = 0.0
        for _ in range(self._repeats):
            start = time.perf_counter()
            for blob in blobs:
                records = scheme.decode(blob)
                # Filter by the full range: every record matches, like the
                # paper's measurement queries that cover whole partitions.
                records.filter_box(bb)
            total += time.perf_counter() - start
        return total / (self._repeats * len(blobs))
