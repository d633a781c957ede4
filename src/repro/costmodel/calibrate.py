"""Calibration of ScanRate and ExtraTime (paper Section V-B).

The paper measures ``Cost(q, p)`` for "5 sets of partitions with each set
containing 20 partitions", where partition sizes are equal within a set
and differ across sets, then fits Eq. 6 by linear regression: the slope
is ``1/ScanRate`` and the intercept is ``ExtraTime``.  This module holds
the environment-agnostic pieces: the measurement plan and the
least-squares fit; the simulated-cluster runners live in
:mod:`repro.cluster`.

:func:`measure_cost_params` is the same regression run on a real store:
it times units that were just written, so the rows a store routes with
describe the very units it serves.  Writers call it when a replica set
is stored, and :class:`~repro.obs.Recalibrator` calls it again on a
replica whose drift is flagged.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.costmodel.model import EncodingCostParams
from repro.data.dataset import Dataset

#: Partition sizes (records) of the paper-style measurement plan; five
#: sizes spanning the "hundreds of KB to several MB" storage-unit regime
#: (Section II-B), matching Figure 5's x-axis scale of 10^5 records.  The
#: span must be wide enough for the regression slope to stand above the
#: per-task startup jitter.
DEFAULT_MEASUREMENT_SIZES: tuple[int, ...] = (5_000, 20_000, 50_000, 100_000, 200_000)

#: Mappers per measurement job ("20 mappers with each scanning a
#: partition").
DEFAULT_PARTITIONS_PER_SET: int = 20


@dataclass(frozen=True, slots=True)
class MeasurementPoint:
    """One averaged measurement: a partition size and the mean seconds to
    scan one partition of that size."""

    partition_records: int
    seconds: float


@dataclass(frozen=True)
class CalibrationResult:
    """A fitted cost model for one (environment, encoding) pair."""

    encoding_name: str
    params: EncodingCostParams
    points: tuple[MeasurementPoint, ...]
    r_squared: float

    def predicted(self, partition_records: float) -> float:
        """Eq. 6 with the fitted parameters."""
        return self.params.partition_cost(partition_records)

    def max_relative_error(self) -> float:
        """Worst fit error over the measured points — the paper's evidence
        that 'Cost(q, p) is well-fitted by Equation 6'."""
        worst = 0.0
        for p in self.points:
            pred = self.predicted(p.partition_records)
            worst = max(worst, abs(pred - p.seconds) / max(p.seconds, 1e-12))
        return worst


def fit_cost_params(points: list[MeasurementPoint]) -> CalibrationResult:
    """Least-squares fit of Eq. 6 to measurement points.

    Returns a :class:`CalibrationResult` with ``scan_rate = 1/slope`` and
    ``extra_time = intercept``.  Raises ``ValueError`` when the points
    cannot identify both parameters (fewer than two distinct sizes) or the
    fitted slope is non-positive (measurements inconsistent with a scan
    model).
    """
    if len(points) < 2:
        raise ValueError("need at least two measurement points to fit Eq. 6")
    sizes = np.array([p.partition_records for p in points], dtype=np.float64)
    times = np.array([p.seconds for p in points], dtype=np.float64)
    if np.unique(sizes).size < 2:
        raise ValueError("measurement points must span at least two partition sizes")
    design = np.stack([sizes, np.ones_like(sizes)], axis=1)
    (slope, intercept), *_ = np.linalg.lstsq(design, times, rcond=None)
    if slope <= 0:
        raise ValueError(
            f"fitted 1/ScanRate is non-positive ({slope:.3g}); "
            "measurements do not follow a linear scan model"
        )
    intercept = max(float(intercept), 0.0)
    predictions = design @ np.array([slope, intercept])
    ss_res = float(np.sum((times - predictions) ** 2))
    ss_tot = float(np.sum((times - times.mean()) ** 2))
    r_squared = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return CalibrationResult(
        encoding_name="",
        params=EncodingCostParams(scan_rate=1.0 / float(slope), extra_time=intercept),
        points=tuple(points),
        r_squared=r_squared,
    )


def calibrate_encoding(
    encoding_name: str,
    measure_partition_seconds,
    sizes: tuple[int, ...] = DEFAULT_MEASUREMENT_SIZES,
    partitions_per_set: int = DEFAULT_PARTITIONS_PER_SET,
) -> CalibrationResult:
    """Run the paper's measurement procedure against any backend.

    ``measure_partition_seconds(encoding_name, partition_records,
    partitions_per_set)`` must return the *average* seconds to process one
    partition — e.g. by launching a map-only job with
    ``partitions_per_set`` mappers and averaging their task times.
    """
    points = [
        MeasurementPoint(size, float(measure_partition_seconds(
            encoding_name, size, partitions_per_set)))
        for size in sizes
    ]
    fit = fit_cost_params(points)
    return CalibrationResult(
        encoding_name=encoding_name,
        params=fit.params,
        points=fit.points,
        r_squared=fit.r_squared,
    )


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
