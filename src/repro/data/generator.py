"""Synthetic taxi-fleet GPS log generator.

The paper evaluates on a proprietary GPS log "collected from more than
4,000 taxis in Shanghai during a month" (65M records, longitude 120-122,
latitude 30-32, 2007-11-01 to 2007-11-29).  That dataset is not available,
so this module simulates an equivalent fleet:

- taxis move on a Manhattan street grid between successive waypoints,
  alternating passenger trips and empty cruising;
- destinations are drawn from a mixture of Gaussian *hotspots* (downtown
  cores) plus a uniform background, reproducing the heavy spatial skew of
  real taxi data;
- positions are sampled every ``sample_interval`` seconds, like real
  AVL/GPS loggers, and carry speed, heading, occupancy, trip id and
  odometer common attributes.

Only the aggregate properties matter to the experiments — record count,
bounding box, spatio-temporal skew and per-column entropy (which drives
compression ratios) — and those are faithfully reproduced; see DESIGN.md §2.

Draw order is the reproducibility contract.  Each taxi draws from its own
child ``default_rng`` seeded from the fleet seed, and every draw happens
in the scalar simulation order: each destination, speed and dwell as the
taxi reaches it, and one ``standard_normal`` block per leg or dwell for
its fixes' noise (``Generator.normal(loc, scale, n)`` is ``loc + scale * z``
over the same stream).  Columns are assembled only afterwards, in one
vectorized fill per taxi, so a seed yields the same bytes however that
assembly is organised; ``tests/data/test_generator_pins.py`` holds it.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from repro.data.dataset import Dataset
from repro.data.record import FIELD_NAMES, FIELDS
from repro.geometry import Box3

#: 2007-11-01 00:00:00 UTC, the start of the paper's observation window.
SHANGHAI_EPOCH = 1193875200.0

#: The paper's dataset bounding box (lon 120-122, lat 30-32, 28 days).
SHANGHAI_BBOX = Box3(120.0, 122.0, 30.0, 32.0, SHANGHAI_EPOCH, SHANGHAI_EPOCH + 28 * 86400.0)

#: Rough km per degree at ~31N; spherical precision is irrelevant here.
_KM_PER_DEG_LON = 95.0
_KM_PER_DEG_LAT = 111.0


@dataclass(frozen=True, slots=True)
class Hotspot:
    """A Gaussian attraction center for trip destinations."""

    x: float
    y: float
    sigma: float
    weight: float


@dataclass(frozen=True, slots=True)
class FleetConfig:
    """Parameters of the synthetic fleet.

    The defaults model a small sample of the Shanghai fleet; scale
    ``num_taxis`` / ``duration`` up for bigger datasets, or use
    :func:`synthetic_shanghai_taxis` which sizes them for a target record
    count.
    """

    num_taxis: int = 50
    start_time: float = SHANGHAI_EPOCH
    duration: float = 86400.0
    sample_interval: float = 30.0
    x_min: float = 120.0
    x_max: float = 122.0
    y_min: float = 30.0
    y_max: float = 32.0
    hotspots: tuple[Hotspot, ...] = (
        Hotspot(121.47, 31.23, 0.08, 0.55),  # downtown core
        Hotspot(121.34, 31.20, 0.05, 0.25),  # airport-ish secondary center
        Hotspot(121.60, 31.15, 0.10, 0.20),  # suburban center
    )
    background_probability: float = 0.15
    occupied_speed_kmh: tuple[float, float] = (25.0, 60.0)
    cruise_speed_kmh: tuple[float, float] = (10.0, 40.0)
    cruise_radius_deg: float = 0.03
    mean_dwell_seconds: float = 120.0
    seed: int = 7

    def bounding_box(self) -> Box3:
        """The configured universe ``U``."""
        return Box3(
            self.x_min, self.x_max, self.y_min, self.y_max,
            self.start_time, self.start_time + self.duration,
        )


class TaxiFleetGenerator:
    """Simulates a fleet of taxis and emits a :class:`Dataset`.

    Generation is deterministic given ``config.seed``.
    """

    def __init__(self, config: FleetConfig | None = None):
        self.config = config or FleetConfig()

    def generate(self) -> Dataset:
        """Simulate every taxi over the configured window."""
        cfg = self.config
        rng = np.random.default_rng(cfg.seed)
        cdf: list[float] = []
        if cfg.background_probability < 1:  # a hotspot can be drawn
            weights = np.array([h.weight for h in cfg.hotspots])
            if not (weights.size and np.all(weights >= 0) and weights.sum() > 0):
                raise ValueError("hotspot weights must be non-negative with a positive sum")
            # The cdf ``Generator.choice(p=weights / sum)`` builds.
            p_cdf = (weights / weights.sum()).cumsum()
            cdf = (p_cdf / p_cdf[-1]).tolist()
        # A taxi logs at most one fix per cadence tick of the window.
        per_taxi = max(0, math.ceil(cfg.duration / cfg.sample_interval) + 2)
        out = {f.name: np.empty(cfg.num_taxis * per_taxi, f.dtype) for f in FIELDS}
        filled = 0
        for oid in range(cfg.num_taxis):
            taxi_rng = np.random.default_rng(rng.integers(0, 2**63 - 1))
            segments, counts, noise = self._simulate(taxi_rng, cdf)
            if not counts:
                continue
            taxi = self._fill(oid, segments, counts, noise)
            end = filled + len(taxi)
            for name, col in out.items():
                col[filled:end] = taxi.column(name)
            filled = end
        order = np.lexsort((out["oid"][:filled], out["t"][:filled]))
        for name in FIELD_NAMES:  # one column at a time, so one spare copy
            out[name] = out[name][:filled][order]
        return Dataset(out)

    def _sample_destination(
        self, rng: np.random.Generator, cdf: list[float]
    ) -> tuple[float, float]:
        """Draw a trip destination from the hotspot mixture."""
        cfg = self.config
        if rng.random() < cfg.background_probability:
            return (
                rng.uniform(cfg.x_min, cfg.x_max),
                rng.uniform(cfg.y_min, cfg.y_max),
            )
        h = cfg.hotspots[bisect.bisect_right(cdf, rng.random())]
        x = min(max(rng.normal(h.x, h.sigma), cfg.x_min), cfg.x_max)
        y = min(max(rng.normal(h.y, h.sigma), cfg.y_min), cfg.y_max)
        return x, y

    def _simulate(
        self, rng: np.random.Generator, cdf: list[float]
    ) -> tuple[list[tuple], list[int], list[np.ndarray]]:
        """Run one taxi's scalar simulation, making every draw in order.

        Passenger trips (to a hotspot-mixture destination) alternate with
        empty cruising hops; each drive is two axis-aligned legs (x first,
        then y) followed by a dwell at the waypoint.  A leg or dwell that
        logs fixes becomes one segment row of scalars (laid out as
        :meth:`_fill` unpacks it), its fix count and its block of
        standard-normal draws: x, y, speed and heading noise for a leg, x
        and y noise for a dwell.
        """
        cfg = self.config
        iv, end_time = cfg.sample_interval, cfg.start_time + cfg.duration
        x, y = self._sample_destination(rng, cdf)
        clock = cfg.start_time + float(rng.uniform(0, iv))
        occupied = trip_id = 0
        odometer = 0.0
        segments: list[tuple] = []
        counts: list[int] = []
        noise: list[np.ndarray] = []
        filled = drawn = 0
        while clock < end_time:
            if occupied:
                dest_x, dest_y = self._sample_destination(rng, cdf)
                lo, hi = cfg.occupied_speed_kmh
            else:
                r = cfg.cruise_radius_deg
                dest_x = min(max(x + rng.uniform(-1, 1) * r, cfg.x_min), cfg.x_max)
                dest_y = min(max(y + rng.uniform(-1, 1) * r, cfg.y_min), cfg.y_max)
                lo, hi = cfg.cruise_speed_kmh
            speed_kmh = float(rng.uniform(lo, hi))
            for leg_x, leg_y, on_x in ((dest_x, y, True), (dest_x, dest_y, False)):
                if clock >= end_time:
                    break
                dx, dy = leg_x - x, leg_y - y
                dist_km = abs(dx * _KM_PER_DEG_LON) + abs(dy * _KM_PER_DEG_LAT)
                if dist_km < 1e-9:
                    continue
                leg_seconds = dist_km / speed_kmh * 3600.0
                t1 = min(clock + leg_seconds, end_time)
                first, n = _cadence(clock, t1, iv)
                if n:
                    if on_x:
                        heading = 90.0 if leg_x >= x else 270.0
                    else:
                        heading = 0.0 if leg_y >= y else 180.0
                    # GPS fixes wander a couple of metres around the true path.
                    noise.append(rng.standard_normal(4 * n))
                    segments.append((
                        first, (first + iv) - first, filled, clock, leg_seconds,
                        x, dx, y, dy, odometer, dist_km, speed_kmh, 1.5,
                        heading, 4.0, occupied, trip_id, drawn - filled, n, 2 * n, 3 * n,
                    ))
                    counts.append(n)
                    filled, drawn = filled + n, drawn + 4 * n
                travelled = min(1.0, (t1 - clock) / leg_seconds)
                odometer += dist_km * travelled
                x += dx * travelled
                y += dy * travelled
                clock = t1
            if clock >= end_time:
                break
            dwell = float(rng.exponential(cfg.mean_dwell_seconds))
            t1 = min(clock + dwell, end_time)
            first, n = _cadence(clock, t1, iv)
            if n:
                # Stationary GPS fixes still wander by a couple of metres;
                # perfectly identical coordinates would be unrealistic (and
                # would create irreducible ties for equal-count partitioners).
                noise.append(rng.standard_normal(2 * n))
                segments.append((
                    first, (first + iv) - first, filled, clock, 1.0,
                    x, 0.0, y, 0.0, odometer, 0.0, 0.0, 0.0,
                    0.0, 0.0, occupied, trip_id, drawn - filled, n, 0, 0,
                ))
                counts.append(n)
                filled, drawn = filled + n, drawn + 2 * n
            clock = t1
            # Passenger handoff at the waypoint: pickups start a new trip.
            if occupied:
                occupied = 0
            else:
                occupied = 1
                trip_id += 1
        return segments, counts, noise

    def _fill(
        self,
        oid: int,
        segments: list[tuple],
        counts: list[int],
        noise: list[np.ndarray],
    ) -> Dataset:
        """One taxi's rounded columns from its segment table, in one pass.

        A dwell is a leg that does not move: its ``dx``/``dy``/distance and
        its speed and heading terms are zero, which adds exact zeros.
        """
        cfg = self.config
        (first, delta, start, t0, span, x0, dx, y0, dy, odo0, dist_km,
         speed, speed_sd, heading, heading_sd, occupied, trip_id,
         z_at, dz_y, dz_speed, dz_heading) = np.repeat(np.array(segments).T, counts, axis=1)
        j = np.arange(len(first), dtype=np.float64)
        # ``np.arange(first, t1, interval)`` fills ``first + i * delta``.
        t = first + (j - start) * delta
        frac = (t - t0) / span
        z = np.concatenate(noise)
        at = (z_at + j).astype(np.intp)
        zy, zs, zh = (z[at + dz.astype(np.intp)] for dz in (dz_y, dz_speed, dz_heading))
        return quantize_like_gps_logger(Dataset({
            "oid": np.full(len(t), oid, dtype=np.int32),
            "t": t,
            "x": np.clip(x0 + dx * frac + 1.5e-5 * z[at], cfg.x_min, cfg.x_max),
            "y": np.clip(y0 + dy * frac + 1.5e-5 * zy, cfg.y_min, cfg.y_max),
            "speed": (speed + speed_sd * zs).astype(np.float32),
            "heading": (heading + heading_sd * zh).astype(np.float32),
            "occupied": occupied.astype(np.uint8),
            "trip_id": trip_id.astype(np.int32),
            "odometer": (odo0 + dist_km * frac).astype(np.float32),
        }))


def _cadence(t0: float, t1: float, interval: float) -> tuple[float, int]:
    """The first GPS fix at or after ``t0`` on the logger's fixed cadence,
    and how many fixes fall in ``[t0, t1)`` (``np.arange``'s length)."""
    if t1 <= t0:
        return 0.0, 0
    first = math.ceil(t0 / interval) * interval
    if first < t0:
        first += interval
    return first, max(0, math.ceil((t1 - first) / interval))


def quantize_like_gps_logger(dataset: Dataset) -> Dataset:
    """Round columns to the fixed precision a real GPS logger emits.

    Raw AVL feeds carry micro-degree coordinates, tenth-of-unit speeds and
    headings, and centi-km odometers; the simulation's full-double noise
    would otherwise make the data unrealistically incompressible.
    """
    cols = dataset.columns

    def rounded(name: str, decimals: int) -> np.ndarray:
        col = cols[name]
        return (np.round(col.astype(np.float64), decimals)).astype(col.dtype)

    cols["x"] = rounded("x", 6)
    cols["y"] = rounded("y", 6)
    cols["speed"] = rounded("speed", 1)
    cols["heading"] = rounded("heading", 1)
    cols["odometer"] = rounded("odometer", 2)
    return Dataset(cols)


def synthetic_shanghai_taxis(
    n_records: int,
    seed: int = 7,
    num_taxis: int = 64,
    sample_interval: float = 30.0,
) -> Dataset:
    """A deterministic synthetic stand-in for the paper's Shanghai sample.

    Sizes the simulation window so the fleet produces at least ``n_records``
    samples, then keeps exactly the first ``n_records`` in time order.  The
    bounding box matches the paper (lon 120-122, lat 30-32, November 2007).
    """
    if n_records <= 0:
        raise ValueError("n_records must be positive")
    # Taxis emit roughly one sample per interval while active; oversize by
    # 15% and trim (generation is cheap relative to the experiments).
    duration = n_records * sample_interval / num_taxis * 1.15 + 4 * sample_interval
    cfg = FleetConfig(
        num_taxis=num_taxis,
        duration=duration,
        sample_interval=sample_interval,
        seed=seed,
    )
    columns = TaxiFleetGenerator(cfg).generate().columns
    produced = len(columns["t"])
    if produced < n_records:
        raise RuntimeError(
            f"generator undershot: produced {produced} < requested {n_records}"
        )
    # Trim one column at a time, dropping each oversized column as its
    # copy is made, so at most one spare column is alive at once.
    for name in FIELD_NAMES:
        columns[name] = columns[name][:n_records].copy()
    return Dataset(columns)
