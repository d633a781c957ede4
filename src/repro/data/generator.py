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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.dataset import Dataset
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


@dataclass
class _TaxiState:
    """Mutable per-taxi simulation state."""

    x: float
    y: float
    clock: float
    occupied: int = 0
    trip_id: int = 0
    odometer: float = 0.0


class TaxiFleetGenerator:
    """Simulates a fleet of taxis and emits a :class:`Dataset`.

    Generation is deterministic given ``config.seed``.
    """

    def __init__(self, config: FleetConfig | None = None):
        self.config = config or FleetConfig()

    # -- public API -----------------------------------------------------

    def generate(self) -> Dataset:
        """Simulate every taxi over the configured window."""
        cfg = self.config
        rng = np.random.default_rng(cfg.seed)
        parts = []
        for oid in range(cfg.num_taxis):
            taxi_rng = np.random.default_rng(rng.integers(0, 2**63 - 1))
            parts.append(self._simulate_taxi(oid, taxi_rng))
        dataset = Dataset.concat(parts).sorted_by_time()
        return quantize_like_gps_logger(dataset)

    # -- destination sampling ------------------------------------------------

    def _sample_destination(self, rng: np.random.Generator) -> tuple[float, float]:
        """Draw a trip destination from the hotspot mixture."""
        cfg = self.config
        if rng.random() < cfg.background_probability:
            return (
                rng.uniform(cfg.x_min, cfg.x_max),
                rng.uniform(cfg.y_min, cfg.y_max),
            )
        weights = np.array([h.weight for h in cfg.hotspots])
        h = cfg.hotspots[rng.choice(len(cfg.hotspots), p=weights / weights.sum())]
        x = float(np.clip(rng.normal(h.x, h.sigma), cfg.x_min, cfg.x_max))
        y = float(np.clip(rng.normal(h.y, h.sigma), cfg.y_min, cfg.y_max))
        return x, y

    def _sample_cruise_target(
        self, state: _TaxiState, rng: np.random.Generator
    ) -> tuple[float, float]:
        """Short empty-cruise hop around the current position."""
        cfg = self.config
        x = float(np.clip(state.x + rng.uniform(-1, 1) * cfg.cruise_radius_deg,
                          cfg.x_min, cfg.x_max))
        y = float(np.clip(state.y + rng.uniform(-1, 1) * cfg.cruise_radius_deg,
                          cfg.y_min, cfg.y_max))
        return x, y

    # -- per-taxi simulation ---------------------------------------------------

    def _simulate_taxi(self, oid: int, rng: np.random.Generator) -> Dataset:
        cfg = self.config
        end_time = cfg.start_time + cfg.duration
        state = _TaxiState(
            *self._sample_destination(rng),
            clock=cfg.start_time + float(rng.uniform(0, cfg.sample_interval)),
        )
        chunks: list[dict[str, np.ndarray]] = []
        while state.clock < end_time:
            if state.occupied:
                dest = self._sample_destination(rng)
                lo, hi = cfg.occupied_speed_kmh
            else:
                dest = self._sample_cruise_target(state, rng)
                lo, hi = cfg.cruise_speed_kmh
            speed_kmh = float(rng.uniform(lo, hi))
            self._drive_manhattan(oid, state, dest, speed_kmh, end_time, rng, chunks)
            if state.clock >= end_time:
                break
            self._dwell(oid, state, end_time, rng, chunks)
            # Passenger handoff at the waypoint: pickups start a new trip.
            if state.occupied:
                state.occupied = 0
            else:
                state.occupied = 1
                state.trip_id += 1
        return _chunks_to_dataset(chunks)

    def _drive_manhattan(
        self,
        oid: int,
        state: _TaxiState,
        dest: tuple[float, float],
        speed_kmh: float,
        end_time: float,
        rng: np.random.Generator,
        chunks: list[dict[str, np.ndarray]],
    ) -> None:
        """Drive two axis-aligned legs (x first, then y) emitting samples."""
        legs = (
            (dest[0], state.y, "x"),
            (dest[0], dest[1], "y"),
        )
        for leg_x, leg_y, axis in legs:
            if state.clock >= end_time:
                return
            dx_km = (leg_x - state.x) * _KM_PER_DEG_LON
            dy_km = (leg_y - state.y) * _KM_PER_DEG_LAT
            dist_km = abs(dx_km) + abs(dy_km)
            if dist_km < 1e-9:
                continue
            leg_seconds = dist_km / speed_kmh * 3600.0
            t0, t1 = state.clock, min(state.clock + leg_seconds, end_time)
            times = _sample_times(t0, state.clock + leg_seconds, t1, cfg_interval=self.config.sample_interval)
            if times.size:
                cfg = self.config
                frac = (times - t0) / leg_seconds
                # GPS fixes wander a couple of metres around the true path.
                xs = np.clip(
                    state.x + (leg_x - state.x) * frac
                    + rng.normal(0.0, 1.5e-5, times.size),
                    cfg.x_min, cfg.x_max,
                )
                ys = np.clip(
                    state.y + (leg_y - state.y) * frac
                    + rng.normal(0.0, 1.5e-5, times.size),
                    cfg.y_min, cfg.y_max,
                )
                if axis == "x":
                    heading = 90.0 if leg_x >= state.x else 270.0
                else:
                    heading = 0.0 if leg_y >= state.y else 180.0
                n = times.size
                chunks.append({
                    "oid": np.full(n, oid, dtype=np.int32),
                    "t": times,
                    "x": xs,
                    "y": ys,
                    "speed": (speed_kmh + rng.normal(0, 1.5, n)).astype(np.float32),
                    "heading": (heading + rng.normal(0, 4.0, n)).astype(np.float32),
                    "occupied": np.full(n, state.occupied, dtype=np.uint8),
                    "trip_id": np.full(n, state.trip_id, dtype=np.int32),
                    "odometer": (state.odometer + dist_km * frac).astype(np.float32),
                })
            state.odometer += dist_km * min(1.0, (t1 - t0) / leg_seconds)
            state.clock = t1
            travelled = min(1.0, (t1 - t0) / leg_seconds)
            state.x += (leg_x - state.x) * travelled
            state.y += (leg_y - state.y) * travelled
            if state.clock >= end_time:
                return

    def _dwell(
        self,
        oid: int,
        state: _TaxiState,
        end_time: float,
        rng: np.random.Generator,
        chunks: list[dict[str, np.ndarray]],
    ) -> None:
        """Wait at the waypoint (dropoff/pickup), emitting stationary samples."""
        cfg = self.config
        dwell = float(rng.exponential(cfg.mean_dwell_seconds))
        t0, t1 = state.clock, min(state.clock + dwell, end_time)
        times = _sample_times(t0, state.clock + dwell, t1, cfg_interval=cfg.sample_interval)
        if times.size:
            n = times.size
            # Stationary GPS fixes still wander by a couple of metres;
            # perfectly identical coordinates would be unrealistic (and
            # would create irreducible ties for equal-count partitioners).
            chunks.append({
                "oid": np.full(n, oid, dtype=np.int32),
                "t": times,
                "x": np.clip(state.x + rng.normal(0.0, 1.5e-5, n),
                             cfg.x_min, cfg.x_max),
                "y": np.clip(state.y + rng.normal(0.0, 1.5e-5, n),
                             cfg.y_min, cfg.y_max),
                "speed": np.zeros(n, dtype=np.float32),
                "heading": np.full(n, 0.0, dtype=np.float32),
                "occupied": np.full(n, state.occupied, dtype=np.uint8),
                "trip_id": np.full(n, state.trip_id, dtype=np.int32),
                "odometer": np.full(n, state.odometer, dtype=np.float32),
            })
        state.clock = t1


def _sample_times(t0: float, t_leg_end: float, t1: float, cfg_interval: float) -> np.ndarray:
    """GPS sample instants in ``[t0, t1)`` on the logger's fixed cadence."""
    del t_leg_end  # the leg may extend past the window; sampling stops at t1
    if t1 <= t0:
        return np.empty(0, dtype=np.float64)
    first = np.ceil(t0 / cfg_interval) * cfg_interval
    if first < t0:
        first += cfg_interval
    return np.arange(first, t1, cfg_interval, dtype=np.float64)


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


def _chunks_to_dataset(chunks: list[dict[str, np.ndarray]]) -> Dataset:
    from repro.data.record import FIELD_NAMES, empty_columns

    if not chunks:
        return Dataset(empty_columns())
    return Dataset({
        name: np.concatenate([c[name] for c in chunks]) for name in FIELD_NAMES
    })


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
    data = TaxiFleetGenerator(cfg).generate()
    if len(data) < n_records:
        raise RuntimeError(
            f"generator undershot: produced {len(data)} < requested {n_records}"
        )
    return data.head(n_records)
