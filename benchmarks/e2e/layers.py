"""Per-layer micro-measurements and their rooflines.

Each function times calls into one layer's public functions from
outside, on the same machine and in the same run as the workload that
reports it.  A roofline fraction is ``floor time / layer time``: the
floor is the cheapest thing that still does the layer's unavoidable
work (numpy mask+take for ``filter_box``, bare ``zlib``/``lzma``
decompress for a decode).  1.0 means the layer adds nothing on top of
its floor; 0.25 means three quarters of its time is the layer's own
overhead — the part an optimisation can win back.
"""

from __future__ import annotations

import time

import numpy as np

from repro import Box3, DirectoryStore, Workload
from repro.storage import ExecOptions

from . import inputs
from .measure import median, median_of

SHORT = {"fine-colgzip": "fine", "mid-rowgzip": "mid", "coarse-collzma": "coarse"}
SIZE_CLASSES = {"small": 1, "mid": 4, "large": 7}      # q2, q5, q8
GRID_QUERIES = {"small": 14, "mid": 14, "large": 2}    # 30 per replica


def data_layer(dataset, generate_s: float) -> dict:
    x, y, t = (dataset.column(c) for c in ("x", "y", "t"))
    u = dataset.bounding_box()
    lo, hi = np.quantile(x, [0.45, 0.55])      # 10 % of the records
    box = Box3(float(lo), float(hi), u.y_min, u.y_max, u.t_min, u.t_max)

    def floor():
        mask = ((x >= box.x_min) & (x <= box.x_max)
                & (y >= box.y_min) & (y <= box.y_max)
                & (t >= box.t_min) & (t <= box.t_max))
        return x[mask], y[mask], t[mask]

    filter_s = median_of(lambda: dataset.filter_box(box), 5)
    return {
        "data.generate_records_per_s": len(dataset) / generate_s,
        "data.filter_box_ns_per_record": 1e9 * filter_s / len(dataset),
        "data.filter_box_roofline_frac": median_of(floor, 5) / filter_s,
    }


def partition_layer(dataset) -> dict:
    universe = dataset.bounding_box()
    out = {}
    for row in inputs.PINNED:
        scheme, _enc, name = inputs.replica_spec(row)
        t0 = time.perf_counter()
        scheme.build(dataset, universe)
        out[f"partition.build_s.{SHORT[name]}"] = time.perf_counter() - t0
    return out


def encoding_layer(store, encode_sample: int = 64) -> dict:
    """Decode every unit of each pinned replica, against the bare
    decompress of the same blobs; re-encode an evenly spaced sample."""
    out = {}
    for name in store.replica_names():
        replica = store.replica(name)
        scheme = replica.encoding
        blobs = [replica.store.get_view(k) for k in replica.unit_keys
                 if k is not None]
        step = max(1, len(blobs) // encode_sample)
        sample = []
        records = 0
        t0 = time.perf_counter()
        for i, blob in enumerate(blobs):
            part = scheme.open(blob).dataset()
            records += len(part)
            if i % step == 0:
                sample.append(part)
        decode_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        for blob in blobs:
            scheme.compressor.decompress(blob)
        floor_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        for part in sample:
            scheme.encode(part)
        encode_s = time.perf_counter() - t0
        enc = scheme.name
        out[f"encoding.decode_records_per_s.{enc}"] = records / decode_s
        out[f"encoding.decode_roofline_frac.{enc}"] = floor_s / decode_s
        out[f"encoding.encode_records_per_s.{enc}"] = \
            sum(len(p) for p in sample) / encode_s
    return out


def fetch_layer(store) -> dict:
    """First-touch ``get_view`` (open + mmap) over every unit of the
    finest replica, through a fresh store handle."""
    replica = store.replica("fine-colgzip")
    fresh = DirectoryStore(replica.store.root)
    keys = [k for k in replica.unit_keys if k is not None]
    t0 = time.perf_counter()
    for key in keys:
        fresh.get_view(key)
    return {"storage.fetch_us_per_unit":
            1e6 * (time.perf_counter() - t0) / len(keys)}


def engine_layer(store, seed: int) -> dict:
    """Routing cost, the pinned (query x replica) grid behind the Eq. 7
    fidelity rows, routed counts and the batch path.  ``store`` must run
    cache-off so every read pays its decode."""
    universe = store.universe
    rng = np.random.default_rng([seed, 4])
    out = {}

    routed = inputs.QueryStream(universe, tuple(range(8)), 1_000, rng)
    queries = [routed[i] for i in range(1_000)]
    workload = Workload.unweighted(queries)
    out["costmodel.route_batch_us_per_query"] = \
        1e6 * median_of(lambda: store.route_workload(workload)) / len(queries)
    scalar = []
    for q in queries[:200]:
        t0 = time.perf_counter()
        store.route(q)
        scalar.append(time.perf_counter() - t0)
    out["costmodel.route_scalar_us"] = 1e6 * median(scalar)

    names = store.replica_names()
    n_records = len(store.dataset)
    pinned = ExecOptions(failover=False, repair=False)
    grid = {size: [inputs.pinned_query(universe, cls, rng)
                   for _ in range(GRID_QUERIES[size])]
            for size, cls in SIZE_CLASSES.items()}
    measured = {name: {} for name in names}
    ratios = {name: [] for name in names}
    hits = total = 0
    for size, qs in grid.items():
        for q in qs:
            seconds = {}
            for name in names:
                t0 = time.perf_counter()
                store.query(q, replica=name, options=pinned)
                seconds[name] = time.perf_counter() - t0
                measured[name].setdefault(size, []).append(seconds[name])
                predicted = store.cost_model.query_cost(
                    q, store.replica(name).profile(n_records=n_records))
                ratios[name].append(seconds[name] / predicted)
            hits += store.route(q) == min(seconds, key=seconds.get)
            total += 1
    for name in names:
        out[f"costmodel.eq7_ratio.{name}"] = median(ratios[name])
        for size in SIZE_CLASSES:
            out[f"engine.query_ms.{name}.{size}"] = \
                1e3 * median(measured[name][size])
    out["costmodel.route_hit_share"] = hits / total

    for size, qs in grid.items():
        times = []
        for q in qs:
            t0 = time.perf_counter()
            store.count(q)
            times.append(time.perf_counter() - t0)
        out[f"engine.count_ms.{size}"] = 1e3 * median(times)

    batch = Workload.unweighted(
        [q for q in queries if q.width < 0.2 * universe.width][:64])
    out["engine.batch_ms_per_query"] = \
        1e3 * median_of(lambda: store.execute_workload(batch)) / len(batch)
    return out


def core_layer(info: dict) -> dict:
    advice = info["advice"]
    return {"core.advise_s": info["advise_s"],
            "core.advise_cost_ratio":
                advice["pinned_cost"] / advice["advised_cost"]}


def storage_build(info: dict) -> dict:
    out = {}
    for name, seconds in info["build_s"].items():
        out[f"storage.build_s.{name}"] = seconds
        out[f"storage.bytes.{name}"] = info["bytes"][name]
    return out


def query_counts(store, stream, n: int, counts) -> None:
    """Run the first ``n`` queries of a workload's stream on one
    in-process engine and account their ``QueryStats``: the count-type
    metrics of a served workload, without the server's concurrency."""
    for i in range(n):
        counts.add(store.query(stream[i]).stats)
