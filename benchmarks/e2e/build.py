"""Set-up shared by the three read workloads: generate the dataset, run
the advisor beside the pinned set, materialize the pinned replicas.

A built store is described by ``build.json`` in its root, so the full run
(``cli.run_all``) can build once and hand the directory to every workload
subprocess; each workload still charges the shared build to its own
``setup_s``.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import time
from dataclasses import replace

import numpy as np

from repro import (
    AdvisorConfig,
    CostModel,
    Dataset,
    EncodingCostParams,
    ReplicaAdvisor,
    ReplicaProfile,
    materialize_store,
    paper_encoding_schemes,
    paper_workload,
    small_partitioning_schemes,
)
from repro.storage.config import (
    DEFAULT_COST_PARAMS,
    store_config_from_dict,
    store_config_to_dict,
)

from . import inputs
from .measure import timed

ADVISOR_SAMPLE = 20_000


def advise(dataset, seed: int) -> dict:
    """Run the advisor the way a deployment would (sample, candidate
    grid, paper workload, exact solver) and price the pinned set under
    the same model, so a solver change shows beside the pinned numbers
    without changing what the read workloads measure."""
    universe = dataset.bounding_box()
    sample = dataset.sample(ADVISOR_SAMPLE, np.random.default_rng(seed))
    model = CostModel({name: EncodingCostParams(scan_rate=rate, extra_time=extra)
                       for name, rate, extra in DEFAULT_COST_PARAMS})
    advisor = ReplicaAdvisor(
        sample, small_partitioning_schemes(), paper_encoding_schemes(), model,
        AdvisorConfig(n_records=len(dataset), universe=universe))
    workload = paper_workload(universe)
    report = advisor.recommend(
        workload, advisor.single_replica_budget(workload), method="exact")
    pinned = []
    for row in inputs.PINNED:
        scheme, encoding, name = inputs.replica_spec(row)
        pinned.append(ReplicaProfile.from_partitioning(
            scheme.build(sample, universe), encoding.name, len(dataset), 0.0,
            name=name))
    return {
        "advised": list(report.replica_names),
        "advised_cost": report.cost,
        "pinned_cost": model.workload_cost(workload, pinned),
    }


def replica_bytes(config, name: str) -> int:
    """On-disk bytes of one materialized replica's storage units."""
    ref = next(r for r in config.replicas
               if os.path.basename(r.manifest_path) == f"{name}.json")
    unit_dir = os.path.join(ref.store_root, name)
    return sum(os.path.getsize(os.path.join(unit_dir, f))
               for f in os.listdir(unit_dir))


def _merge(a, b):
    """One ``StoreConfig`` over the replicas of two built under different
    roots from the same dataset."""
    return replace(a, replicas=a.replicas + b.replicas,
                   cost_params=tuple(sorted(set(a.cost_params)
                                            | set(b.cost_params))))


def _materialize(dataset, rows, root: str) -> dict:
    """Materialize ``rows`` one ``materialize_store`` call at a time, so
    each replica's build time falls out of set-up for free; returns the
    merged config (as plain data) and the per-replica seconds."""
    config = None
    build_s = {}
    for row in rows:
        spec = inputs.replica_spec(row)
        seconds, part = timed(materialize_store, dataset, [spec], root)
        build_s[spec[2]] = seconds
        config = part if config is None else _merge(config, part)
    return {"config": store_config_to_dict(config), "build_s": build_s}


def _materialize_child(handoff: str, rows, root: str) -> None:
    """``spawn`` target: build ``rows`` from the handed-off dataset and
    leave the result in ``root/part.json``."""
    part = _materialize(Dataset.from_npz(handoff), rows, root)
    with open(os.path.join(root, "part.json"), "w", encoding="utf-8") as fh:
        json.dump(part, fh)


def build_store(seed: int, records: int, root: str, spans) -> dict:
    """Generate, advise and materialize under ``root``; write and return
    the ``build.json`` description (config as plain data + timings).

    The finest replica costs more to build than the other two together
    (4 096 partitions, per-partition overhead), so it is built in a
    second process while this one runs the advisor and builds the rest:
    a deployment with two cores would do the same, and it takes a third
    off every run's set-up.
    """
    t0 = time.perf_counter()
    os.makedirs(root, exist_ok=True)
    with spans.span("data.generate", records=records) as s_gen:
        dataset = inputs.make_dataset(seed, records)
    handoff = os.path.join(root, "handoff.npz")
    dataset.to_npz(handoff)
    fine_root = os.path.join(root, "fine")
    os.makedirs(fine_root)
    child = multiprocessing.get_context("spawn").Process(
        target=_materialize_child, args=(handoff, inputs.PINNED[:1], fine_root))
    with spans.span("storage.materialize"):
        child.start()
        try:
            with spans.span("core.advise") as s_adv:
                advice = advise(dataset, seed)
            rest = _materialize(dataset, inputs.PINNED[1:],
                                os.path.join(root, "rest"))
        finally:
            child.join()
        if child.exitcode != 0:
            raise RuntimeError(f"replica build process exited {child.exitcode}")
    os.remove(handoff)
    with open(os.path.join(fine_root, "part.json"), encoding="utf-8") as fh:
        fine = json.load(fh)
    config = _merge(store_config_from_dict(fine["config"]),
                    store_config_from_dict(rest["config"]))
    info = {
        "seed": seed,
        "records": records,
        "config": store_config_to_dict(config),
        "generate_s": s_gen["end"] - s_gen["start"],
        "advise_s": s_adv["end"] - s_adv["start"],
        "advice": advice,
        "build_s": {**fine["build_s"], **rest["build_s"]},
        "bytes": {row[0]: replica_bytes(config, row[0])
                  for row in inputs.PINNED},
        "raw_bytes": dataset.binary_size_bytes(),
        "seconds": time.perf_counter() - t0,
    }
    with open(os.path.join(root, "build.json"), "w", encoding="utf-8") as fh:
        json.dump(info, fh)
    return info


def load_build(root: str) -> dict:
    with open(os.path.join(root, "build.json"), encoding="utf-8") as fh:
        return json.load(fh)


def config_of(info: dict):
    return store_config_from_dict(info["config"])


def obtain_store(seed: int, records: int, root: str, spans):
    """``(info, dataset)`` for the pinned store under ``root``: reuse a
    store ``cli.run_all`` already built there, else build it now.  The
    dataset comes back through ``dataset.npz`` either way (lossless)."""
    if os.path.exists(os.path.join(root, "build.json")):
        info = load_build(root)
        if (info["seed"], info["records"]) != (seed, records):
            raise SystemExit(f"{root} holds seed/records "
                             f"{info['seed']}/{info['records']}, "
                             f"asked for {seed}/{records}")
    else:
        info = build_store(seed, records, root, spans)
    with spans.span("data.load"):
        dataset = config_of(info).load_dataset()
    return info, dataset
