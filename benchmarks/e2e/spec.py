"""The benchmark's fixed names, read from the root ``BENCHMARK.json`` so
the contract file is the single place they are declared."""

from __future__ import annotations

import json
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

with open(ROOT / "BENCHMARK.json", encoding="utf-8") as _fh:
    CONTRACT = json.load(_fh)

WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]
RUN_SECONDS = CONTRACT["run_seconds"]
END_TO_END = {m["name"]: m for m in CONTRACT["end_to_end"]}
PER_LAYER = {m["name"]: m for m in CONTRACT["per_layer"]}

#: Workloads that read the pinned three-replica store.
READ_WORKLOADS = ("serve_interactive", "serve_scan", "engine_hot")

#: ``BENCHMARK.json`` requires every workload to report every end-to-end
#: metric, so the two write-side gates of ``ingest_mixed`` live among the
#: layer metrics there; ``--compare`` still holds them to these bounds.
LAYER_BOUNDS = {"ingest.append_p50_ms": 0.10, "ingest.recovery_s": 0.15}


def as_metrics(values: dict, declared: dict, fill_missing: bool) -> dict:
    """``{name: {"value", "unit"}}`` for exactly the declared names.

    A layer metric a workload does not exercise reads 0 in that
    workload's traced run (``fill_missing``); an undeclared name is a bug
    in the benchmark and raises."""
    unknown = sorted(set(values) - set(declared))
    if unknown:
        raise KeyError(f"metrics not declared in BENCHMARK.json: {unknown}")
    missing = sorted(set(declared) - set(values))
    if missing and not fill_missing:
        raise KeyError(f"declared metrics not measured: {missing}")
    return {name: {"value": float(values.get(name, 0.0)), "unit": m["unit"]}
            for name, m in declared.items()}
