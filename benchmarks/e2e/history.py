"""The trajectory: one appended line per full run, and ``--compare``."""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import time

import numpy as np

from . import spec

HISTORY = spec.HERE / "results" / "history.jsonl"


def git_sha() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=spec.ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_key(seed: int, records: int) -> dict:
    return {"sha": git_sha(), "seed": seed, "records": records,
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__,
            "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}


def append(entry: dict) -> None:
    """Append, never rewrite: the file is the trajectory."""
    HISTORY.parent.mkdir(parents=True, exist_ok=True)
    with open(HISTORY, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(entry, sort_keys=True) + "\n")


def load() -> list[dict]:
    if not HISTORY.exists():
        return []
    with open(HISTORY, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _select(entries: list[dict], selector: str) -> list[dict]:
    """Runs whose SHA starts with ``selector``; ``@N`` picks the N-th
    line of the file instead (negative counts from the end)."""
    if selector.startswith("@"):
        return [entries[int(selector[1:])]]
    return [e for e in entries if e["key"]["sha"].startswith(selector)]


def _spread(values: list[float]) -> float:
    """Interquartile range over the median; 0 with too few runs to say."""
    if len(values) < 4:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return abs(q3 - q1) / abs(mid) if mid else 0.0


def verdict(base: list[float], new: list[float], better: str,
            bound: float | None) -> tuple[float, str]:
    """``(new median / base median, verdict)`` by the rule every later
    PR is judged with: worse than the bound is ``regressed``; a spread
    wider than the bound makes the pair ``unresolved`` unless every new
    run beats every base run."""
    a, b = statistics.median(base), statistics.median(new)
    ratio = b / a if a else float("inf")
    if bound is None:
        return ratio, "layer"
    worse = (ratio - 1.0) if better == "lower" else (1.0 - ratio)
    if max(_spread(base), _spread(new)) > bound:
        clean = (max(new) < min(base)) if better == "lower" \
            else (min(new) > max(base))
        if not clean:
            return ratio, "unresolved"
    return ratio, "regressed" if worse > bound else "within bound"


def compare(selector_a: str, selector_b: str) -> int:
    entries = load()
    group_a, group_b = _select(entries, selector_a), _select(entries, selector_b)
    if not group_a or not group_b:
        print(f"no history entries for {selector_a!r} or {selector_b!r} "
              f"({len(entries)} lines in {HISTORY})")
        return 2
    print(f"A = {selector_a} ({len(group_a)} runs)   "
          f"B = {selector_b} ({len(group_b)} runs)   ratio = B / A")
    regressed = 0
    for workload in spec.WORKLOADS:
        print(f"\n{workload}")
        for section, declared in (("end_to_end", spec.END_TO_END),
                                  ("per_layer", spec.PER_LAYER)):
            for name, meta in declared.items():
                a = [e["workloads"][workload][section][name] for e in group_a
                     if name in e["workloads"].get(workload, {}).get(section, {})]
                b = [e["workloads"][workload][section][name] for e in group_b
                     if name in e["workloads"].get(workload, {}).get(section, {})]
                if not a or not b or not any(a + b):
                    continue
                bound = meta.get("bound", spec.LAYER_BOUNDS.get(name))
                ratio, word = verdict(a, b, meta["better"], bound)
                regressed += word == "regressed"
                print(f"  {name:<44} {statistics.median(a):>14.6g} "
                      f"{statistics.median(b):>14.6g} {meta['unit']:<10} "
                      f"x{ratio:.3f} of A  {word}")
    return 1 if regressed else 0
