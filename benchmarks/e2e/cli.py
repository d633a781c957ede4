"""Command line: one workload run (the ``BENCHMARK.json`` contract), the
full run over all four workloads, and ``--compare``.

One workload run::

    run.py --workload NAME --seed N --seconds S --trace 0|1

prints every metric by name with its unit and, as its last line, one
JSON object ``{"correct", "attempted", "failed", "metrics"}`` holding
the end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``).  Without ``--workload`` the full run builds one store,
runs each workload untraced then traced in a fresh interpreter under a
watchdog, writes ``results/latest.json`` and appends to
``results/history.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import shutil
import subprocess
import sys
import time

from . import build, history, inputs, spec
from .measure import SpanLog, peak_rss_mb, read_metrics
from .supervise import T0_ENV, end_session
from .verify import Verifier

SMOKE_SECONDS = 3
#: The traced phase of a run starts at this fixed position of the op
#: stream (a whole number of stratification blocks), not where the
#: untraced reference phase happened to stop: the ops it counts are then
#: the same ops on every run.
TRACED_FIRST_INDEX = 10_000
WORK = spec.HERE / ".work"
RESULTS = spec.HERE / "results"


def parse(argv):
    p = argparse.ArgumentParser(prog="benchmarks.e2e", description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload", choices=spec.WORKLOADS)
    p.add_argument("--seed", type=int, default=2014)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="100k records, short phases, nothing written to history")
    p.add_argument("--store", help="reuse the pinned store built under this "
                   "directory (the full run passes it to each workload)")
    p.add_argument("--trace-out", help="write this run's spans here as JSONL")
    p.add_argument("--compare", nargs=2, metavar=("A", "B"),
                   help="compare history entries by SHA prefix (or @index)")
    return p.parse_args(argv)


def work_dir(tag: str) -> str:
    """A scratch directory inside the checkout (never ``/tmp``: the
    benchmark reads and writes only under its own tree)."""
    path = WORK / f"{tag}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    os.environ["TMPDIR"] = str(path)
    return str(path)


# -- one workload ----------------------------------------------------------


def _finish(verifier: Verifier, attempted: int, failed: int,
            values: dict, declared: dict, trace: int, notes: dict) -> dict:
    failed += verifier.mismatched
    return {
        "correct": failed == 0,
        "attempted": max(1, attempted),
        "failed": failed,
        "metrics": spec.as_metrics(values, declared, fill_missing=bool(trace)),
        "notes": {**notes, **verifier.summary(),
                  "error_share": failed / max(1, attempted)},
    }


def _read_store(args, records, work, spans):
    root = args.store or os.path.join(work, "store")
    shared = os.path.exists(os.path.join(root, "build.json"))
    info, dataset = build.obtain_store(args.seed, records, root, spans)
    # A store the full run built beforehand is still this workload's
    # set-up: charge the shared build to it.
    return info, dataset, (info["seconds"] if shared else 0.0)


def _untraced_values(obs: dict, info: dict, t0: float,
                     shared_s: float) -> dict:
    """The end-to-end metrics of a read workload's untraced pass."""
    return {**read_metrics(obs["samples"], obs["wall_s"]),
            "setup_s": obs["t_begin"] - t0 + shared_s,
            "peak_rss_mb": peak_rss_mb(),
            "stored_bytes_per_raw_byte":
                sum(info["bytes"].values()) / info["raw_bytes"]}


def _check_served(dataset, obs, stream, verifier, every):
    """Full diff for the retained answers of a serve phase; record count
    for every ``every``-th of the rest."""
    kept = obs["retained"]
    verifier.check(dataset, [(f"q{i}", stream[i].box(), answer)
                             for i, answer in sorted(kept.items())])
    verifier.check_counts(dataset, [
        (f"q{i}", stream[i].box(), n) for i, _t0, _t1, n in obs["samples"]
        if i not in kept][::every])


def run_serve(name, args, records, seconds, t0, spans, work):
    from . import layers, serve_workload as sw
    from .measure import QueryCounts
    from repro.storage.config import hydrate_store

    info, dataset, shared_s = _read_store(args, records, work, spans)
    config = build.config_of(info)
    stream = sw.make_stream(name, dataset, args.seed)
    verifier = Verifier(budget_s=3.0)
    if not args.trace:
        obs = sw.run_phase(name, config, stream, seconds, False, spans)
        values = _untraced_values(obs, info, t0, shared_s)
        declared, notes = spec.END_TO_END, {}
    else:
        untraced = sw.run_phase(name, config, stream, seconds / 2, False, spans)
        obs = sw.run_phase(name, config, stream, seconds / 2, True, spans,
                           first_index=TRACED_FIRST_INDEX)
        values, notes = sw.layer_metrics(untraced, obs)
        values.update(layers.storage_build(info))
        store = hydrate_store(config)
        counts = QueryCounts(200 if name == "serve_interactive" else 20)
        layers.query_counts(store, stream, counts.limit, counts)
        values.update(counts.metrics())
        if name == "serve_interactive":
            values.update(layers.fetch_layer(store))
        else:
            values.update(layers.data_layer(dataset, info["generate_s"]))
            values.update(layers.encoding_layer(store))
        store.close()
        declared = spec.PER_LAYER
        spans.spans.extend(obs["program_spans"])
    _check_served(dataset, obs, stream, verifier,
                  every=1 if name == "serve_scan" else 10)
    attempted = len(obs["samples"]) + len(obs["failed"])
    return _finish(verifier, attempted, len(obs["failed"]), values, declared,
                   args.trace, notes)


def run_engine(args, records, seconds, t0, spans, work):
    from . import engine_workload as ew, layers
    from repro.storage.config import hydrate_store

    info, dataset, shared_s = _read_store(args, records, work, spans)
    config = build.config_of(info)
    ops = ew.make_ops(dataset, args.seed)
    verifier = Verifier(budget_s=3.0)
    if not args.trace:
        obs = ew.run_phase(config, ops, seconds, False, spans)
        values = _untraced_values(obs, info, t0, shared_s)
        declared = spec.END_TO_END
    else:
        untraced = ew.run_phase(config, ops, seconds / 2, False, spans)
        obs = ew.run_phase(config, ops, seconds / 2, True, spans,
                           first_index=TRACED_FIRST_INDEX)
        values = ew.layer_metrics(untraced, obs)
        values.update(layers.storage_build(info))
        values.update(layers.core_layer(info))
        store = hydrate_store(config)          # cache off: every read decodes
        values.update(layers.engine_layer(store, args.seed))
        store.close()
        declared = spec.PER_LAYER
        spans.spans.extend(obs["program_spans"])
    verifier.check(dataset, obs["retained"])
    return _finish(verifier, len(obs["samples"]), 0, values, declared,
                   args.trace, {})


def run_ingest(args, records, seconds, t0, spans, work):
    from . import ingest_workload as iw, layers

    with spans.span("data.generate", records=records) as s_gen:
        dataset = inputs.make_dataset(args.seed, records).sorted_by_time()
    tracing = bool(args.trace)
    obs = iw.run(dataset, args.seed, seconds, tracing, spans,
                 os.path.join(work, "wal"))
    # Post-recovery answers first, against everything acknowledged; then
    # the answers taken while no append was in flight, each against the
    # prefix of the dataset the store held at that moment.
    verifier = Verifier(budget_s=5.0)
    verifier.check(iw.prefix(dataset, obs["acked"]), obs["post"])
    settled = {}
    for label, box, got, before, after in obs["retained"]:
        if before == after:
            settled.setdefault(before, []).append((label, box, got))
    for n_records, answers in settled.items():
        verifier.check(iw.prefix(dataset, n_records), answers)

    failed = (len(obs["append_errors"]) + obs["compaction_failures"]
              + (0 if obs["contiguous"] else 1)
              + (1 if obs["lost"] or obs["recovered"] != obs["acked"] else 0))
    attempted = len(obs["samples"]) + len(obs["appends"]) + len(obs["post"])
    if not tracing:
        values = {**read_metrics(obs["samples"], obs["wall_s"]),
                  "setup_s": obs["t_begin"] - t0,
                  "peak_rss_mb": peak_rss_mb(),
                  "stored_bytes_per_raw_byte":
                      obs["stored_bytes"] / obs["raw_bytes"]}
        declared = spec.END_TO_END
    else:
        values = iw.layer_metrics(obs)
        values.update(iw.wal_microbench(dataset, os.path.join(work, "walbench")))
        values.update(layers.partition_layer(dataset))
        values["data.generate_records_per_s"] = \
            records / (s_gen["end"] - s_gen["start"])
        declared = spec.PER_LAYER
        spans.spans.extend(obs["program_spans"])
    notes = {"acked_records": obs["acked"], "recovered_records": obs["recovered"],
             "lost_after_recovery": obs["lost"],
             "append_p50_ms": iw.append_latencies_ms(obs)[0],
             "recovery_s": obs["recovery_s"]}
    return _finish(verifier, attempted, failed, values, declared, args.trace,
                   notes)


def run_workload(args, t0: float) -> int:
    records = inputs.SMOKE_RECORDS if args.smoke else inputs.RECORDS
    seconds = args.seconds or (SMOKE_SECONDS if args.smoke else spec.RUN_SECONDS)
    spans = SpanLog()
    work = work_dir(args.workload)
    try:
        if args.workload == "engine_hot":
            result = run_engine(args, records, seconds, t0, spans, work)
        elif args.workload == "ingest_mixed":
            result = run_ingest(args, records, seconds, t0, spans, work)
        else:
            result = run_serve(args.workload, args, records, seconds, t0,
                               spans, work)
    except BaseException:
        # Leave no worker behind, then let the failure show: the caller
        # (driver or full run) reads a non-zero exit as "every op failed".
        for child in multiprocessing.active_children():
            child.terminate()
            child.join(10)
        shutil.rmtree(work, ignore_errors=True)
        import traceback
        traceback.print_exc()
        sys.stdout.flush()
        os._exit(3)
    shutil.rmtree(work, ignore_errors=True)
    if args.trace_out:
        spans.dump_jsonl(args.trace_out)
    report(args.workload, result)
    print(json.dumps({k: result[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


def report(workload: str, result: dict) -> None:
    print(f"workload {workload}   nproc {os.cpu_count()}")
    for name, m in result["metrics"].items():
        print(f"  {name:<46} {m['value']:>16.6g} {m['unit']}")
    for key, value in result["notes"].items():
        print(f"  # {key}: {value}")


# -- the full run ----------------------------------------------------------


def _child(workload, trace, seconds, args, store, expected_s):
    cmd = [sys.executable, "-m", "benchmarks.e2e.cli", "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(seconds),
           "--trace", str(trace), "--store", store]
    if args.smoke:
        cmd.append("--smoke")
    if trace:
        cmd += ["--trace-out", str(RESULTS / f"trace-{workload}.jsonl")]
    # A session of its own, so that a hung pass can be killed together
    # with its shard workers, and the next pass starts only when every
    # process of this one has ended.
    env = {k: v for k, v in os.environ.items() if k != T0_ENV}
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, env=env, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=3 * expected_s)
    except subprocess.TimeoutExpired:
        end_session(proc.pid, grace_s=0)
        proc.communicate()
        return None, f"watchdog: no result after {3 * expected_s:.0f}s"
    end_session(proc.pid)
    lines = stdout.strip().splitlines()
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return None, f"exit {proc.returncode}: {stderr.strip()[-400:]}"
    # The contract line carries no notes; recover them from the report.
    result["notes"] = dict(line[4:].split(": ", 1) for line in lines
                           if line.startswith("  # "))
    return result, None


def run_all(args) -> int:
    records = inputs.SMOKE_RECORDS if args.smoke else inputs.RECORDS
    seconds = args.seconds or (SMOKE_SECONDS if args.smoke else spec.RUN_SECONDS)
    RESULTS.mkdir(exist_ok=True)
    work = work_dir("full")
    store = os.path.join(work, "store")
    ok = True
    units = {}
    entry = {"key": history.run_key(args.seed, records), "workloads": {}}
    try:
        info = build.build_store(args.seed, records, store, SpanLog())
        print(f"built {records} records, pinned set in {info['seconds']:.1f}s "
              f"(shared; charged to every read workload's setup_s)")
        for workload in spec.WORKLOADS:
            row = entry["workloads"][workload] = {}
            # The traced pass spends ``seconds`` too, split between an
            # untraced reference phase and the traced phase.
            for trace, section in ((0, "end_to_end"), (1, "per_layer")):
                expected = 30 + 2 * seconds + (30 if trace else 0)
                result, error = _child(workload, trace, seconds, args, store,
                                       expected)
                if result is None:
                    # Nothing came back: every op of this pass failed.
                    print(f"  {workload} trace={trace} FAILED: {error}")
                    result = {"correct": False, "attempted": 1, "failed": 1,
                              "metrics": {}}
                ok &= result["correct"]
                row[section] = {k: m["value"]
                                for k, m in result["metrics"].items()}
                row[f"{section}_ops"] = [result["attempted"], result["failed"]]
                row[f"{section}_notes"] = result.get("notes", {})
                units.update({k: m["unit"]
                              for k, m in result["metrics"].items()})
                print(f"  error_share {result['failed'] / result['attempted']:g}"
                      f"   ({result['failed']} of {result['attempted']})")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(RESULTS / "latest.json", "w", encoding="utf-8") as fh:
        json.dump({**entry, "units": units}, fh, indent=1, sort_keys=True)
    if not args.smoke:
        history.append(entry)
    print("OK" if ok else "FAILED: see error_share above")
    return 0 if ok else 1


def main(argv=None) -> int:
    # The entry point's start time when run under ``supervise``.
    t0 = float(os.environ.get(T0_ENV, time.perf_counter()))
    args = parse(sys.argv[1:] if argv is None else argv)
    if args.compare:
        return history.compare(*args.compare)
    if args.workload:
        return run_workload(args, t0)
    return run_all(args)


# Spawned shard workers re-import this module as ``__mp_main__``: the
# guard keeps them from re-running the benchmark.
if __name__ == "__main__":
    sys.exit(main())
