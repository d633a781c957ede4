"""Fold the spans the program already emits into one row per layer.

Only existing switches are used (``ShardServer(tracing=True)``,
``ExecOptions(trace=True)``, ``StoreConfig.observability``); no span is
added inside ``src/``.  A layer's time is its span's duration minus what
its children cover.  Where children run in parallel (two shards under
one dispatch) the slowest one is the blocking step and is the one
charged; the others show up in ``serve.shard_imbalance`` instead.

Span name -> row, serve path (batched ``execute_workload`` on a worker):

    request              self before the batch -> serve.batch_wait_ms
      admission, quota                        -> serve.admission_ms
      batch              minus slowest shard  -> serve.dispatch_self_ms
        dispatch                                 (route + pickle + queue
          shard_serve    (slowest)               + cross-shard concat)
            workload, scan   self             -> engine.self_ms
              decode                          -> engine.decode_ms
            query[kind=workload]              -> engine.filter_ms
    request              whatever is left     -> serve.unattributed_ms

Span name -> row, scalar path (``query``/``count`` in process):

    query                self                 -> engine.self_ms
      route                                   -> engine.route_ms
      scan               self                 -> engine.filter_ms
        decode                                -> engine.decode_ms
    buffer_scan          (ingest only)        -> engine.filter_ms

On the serve path Eq. 6-7 routing runs inside the front door's ``batch``
span and has no span of its own, so ``engine.route_ms`` is 0 there and
the routing cost is part of ``serve.dispatch_self_ms``;
``costmodel.route_batch_us_per_query`` prices it from outside.
"""

from __future__ import annotations

from repro.obs import stitch_traces

ENGINE_ROWS = ("engine.route_ms", "engine.decode_ms", "engine.filter_ms",
               "engine.self_ms")
SERVE_ROWS = ("serve.admission_ms", "serve.batch_wait_ms",
              "serve.dispatch_self_ms", "serve.unattributed_ms")


def _dur(node: dict) -> float:
    return (node["end"] - node["start"]) if node.get("end") is not None else 0.0


def _walk(node: dict):
    yield node
    for child in node["children"]:
        yield from _walk(child)


def _shard_rows(shard: dict) -> dict:
    """Engine rows of one ``shard_serve`` subtree, in seconds."""
    decode = route = filt = 0.0
    for node in _walk(shard):
        if node["name"] == "decode":
            decode += _dur(node)
        elif node["name"] == "route":
            route += _dur(node)
        elif node["name"] == "query" and node["attrs"].get("kind") == "workload":
            filt += _dur(node)
    return {"engine.route_ms": route, "engine.decode_ms": decode,
            "engine.filter_ms": filt,
            "engine.self_ms": _dur(shard) - decode - route - filt}


def fold_serve(program_spans: list[dict], samples) -> tuple[dict, dict]:
    """Mean per-request rows (ms) over every stitched request tree, and
    the bookkeeping the acceptance check needs."""
    stitched = stitch_traces(program_spans)
    totals = dict.fromkeys(SERVE_ROWS + ENGINE_ROWS + ("serve.shard_ms",), 0.0)
    imbalance = []
    request_wall = 0.0
    n = 0
    for request in stitched.requests:
        batch = next((c for c in request["children"] if c["name"] == "batch"),
                     None)
        if batch is None or request["attrs"].get("outcome") != "ok":
            continue
        shards = [s for d in batch["children"] if d["name"] == "dispatch"
                  for s in d["children"] if s["name"] == "shard_serve"]
        if not shards:
            continue
        slowest = max(shards, key=_dur)
        admission = sum(_dur(c) for c in request["children"]
                        if c["name"] in ("admission", "quota"))
        wait = max(0.0, batch["start"] - request["start"] - admission)
        named = admission + wait + _dur(batch)
        totals["serve.admission_ms"] += admission
        totals["serve.batch_wait_ms"] += wait
        totals["serve.dispatch_self_ms"] += _dur(batch) - _dur(slowest)
        totals["serve.shard_ms"] += _dur(slowest)
        totals["serve.unattributed_ms"] += _dur(request) - named
        for key, value in _shard_rows(slowest).items():
            totals[key] += value
        imbalance.append(
            _dur(slowest) / (sum(_dur(s) for s in shards) / len(shards)))
        request_wall += _dur(request)
        n += 1
    rows = {k: 1e3 * v / max(1, n) for k, v in totals.items()}
    rows["serve.shard_imbalance"] = (sum(imbalance) / len(imbalance)
                                     if imbalance else 0.0)
    client_wall_ms = 1e3 * sum(t1 - t0 for _i, t0, t1, _n in samples) \
        / max(1, len(samples))
    summed = sum(rows[k] for k in SERVE_ROWS + ENGINE_ROWS)
    check = {
        "requests_folded": n,
        "client_wall_ms": client_wall_ms,
        "rows_sum_ms": summed,
        "rows_over_wall": summed / client_wall_ms if client_wall_ms else 0.0,
        # A span whose parent never arrived, or a client request with no
        # stitched root, was dropped (a ring wrapped between drains).
        "spans_dropped": stitched.orphans + max(0, len(samples) - n),
    }
    return rows, check


def fold_scalar(program_spans: list[dict], n_ops: int) -> dict:
    """Mean per-op engine rows (ms) for the in-process scalar paths, plus
    ``obs.spans_dropped`` (spans whose parent never arrived).
    ``buffer_scan`` roots (the ingest store's delta filter) count as
    filter time; background roots (compaction) are not request time."""
    stitched = stitch_traces(program_spans)
    totals = dict.fromkeys(ENGINE_ROWS, 0.0)
    for root in stitched.trees:
        if root["name"] == "buffer_scan":
            totals["engine.filter_ms"] += _dur(root)
            continue
        if root["name"] != "query":
            continue
        route = sum(_dur(c) for c in root["children"] if c["name"] == "route")
        scans = [c for c in root["children"] if c["name"] == "scan"]
        decode = sum(_dur(d) for s in scans for d in s["children"]
                     if d["name"] == "decode")
        scan_total = sum(_dur(s) for s in scans)
        totals["engine.route_ms"] += route
        totals["engine.decode_ms"] += decode
        totals["engine.filter_ms"] += scan_total - decode
        totals["engine.self_ms"] += _dur(root) - route - scan_total
    rows = {k: 1e3 * v / max(1, n_ops) for k, v in totals.items()}
    rows["obs.spans_dropped"] = stitched.orphans
    return rows
