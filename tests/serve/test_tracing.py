"""Distributed tracing through the serving tier: propagation, stitch
quality, deadlines — and the invariant that tracing never changes an
answer."""

import asyncio

import pytest

from repro.errors import DeadlineExceededError
from repro.obs import stitch_files, stitch_traces, validate_trace_tree
from repro.serve import ShardServer
from repro.verify.oracle import canonical, datasets_identical


def serve_traced(config, queries, **kwargs):
    async def go():
        async with ShardServer(config, n_shards=2, tracing=True,
                               **kwargs) as server:
            results = await server.execute(queries)
            spans = await server.trace_snapshot()
            snap = await server.metrics_snapshot()
        return results, spans, snap

    return asyncio.run(go())


def all_spans(trace_snapshot):
    spans = list(trace_snapshot["frontdoor"])
    for shard_spans in trace_snapshot["shards"].values():
        spans.extend(shard_spans)
    return spans


class TestTracedServing:
    def test_results_bit_equal_with_tracing_on(self, config, queries,
                                               baseline):
        results, _, _ = serve_traced(config, queries)
        for got, want in zip(results, baseline):
            assert not isinstance(got, BaseException), got
            assert datasets_identical(canonical(got), want)

    def test_every_request_stitches_into_a_valid_tree(self, config,
                                                      queries):
        _, spans, _ = serve_traced(config, queries)
        result = stitch_traces(all_spans(spans))
        assert len(result.requests) == len(queries)
        for tree in result.requests:
            validate_trace_tree(tree)
        assert result.engine_spans > 0
        assert result.engine_stitch_ratio >= 0.95

    def test_worker_spans_are_tagged_with_their_origin(self, config,
                                                       queries):
        _, spans, _ = serve_traced(config, queries[:4])
        assert all(s["worker"] == "frontdoor"
                   for s in spans["frontdoor"])
        for shard_id, shard_spans in spans["shards"].items():
            assert shard_spans, f"shard {shard_id} emitted no spans"
            assert all(s["worker"] == f"shard-{shard_id}"
                       for s in shard_spans)

    def test_batched_requests_share_subtrees_via_links(self, config,
                                                       queries):
        async def go():
            async with ShardServer(config, n_shards=2, tracing=True,
                                   max_batch=64) as server:
                await asyncio.gather(
                    *(server.query(queries[0]) for _ in range(6)))
                return await server.trace_snapshot()

        spans = asyncio.run(go())
        result = stitch_traces(all_spans(spans))
        assert len(result.requests) == 6
        grafted = [t for t in result.requests
                   if any(c.get("via_link") for c in t["children"])]
        # One request owns the batch span; the other five get grafts.
        assert len(grafted) == 5
        for tree in result.requests:
            validate_trace_tree(tree)

    def test_tracing_off_records_nothing(self, config, queries):
        async def go():
            async with ShardServer(config, n_shards=2) as server:
                await server.execute(queries[:4])
                return await server.trace_snapshot()

        spans = asyncio.run(go())
        assert spans["frontdoor"] == []


class TestDeadlines:
    def test_expired_deadline_is_structured_and_counted(self, config,
                                                        queries):
        async def go():
            async with ShardServer(config, n_shards=2,
                                   tracing=True) as server:
                with pytest.raises(DeadlineExceededError):
                    await server.query(queries[0],
                                       deadline_seconds=-1.0)
                return await server.metrics_snapshot()

        snap = asyncio.run(go())
        assert sum(
            c["value"] for c in snap["merged"]["counters"]
            if c["name"] == "repro_deadline_exceeded_total") == 1
        assert sum(
            c["value"] for c in snap["merged"]["counters"]
            if c["name"] == "repro_requests_total"
            and c["labels"].get("outcome") == "deadline") == 1

    def test_generous_deadline_serves_normally(self, config, queries,
                                               baseline):
        async def go():
            async with ShardServer(config, n_shards=2,
                                   tracing=True) as server:
                return await server.query(queries[0],
                                          deadline_seconds=60.0)

        got = asyncio.run(go())
        assert datasets_identical(canonical(got), baseline[0])


class TestDumps:
    def test_dump_traces_round_trips_through_stitch_files(
            self, config, queries, tmp_path):
        async def go():
            async with ShardServer(config, n_shards=2,
                                   tracing=True) as server:
                await server.execute(queries[:6])
                return await server.dump_traces(str(tmp_path))

        paths = asyncio.run(go())
        assert len(paths) == 3  # frontdoor + 2 shards
        result = stitch_files(paths)
        assert len(result.requests) == 6
        assert result.engine_stitch_ratio >= 0.95
        for tree in result.requests:
            validate_trace_tree(tree)

    def test_request_latency_lands_in_the_tenant_sketch(self, config,
                                                        queries):
        _, _, snap = serve_traced(config, queries[:4], max_batch=4)
        [entry] = [q for q in snap["merged"]["quantiles"]
                   if q["name"] == "repro_request_seconds"]
        assert entry["labels"] == {"tenant": "default"}
        assert entry["count"] == 4
