"""The serving-tier contract: every sharded deployment answers
bit-identically to the single-process engine, and every refused or
failed query surfaces as a structured error — never a silent partial.
"""

import asyncio
import dataclasses
import multiprocessing as mp
import threading

import pytest

import repro.serve.protocol as protocol_module
import repro.serve.worker as worker_module
from repro.cluster.placement import assign_shards
from repro.drills import run_serve_drill, run_slo_drill
from repro.errors import DegradedReadError, OverloadError, QuotaExceededError
from repro.obs import SLObjective
from repro.serve import (
    FleetSpec,
    QueryTask,
    QuotaConfig,
    Ready,
    ShardRequest,
    ShardServer,
    TenantQuotas,
    shard_worker_main,
)
from repro.storage import ExecOptions, FaultSpec, hydrate_store
from repro.verify.oracle import canonical, datasets_identical


def serve_all(config, queries, **kwargs):
    """Boot a server, answer ``queries`` concurrently, tear down."""
    async def go():
        async with ShardServer(config, **kwargs) as server:
            results = await server.execute(queries)
            stats = server.server_stats()
        return results, stats

    return asyncio.run(go())


def assert_bit_equal(results, baseline):
    assert len(results) == len(baseline)
    for got, want in zip(results, baseline):
        assert not isinstance(got, BaseException), got
        assert datasets_identical(canonical(got), want)


class TestBitEquality:
    @pytest.mark.parametrize("n_shards", [2, 3])
    def test_hash_sharding_matches_single_process(
            self, config, queries, baseline, n_shards):
        results, stats = serve_all(config, queries, n_shards=n_shards,
                                   sharding="hash")
        assert_bit_equal(results, baseline)
        assert stats["queries_served"] == len(queries)
        assert stats["failovers"] == 0
        assert stats["degraded"] == 0

    def test_spatial_sharding_matches_single_process(
            self, config, queries, baseline):
        results, stats = serve_all(config, queries, n_shards=3,
                                   sharding="spatial")
        assert_bit_equal(results, baseline)
        assert stats["degraded"] == 0

    def test_single_shard_degenerate_case(self, config, queries, baseline):
        results, _ = serve_all(config, queries, n_shards=1)
        assert_bit_equal(results, baseline)

    def test_batching_actually_coalesces(self, config, queries):
        _, stats = serve_all(config, queries, n_shards=2,
                             max_batch=len(queries))
        assert stats["batches_flushed"] < stats["queries_batched"]


class TestCoordinatedFailover:
    def test_whole_replica_outage_is_bit_equal(self, config, queries,
                                               baseline):
        # The cheap replica is down everywhere: every query must fail
        # over to the surviving replica on every shard, coordinated so
        # the shard partials still union to the full answer.
        faulty = dataclasses.replace(
            config, faults=FaultSpec(fail_replicas=("grid-plain",)))
        results, stats = serve_all(faulty, queries, n_shards=2)
        assert_bit_equal(results, baseline)
        assert stats["failovers"] > 0
        assert stats["degraded"] == 0

    def test_partition_faults_never_yield_partials(self, config, queries,
                                                   baseline):
        # Random persistent partition failures on both replicas: a query
        # either comes back bit-equal or raises DegradedReadError with
        # its attempt trail — a truncated result is the one forbidden
        # outcome.
        faulty = dataclasses.replace(
            config, faults=FaultSpec(seed=3, partition_fail_rate=0.3))
        results, stats = serve_all(faulty, queries, n_shards=2)
        served = degraded = 0
        for got, want in zip(results, baseline):
            if isinstance(got, DegradedReadError):
                degraded += 1
                assert got.attempts
            else:
                served += 1
                assert datasets_identical(canonical(got), want)
        assert served + degraded == len(queries)
        assert stats["degraded"] == degraded

    def test_all_replicas_down_degrades_data_bearing_queries(
            self, config, queries, baseline):
        # A query touching no stored partition reads nothing, so no
        # fault can fire: it is trivially (and correctly) served empty.
        # Every query that needs actual data must degrade.
        faulty = dataclasses.replace(
            config,
            faults=FaultSpec(fail_replicas=("grid-plain", "kd-gzip")))
        results, stats = serve_all(faulty, queries, n_shards=2)
        degraded = 0
        for got, want in zip(results, baseline):
            if isinstance(got, DegradedReadError):
                degraded += 1
            else:
                assert len(got) == 0 == len(want)
        # Empty-answer queries may still touch (and trip) partitions,
        # so degraded can exceed the data-bearing count — never be less.
        assert degraded >= sum(1 for want in baseline if len(want) > 0) > 0
        assert stats["degraded"] == degraded


def one_dead_unit(config, queries, shard_id=0, n_shards=2):
    """A persistent partition fault on one ``grid-plain`` unit that
    ``shard_id`` owns and that some — not all — of ``queries`` touch:
    ``(faulty config, assignment, pid)``."""
    router = hydrate_store(config)
    try:
        names = sorted(router.replica_names())
        assignment = assign_shards([router.replica(n) for n in names],
                                   n_shards, "hash")
        grid = router.replica("grid-plain")
        owned = [pid for pid, key in enumerate(grid.unit_keys)
                 if key is not None
                 and assignment.owners["grid-plain"][pid] == shard_id]
        touching = {pid: sum(pid in grid.involved_partitions(q.box())
                             for q in queries) for pid in owned}
        pid = next(p for p, n in touching.items() if 0 < n < len(queries))
    finally:
        router.close()
    faulty = dataclasses.replace(
        config, observability=True,
        faults=FaultSpec(fail_partitions=(("grid-plain", pid),)))
    return faulty, assignment, pid


class TestWorkerExecutesEachRequestOnce:
    OPTS = ExecOptions(retries=0, failover=False, repair=False)

    def test_healthy_units_read_once_under_a_partition_fault(
            self, config, queries):
        faulty, assignment, dead = one_dead_unit(config, queries)
        store = worker_module._open_shard_store(faulty, assignment, 0)
        try:
            grid = store.replica("grid-plain")
            involved = [set(grid.involved_partitions(q.box()).tolist())
                        for q in queries]
            owned = {pid for pids in involved for pid in pids
                     if grid.unit_keys[pid] is not None}
            request = ShardRequest(
                request_id=1, replica="grid-plain",
                tasks=tuple(QueryTask(i, q) for i, q in enumerate(queries)))
            response = worker_module._serve_request(store, request, 0, self.OPTS)

            # Nothing was executed twice: every owned unit of the request
            # was read at most once, the dead one included (the parent
            # re-ran the failed batch query by query, re-reading the
            # healthy units of every query in it).
            bytes_read = sum(
                c["value"]
                for c in store.observability.metrics.snapshot()["counters"]
                if c["name"] == "repro_bytes_read_total")
            assert 0 < bytes_read <= sum(
                grid.store.size(grid.unit_keys[pid])
                for pid in owned - {dead})
            faults = store.fault_injector.stats()
            assert faults.faults_injected == 1
            assert faults.reads_checked <= len(owned)

            # Exactly the queries touching the dead unit fail, each with
            # a structured error; the rest keep their answers — the ones
            # a pinned per-query read of the same shard view gives.
            assert set(response.failures) == {
                i for i, pids in enumerate(involved) if dead in pids}
            assert all("DegradedReadError" in e
                       for e in response.failures.values())
            assert response.results and response.failures
            assert set(response.results) | set(response.failures) \
                == set(range(len(queries)))
            for i, payload in response.results.items():
                want = store.query(queries[i], replica="grid-plain",
                                   options=self.OPTS).records
                assert datasets_identical(
                    protocol_module._payload_to_dataset(payload), want)
        finally:
            store.close()

    def test_answer_is_bit_equal_after_coordinated_failover(
            self, config, queries, baseline):
        faulty, _, _ = one_dead_unit(config, queries)
        results, stats = serve_all(faulty, queries, n_shards=2)
        assert_bit_equal(results, baseline)
        assert stats["failovers"] > 0
        assert stats["degraded"] == 0

    def test_non_read_error_fails_every_task_once_and_worker_survives(
            self, config, queries):
        router = hydrate_store(config)
        try:
            names = sorted(router.replica_names())
            assignment = assign_shards(
                [router.replica(n) for n in names], 1, "hash")
        finally:
            router.close()
        worker_requests, requests = mp.Pipe(duplex=False)
        responses, worker_responses = mp.Pipe(duplex=False)
        worker = threading.Thread(
            target=shard_worker_main,
            args=(config, assignment, 0, worker_requests, worker_responses),
            daemon=True)
        worker.start()
        tasks = tuple(QueryTask(i, q) for i, q in enumerate(queries[:4]))
        # An unknown replica is a caller bug (KeyError), not a read error.
        requests.send(ShardRequest(1, "no-such-replica", tasks))
        requests.send(ShardRequest(2, "grid-plain", tasks))
        requests.send(None)
        frames = []
        for _ in range(3):
            assert responses.poll(30)
            frames.append(responses.recv())
        ready, broken, healthy = frames
        worker.join(30)
        assert not worker.is_alive()
        assert ready == Ready(0)
        # The worker closed its ends on the way out.
        with pytest.raises(EOFError):
            responses.recv()
        assert worker_requests.closed and worker_responses.closed
        requests.close()
        responses.close()
        assert not broken.results
        assert set(broken.failures) == {0, 1, 2, 3}
        assert all(e.startswith("KeyError") for e in broken.failures.values())
        assert set(healthy.results) == {0, 1, 2, 3} and not healthy.failures


class TestAdmissionAndQuotas:
    def test_shedding_is_structured_and_accounted(self, config, queries,
                                                  baseline):
        # With one admission slot, concurrent submitters mostly shed.
        # Every query must either raise OverloadError or answer
        # bit-equal; the books must balance exactly.
        results, stats = serve_all(config, queries, n_shards=2,
                                   max_inflight=1)
        served = shed = 0
        for got, want in zip(results, baseline):
            if isinstance(got, OverloadError):
                shed += 1
                assert got.limit == 1
            else:
                served += 1
                assert datasets_identical(canonical(got), want)
        assert served + shed == len(queries)
        assert served >= 1
        assert stats["shed"] == shed
        assert stats["admitted"] == served

    def test_quota_rejection_is_structured(self, config, queries):
        # A frozen clock never refills the bucket: exactly `burst`
        # queries pass the quota gate, the rest carry a retry horizon.
        quotas = TenantQuotas(QuotaConfig(rate=1.0, burst=5),
                              clock=lambda: 0.0)
        results, stats = serve_all(config, queries, n_shards=2,
                                   quotas=quotas)
        rejected = [r for r in results
                    if isinstance(r, QuotaExceededError)]
        assert len(rejected) == len(queries) - 5
        assert all(r.retry_after_seconds > 0 for r in rejected)
        assert stats["quota_rejected"] == len(rejected)


class TestRefusalCounters:
    """Refusals are not just structured errors — each kind lands in its
    own counter, and those counters survive the fleet-wide merge."""

    @staticmethod
    def counter_value(snapshot, name, **labels):
        return sum(c["value"] for c in snapshot["merged"]["counters"]
                   if c["name"] == name
                   and all(c["labels"].get(k) == v
                           for k, v in labels.items()))

    def test_sheds_increment_the_dedicated_counter(self, config, queries):
        async def go():
            async with ShardServer(config, n_shards=2,
                                   max_inflight=1) as server:
                results = await server.execute(queries)
                snap = await server.metrics_snapshot()
            return results, snap

        results, snap = asyncio.run(go())
        shed = sum(1 for r in results if isinstance(r, OverloadError))
        assert shed >= 1
        assert self.counter_value(
            snap, "repro_admission_shed_total") == shed
        assert self.counter_value(
            snap, "repro_requests_total", outcome="shed") == shed

    def test_quota_rejections_increment_per_tenant_counter(
            self, config, queries):
        quotas = TenantQuotas(QuotaConfig(rate=1.0, burst=5),
                              clock=lambda: 0.0)

        async def go():
            async with ShardServer(config, n_shards=2,
                                   quotas=quotas) as server:
                results = await server.execute(queries)
                snap = await server.metrics_snapshot()
            return results, snap

        results, snap = asyncio.run(go())
        rejected = sum(1 for r in results
                       if isinstance(r, QuotaExceededError))
        assert rejected == len(queries) - 5
        assert self.counter_value(
            snap, "repro_quota_rejected_total",
            tenant="default") == rejected
        assert self.counter_value(
            snap, "repro_requests_total", tenant="default",
            outcome="quota_rejected") == rejected


class TestFrontDoor:
    def test_duplicate_queries_share_one_dispatch(self, config, queries,
                                                  baseline):
        async def go():
            async with ShardServer(config, n_shards=2,
                                   max_batch=64) as server:
                results = await asyncio.gather(
                    *(server.query(queries[0]) for _ in range(6)))
                stats = server.server_stats()
            return results, stats

        results, stats = asyncio.run(go())
        for got in results:
            assert datasets_identical(canonical(got), baseline[0])
        assert stats["queries_served"] == 6

    def test_query_before_start_rejected(self, config, queries):
        async def go():
            server = ShardServer(config, n_shards=2)
            with pytest.raises(RuntimeError, match="not started"):
                await server.query(queries[0])

        asyncio.run(go())

    def test_metrics_snapshot_merges_all_shards(self, config, queries):
        async def go():
            async with ShardServer(config, n_shards=3) as server:
                await server.execute(queries[:6])
                return await server.metrics_snapshot()

        snap = asyncio.run(go())
        assert sorted(snap["shards"]) == [0, 1, 2]
        assert set(snap["merged"]) == {"counters", "gauges", "quantiles"}
        assert set(snap["frontdoor"]) == set(snap["merged"])
        assert snap["server"]["queries_served"] == 6


class TestFleet:
    def test_fleet_accounts_every_outcome(self, config):
        """The ``repro serve --verify`` drill: fleet traffic through
        quotas and admission, then the referee pass (not traffic: no
        quota applies, every answer bit-equal)."""
        drill = run_serve_drill(
            config, FleetSpec(n_queries=40, concurrency=12, seed=9),
            verify=True, n_shards=2, max_inflight=8,
            quotas=TenantQuotas(QuotaConfig(rate=200.0, burst=10)))
        report = drill.report
        assert report.n_queries == 40
        assert (report.served + report.shed + report.quota_rejected
                + report.degraded) == 40
        assert report.served >= 1
        assert (drill.verified, drill.mismatched, drill.degraded) \
            == (40, 0, 0)

    def test_slo_drill_fires_on_an_unmeetable_objective(self, config):
        """The ``repro slo`` drill: a 1 ns p99 objective burns its whole
        budget, so every tenant's alert fires and lands in the
        (schema-validated) report."""
        drill = run_slo_drill(
            config, FleetSpec(n_queries=40, seed=9),
            [SLObjective(tenant="*", kind="latency", target=0.99,
                         latency_seconds=1e-9)],
            n_shards=2)
        assert drill.fleet.served == 40
        assert {t for t, _ in drill.engine.firing} == {"fleet-a", "fleet-b"}
        assert drill.report["slo"]["alerts"] == 2

    def test_fleet_stream_is_deterministic(self, config, queries):
        from repro.serve import fleet_queries
        from repro.storage import hydrate_store

        store = hydrate_store(config)
        try:
            spec = FleetSpec(n_queries=24, seed=5)
            assert fleet_queries(store.universe, spec) == queries
        finally:
            store.close()
