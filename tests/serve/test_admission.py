"""Admission control, tenant quotas and the query batcher in isolation."""

import asyncio

import pytest

from repro.errors import OverloadError, QuotaExceededError
from repro.serve import AdmissionController, Batcher, QuotaConfig, TenantQuotas


class TestAdmissionController:
    def test_admits_up_to_limit_then_sheds(self):
        gate = AdmissionController(max_inflight=2)
        gate.acquire()
        gate.acquire()
        with pytest.raises(OverloadError) as exc_info:
            gate.acquire()
        assert exc_info.value.inflight == 2
        assert exc_info.value.limit == 2
        assert gate.admitted == 2
        assert gate.shed == 1

    def test_release_reopens_a_slot(self):
        gate = AdmissionController(max_inflight=1)
        gate.acquire()
        gate.release()
        gate.acquire()
        assert gate.inflight == 1
        assert gate.shed == 0

    def test_release_without_acquire_rejected(self):
        gate = AdmissionController(max_inflight=1)
        with pytest.raises(RuntimeError, match="release"):
            gate.release()

    def test_limit_validated(self):
        with pytest.raises(ValueError, match="max_inflight"):
            AdmissionController(max_inflight=0)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class TestTenantQuotas:
    def test_burst_then_rejection_with_retry_horizon(self):
        clock = FakeClock()
        quotas = TenantQuotas(QuotaConfig(rate=2.0, burst=3), clock=clock)
        for _ in range(3):
            quotas.check("acme")
        with pytest.raises(QuotaExceededError) as exc_info:
            quotas.check("acme")
        assert exc_info.value.tenant == "acme"
        # Empty bucket at rate 2/s: next token in 0.5s.
        assert exc_info.value.retry_after_seconds == pytest.approx(0.5)
        assert quotas.rejected == 1

    def test_tokens_refill_with_time(self):
        clock = FakeClock()
        quotas = TenantQuotas(QuotaConfig(rate=2.0, burst=2), clock=clock)
        quotas.check("acme")
        quotas.check("acme")
        clock.now = 0.5  # one token back
        quotas.check("acme")
        with pytest.raises(QuotaExceededError):
            quotas.check("acme")

    def test_refill_caps_at_burst(self):
        clock = FakeClock()
        quotas = TenantQuotas(QuotaConfig(rate=100.0, burst=2), clock=clock)
        quotas.check("acme")
        clock.now = 1000.0
        quotas.check("acme")
        quotas.check("acme")
        with pytest.raises(QuotaExceededError):
            quotas.check("acme")

    def test_tenants_have_independent_buckets(self):
        quotas = TenantQuotas(QuotaConfig(rate=1.0, burst=1),
                              clock=FakeClock())
        quotas.check("a")
        quotas.check("b")  # b's bucket untouched by a's spend
        with pytest.raises(QuotaExceededError):
            quotas.check("a")

    def test_overrides_win_over_default(self):
        clock = FakeClock()
        quotas = TenantQuotas(
            QuotaConfig(rate=1.0, burst=1),
            overrides={"vip": QuotaConfig(rate=1.0, burst=5)},
            clock=clock)
        for _ in range(5):
            quotas.check("vip")
        with pytest.raises(QuotaExceededError):
            quotas.check("vip")
        assert quotas.config_for("vip").burst == 5
        assert quotas.config_for("anyone").burst == 1

    def test_config_validated(self):
        with pytest.raises(ValueError, match="rate"):
            QuotaConfig(rate=0.0, burst=1)
        with pytest.raises(ValueError, match="burst"):
            QuotaConfig(rate=1.0, burst=0)


class TestBatcher:
    """Natural batching, checked without a clock: every ordering below
    follows from the loop's FIFO ready queue, not from elapsed time."""

    @staticmethod
    def echo(batches):
        async def flush(batch):
            batches.append([query for query, _ in batch])
            for query, future in batch:
                future.set_result(query * 10)
        return flush

    def test_same_tick_submits_share_one_batch(self):
        batches = []

        async def go():
            batcher = Batcher(self.echo(batches), max_batch=100)
            results = await asyncio.gather(*(batcher.submit(i)
                                             for i in range(5)))
            return results, batcher

        results, batcher = asyncio.run(go())
        assert results == [0, 10, 20, 30, 40]
        assert batches == [[0, 1, 2, 3, 4]]
        assert batcher.batches_flushed == 1
        assert batcher.queries_batched == 5

    def test_lone_submit_flushes_without_a_timer(self, monkeypatch):
        def no_timers(*args, **kwargs):
            raise AssertionError("the batcher armed a timer")

        async def go():
            loop = asyncio.get_running_loop()
            monkeypatch.setattr(loop, "call_later", no_timers)
            monkeypatch.setattr(loop, "call_at", no_timers)
            batcher = Batcher(self.echo([]), max_batch=100)
            return await batcher.submit(7)

        assert asyncio.run(go()) == 70

    def test_arrivals_during_a_flush_form_the_next_batch(self):
        batches = []

        async def go():
            started = asyncio.Event()
            release = asyncio.Event()

            async def flush(batch):
                batches.append([query for query, _ in batch])
                if len(batches) == 1:
                    started.set()
                    await release.wait()
                for query, future in batch:
                    future.set_result(query)

            batcher = Batcher(flush, max_batch=100)
            first = asyncio.ensure_future(batcher.submit("a"))
            await started.wait()
            late = [asyncio.ensure_future(batcher.submit(q)) for q in "bcd"]
            # The late submits were scheduled before the release, so
            # they are queued by the time the first flush completes.
            release.set()
            results = await asyncio.gather(first, *late)
            return results, batcher

        results, batcher = asyncio.run(go())
        assert results == ["a", "b", "c", "d"]
        assert batches == [["a"], ["b", "c", "d"]]
        assert batcher.batches_flushed == 2

    def test_max_batch_flushes_immediately(self):
        # A burst beyond max_batch goes out max_batch at a time, one
        # batch in flight: the rest flush as each batch completes.
        batches = []

        async def go():
            batcher = Batcher(self.echo(batches), max_batch=3)
            results = await asyncio.gather(*(batcher.submit(i)
                                             for i in range(7)))
            return results, batcher

        results, batcher = asyncio.run(go())
        assert results == [i * 10 for i in range(7)]
        assert batches == [[0, 1, 2], [3, 4, 5], [6]]
        assert batcher.batches_flushed == 3
        assert batcher.queries_batched == 7

    def test_crashed_flush_propagates_to_submitters(self):
        async def flush(batch):
            raise RuntimeError("shard fell over")

        async def go():
            batcher = Batcher(flush, max_batch=100)
            return await asyncio.gather(
                *(batcher.submit(q) for q in "abc"), return_exceptions=True)

        outcomes = asyncio.run(go())
        assert len(outcomes) == 3
        for outcome in outcomes:
            assert isinstance(outcome, RuntimeError)
            assert "shard fell over" in str(outcome)

    def test_drain_flushes_the_tail(self):
        batches = []

        async def go():
            started = asyncio.Event()
            release = asyncio.Event()

            async def flush(batch):
                batches.append([query for query, _ in batch])
                if len(batches) == 1:
                    started.set()
                    await release.wait()
                for query, future in batch:
                    future.set_result(query)

            batcher = Batcher(flush, max_batch=100)
            head = asyncio.ensure_future(batcher.submit("head"))
            await started.wait()
            tail = asyncio.ensure_future(batcher.submit("tail"))
            drained = asyncio.ensure_future(batcher.drain())
            release.set()
            await drained
            # drain() returns only once the tail's batch has finished.
            assert head.done() and tail.done()
            return head.result(), tail.result()

        assert asyncio.run(go()) == ("head", "tail")
        assert batches == [["head"], ["tail"]]

    def test_parameters_validated(self):
        async def flush(batch):
            pass

        with pytest.raises(ValueError, match="max_batch"):
            Batcher(flush, max_batch=0)
        with pytest.raises(TypeError):
            Batcher(flush, window_seconds=0.002)
