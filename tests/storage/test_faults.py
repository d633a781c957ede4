"""Tests for the deterministic fault injector and the failure vocabulary."""

import pytest

from repro.errors import DegradedReadError, InjectedFault, PartitionReadError
from repro.storage.faults import FaultInjector


class TestSchedule:
    def test_replica_failure_raises_on_every_read(self):
        inj = FaultInjector()
        inj.fail_replica("r1")
        assert inj.replica_failed("r1")
        for pid in (0, 1, 5):
            with pytest.raises(InjectedFault) as e:
                inj.on_read("r1", pid)
            assert e.value.scope == "replica"
            assert e.value.replica_name == "r1"
        inj.on_read("r2", 0)  # other replicas unaffected

    def test_heal_replica(self):
        inj = FaultInjector()
        inj.fail_replica("r1")
        inj.heal_replica("r1")
        assert not inj.replica_failed("r1")
        inj.on_read("r1", 0)

    def test_persistent_partition_fault_survives_retries(self):
        inj = FaultInjector()
        inj.fail_partition("r1", 3)
        for _ in range(5):
            with pytest.raises(InjectedFault) as e:
                inj.on_read("r1", 3)
            assert e.value.scope == "partition"
            assert e.value.partition_id == 3
        inj.on_read("r1", 4)  # neighbours unaffected

    def test_transient_fault_consumes_budget(self):
        inj = FaultInjector()
        inj.fail_partition("r1", 0, times=2)
        with pytest.raises(InjectedFault):
            inj.on_read("r1", 0)
        with pytest.raises(InjectedFault):
            inj.on_read("r1", 0)
        inj.on_read("r1", 0)  # budget spent: the retry succeeds

    def test_heal_partition_overrides_rate_faults(self):
        inj = FaultInjector(seed=1, partition_fail_rate=1.0)
        with pytest.raises(InjectedFault):
            inj.on_read("r1", 0)
        inj.heal_partition("r1", 0)
        inj.on_read("r1", 0)
        assert not inj.partition_failed("r1", 0)

    def test_rate_faults_deterministic_per_seed(self):
        a = FaultInjector(seed=42, partition_fail_rate=0.3)
        b = FaultInjector(seed=42, partition_fail_rate=0.3)
        c = FaultInjector(seed=43, partition_fail_rate=0.3)
        units_a = a.failed_units("r", 200)
        assert units_a == b.failed_units("r", 200)
        assert 0 < len(units_a) < 200
        assert units_a != c.failed_units("r", 200)

    def test_rate_bounds(self):
        assert FaultInjector(partition_fail_rate=0.0).failed_units("r", 50) == []
        assert FaultInjector(
            partition_fail_rate=1.0).failed_units("r", 50) == list(range(50))

    def test_partition_failed_does_not_consume_transient_budget(self):
        inj = FaultInjector()
        inj.fail_partition("r1", 0, times=1)
        assert inj.partition_failed("r1", 0)
        assert inj.partition_failed("r1", 0)
        with pytest.raises(InjectedFault):
            inj.on_read("r1", 0)

    def test_clear_drops_schedule_keeps_counters(self):
        inj = FaultInjector()
        inj.fail_replica("r1")
        with pytest.raises(InjectedFault):
            inj.on_read("r1", 0)
        inj.clear()
        inj.on_read("r1", 0)
        s = inj.stats()
        assert s.faults_injected == 1
        assert s.reads_checked == 2

    def test_slow_reads_counted(self):
        inj = FaultInjector()
        inj.slow_replica("r1", 0.001)
        inj.on_read("r1", 0)
        inj.on_read("r2", 0)
        assert inj.stats().reads_slowed == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultInjector(partition_fail_rate=1.5)
        with pytest.raises(ValueError):
            FaultInjector(slow_seconds=-1)
        inj = FaultInjector()
        with pytest.raises(ValueError):
            inj.fail_partition("r", 0, times=0)
        with pytest.raises(ValueError):
            inj.slow_replica("r", -0.1)


class TestExceptionVocabulary:
    def test_partition_read_error_wraps_cause(self):
        cause = InjectedFault("r1", 4, scope="partition")
        err = PartitionReadError("r1", 4, cause, attempts=3)
        assert err.replica_name == "r1"
        assert err.partition_id == 4
        assert err.cause is cause
        assert not err.replica_failed
        assert "3 attempt" in str(err)

    def test_replica_failed_property(self):
        down = PartitionReadError("r1", 0, InjectedFault("r1", scope="replica"))
        assert down.replica_failed
        real = PartitionReadError("r1", 0, KeyError("unit"))
        assert not real.replica_failed

    def test_degraded_read_error_lists_attempts(self):
        attempts = (
            ("a", RuntimeError("down")),
            ("b", RuntimeError("also down")),
        )
        err = DegradedReadError("query failed", attempts)
        assert err.attempts == attempts
        assert "a: down" in str(err)
        assert "b: also down" in str(err)
