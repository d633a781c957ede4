"""Tests for the query log the reselection controller mines
(:class:`repro.core.reselect.QueryLogger`; the controller itself is
covered in ``test_reselect.py``).  The file keeps its name so the test
ids stay stable."""

import numpy as np
import pytest

from repro.core import QueryLogger
from repro.data import synthetic_shanghai_taxis
from repro.workload import Query


@pytest.fixture(scope="module")
def universe():
    return synthetic_shanghai_taxis(5000, seed=67,
                                    num_taxis=16).bounding_box()


def queries_of_fraction(universe, frac, n, rng):
    out = []
    for _ in range(n):
        w, h, t = universe.width * frac, universe.height * frac, universe.duration * frac
        out.append(Query(
            w, h, t,
            rng.uniform(universe.x_min + w / 2, universe.x_max - w / 2),
            rng.uniform(universe.y_min + h / 2, universe.y_max - h / 2),
            rng.uniform(universe.t_min + t / 2, universe.t_max - t / 2),
        ))
    return out


class TestQueryLogger:
    def test_empty_log_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            QueryLogger().to_workload()

    def test_grouping_by_extent(self, universe):
        log = QueryLogger()
        rng = np.random.default_rng(0)
        for q in queries_of_fraction(universe, 0.1, 5, rng):
            log.record(q)
        for q in queries_of_fraction(universe, 0.4, 3, rng):
            log.record(q)
        w = log.to_workload()
        assert len(w) == 2
        assert sorted(w.weights()) == [3.0, 5.0]

    def test_clustering_caps_size(self, universe):
        log = QueryLogger()
        rng = np.random.default_rng(1)
        for i in range(40):
            frac = 0.01 * (i + 1)
            log.record(queries_of_fraction(universe, frac, 1, rng)[0])
        w = log.to_workload(max_grouped_queries=8, rng=np.random.default_rng(2))
        assert len(w) == 8
        assert w.total_weight() == pytest.approx(40.0)

    def test_clear(self, universe):
        log = QueryLogger()
        log.record(queries_of_fraction(universe, 0.1, 1,
                                       np.random.default_rng(0))[0])
        assert len(log) == 1
        log.clear()
        assert len(log) == 0

    def test_capacity_validation(self):
        with pytest.raises(ValueError, match="capacity"):
            QueryLogger(capacity=0)

    def test_bounded_ring_buffer_evicts_oldest(self):
        log = QueryLogger(capacity=4)
        queries = [Query(0.1 * (i + 1), 0.1, 0.1, 0.5, 0.5, 0.5)
                   for i in range(6)]
        for q in queries:
            log.record(q)
        # Pre-fix the log grew without bound; now it retains the newest
        # `capacity` queries and counts what it dropped.
        assert len(log) == 4
        assert log.queries() == queries[2:]
        assert log.recorded == 6
        assert log.evicted == 2

    def test_clear_does_not_count_as_eviction(self):
        log = QueryLogger(capacity=2)
        for i in range(3):
            log.record(Query(0.1 * (i + 1), 0.1, 0.1, 0.5, 0.5, 0.5))
        assert log.evicted == 1
        log.clear()
        assert log.evicted == 1
        assert len(log) == 0

    def test_concurrent_record_is_safe_and_bounded(self):
        """Pre-fix failure: concurrent `record()` from the workload
        thread pool grew an unbounded list with no synchronization.
        With the lock + ring buffer, every record is accounted for:
        length caps at `capacity` and recorded - evicted == retained."""
        import threading

        capacity, n_threads, per_thread = 128, 8, 500
        log = QueryLogger(capacity=capacity)
        barrier = threading.Barrier(n_threads)

        def hammer(tid):
            barrier.wait()
            for i in range(per_thread):
                log.record(Query(0.01 * (tid + 1), 0.01, 0.01,
                                 0.5, 0.5, 0.001 * i))
                if i % 17 == 0:
                    log.queries()  # concurrent snapshot reads
                    len(log)

        threads = [threading.Thread(target=hammer, args=(t,))
                   for t in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        total = n_threads * per_thread
        assert len(log) == capacity
        assert log.recorded == total
        assert log.evicted == total - capacity
        assert len(log.queries()) == capacity
