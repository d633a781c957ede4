"""Tests for continuous ingestion (delta buffer + compaction, WAL
durability, background compaction, windowed rollover, anti-entropy)."""

import glob
import os
import sys
import threading

import numpy as np
import pytest

from repro.data import Dataset, synthetic_shanghai_taxis
from repro.encoding import encoding_scheme_by_name
from repro.geometry import Box3
from repro.partition import CompositeScheme, KdTreePartitioner
from repro.storage.ingest import IngestingBlotStore, ReplicaSpec
from repro.storage.wal import WriteAheadLog
from repro.verify.oracle import canonical, datasets_identical
from repro.workload.query import Query, Workload


@pytest.fixture(scope="module")
def stream():
    """One dataset split into an initial load plus 4 ingest batches."""
    full = synthetic_shanghai_taxis(6000, seed=127, num_taxis=16)
    initial = full.take(np.arange(0, 3000))
    batches = [full.take(np.arange(3000 + i * 750, 3000 + (i + 1) * 750))
               for i in range(4)]
    return full, initial, batches


def make_store(initial, tmp_path):
    return IngestingBlotStore(initial, [
        ReplicaSpec(CompositeScheme(KdTreePartitioner(8), 4),
                    encoding_scheme_by_name("COL-GZIP"), name="main"),
    ], wal_dir=str(tmp_path / "wal"))


def result_key(records):
    return sorted(zip(records.column("oid").tolist(),
                      records.column("t").tolist()))


def scanned_batches(batches, box, count=False):
    """The buffered batches a read of ``box`` scans, from each batch's
    bounding box: every batch the closed box meets — for the counting
    fold, less those it contains (answered from their length)."""
    return [b for b in batches
            if box.intersects(b.bounding_box())
            and not (count and box.contains_box(b.bounding_box()))]


def random_box(universe, rng, frac=0.4):
    w, h, t = (universe.width * frac, universe.height * frac,
               universe.duration * frac)
    return Box3.from_center_size(
        (rng.uniform(universe.x_min + w / 2, universe.x_max - w / 2),
         rng.uniform(universe.y_min + h / 2, universe.y_max - h / 2),
         rng.uniform(universe.t_min + t / 2, universe.t_max - t / 2)),
        w, h, t,
    )


class TestIngest:
    def test_requires_specs(self, tmp_path, stream):
        _, initial, _ = stream
        with pytest.raises(ValueError):
            IngestingBlotStore(initial, [], wal_dir=str(tmp_path / "wal"))

    def test_durable_and_self_priced_by_construction(self, tmp_path, stream):
        """No in-memory mode and no caller-supplied cost model."""
        _, initial, _ = stream
        with pytest.raises(TypeError):
            IngestingBlotStore(initial, wal_specs())
        with pytest.raises(TypeError):
            IngestingBlotStore(initial, wal_specs(), cost_model=None,
                               wal_dir=str(tmp_path / "wal"))
        with pytest.raises(TypeError):
            IngestingBlotStore.open(str(tmp_path / "wal"), wal_specs(),
                                    cost_model=None)

    def test_appends_visible_immediately(self, tmp_path, stream):
        full, initial, batches = stream
        store = make_store(initial, tmp_path)
        current = initial
        rng = np.random.default_rng(0)
        for batch in batches:
            store.append(batch)
            current = Dataset.concat([current, batch])
            box = random_box(full.bounding_box(), rng)
            got = store.query(box)
            assert result_key(got.records) == result_key(current.filter_box(box))

    def test_len_tracks_appends(self, tmp_path, stream):
        _, initial, batches = stream
        store = make_store(initial, tmp_path)
        assert len(store) == len(initial)
        store.append(batches[0])
        assert len(store) == len(initial) + len(batches[0])
        assert store.buffered_records == len(batches[0])

    def test_empty_append_ignored(self, tmp_path, stream):
        _, initial, _ = stream
        store = make_store(initial, tmp_path)
        store.append(Dataset.empty())
        assert store.buffered_records == 0

    def test_compaction_preserves_queries(self, tmp_path, stream):
        full, initial, batches = stream
        store = make_store(initial, tmp_path)
        for batch in batches:
            store.append(batch)
        before_universe = store.base.universe
        store.compact()
        assert store.buffered_records == 0
        assert len(store.base.dataset) == len(initial) + sum(map(len, batches))
        # Universe may have grown to cover the new records.
        assert store.base.universe.contains_box(before_universe) or \
            store.base.universe == before_universe
        rng = np.random.default_rng(1)
        current = Dataset.concat([initial, *batches])
        for _ in range(5):
            box = random_box(full.bounding_box(), rng)
            got = store.query(box)
            assert result_key(got.records) == result_key(current.filter_box(box))

    def test_compact_noop_when_empty(self, tmp_path, stream):
        _, initial, _ = stream
        store = make_store(initial, tmp_path)
        base_before = store.base
        store.compact()
        assert store.base is base_before

    def test_buffer_scan_accounted(self, tmp_path, stream):
        full, initial, batches = stream
        store = make_store(initial, tmp_path)
        store.append(batches[0])
        box = random_box(full.bounding_box(), np.random.default_rng(2))
        base_scanned = store.base.query(box).stats.records_scanned
        stats = store.query(box).stats
        assert stats.records_scanned == base_scanned + sum(
            map(len, scanned_batches(batches[:1], box)))
        assert stats.total_records == len(store)

    def test_auto_compaction_triggers(self, tmp_path, stream):
        _, initial, batches = stream
        store = IngestingBlotStore(initial, [
            ReplicaSpec(CompositeScheme(KdTreePartitioner(4), 2),
                        encoding_scheme_by_name("ROW-PLAIN")),
        ], wal_dir=str(tmp_path / "wal"), auto_compact_at=1000)
        store.append(batches[0])  # 750 buffered, below threshold
        assert store.compactions == 0
        store.append(batches[1])  # 1500 >= threshold -> compact
        assert store.compactions == 1
        assert store.buffered_records == 0
        assert len(store.base.dataset) == len(initial) + 1500

    def test_auto_compaction_invalid_threshold(self, tmp_path, stream):
        _, initial, _ = stream
        with pytest.raises(ValueError):
            IngestingBlotStore(initial, [
                ReplicaSpec(CompositeScheme(KdTreePartitioner(4), 2),
                            encoding_scheme_by_name("ROW-PLAIN")),
            ], wal_dir=str(tmp_path / "wal"), auto_compact_at=0)

    def test_buffer_time_accounted_separately(self, tmp_path, stream):
        """Satellite regression: the brute-force buffer filter must not
        pollute ``seconds``/``bytes_read`` (Eq. 7 calibration inputs) —
        it is accounted in the dedicated buffer fields instead."""
        full, initial, batches = stream
        store = make_store(initial, tmp_path)
        box = random_box(full.bounding_box(), np.random.default_rng(3))
        clean = store.query(box).stats
        assert clean.buffer_seconds == 0.0
        assert clean.buffer_bytes_scanned == 0
        store.append(batches[0])
        stats = store.query(box).stats
        assert stats.buffer_seconds > 0.0
        assert stats.buffer_bytes_scanned == sum(
            b.binary_size_bytes() for b in scanned_batches(batches[:1], box))
        # bytes_read counts replica unit fetches only, never buffer bytes.
        assert stats.bytes_read <= clean.bytes_read

    def test_out_of_universe_records_found_before_compaction(self, tmp_path, stream):
        """Records beyond the base universe live in the buffer and are
        still queryable; after compaction they are indexed."""
        _, initial, _ = stream
        store = make_store(initial, tmp_path)
        u = store.base.universe
        # A record one day after the base window.
        late = synthetic_shanghai_taxis(50, seed=5, num_taxis=4)
        cols = late.columns
        cols["t"] = cols["t"] + (u.t_max - cols["t"].min()) + 86400.0
        late = Dataset(cols)
        store.append(late)
        probe = Box3(u.x_min, u.x_max, u.y_min, u.y_max,
                     float(late.column("t").min()), float(late.column("t").max()))
        assert len(store.query(probe).records) == len(late.filter_box(probe))
        store.compact()
        assert len(store.query(probe).records) == len(late.filter_box(probe))


def wal_specs():
    return [
        ReplicaSpec(CompositeScheme(KdTreePartitioner(8), 4),
                    encoding_scheme_by_name("COL-GZIP"), name="kd"),
        ReplicaSpec(CompositeScheme(KdTreePartitioner(4), 2),
                    encoding_scheme_by_name("ROW-PLAIN"), name="row"),
    ]


class TestBufferAwareReads:
    """count() and execute_workload() must see buffered records too —
    before this they fell through to the base replicas and silently
    under-counted mid-buffer."""

    def probe_boxes(self, full, n=6):
        rng = np.random.default_rng(17)
        return [random_box(full.bounding_box(), rng) for _ in range(n)]

    def test_count_matches_oracle_mid_buffer(self, tmp_path, stream):
        full, initial, batches = stream
        store = make_store(initial, tmp_path)
        current = initial
        for batch in batches[:2]:
            store.append(batch)
            current = Dataset.concat([current, batch])
        assert store.buffered_records > 0
        for box in self.probe_boxes(full):
            base_scanned = store.base.count(box)[1].records_scanned
            n, stats = store.count(box)
            assert n == current.count_in_box(box)
            scanned = scanned_batches(batches[:2], box, count=True)
            assert stats.records_scanned == base_scanned + sum(
                map(len, scanned))
            assert stats.buffer_bytes_scanned == sum(
                b.binary_size_bytes() for b in scanned)

    def test_execute_workload_matches_query_mid_buffer(self, tmp_path, stream):
        full, initial, batches = stream
        store = make_store(initial, tmp_path)
        current = initial
        for batch in batches[:2]:
            store.append(batch)
            current = Dataset.concat([current, batch])
        workload = [(Query.from_box(box), 1.0)
                    for box in self.probe_boxes(full)]
        result = store.execute_workload(workload)
        assert result.stats.n_queries == len(workload)
        assert result.stats.buffer_seconds > 0.0
        for (q, _), qr in zip(workload, result.results):
            want = canonical(current.filter_box(q.box()))
            assert datasets_identical(canonical(qr.records), want)
            single = store.query(q)
            assert datasets_identical(canonical(single.records), want)

    def test_workload_stats_buffer_separate(self, tmp_path, stream):
        full, initial, batches = stream
        store = make_store(initial, tmp_path)
        workload = [(Query.from_box(box), 1.0)
                    for box in self.probe_boxes(full, 3)]
        clean = store.execute_workload(workload).stats
        store.append(batches[0])
        dirty = store.execute_workload(workload).stats
        scanned = [b for q, _ in workload
                   for b in scanned_batches(batches[:1], q.box())]
        assert clean.buffer_bytes_scanned == 0
        assert dirty.buffer_bytes_scanned == sum(
            b.binary_size_bytes() for b in scanned)
        assert dirty.records_scanned == clean.records_scanned + sum(
            map(len, scanned))

    def test_empty_workload_gets_the_base_empty_result(self, tmp_path, stream):
        _, initial, batches = stream
        store = make_store(initial, tmp_path)
        store.append(batches[0])
        empty = Workload.unweighted([])
        want = store.base.execute_each(empty)
        for run in (store.execute_each, store.execute_workload):
            got = run(empty)
            assert got.results == ()
            assert got.plan.replica_names == want.plan.replica_names
            assert len(got.plan.assignments) == 0
            assert (got.stats.n_queries, got.stats.records_scanned,
                    got.stats.buffer_bytes_scanned) == (0, 0, 0)


class TestBufferBounds:
    """Each buffered batch's exact (x, y, t) bounds decide whether a read
    skips it, takes it whole or filters it — with closed faces, and a
    NaN bound deciding nothing."""

    def test_time_range_missing_every_batch_scans_no_buffer(self, tmp_path, stream):
        full, initial, batches = stream
        store = make_store(initial, tmp_path)
        for batch in batches[:2]:
            store.append(batch)
        current = Dataset.concat([initial, *batches[:2]])
        u = full.bounding_box()
        first = min(float(b.column("t").min()) for b in batches[:2])
        box = Box3(u.x_min, u.x_max, u.y_min, u.y_max,
                   u.t_min, float(np.nextafter(first, -np.inf)))
        want = canonical(current.filter_box(box))
        assert len(want) > 0
        got = store.query(box)
        assert datasets_identical(canonical(got.records), want)
        assert got.stats.buffer_bytes_scanned == 0
        assert got.stats.records_scanned == \
            store.base.query(box).stats.records_scanned
        n, stats = store.count(box)
        assert n == len(want)
        assert stats.buffer_bytes_scanned == 0
        assert stats.records_scanned == \
            store.base.count(box)[1].records_scanned

    def test_nan_coordinate_batch_reads_like_the_oracle(self, tmp_path, stream):
        full, initial, batches = stream
        cols = batches[0].columns
        x = cols["x"].copy()
        x[::97] = np.nan
        cols["x"] = x
        batch = Dataset(cols)
        store = make_store(initial, tmp_path)
        store.append(batch)
        store.append(batches[1])
        current = Dataset.concat([initial, batch, batches[1]])
        # Would contain the batch if its NaN were ignored.
        finite = batch.take(~np.isnan(x)).bounding_box()
        rng = np.random.default_rng(5)
        boxes = [finite, full.bounding_box(),
                 *(random_box(full.bounding_box(), rng) for _ in range(4))]
        for box in boxes:
            want = canonical(current.filter_box(box))
            assert datasets_identical(canonical(store.query(box).records),
                                      want)
            assert store.count(box)[0] == len(want)

    def test_signed_zero_batch_reads_like_the_oracle(self, tmp_path, stream):
        """Faces on ``0.0`` and ``-0.0`` hold both zeros (they compare
        equal), and the records come back bit-equal in arrival order."""
        _, initial, batches = stream
        cols = batches[0].columns
        i = np.arange(len(batches[0]))
        cols["x"] = np.where(i % 2 == 0, -0.0, 0.0)
        cols["y"] = np.where(i % 3 == 0, 0.0, -0.0)
        batch = Dataset(cols)
        store = make_store(initial, tmp_path)
        store.append(batch)
        t = batch.column("t")
        t_lo, t_hi = float(t.min()), float(t.max())
        boxes = [Box3(0.0, 0.0, 0.0, 0.0, t_lo, t_hi),
                 Box3(-0.0, -0.0, -0.0, -0.0, t_lo, t_hi),
                 Box3(-1.0, -0.0, 0.0, 1.0, t_lo, t_lo),
                 Box3(0.0, 1.0, -1.0, -0.0, t_hi, t_hi)]
        for box in boxes:
            want = batch.filter_box(box)  # the base holds nothing at 0, 0
            assert len(want) > 0
            got = store.query(box).records
            assert all(got.column(name).tobytes()
                       == want.column(name).tobytes() for name in cols)
            assert store.count(box)[0] == len(want)


class TestWalDurability:
    def test_fresh_store_snapshots_initial(self, tmp_path, stream):
        _, initial, _ = stream
        store = IngestingBlotStore(initial, wal_specs(),
                                   wal_dir=str(tmp_path / "wal"))
        through, committed = store.wal.snapshot_meta()
        assert through == 0
        assert committed["windows"] == []
        assert committed["base"]["records"] == len(initial)
        # The commit names a replica set, relative to the WAL directory,
        # and any replica of it restores the initial load.
        assert os.path.isdir(tmp_path / "wal" / committed["base"]["dir"])
        assert datasets_identical(canonical(store.base.dataset),
                                  canonical(initial))

    def test_constructing_over_existing_state_refuses(self, tmp_path,
                                                      stream):
        _, initial, _ = stream
        IngestingBlotStore(initial, wal_specs(),
                           wal_dir=str(tmp_path / "wal"))
        with pytest.raises(ValueError, match="open"):
            IngestingBlotStore(initial, wal_specs(),
                               wal_dir=str(tmp_path / "wal"))

    def test_open_without_state_refuses(self, tmp_path):
        with pytest.raises(ValueError, match="no committed snapshot"):
            IngestingBlotStore.open(str(tmp_path / "nothing"), wal_specs())

    def test_reopen_replays_buffer_bit_equal(self, tmp_path, stream):
        full, initial, batches = stream
        store = IngestingBlotStore(initial, wal_specs(),
                                   wal_dir=str(tmp_path / "wal"))
        for batch in batches[:3]:
            store.append(batch)
        del store  # crash: no close, no compaction
        reopened = IngestingBlotStore.open(str(tmp_path / "wal"),
                                           wal_specs())
        current = Dataset.concat([initial, *batches[:3]])
        assert len(reopened) == len(current)
        assert reopened.buffered_records == sum(map(len, batches[:3]))
        rng = np.random.default_rng(23)
        for _ in range(5):
            box = random_box(full.bounding_box(), rng)
            got = canonical(reopened.query(box).records)
            assert datasets_identical(got,
                                      canonical(current.filter_box(box)))

    def test_compaction_snapshot_survives_reopen(self, tmp_path, stream):
        _, initial, batches = stream
        store = IngestingBlotStore(initial, wal_specs(),
                                   wal_dir=str(tmp_path / "wal"))
        store.append(batches[0])
        store.compact()
        store.append(batches[1])  # post-snapshot batch, buffer only
        del store
        reopened = IngestingBlotStore.open(str(tmp_path / "wal"),
                                           wal_specs())
        assert len(reopened.base.dataset) == len(initial) + len(batches[0])
        assert reopened.buffered_records == len(batches[1])

    def test_failed_compaction_keeps_wal_segments(self, tmp_path, stream):
        """The frozen batches' segments must survive a failed rebuild —
        the snapshot that would have GC'd them never commits."""
        _, initial, batches = stream

        class ExplodingScheme:
            name = "exploding"

            def __init__(self):
                self._inner = CompositeScheme(KdTreePartitioner(4), 2)
                self._builds = 0

            def build(self, *args, **kwargs):
                self._builds += 1
                if self._builds > 1:
                    raise RuntimeError("boom")
                return self._inner.build(*args, **kwargs)

        spec = ReplicaSpec(ExplodingScheme(),
                           encoding_scheme_by_name("ROW-PLAIN"), name="x")
        store = IngestingBlotStore(initial, [spec],
                                   wal_dir=str(tmp_path / "wal"))
        store.append(batches[0])
        with pytest.raises(RuntimeError, match="boom"):
            store.compact()
        assert store.buffered_records == len(batches[0])
        assert store.compaction_failures == 1
        del store
        reopened = IngestingBlotStore.open(str(tmp_path / "wal"), wal_specs())
        assert reopened.buffered_records == len(batches[0])


def model_rows(model):
    """A cost model's rows in the ``snapshot.json`` form."""
    return [[name, model.params_for(name).scan_rate,
             model.params_for(name).extra_time]
            for name in model.encoding_names]


class TestMeasuredCostRows:
    """A multi-replica store routes with Eq. 6 rows timed from the units
    it writes and commits them with its snapshot; ``open()`` reads them
    back instead of timing anything."""

    def test_open_routes_with_the_committed_rows(self, tmp_path, stream,
                                                 monkeypatch):
        _, initial, _ = stream
        wal_dir = str(tmp_path / "wal")
        store = IngestingBlotStore(initial, wal_specs(), wal_dir=wal_dir)
        rows = store.wal.snapshot_meta()[1]["cost_params"]
        assert [name for name, _, _ in rows] == ["COL-GZIP", "ROW-PLAIN"]
        assert model_rows(store.base.cost_model) == rows
        store.close()

        def no_timing(replicas):
            raise AssertionError("open() timed storage units")

        monkeypatch.setattr("repro.storage.ingest.measure_cost_params",
                            no_timing)
        reopened = IngestingBlotStore.open(wal_dir, wal_specs())
        try:
            assert model_rows(reopened.base.cost_model) == rows
        finally:
            reopened.close()

    def test_snapshot_without_rows_is_measured_once_then_committed(
            self, tmp_path, stream, monkeypatch):
        from repro.costmodel.calibrate import measure_cost_params

        _, initial, batches = stream
        wal_dir = str(tmp_path / "wal")
        IngestingBlotStore(initial, wal_specs(), wal_dir=wal_dir).close()
        # What a version that did not measure committed: no rows.
        wal = WriteAheadLog(wal_dir)
        through, committed = wal.snapshot_meta()
        del committed["cost_params"]
        wal.snapshot(through, extra=committed)
        wal.close()

        timed = []

        def counting(replicas):
            timed.append(replicas)
            return measure_cost_params(replicas)

        monkeypatch.setattr("repro.storage.ingest.measure_cost_params",
                            counting)
        reopened = IngestingBlotStore.open(wal_dir, wal_specs())
        try:
            assert len(timed) == 1
            assert all(r is reopened.base.replica(r.name) for r in timed[0])
            rows = model_rows(reopened.base.cost_model)
            assert [name for name, _, _ in rows] == ["COL-GZIP", "ROW-PLAIN"]
            reopened.append(batches[0])
            reopened.compact()
            assert len(timed) == 1  # a covered encoding is never re-timed
            assert reopened.wal.snapshot_meta()[1]["cost_params"] == rows
        finally:
            reopened.close()


class TestBackgroundCompaction:
    def test_threshold_triggers_worker(self, tmp_path, stream):
        full, initial, batches = stream
        store = IngestingBlotStore(
            initial, wal_specs(), auto_compact_at=1000,
            wal_dir=str(tmp_path / "wal"), background_compaction=True)
        for batch in batches:
            store.append(batch)
        store.wait_for_compaction()
        assert store.compactions >= 1
        assert store.compaction_failures == 0
        # Every appended record is either folded or still buffered.
        assert len(store) == len(initial) + sum(map(len, batches))
        current = Dataset.concat([initial, *batches])
        rng = np.random.default_rng(29)
        for _ in range(5):
            box = random_box(full.bounding_box(), rng)
            got = canonical(store.query(box).records)
            assert datasets_identical(got,
                                      canonical(current.filter_box(box)))
        store.close()

    def test_failed_background_rebuild_recorded_not_raised(self, tmp_path,
                                                           stream):
        _, initial, batches = stream

        class ExplodingScheme:
            name = "exploding"

            def __init__(self):
                self._inner = CompositeScheme(KdTreePartitioner(4), 2)
                self._builds = 0

            def build(self, *args, **kwargs):
                self._builds += 1
                if self._builds > 1:
                    raise RuntimeError("bg boom")
                return self._inner.build(*args, **kwargs)

        spec = ReplicaSpec(ExplodingScheme(),
                           encoding_scheme_by_name("ROW-PLAIN"), name="x")
        store = IngestingBlotStore(
            initial, [spec], wal_dir=str(tmp_path / "wal"),
            auto_compact_at=500, background_compaction=True)
        base_before = store.base
        store.append(batches[0])  # crosses the threshold
        store.wait_for_compaction()
        assert store.compactions == 0
        assert store.compaction_failures >= 1
        assert "bg boom" in store.last_compaction_error
        # Serving set untouched, buffer intact: zero loss.
        assert store.base is base_before
        assert store.buffered_records == len(batches[0])

    def test_reads_during_background_compaction(self, tmp_path, stream):
        """Queries issued while the worker rebuilds must answer
        consistently from either the old or the new serving set."""
        full, initial, batches = stream
        store = IngestingBlotStore(initial, wal_specs(),
                                   wal_dir=str(tmp_path / "wal"),
                                   auto_compact_at=750,
                                   background_compaction=True)
        current = initial
        rng = np.random.default_rng(31)
        for batch in batches:
            store.append(batch)
            current = Dataset.concat([current, batch])
            box = random_box(full.bounding_box(), rng)
            got = canonical(store.query(box).records)
            assert datasets_identical(got,
                                      canonical(current.filter_box(box)))
        store.wait_for_compaction()
        assert store.compactions >= 1


#: Bound on every cross-thread wait below: generous for a loaded box,
#: finite so a reader that does block fails the test instead of hanging.
WAIT_S = 20.0


class TestPublishedState:
    """The serving state is one immutable record swapped by reference:
    a reader takes no lock, and every state ever installed holds exactly
    the acknowledged records."""

    def test_query_does_not_wait_on_an_append_inside_the_wal(
            self, tmp_path, stream, monkeypatch):
        full, initial, batches = stream
        store = IngestingBlotStore(initial, wal_specs(),
                                   wal_dir=str(tmp_path / "wal"))
        box = full.bounding_box()
        in_wal, release = threading.Event(), threading.Event()
        wal_append = WriteAheadLog.append

        def parked_append(wal, dataset):
            in_wal.set()
            assert release.wait(WAIT_S)
            return wal_append(wal, dataset)

        monkeypatch.setattr(WriteAheadLog, "append", parked_append)
        writer = threading.Thread(target=store.append, args=(batches[0],))
        answers = []
        reader = threading.Thread(
            target=lambda: answers.append(store.query(box)), daemon=True)
        writer.start()
        try:
            assert in_wal.wait(WAIT_S)
            reader.start()
            reader.join(WAIT_S)
            assert not reader.is_alive(), \
                "query() waited on an append parked inside the WAL write"
            # Not yet durable, so not yet visible: the pre-append answer.
            assert writer.is_alive()
            assert datasets_identical(canonical(answers[0].records),
                                      canonical(initial))
            assert len(store) == len(initial)
        finally:
            release.set()
            writer.join(WAIT_S)
        assert not writer.is_alive()
        got = canonical(store.query(box).records)
        assert datasets_identical(
            got, canonical(Dataset.concat([initial, batches[0]])))
        store.close()

    def test_every_installed_state_holds_exactly_the_acknowledged_records(
            self, tmp_path, stream):
        """The sweep over installed states: appends -> freeze (fold
        paused) -> an append during the fold -> swap -> a fold that
        raises -> a fold that succeeds, checked at *every* install."""
        full, initial, _ = stream
        rest = full.take(np.arange(len(initial), len(full)))
        batches = [rest.take(np.arange(i * 500, (i + 1) * 500))
                   for i in range(6)]
        t = full.column("t")
        store = IngestingBlotStore(
            initial, wal_specs(), wal_dir=str(tmp_path / "wal"),
            auto_compact_at=900, background_compaction=True,
            window_seconds=float(t.max() - t.min()) / 4)

        sent = [initial]     # acknowledged, or inside append() right now
        installed = []       # (len(delta), frozen) per install, in order
        violations = []      # collected: the worker swallows exceptions
        install = store._install

        def checked_install(state):
            held = Dataset.concat(
                [*(layer.store.dataset for layer in state.layers),
                 *state.delta])
            if not datasets_identical(canonical(held),
                                      canonical(Dataset.concat(sent))):
                violations.append((len(installed), "records"))
            if not 0 <= state.frozen <= len(state.delta):
                violations.append((len(installed), "frozen"))
            installed.append((len(state.delta), state.frozen))
            install(state)

        fold = {"mode": "pass"}
        paused, resume = threading.Event(), threading.Event()
        write_layer = store._write_layer

        def scripted_write_layer(*args, **kwargs):
            if fold["mode"] == "raise":
                raise RuntimeError("fold boom")
            if fold["mode"] == "pause":
                fold["mode"] = "pass"  # the fold's later layers run on
                paused.set()
                assert resume.wait(WAIT_S)
            return write_layer(*args, **kwargs)

        store._install = checked_install
        store._write_layer = scripted_write_layer

        def append(batch):
            sent.append(batch)
            store.append(batch)

        def fold_finished():
            store.wait_for_compaction(WAIT_S)
            assert not store._bg_thread.is_alive()

        fold["mode"] = "pause"
        append(batches[0])
        append(batches[1])               # crosses the threshold: freeze
        assert paused.wait(WAIT_S)
        append(batches[2])               # lands behind the frozen batches
        resume.set()
        fold_finished()                  # swap
        assert (store.compactions, store.compaction_failures) == (1, 0)
        assert len(store.windows) >= 1
        fold["mode"] = "raise"
        append(batches[3])               # freeze, fold raises, un-freeze
        fold_finished()
        assert (store.compactions, store.compaction_failures) == (1, 1)
        fold["mode"] = "pass"
        append(batches[4])               # freeze, swap
        fold_finished()
        assert (store.compactions, store.compaction_failures) == (2, 1)
        append(batches[5])

        assert installed == [
            (1, 0), (2, 0),              # b0, b1
            (2, 2), (3, 2), (1, 0),      # freeze, b2 beside the fold, swap
            (2, 0), (2, 2), (2, 0),      # b3, freeze, failed fold
            (3, 0), (3, 3), (0, 0),      # b4, freeze, swap
            (1, 0),                      # b5
        ]
        assert violations == []
        store.close()

    def test_racing_appends_and_folds_lose_nothing(self, tmp_path, stream):
        """Stress: more writers than cores, a short switch interval, and
        an unsynced WAL, so no fsync paces them.  A lost update on the
        published state — append x append, or append x freeze/swap —
        drops or doubles records (it does, in most runs, with the
        writers' mutex taken out)."""
        full, initial, _ = stream
        rest = full.take(np.arange(len(initial), len(full)))
        batches = [rest.take(np.arange(i * 10, (i + 1) * 10))
                   for i in range(len(rest) // 10)]
        store = IngestingBlotStore(initial, wal_specs(),
                                   wal_dir=str(tmp_path / "wal"),
                                   auto_compact_at=400,
                                   background_compaction=True)
        n_writers = 8

        def writer(k):
            for batch in batches[k::n_writers]:
                store.append(batch)

        writers = [threading.Thread(target=writer, args=(k,))
                   for k in range(n_writers)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in writers:
                thread.start()
            for thread in writers:
                thread.join(WAIT_S)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in writers)
        store.wait_for_compaction(WAIT_S)
        assert store.compactions >= 1 and store.compaction_failures == 0
        assert len(store) == len(full)
        assert datasets_identical(canonical(store.dataset()),
                                  canonical(full))
        store.close()


class TestWindowedRollover:
    def windowed_store(self, tmp_path, initial, window):
        return IngestingBlotStore(initial, wal_specs(),
                                  wal_dir=str(tmp_path / "wal"),
                                  window_seconds=window)

    def test_compaction_seals_old_windows(self, tmp_path, stream):
        full, initial, batches = stream
        t = full.column("t")
        window = float(t.max() - t.min()) / 4
        store = self.windowed_store(tmp_path, initial, window)
        for batch in batches:
            store.append(batch)
        store.compact()
        assert len(store.windows) >= 1
        for w in store.windows:
            assert w.t_hi - w.t_lo == pytest.approx(window)
            assert os.path.isdir(w.root)
            stored_t = w.store.dataset.column("t")
            assert stored_t.min() >= w.t_lo
            assert stored_t.max() < w.t_hi
        # The open window keeps only the newest span.
        active_t = store.base.dataset.column("t")
        assert float(active_t.min()) >= max(w.t_hi for w in store.windows)
        # Logical dataset is preserved across the split.
        total = sum(w.records for w in store.windows) + \
            len(store.base.dataset)
        assert total == len(initial) + sum(map(len, batches))

    def test_queries_merge_windows_base_and_buffer(self, tmp_path, stream):
        full, initial, batches = stream
        t = full.column("t")
        window = float(t.max() - t.min()) / 4
        store = self.windowed_store(tmp_path, initial, window)
        for batch in batches[:3]:
            store.append(batch)
        store.compact()
        store.append(batches[3])  # stays buffered
        current = Dataset.concat([initial, *batches])
        rng = np.random.default_rng(37)
        for _ in range(6):
            box = random_box(full.bounding_box(), rng)
            got = canonical(store.query(box).records)
            assert datasets_identical(got,
                                      canonical(current.filter_box(box)))
            n, _ = store.count(box)
            assert n == current.count_in_box(box)

    def test_windows_hydrate_on_reopen(self, tmp_path, stream):
        full, initial, batches = stream
        t = full.column("t")
        window = float(t.max() - t.min()) / 4
        store = self.windowed_store(tmp_path, initial, window)
        for batch in batches:
            store.append(batch)
        store.compact()
        n_windows = len(store.windows)
        assert n_windows >= 1
        del store
        reopened = IngestingBlotStore.open(str(tmp_path / "wal"),
                                           wal_specs(),
                                           window_seconds=window)
        assert len(reopened.windows) == n_windows
        current = Dataset.concat([initial, *batches])
        box = full.bounding_box()
        got = canonical(reopened.query(box).records)
        assert datasets_identical(got, canonical(current.filter_box(box)))

    def test_orphan_window_dirs_removed_at_open(self, tmp_path, stream):
        _, initial, batches = stream
        store = self.windowed_store(tmp_path, initial, 600.0)
        store.append(batches[0])
        store.compact()
        committed = {w.root for w in store.windows}
        orphan = os.path.join(str(tmp_path / "wal"), "windows",
                              "window-000099")
        os.makedirs(orphan)
        del store
        reopened = IngestingBlotStore.open(str(tmp_path / "wal"),
                                           wal_specs(),
                                           window_seconds=600.0)
        assert not os.path.exists(orphan)
        assert {w.root for w in reopened.windows} == committed


def layer_dirs(wal_dir):
    """Replica-set directories present under a WAL directory, relative."""
    return sorted(
        os.path.join(parent, name)
        for parent in ("base", "windows")
        if os.path.isdir(os.path.join(wal_dir, parent))
        for name in os.listdir(os.path.join(wal_dir, parent)))


def committed_dirs(store):
    _, committed = store.wal.snapshot_meta()
    return sorted(d["dir"] for d in
                  [committed["base"], *committed["windows"]])


class TestOneOnDiskShape:
    """The base is a replica set on disk like every sealed window, and
    ``open()`` is manifests + replay."""

    def windowed(self, wal_dir, stream, n_appended=3):
        full, initial, batches = stream
        t = full.column("t")
        store = IngestingBlotStore(
            initial, wal_specs(), wal_dir=str(wal_dir),
            window_seconds=float(t.max() - t.min()) / 4)
        for batch in batches[:n_appended]:
            store.append(batch)
        store.compact()
        return store

    def assert_answers(self, store, current, universe, seed):
        assert len(store) == len(current)
        rng = np.random.default_rng(seed)
        for box in [universe] + [random_box(universe, rng) for _ in range(4)]:
            got = canonical(store.query(box).records)
            assert datasets_identical(got,
                                      canonical(current.filter_box(box)))
            assert store.count(box)[0] == current.count_in_box(box)

    def test_open_builds_nothing(self, tmp_path, stream, monkeypatch):
        full, initial, batches = stream
        store = self.windowed(tmp_path / "wal", stream)
        assert len(store.windows) >= 2
        store.append(batches[3])  # the WAL tail
        del store  # crash

        def refuse(*args, **kwargs):
            raise AssertionError("open() must not build a replica")

        with monkeypatch.context() as patched:
            patched.setattr("repro.storage.replica.build_replica", refuse)
            patched.setattr("repro.storage.engine.build_replica", refuse)
            patched.setattr(CompositeScheme, "build", refuse)
            reopened = IngestingBlotStore.open(str(tmp_path / "wal"),
                                               wal_specs())
        assert reopened.buffered_records == len(batches[3])
        self.assert_answers(reopened, full, full.bounding_box(), seed=41)
        reopened.close()

    def test_closed_directory_holds_one_shape(self, tmp_path, stream):
        _, _, batches = stream
        wal_dir = str(tmp_path / "wal")
        store = self.windowed(wal_dir, stream)
        store.append(batches[3])
        store.compact()  # supersedes a second base
        store.close()
        assert sorted(os.listdir(wal_dir)) == [
            "base", "snapshot.json", "windows"]  # tail folded: no segment
        assert layer_dirs(wal_dir) == committed_dirs(store)
        assert len(os.listdir(os.path.join(wal_dir, "base"))) == 1
        assert not glob.glob(os.path.join(wal_dir, "**", "*.npz"),
                             recursive=True)

    def test_moved_wal_directory_reopens(self, tmp_path, stream,
                                         monkeypatch):
        full, _, batches = stream
        monkeypatch.chdir(tmp_path)
        store = self.windowed("a", stream)  # a relative spelling
        assert len(store.windows) >= 2
        store.append(batches[3])
        del store
        os.rename("a", "b")
        reopened = IngestingBlotStore.open("b", wal_specs())
        # The orphan collector ran at open() and took nothing committed.
        assert layer_dirs("b") == committed_dirs(reopened)
        assert len(reopened.windows) >= 2
        self.assert_answers(reopened, full, full.bounding_box(), seed=43)
        # ... nor does it from another working directory.
        reopened.close()
        monkeypatch.chdir(tmp_path / "b")
        again = IngestingBlotStore.open(str(tmp_path / "b"), wal_specs())
        self.assert_answers(again, full, full.bounding_box(), seed=43)
        again.close()

    def test_superseded_base_outlives_its_readers(self, tmp_path, stream):
        _, initial, batches = stream
        wal_dir = str(tmp_path / "wal")
        store = IngestingBlotStore(initial, wal_specs(), wal_dir=wal_dir)
        # A reader snapshots the serving state, has read nothing yet ...
        old_base = store._state.layers[-1]
        store.append(batches[0])
        store.compact()  # ... and the swap happens under it.
        assert store.base is not old_base.store
        assert os.path.isdir(old_base.root)
        box = initial.bounding_box()
        got = canonical(old_base.store.query(box).records)  # every unit
        assert datasets_identical(got, canonical(initial))
        # The next compaction (as close() and open() would) collects it.
        store.append(batches[1])
        store.compact()
        assert not os.path.exists(old_base.root)
        store.close()  # ... and close() the one that compaction superseded
        assert layer_dirs(wal_dir) == committed_dirs(store)

    def test_read_in_flight_holds_its_base_across_compactions(
            self, tmp_path, stream, monkeypatch):
        # However fast compactions come, a read that took its state
        # before them keeps its base until it is done.
        _, initial, batches = stream
        store = IngestingBlotStore(initial, wal_specs(),
                                   wal_dir=str(tmp_path / "wal"))
        old_base = store._state.layers[-1]
        started, go = threading.Event(), threading.Event()
        execute = old_base.store._execute

        def paused(*args, **kwargs):
            started.set()
            go.wait(30)
            return execute(*args, **kwargs)

        monkeypatch.setattr(old_base.store, "_execute", paused)
        box = initial.bounding_box()
        got = []
        reader = threading.Thread(
            target=lambda: got.append(store.query(box).records))
        reader.start()
        assert started.wait(30)
        for batch in batches[:2]:
            store.append(batch)
            store.compact()  # the second collects what the first superseded
        assert os.path.isdir(old_base.root)
        go.set()
        reader.join(30)
        assert datasets_identical(canonical(got[0]),
                                  canonical(initial.filter_box(box)))
        store.compact()  # nothing buffered: it only collects
        assert not os.path.exists(old_base.root)
        store.close()

    def test_specs_given_to_open_apply_from_next_compaction(self, tmp_path,
                                                            stream):
        full, initial, batches = stream
        store = IngestingBlotStore(initial, wal_specs(),
                                   wal_dir=str(tmp_path / "wal"))
        del store
        other = [ReplicaSpec(CompositeScheme(KdTreePartitioner(4), 2),
                             encoding_scheme_by_name("COL-GZIP"), name="new")]
        reopened = IngestingBlotStore.open(str(tmp_path / "wal"), other)
        assert reopened.base.replica_names() == ["kd", "row"]
        reopened.append(batches[0])
        reopened.compact()
        assert reopened.base.replica_names() == ["new"]
        current = Dataset.concat([initial, batches[0]])
        self.assert_answers(reopened, current, full.bounding_box(), seed=47)

    def test_pre_change_directory_refused(self, tmp_path):
        from repro.storage.wal import WalError

        os.makedirs(tmp_path / "wal")
        with open(tmp_path / "wal" / "snapshot.json", "w") as f:
            f.write('{"file": "snapshot-00000000.npz", "records": 10, '
                    '"through_segment": 0, "extra": {"windows": []}}')
        with pytest.raises(WalError, match="format"):
            IngestingBlotStore.open(str(tmp_path / "wal"), wal_specs())


class TestAntiEntropy:
    def sealed_store(self, tmp_path, stream):
        full, initial, batches = stream
        t = full.column("t")
        window = float(t.max() - t.min()) / 3
        store = IngestingBlotStore(initial, wal_specs(),
                                   wal_dir=str(tmp_path / "wal"),
                                   window_seconds=window)
        for batch in batches:
            store.append(batch)
        store.compact()
        assert len(store.windows) >= 1
        return store

    def test_sweep_passes_on_healthy_windows(self, tmp_path, stream):
        store = self.sealed_store(tmp_path, stream)
        reports = store.anti_entropy()
        assert len(reports) == len(store.windows) + 1  # ... and the base
        assert all(r.ok for r in reports)

    def corrupt_a_unit(self, layer_root):
        unit_files = glob.glob(os.path.join(layer_root, "units", "**", "*"),
                               recursive=True)
        victim = next(p for p in unit_files
                      if os.path.isfile(p) and os.path.getsize(p) > 8)
        with open(victim, "r+b") as f:
            f.seek(4)
            f.write(b"\xde\xad\xbe\xef")

    def test_sweep_catches_corrupted_unit(self, tmp_path, stream):
        store = self.sealed_store(tmp_path, stream)
        self.corrupt_a_unit(store.windows[0].root)
        reports = store.anti_entropy()
        assert not all(r.ok for r in reports)

    def test_sweep_catches_corrupted_base_unit(self, tmp_path, stream):
        """The base has the windows' on-disk shape and holds the newest
        data: the sweep covers it, last."""
        store = self.sealed_store(tmp_path, stream)
        base = store.wal.snapshot_meta()[1]["base"]["dir"]
        self.corrupt_a_unit(os.path.join(store.wal.dir, base))
        reports = store.anti_entropy()
        assert [r.ok for r in reports] == [True] * len(store.windows) + [False]
