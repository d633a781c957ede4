"""Boundary regression tests: records sitting *exactly* on query faces,
partition edges and the ingest compaction cut must be returned exactly
once by every read path.

The headline regression: ``Query.from_box(box).box()`` reconstructs the
box from its centre and extents, which moves faces by one ulp for ~17%
of random boxes — so the engine used to scan a *different* box than the
caller passed, and records lying exactly on a face flipped in or out.
The engine now threads the caller's exact ``Box3`` through to the scan.
"""

import numpy as np
import pytest

from repro.data import Dataset, synthetic_shanghai_taxis
from repro.data.record import FIELDS
from repro.encoding import encoding_scheme_by_name
from repro.geometry import Box3
from repro.partition import CompositeScheme, KdTreePartitioner
from repro.storage import BlotStore, InMemoryStore
from repro.storage.ingest import IngestingBlotStore, ReplicaSpec
from repro.storage.options import ExecOptions
from repro.verify import datasets_identical, diff_results, oracle_answer
from repro.workload import Query

_PINNED = ExecOptions(failover=False, repair=False, use_cache=False)


def make_dataset(x, y, t):
    """Dataset with the given coordinates; other columns enumerate the
    records so duplicates are distinguishable."""
    n = len(x)
    cols = {}
    for f in FIELDS:
        cols[f.name] = np.zeros(n, dtype=f.dtype)
    cols["x"] = np.asarray(x, dtype=np.float64)
    cols["y"] = np.asarray(y, dtype=np.float64)
    cols["t"] = np.asarray(t, dtype=np.float64)
    cols["oid"] = np.arange(n, dtype=np.int32)
    return Dataset(cols)


def find_drifting_box(seed=12):
    """Deterministically search for a box whose Query round-trip pulls
    the x_max face inward (the reconstruction is centre +- extent/2)."""
    rng = np.random.default_rng(seed)
    for _ in range(100_000):
        lo = rng.uniform(-90.0, 90.0, size=3)
        span = rng.uniform(0.1, 40.0, size=3)
        box = Box3(lo[0], lo[0] + span[0], lo[1], lo[1] + span[1],
                   lo[2], lo[2] + span[2])
        back = Query.from_box(box).box()
        if back.x_max < box.x_max:
            return box
    raise AssertionError("no drifting box found — widen the search")


def build_store(ds, leaves=4, enc="ROW-PLAIN"):
    store = BlotStore(ds)
    store.add_replica(CompositeScheme(KdTreePartitioner(leaves), 2),
                      encoding_scheme_by_name(enc), InMemoryStore())
    return store


class TestExactQueryBounds:
    def test_box_roundtrip_drift_exists(self):
        """The hazard is real: Query.from_box is not the identity on
        faces (otherwise these tests would be vacuous)."""
        box = find_drifting_box()
        assert Query.from_box(box).box() != box

    def test_record_on_drifting_face_is_returned(self):
        """Regression: a record exactly on x_max of a box whose Query
        round-trip pulls that face inward used to vanish from query()."""
        box = find_drifting_box()
        inside_y = (box.y_min + box.y_max) / 2
        inside_t = (box.t_min + box.t_max) / 2
        ds = make_dataset(
            x=[box.x_max, box.x_min, (box.x_min + box.x_max) / 2,
               box.x_max + 1.0],
            y=[inside_y] * 4,
            t=[inside_t] * 4,
        )
        assert ds.count_in_box(box) == 3  # the oracle keeps the face record
        store = build_store(ds)
        result = store.query(box, options=_PINNED)
        assert datasets_identical(result.records, oracle_answer(ds, box)), \
            "record pinned to the query face was dropped or duplicated"
        n, _ = store.count(box, options=_PINNED)
        assert n == 3

    def test_ingest_store_uses_exact_bounds_too(self, tmp_path):
        box = find_drifting_box()
        inside_y = (box.y_min + box.y_max) / 2
        inside_t = (box.t_min + box.t_max) / 2
        base = make_dataset([box.x_max, box.x_min], [inside_y] * 2,
                            [inside_t] * 2)
        tail = make_dataset([box.x_max], [inside_y], [box.t_max])
        spec = ReplicaSpec(CompositeScheme(KdTreePartitioner(2), 1),
                           encoding_scheme_by_name("ROW-PLAIN"), name="ing")
        store = IngestingBlotStore(base, [spec], wal_dir=str(tmp_path))
        store.append(tail)
        full = Dataset.concat([base, tail])
        result = store.query(box, replica="ing")
        assert datasets_identical(result.records, oracle_answer(full, box))


class TestPartitionEdges:
    @pytest.mark.parametrize("leaves", [4, 16])
    def test_records_on_internal_faces_exactly_once(self, leaves):
        """Plant records exactly on every internal partition face (x, y
        and t): the universe query and every partition-box query must
        return each exactly once — no half-open double count, no gap."""
        base = synthetic_shanghai_taxis(600, seed=9, num_taxis=6)
        probe = build_store(base, leaves=leaves)
        name = probe.replica_names()[0]
        boxes = probe.replica(name).partitioning.boxes()
        u = base.bounding_box()
        xs, ys, ts = [], [], []
        for b in boxes:
            if b.x_min > u.x_min:
                xs.append(b.x_min)
            if b.y_min > u.y_min:
                ys.append(b.y_min)
            if b.t_min > u.t_min:
                ts.append(b.t_min)
        assert xs or ys or ts, "no internal faces — partitioning degenerate"
        cy, ct = u.centroid.y, u.centroid.t
        pinned = make_dataset(
            x=xs + [u.centroid.x] * (len(ys) + len(ts)),
            y=[cy] * len(xs) + ys + [cy] * len(ts),
            t=[ct] * (len(xs) + len(ys)) + ts,
        )
        ds = Dataset.concat([base, pinned])
        store = build_store(ds, leaves=leaves)
        rep = store.replica_names()[0]
        queries = [ds.bounding_box()]
        queries.extend(store.replica(rep).partitioning.boxes())
        for box in queries:
            result = store.query(box, replica=rep, options=_PINNED)
            diff = diff_results(oracle_answer(ds, box), result.records)
            assert diff is None, f"{box}: {diff.describe()}"


class TestIngestBoundary:
    def test_duplicate_timestamps_at_compaction_cut(self, tmp_path):
        """Records sharing the exact cut timestamp live in both base and
        buffer; merged reads must return each exactly once, before and
        after compaction."""
        cut_t = 1000.0
        base = make_dataset(x=[0.0, 1.0, 2.0], y=[0.0, 1.0, 2.0],
                            t=[0.0, 500.0, cut_t])
        tail = make_dataset(x=[3.0, 4.0], y=[3.0, 4.0],
                            t=[cut_t, cut_t])
        spec = ReplicaSpec(CompositeScheme(KdTreePartitioner(2), 1),
                           encoding_scheme_by_name("COL-SNAPPY"), name="ing")
        store = IngestingBlotStore(base, [spec], wal_dir=str(tmp_path))
        store.append(tail)
        full = Dataset.concat([base, tail])
        pin = Box3(-10.0, 10.0, -10.0, 10.0, cut_t, cut_t)
        for phase in ("buffered", "compacted"):
            got = store.query(pin, replica="ing").records
            diff = diff_results(oracle_answer(full, pin), got)
            assert diff is None, f"{phase}: {diff.describe()}"
            if phase == "buffered":
                store.compact()

    def test_compact_failure_loses_no_records(self, tmp_path):
        """Regression: compact() used to clear the buffer *before*
        rebuilding the base, so a failing replica build dropped every
        buffered record.  Now the store keeps serving base + buffer."""

        class ExplodingScheme:
            """Delegates the first build (initial base), raises after."""

            name = "exploding"

            def __init__(self):
                self._inner = CompositeScheme(KdTreePartitioner(2), 1)
                self._builds = 0

            def build(self, *args, **kwargs):
                self._builds += 1
                if self._builds > 1:
                    raise RuntimeError("simulated build failure")
                return self._inner.build(*args, **kwargs)

        base = make_dataset(x=[0.0, 1.0], y=[0.0, 1.0], t=[0.0, 1.0])
        tail = make_dataset(x=[2.0], y=[2.0], t=[2.0])
        spec = ReplicaSpec(ExplodingScheme(),
                          encoding_scheme_by_name("ROW-PLAIN"), name="ing")
        store = IngestingBlotStore(base, [spec], wal_dir=str(tmp_path))
        store.append(tail)
        with pytest.raises(RuntimeError, match="simulated build failure"):
            store.compact()
        assert len(store) == 3
        assert store.buffered_records == 1  # buffer intact, nothing lost
        full = Dataset.concat([base, tail])
        box = full.bounding_box()
        got = store.query(box, replica="ing").records
        assert datasets_identical(got, oracle_answer(full, box))
