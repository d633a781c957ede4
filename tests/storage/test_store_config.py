"""The process-safe store API: StoreConfig pickling, hydration
bit-equality, and the no-live-handles rule.

The serving tier's whole correctness story starts here: a store is
described by plain data, crosses a ``spawn`` boundary as a few hundred
bytes, and every process hydrating the same config answers every query
bit-identically.
"""

import dataclasses
import pickle

import numpy as np
import pytest

from repro.data import Dataset, synthetic_shanghai_taxis
from repro.encoding import encoding_scheme_by_name
from repro.geometry import Box3
from repro.partition import CompositeScheme, GridPartitioner, KdTreePartitioner
from repro.storage import (
    BlotStore,
    FaultSpec,
    ReplicaRef,
    StoreConfig,
    hydrate_store,
    materialize_store,
    open_store,
)
from repro.storage.unit import DirectoryStore
from repro.verify.oracle import canonical, datasets_identical
from repro.workload import Query, positioned_random_workload
from tests.conftest import FIXED_COST_PARAMS


@pytest.fixture(scope="module")
def dataset():
    return synthetic_shanghai_taxis(1500, seed=29)


@pytest.fixture(scope="module")
def config(dataset, tmp_path_factory):
    root = tmp_path_factory.mktemp("config-store")
    return materialize_store(
        dataset,
        [
            (GridPartitioner(3, 3),
             encoding_scheme_by_name("ROW-PLAIN"), "grid"),
            (CompositeScheme(KdTreePartitioner(4), 2),
             encoding_scheme_by_name("COL-GZIP"), "kd"),
        ],
        str(root),
        cost_params=FIXED_COST_PARAMS,
    )


class TestPicklability:
    def test_config_pickles_small_and_round_trips(self, config):
        blob = pickle.dumps(config)
        assert len(blob) < 2048  # plain data, not a store
        assert pickle.loads(blob) == config

    def test_blot_store_refuses_to_pickle(self, dataset):
        store = BlotStore(dataset)
        with pytest.raises(TypeError, match="StoreConfig"):
            pickle.dumps(store)

    def test_exec_and_query_types_round_trip(self):
        from repro.storage import ExecOptions

        box = Box3(0.0, 1.0, 0.0, 2.0, 0.0, 3.0)
        query = Query.from_box(box)
        for obj in (box, query, ExecOptions(retries=1),
                    FaultSpec(seed=4, fail_replicas=("grid",))):
            assert pickle.loads(pickle.dumps(obj)) == obj

    def test_directory_store_survives_pickle(self, config):
        store = DirectoryStore(config.replicas[0].store_root)
        keys = sorted(store.keys())
        clone = pickle.loads(pickle.dumps(store))
        assert sorted(clone.keys()) == keys
        assert clone.get(keys[0]) == store.get(keys[0])


class TestHydration:
    def test_two_hydrations_answer_bit_equal(self, config):
        a = hydrate_store(config)
        b = hydrate_store(config)
        try:
            rng = np.random.default_rng(2)
            for q in positioned_random_workload(a.universe, 8, rng).queries():
                ra = canonical(a.query(q).records)
                rb = canonical(b.query(q).records)
                assert datasets_identical(ra, rb)
        finally:
            a.close()
            b.close()

    def test_open_store_accepts_config(self, config):
        store = open_store(config)
        try:
            assert sorted(store.replica_names()) == ["grid", "kd"]
        finally:
            store.close()

    def test_open_store_rejects_config_plus_build_args(self, config):
        with pytest.raises(TypeError, match="StoreConfig"):
            open_store(config, cache_bytes=1024)

    def test_fault_spec_hydrates_deterministically(self, config):
        faulty = dataclasses.replace(
            config, faults=FaultSpec(seed=11, fail_replicas=("grid",),
                                     fail_partitions=(("kd", 0),)))
        a = hydrate_store(faulty)
        b = hydrate_store(faulty)
        try:
            assert a.fault_injector.replica_failed("grid")
            assert b.fault_injector.replica_failed("grid")
            assert a.fault_injector.partition_failed("kd", 0)
        finally:
            a.close()
            b.close()

    def test_replica_ref_kind_validated(self):
        """A ref is a manifest and a unit directory; the ``store_kind``
        option (whose only other value could not be reopened) is gone."""
        with pytest.raises(TypeError, match="store_kind"):
            ReplicaRef(manifest_path="m.json", store_root="units",
                       store_kind="tape")


class TestMaterialize:
    def test_default_cost_params_cover_used_encodings(self, dataset,
                                                       tmp_path):
        """Without ``cost_params`` the rows are measured from the written
        units: one per encoding used, each a valid Eq. 6 pair."""
        config = materialize_store(
            dataset,
            [(GridPartitioner(3, 3), encoding_scheme_by_name("ROW-PLAIN"),
              "grid"),
             (CompositeScheme(KdTreePartitioner(4), 2),
              encoding_scheme_by_name("COL-GZIP"), "kd")],
            str(tmp_path / "store"))
        assert [name for name, _, _ in config.cost_params] == \
            ["COL-GZIP", "ROW-PLAIN"]
        for _, scan_rate, extra_time in config.cost_params:
            assert scan_rate > 0 and extra_time >= 0
        model = config.build_cost_model()
        assert model.encoding_names == ["COL-GZIP", "ROW-PLAIN"]

    def test_measured_rows_route_wide_scans_to_the_faster_decoder(
            self, tmp_path):
        """The hand-written table ranked COL-GZIP (2.5M records/s) above
        ROW-GZIP (2.2M/s); timed, ROW-GZIP decodes faster, and a scan of
        the whole universe — the same units on both replicas, every one
        contained — goes to it."""
        data = synthetic_shanghai_taxis(20_000, seed=7, num_taxis=64)
        scheme = CompositeScheme(KdTreePartitioner(8), 4)
        config = materialize_store(
            data,
            [(scheme, encoding_scheme_by_name("COL-GZIP"), "col"),
             (scheme, encoding_scheme_by_name("ROW-GZIP"), "row")],
            str(tmp_path / "store"))
        rates = {name: rate for name, rate, _ in config.cost_params}
        assert rates["ROW-GZIP"] > rates["COL-GZIP"]
        store = hydrate_store(config)
        try:
            assert store.route(Query.from_box(data.bounding_box())) == "row"
        finally:
            store.close()

    def test_default_replica_names_round_trip(self, dataset, tmp_path):
        """Without a name a replica is called ``<scheme>/<encoding>`` —
        a manifest path one directory deeper, which must exist before
        the manifest is written."""
        config = materialize_store(
            dataset,
            [(GridPartitioner(3, 3), encoding_scheme_by_name("ROW-PLAIN")),
             (CompositeScheme(KdTreePartitioner(4), 2),
              encoding_scheme_by_name("COL-GZIP"))],
            str(tmp_path / "store"))
        store = open_store(config)
        try:
            assert all("/" in name for name in store.replica_names())
            bb = dataset.bounding_box()
            box = Box3(bb.x_min, bb.x_min + bb.width / 2,
                       bb.y_min, bb.y_min + bb.height / 2, bb.t_min, bb.t_max)
            for name in store.replica_names():
                got = store.query(box, replica=name).records
                assert datasets_identical(canonical(got),
                                          canonical(dataset.filter_box(box)))
        finally:
            store.close()

    def test_dataset_npz_round_trip_is_bit_exact(self, dataset, tmp_path):
        path = str(tmp_path / "ds.npz")
        dataset.to_npz(path)
        clone = Dataset.from_npz(path)
        assert datasets_identical(canonical(dataset), canonical(clone))

    def test_cache_bytes_validated(self):
        with pytest.raises(ValueError, match="cache_bytes"):
            StoreConfig(dataset_path="x.npz", cache_bytes=0)
