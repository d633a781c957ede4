"""The post-migration ExecOptions surface.

The deprecated bare ``parallelism=`` keyword shim is gone: the engine's
entry points accept execution knobs only through ``options=ExecOptions``
(and the old spelling fails like any unknown keyword).  These tests pin
that down, plus the properties the serving tier now leans on —
validation at construction and clean pickling across a process
boundary.
"""

import pickle
import warnings

import pytest

from repro.data import synthetic_shanghai_taxis
from repro.encoding import encoding_scheme_by_name
from repro.partition import GridPartitioner
from repro.storage import BlotStore, InMemoryStore, ExecOptions
from repro.storage.options import DEFAULT_EXEC_OPTIONS
from repro.workload import Workload


@pytest.fixture(scope="module")
def store():
    ds = synthetic_shanghai_taxis(800, seed=11)
    s = BlotStore(ds)
    s.add_replica(GridPartitioner(2, 2),
                  encoding_scheme_by_name("ROW-PLAIN"),
                  InMemoryStore(), name="grid")
    return s


class TestShimRemoved:
    def test_query_rejects_bare_parallelism(self, store):
        with pytest.raises(TypeError):
            store.query(store.universe, parallelism=2)

    def test_count_rejects_bare_parallelism(self, store):
        with pytest.raises(TypeError):
            store.count(store.universe, parallelism=2)

    def test_execute_workload_rejects_bare_parallelism(self, store):
        from repro.workload.query import Query

        q = Query.from_box(store.universe)
        with pytest.raises(TypeError):
            store.execute_workload(Workload.unweighted([q]), parallelism=2)

    def test_resolve_helper_is_gone(self):
        import repro.storage.options as options

        assert not hasattr(options, "resolve_exec_options")

    def test_options_spelling_emits_no_warnings(self, store):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            store.query(store.universe, options=ExecOptions(retries=1))


class TestExecOptionsSurface:
    def test_defaults(self):
        assert DEFAULT_EXEC_OPTIONS == ExecOptions()
        assert DEFAULT_EXEC_OPTIONS.failover is True
        assert DEFAULT_EXEC_OPTIONS.repair is True

    def test_validation_at_construction(self):
        with pytest.raises(ValueError, match="retries"):
            ExecOptions(retries=-1)

    def test_pickle_round_trip(self):
        opts = ExecOptions(use_cache=False, retries=1, failover=False,
                           repair=False, trace=True)
        clone = pickle.loads(pickle.dumps(opts))
        assert clone == opts

    def test_default_options_hold_only_plain_data(self):
        # Every field is a plain value, so the default instance crosses
        # a spawn boundary as-is.
        assert [f for f in ExecOptions.__dataclass_fields__] == [
            "use_cache", "retries", "failover", "repair", "trace",
            "trace_context"]
        assert pickle.loads(pickle.dumps(DEFAULT_EXEC_OPTIONS)) \
            == DEFAULT_EXEC_OPTIONS
