"""Shared fixtures: one materialized two-replica store on disk.

Everything in this package serves queries against the same durable
store layout a deployment would use — ``materialize_store`` writes the
dataset (lossless ``.npz``), the replica units and manifests under a
session tmp dir, and the tests hydrate fresh engines / shard servers
from the returned :class:`~repro.storage.StoreConfig`.
"""

import pytest

from repro.data import synthetic_shanghai_taxis
from repro.drills import single_process_answers
from repro.encoding import encoding_scheme_by_name
from repro.partition import CompositeScheme, GridPartitioner, KdTreePartitioner
from repro.serve import FleetSpec
from repro.storage import materialize_store
from tests.conftest import FIXED_COST_PARAMS


@pytest.fixture(scope="session")
def dataset():
    return synthetic_shanghai_taxis(3000, seed=13, num_taxis=24)


@pytest.fixture(scope="session")
def config(dataset, tmp_path_factory):
    root = tmp_path_factory.mktemp("served-store")
    return materialize_store(
        dataset,
        [
            (GridPartitioner(4, 4),
             encoding_scheme_by_name("ROW-PLAIN"), "grid-plain"),
            (CompositeScheme(KdTreePartitioner(8), 4),
             encoding_scheme_by_name("COL-GZIP"), "kd-gzip"),
        ],
        str(root),
        # Which replica is primary decides every failover count below.
        cost_params=FIXED_COST_PARAMS,
    )


@pytest.fixture(scope="session")
def referee(config):
    """``repro serve --verify``'s referee: the fleet's queries and the
    single-process canonical answer per query."""
    return single_process_answers(config, FleetSpec(n_queries=24, seed=5))


@pytest.fixture(scope="session")
def queries(referee):
    return referee[0]


@pytest.fixture(scope="session")
def baseline(referee):
    """The bit-equality referee every sharded deployment must match."""
    return referee[1]
