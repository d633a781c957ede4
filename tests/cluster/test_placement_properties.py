"""Property tests for placement + recovery invariants.

Under random placements and arbitrary node-failure sequences, recovery
must either restore everything or report exactly the units whose regions
were lost in *every* replica — and never corrupt the surviving data.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterPlacement
from repro.data import synthetic_shanghai_taxis
from repro.encoding import encoding_scheme_by_name
from repro.partition import CompositeScheme, KdTreePartitioner
from repro.storage import InMemoryStore, build_replica
from repro.storage.recovery import recover_dataset


@pytest.fixture(scope="module")
def ds():
    return synthetic_shanghai_taxis(2500, seed=157, num_taxis=10)


def fresh_replicas(ds):
    a = build_replica(ds, CompositeScheme(KdTreePartitioner(8), 2),
                      encoding_scheme_by_name("ROW-PLAIN"), InMemoryStore(),
                      name="a")
    b = build_replica(ds, CompositeScheme(KdTreePartitioner(4), 4),
                      encoding_scheme_by_name("COL-GZIP"), InMemoryStore(),
                      name="b")
    return a, b


class TestPlacementRecoveryProperties:
    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n_nodes=st.integers(2, 6),
        policy=st.sampled_from(["spread", "random", "anti-affinity"]),
        victim=st.integers(0, 5),
    )
    def test_single_failure_then_recover_all(self, ds, seed, n_nodes,
                                             policy, victim):
        """After ONE node failure, recover_all restores everything that is
        recoverable, and whatever it restores is bit-faithful."""
        a, b = fresh_replicas(ds)
        placement = ClusterPlacement(n_nodes, rng=np.random.default_rng(seed))
        placement.add_replica(a, policy=policy)
        placement.add_replica(b, policy=policy)
        node = victim % n_nodes
        report = placement.fail_node(node)
        restored, plan = placement.recover_all(report)
        if plan.is_complete:
            # Full recovery: both logical views intact and identical.
            assert recover_dataset(a) == recover_dataset(b)
            assert len(recover_dataset(a)) == len(ds)
        else:
            # Unrecoverable units must be genuinely doubly-lost: for each,
            # no other replica can currently serve its box.
            for lost in plan.unrecoverable:
                replica = placement.replica(lost.replica_name)
                from repro.geometry import Box3
                box = Box3(*replica.partitioning.box_array[lost.partition_id])
                others = [placement.replica(n)
                          for n in ("a", "b") if n != lost.replica_name]
                for other in others:
                    readable = True
                    for pid in other.involved_partitions(box):
                        key = other.unit_keys[int(pid)]
                        if key is None:
                            continue
                        try:
                            other.store.get(key)
                        except KeyError:
                            readable = False
                            break
                    assert not readable

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_zone_isolation_always_fully_recovers(self, ds, seed):
        """With replicas in disjoint zones, any single node failure is
        always fully recoverable."""
        a, b = fresh_replicas(ds)
        placement = ClusterPlacement(4, rng=np.random.default_rng(seed))
        placement.add_replica(a, nodes=[0, 1])
        placement.add_replica(b, nodes=[2, 3])
        node = int(np.random.default_rng(seed).integers(4))
        report = placement.fail_node(node)
        restored, plan = placement.recover_all(report)
        assert plan.is_complete
        assert recover_dataset(a) == recover_dataset(b)
        assert len(recover_dataset(a)) == len(ds)
