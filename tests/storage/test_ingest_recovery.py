"""End-to-end crash recovery: SIGKILL a live ingest process mid-batch,
reopen from its WAL directory, and require zero loss of acknowledged
appends plus bit-equal query answers against a never-crashed reference.

The child process streams batches into an :class:`IngestingBlotStore`
and prints ``ACK <i>`` after each :meth:`append` returns (the batch is
then durably framed in the WAL).  The parent kills it with ``SIGKILL``
mid-stream — no atexit, no flush, no cleanup — then additionally tears
the final WAL frame the way a crash mid-``write`` would, and recovers.
"""

import os
import signal
import struct
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.data import synthetic_shanghai_taxis
from repro.encoding import encoding_scheme_by_name
from repro.partition import CompositeScheme, KdTreePartitioner
from repro.storage.ingest import IngestingBlotStore, ReplicaSpec
from repro.verify.oracle import canonical, datasets_identical

_N_RECORDS = 4000
_N_INITIAL = 2000
_BATCH = 100
_SEED = 211

_CHILD = """
import sys
import numpy as np
from repro.data import synthetic_shanghai_taxis
from repro.encoding import encoding_scheme_by_name
from repro.partition import CompositeScheme, KdTreePartitioner
from repro.storage.ingest import IngestingBlotStore, ReplicaSpec

wal_dir = sys.argv[1]
full = synthetic_shanghai_taxis({n}, seed={seed}, num_taxis=12)
initial = full.take(np.arange(0, {initial}))
store = IngestingBlotStore(initial, [
    ReplicaSpec(CompositeScheme(KdTreePartitioner(8), 4),
                encoding_scheme_by_name("COL-GZIP"), name="main"),
], wal_dir=wal_dir)
print("READY", flush=True)
for i, lo in enumerate(range({initial}, {n}, {batch})):
    batch = full.take(np.arange(lo, lo + {batch}))
    store.append(batch)
    print(f"ACK {{i}}", flush=True)
print("DONE", flush=True)
"""


def spawn_and_kill(wal_dir, min_acks=5):
    """Run the child until ``min_acks`` appends are acknowledged, then
    SIGKILL it; returns the acknowledged batch count."""
    src_root = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath(src_root)
    child = subprocess.Popen(
        [sys.executable, "-c",
         _CHILD.format(n=_N_RECORDS, initial=_N_INITIAL, batch=_BATCH,
                       seed=_SEED),
         wal_dir],
        stdout=subprocess.PIPE, env=env, text=True,
    )
    acks = 0
    try:
        deadline = time.monotonic() + 120
        for line in child.stdout:
            if line.startswith("ACK"):
                acks += 1
                if acks >= min_acks:
                    break
            if line.startswith("DONE") or time.monotonic() > deadline:
                break
        # Kill while the stream is live: batches may be mid-append.
        child.kill()
        child.wait(timeout=30)
    finally:
        if child.poll() is None:  # pragma: no cover - cleanup only
            child.kill()
        child.stdout.close()
    assert acks >= min_acks, f"child only acknowledged {acks} batches"
    assert child.returncode == -signal.SIGKILL
    return acks


def tear_final_frame(wal_dir):
    """Append a torn (half-written) frame to the newest WAL segment —
    the exact artifact of a crash mid-``write``."""
    segments = sorted(n for n in os.listdir(wal_dir)
                      if n.startswith("wal-") and n.endswith(".log"))
    assert segments, "child never wrote a WAL segment"
    with open(os.path.join(wal_dir, segments[-1]), "ab") as f:
        f.write(struct.pack("<II", 5000, 0xDEADBEEF) + b"\x01torn")


@pytest.fixture(scope="module")
def crashed_wal(tmp_path_factory):
    wal_dir = str(tmp_path_factory.mktemp("crash") / "wal")
    acks = spawn_and_kill(wal_dir)
    tear_final_frame(wal_dir)
    return wal_dir, acks


def specs():
    return [ReplicaSpec(CompositeScheme(KdTreePartitioner(8), 4),
                        encoding_scheme_by_name("COL-GZIP"), name="main")]


class TestCrashRecovery:
    def test_no_acknowledged_batch_lost(self, crashed_wal):
        wal_dir, acks = crashed_wal
        store = IngestingBlotStore.open(wal_dir, specs())
        recovered = len(store) - _N_INITIAL
        # Everything acknowledged must be back; a batch the kill caught
        # between WAL write and ACK print may legitimately appear too.
        assert recovered >= acks * _BATCH
        assert recovered % _BATCH == 0
        assert store.buffered_records == recovered

    def test_recovered_queries_bit_equal_reference(self, tmp_path,
                                                    crashed_wal):
        """The reopened store answers exactly like a store that ingested
        the same prefix and never crashed."""
        wal_dir, _ = crashed_wal
        store = IngestingBlotStore.open(wal_dir, specs())
        k = (len(store) - _N_INITIAL) // _BATCH

        full = synthetic_shanghai_taxis(_N_RECORDS, seed=_SEED, num_taxis=12)
        initial = full.take(np.arange(0, _N_INITIAL))
        reference = IngestingBlotStore(initial, specs(),
                                       wal_dir=str(tmp_path / "ref"))
        for i in range(k):
            lo = _N_INITIAL + i * _BATCH
            reference.append(full.take(np.arange(lo, lo + _BATCH)))

        assert datasets_identical(canonical(store.dataset()),
                                  canonical(reference.dataset()))
        rng = np.random.default_rng(5)
        universe = reference.dataset().bounding_box()
        for _ in range(8):
            frac = rng.uniform(0.1, 0.6)
            from repro.geometry import Box3
            w, h, d = (universe.width * frac, universe.height * frac,
                       universe.duration * frac)
            box = Box3.from_center_size(
                (rng.uniform(universe.x_min + w / 2, universe.x_max - w / 2),
                 rng.uniform(universe.y_min + h / 2, universe.y_max - h / 2),
                 rng.uniform(universe.t_min + d / 2, universe.t_max - d / 2)),
                w, h, d)
            got = canonical(store.query(box).records)
            want = canonical(reference.query(box).records)
            assert datasets_identical(got, want)

    def test_torn_tail_was_sealed_once(self, crashed_wal):
        """Reopening after the seal leaves a clean log: the second replay
        sees no torn tail at all."""
        wal_dir, _ = crashed_wal
        from repro.obs import MetricsRegistry
        from repro.storage.wal import WriteAheadLog

        IngestingBlotStore.open(wal_dir, specs())  # seals in place
        metrics = MetricsRegistry()
        WriteAheadLog(wal_dir, metrics=metrics).replay()
        torn = sum(c["value"] for c in metrics.snapshot()["counters"]
                   if c["name"] == "repro_wal_torn_tails_total")
        assert torn == 0

    def test_resumed_store_keeps_ingesting_durably(self, crashed_wal):
        """The recovered store is not read-only: it appends, compacts,
        and survives a second reopen."""
        wal_dir, _ = crashed_wal
        store = IngestingBlotStore.open(wal_dir, specs())
        before = len(store)
        extra = synthetic_shanghai_taxis(120, seed=999, num_taxis=4)
        store.append(extra)
        store.compact()
        del store
        again = IngestingBlotStore.open(wal_dir, specs())
        assert len(again) == before + len(extra)
        assert again.buffered_records == 0


class TestDrillResume:
    def test_rerun_over_one_directory_appends_only_the_missing_tail(
            self, tmp_path):
        """``repro ingest --wal-dir D`` run twice: the second run reopens
        the acknowledged prefix and appends nothing it already holds."""
        from repro.drills import run_ingest_drill
        from repro.verify.oracle import oracle_answer, random_boxes

        data = synthetic_shanghai_taxis(1200, seed=5, num_taxis=6)
        data = data.sorted_by_time()
        wal_dir = str(tmp_path / "wal")
        runs = [run_ingest_drill(data, specs(), wal_dir, batch_size=200,
                                 seed=3, auto_compact_at=400)
                for _ in range(2)]
        assert [run.failed_phase for run in runs] == [None, None]
        assert runs[1].resumed is not None
        assert runs[1].summary["records"] == len(data)
        store = IngestingBlotStore.open(wal_dir, specs())
        try:
            assert len(store) == len(data)
            for box in [data.bounding_box(), *random_boxes(data, 4, 3)]:
                assert datasets_identical(
                    canonical(store.query(box).records),
                    canonical(oracle_answer(data, box)))
        finally:
            store.close()
