"""Crash-point sweep over the compaction commit path.

A compaction writes new replica-set directories, flushes them, replaces
``snapshot.json`` and GCs the folded WAL segments.  The sweep makes the
*k*-th ``write`` / ``os.fsync`` / ``os.replace`` of that path raise —
the process "dies" there, the store object is abandoned without
``close()`` — and reopens the directory.  Wherever it died:

- every acknowledged record comes back (the previous committed layers
  plus the whole WAL tail, or the new layers when the replace landed);
- every answer is bit-equal to the oracle;
- the directories on disk are exactly the ones ``snapshot.json`` names
  (the half-written ones are collected).
"""

import builtins
import os
import shutil

import numpy as np
import pytest

from repro.data import Dataset, synthetic_shanghai_taxis
from repro.encoding import encoding_scheme_by_name
from repro.partition import CompositeScheme, KdTreePartitioner
from repro.storage.ingest import IngestingBlotStore, ReplicaSpec
from repro.verify.oracle import canonical, datasets_identical
from tests.storage.test_ingest import committed_dirs, layer_dirs

KINDS = ("write", "fsync", "replace")
#: Crash points tried per kind (spread evenly over the path's calls).
MAX_POINTS = 12


class Crash(RuntimeError):
    pass


class CrashInjector:
    """Counts ``write`` / ``os.fsync`` / ``os.replace`` calls while armed
    and raises :class:`Crash` *instead of* the ``at``-th call of
    ``kind``."""

    def __init__(self, monkeypatch):
        self.counts = dict.fromkeys(KINDS, 0)
        self.kind = self.at = None
        self.armed = False
        real_open, real_fsync, real_replace = (
            builtins.open, os.fsync, os.replace)
        injector = self

        class CountingFile:
            def __init__(self, f):
                self._f = f

            def write(self, data):
                injector.hit("write")
                return self._f.write(data)

            def __getattr__(self, name):
                return getattr(self._f, name)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return self._f.__exit__(*exc)

        def counting_open(file, mode="r", *args, **kwargs):
            f = real_open(file, mode, *args, **kwargs)
            return CountingFile(f) if set(mode) & set("wax") else f

        def counting_fsync(fd):
            self.hit("fsync")
            return real_fsync(fd)

        def counting_replace(src, dst, **kwargs):
            self.hit("replace")
            return real_replace(src, dst, **kwargs)

        monkeypatch.setattr(builtins, "open", counting_open)
        monkeypatch.setattr(os, "fsync", counting_fsync)
        monkeypatch.setattr(os, "replace", counting_replace)

    def hit(self, kind):
        if not self.armed:
            return
        self.counts[kind] += 1
        if kind == self.kind and self.counts[kind] == self.at:
            self.armed = False  # the process is dead: nothing after this
            raise Crash(f"{kind} #{self.at}")

    def arm(self, kind=None, at=None):
        self.counts = dict.fromkeys(KINDS, 0)
        self.kind, self.at, self.armed = kind, at, True


def specs():
    return [
        ReplicaSpec(CompositeScheme(KdTreePartitioner(2), 2),
                    encoding_scheme_by_name("COL-GZIP"), name="a"),
        ReplicaSpec(CompositeScheme(KdTreePartitioner(4), 1),
                    encoding_scheme_by_name("ROW-PLAIN"), name="b"),
    ]


@pytest.fixture(scope="module")
def scenario(tmp_path_factory):
    """A committed base + sealed windows with an acknowledged WAL tail
    whose compaction will rewrite the base and seal more windows."""
    full = synthetic_shanghai_taxis(1200, seed=53, num_taxis=6)
    full = full.sorted_by_time()
    parts = [full.take(np.arange(lo, lo + 300)) for lo in range(0, 1200, 300)]
    t = full.column("t")
    window = float(t[-1] - t[0]) / 5
    template = str(tmp_path_factory.mktemp("crashpoints") / "template")
    store = IngestingBlotStore(parts[0], specs(), wal_dir=template,
                               window_seconds=window)
    store.append(parts[1])
    store.compact()
    assert store.windows
    store.append(parts[2])
    store.append(parts[3])
    store.close()
    return full, window, template


def run_point(scenario, work, injector, kind, at):
    """Die at one point of a compaction; returns whether it did."""
    full, window, template = scenario
    shutil.copytree(template, work)
    store = IngestingBlotStore.open(work, specs(), window_seconds=window)
    before = layer_dirs(work)
    injector.arm(kind, at)
    try:
        store.compact()
        died = False
    except Crash:
        died = True
    injector.armed = False
    counts = dict(injector.counts)
    del store  # no close(): the process is gone

    reopened = IngestingBlotStore.open(work, specs(), window_seconds=window)
    assert len(reopened) == len(full), f"lost records at {kind} #{at}"
    box = full.bounding_box()
    assert datasets_identical(canonical(reopened.query(box).records),
                              canonical(full))
    assert reopened.count(box)[0] == len(full)
    named = committed_dirs(reopened)
    assert layer_dirs(work) == named, f"orphans left after {kind} #{at}"
    if named == before:
        # Died before the commit: the tail is still the WAL's to replay.
        assert died and reopened.buffered_records == 600
    reopened.close()
    return died, counts


def test_every_crash_point_recovers(scenario, tmp_path, monkeypatch):
    injector = CrashInjector(monkeypatch)
    died, totals = run_point(scenario, str(tmp_path / "dry"), injector,
                             None, None)
    assert not died
    assert totals["replace"] == 1, "one commit point"
    assert totals["fsync"] > 10 and totals["write"] > 10
    tried = 0
    for kind in KINDS:
        n = totals[kind]
        points = sorted({int(round(x))
                         for x in np.linspace(1, n, min(n, MAX_POINTS))})
        for at in points:
            died, _ = run_point(scenario, str(tmp_path / f"{kind}-{at}"),
                                injector, kind, at)
            assert died, f"{kind} #{at} never reached"
            tried += 1
    assert tried >= 2 * MAX_POINTS


def test_crash_after_commit_keeps_the_new_layers(scenario, tmp_path,
                                                 monkeypatch):
    """The fsync that follows the ``snapshot.json`` replace is past the
    commit point: the in-process store reports a failed compaction, the
    directory already holds the new state, and neither view loses
    anything — in particular the next collection must not delete the
    base the commit record names."""
    full, window, template = scenario
    injector = CrashInjector(monkeypatch)
    _, totals = run_point(scenario, str(tmp_path / "dry"), injector,
                          None, None)
    work = str(tmp_path / "work")
    shutil.copytree(template, work)
    store = IngestingBlotStore.open(work, specs(), window_seconds=window)
    injector.arm("fsync", totals["fsync"])  # the last one: the WAL dir
    with pytest.raises(Crash):
        store.compact()
    assert store.compaction_failures == 1
    extra = synthetic_shanghai_taxis(50, seed=59, num_taxis=2)
    store.append(extra)
    store.compact()  # collects, then folds everything again
    current = Dataset.concat([full, extra])
    assert len(store) == len(current)
    store.close()
    reopened = IngestingBlotStore.open(work, specs(), window_seconds=window)
    assert len(reopened) == len(current)
    box = current.bounding_box()
    assert datasets_identical(canonical(reopened.query(box).records),
                              canonical(current))
    reopened.close()
