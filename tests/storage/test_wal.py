"""Write-ahead log unit tests: framing, torn tails, snapshot commit."""

import json
import os
import struct

import numpy as np
import pytest

from repro.data import synthetic_shanghai_taxis
from repro.obs import MetricsRegistry
from repro.storage.wal import (
    KIND_APPEND,
    WalError,
    WriteAheadLog,
    wal_state_exists,
)
from repro.verify.oracle import datasets_identical

_HEADER = struct.Struct("<II")


@pytest.fixture(scope="module")
def batches():
    full = synthetic_shanghai_taxis(900, seed=41, num_taxis=8)
    return [full.take(np.arange(i * 300, (i + 1) * 300)) for i in range(3)]


def only_segment_path(wal):
    ids = wal.segment_ids()
    assert len(ids) == 1
    return os.path.join(wal.dir, f"wal-{ids[0]:08d}.log")


class TestFraming:
    def test_append_replay_bit_equal(self, tmp_path, batches):
        wal = WriteAheadLog(tmp_path / "wal")
        for b in batches:
            wal.append(b)
        wal.close()
        replayed = WriteAheadLog(tmp_path / "wal").replay()
        assert len(replayed) == len(batches)
        for got, want in zip(replayed, batches):
            assert datasets_identical(got, want)

    def test_append_returns_frame_size(self, tmp_path, batches):
        wal = WriteAheadLog(tmp_path / "wal")
        n = wal.append(batches[0])
        assert n == os.path.getsize(only_segment_path(wal))

    def test_state_exists(self, tmp_path, batches):
        assert not wal_state_exists(tmp_path / "nothing")
        wal = WriteAheadLog(tmp_path / "wal")
        assert not wal_state_exists(wal.dir)  # directory alone is no state
        wal.append(batches[0])
        assert wal_state_exists(wal.dir)

    def test_reopen_never_appends_onto_old_segment(self, tmp_path, batches):
        wal = WriteAheadLog(tmp_path / "wal")
        wal.append(batches[0])
        first = wal.current_segment
        wal.close()
        again = WriteAheadLog(tmp_path / "wal")
        again.append(batches[1])
        assert again.current_segment == first + 1
        assert len(again.segment_ids()) == 2


class TestTornTails:
    def seal_count(self, registry):
        return sum(c["value"] for c in registry.snapshot()["counters"]
                   if c["name"] == "repro_wal_torn_tails_total")

    def test_truncated_final_frame_sealed(self, tmp_path, batches):
        wal = WriteAheadLog(tmp_path / "wal")
        for b in batches:
            wal.append(b)
        wal.close()
        path = only_segment_path(wal)
        size = os.path.getsize(path)
        with open(path, "r+b") as f:
            f.truncate(size - 7)  # tear inside the last frame's body
        metrics = MetricsRegistry()
        replayed = WriteAheadLog(tmp_path / "wal",
                                 metrics=metrics).replay()
        assert len(replayed) == len(batches) - 1
        for got, want in zip(replayed, batches):
            assert datasets_identical(got, want)
        assert self.seal_count(metrics) == 1
        # Sealing truncated the file back to the intact frame boundary,
        # so a second replay is clean.
        assert os.path.getsize(path) < size
        assert len(WriteAheadLog(tmp_path / "wal").replay()) == \
            len(batches) - 1

    def test_corrupt_crc_truncates_from_bad_frame(self, tmp_path, batches):
        wal = WriteAheadLog(tmp_path / "wal")
        sizes = [wal.append(b) for b in batches]
        wal.close()
        path = only_segment_path(wal)
        # Flip one body byte of the SECOND frame: frames cannot be
        # re-synchronized past a bad one, so the third is lost too.
        offset = sizes[0] + _HEADER.size + 10
        with open(path, "r+b") as f:
            f.seek(offset)
            byte = f.read(1)
            f.seek(offset)
            f.write(bytes([byte[0] ^ 0xFF]))
        replayed = WriteAheadLog(tmp_path / "wal").replay()
        assert len(replayed) == 1
        assert datasets_identical(replayed[0], batches[0])

    def test_garbage_length_field_is_torn_not_alloc(self, tmp_path, batches):
        wal = WriteAheadLog(tmp_path / "wal")
        wal.append(batches[0])
        wal.close()
        path = only_segment_path(wal)
        with open(path, "ab") as f:
            f.write(_HEADER.pack(0xFFFFFFFF, 0) + b"junk")
        replayed = WriteAheadLog(tmp_path / "wal").replay()
        assert len(replayed) == 1

    def test_intact_crc_bad_payload_raises_wal_error(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal")
        body = bytes([KIND_APPEND]) + b"this is not an npz archive"
        import zlib
        frame = _HEADER.pack(len(body), zlib.crc32(body)) + body
        with open(os.path.join(wal.dir, "wal-00000005.log"), "wb") as f:
            f.write(frame)
        with pytest.raises(WalError, match="failed to decode"):
            WriteAheadLog(tmp_path / "wal").replay()


    def test_intact_crc_other_kind_raises_wal_error(self, tmp_path, batches):
        """A frame of a kind this version does not write — kind 1 was
        the ``.npz`` frame — is refused by name, never skipped: skipping
        would drop an acknowledged batch."""
        import zlib
        wal = WriteAheadLog(tmp_path / "wal")
        wal.append(batches[0])
        wal.close()
        body = bytes([1]) + b"PK\x03\x04 an earlier version's npz payload"
        with open(only_segment_path(wal), "ab") as f:
            f.write(_HEADER.pack(len(body), zlib.crc32(body)) + body)
        with pytest.raises(WalError, match="kind 1"):
            WriteAheadLog(tmp_path / "wal").replay()


class TestSnapshot:
    def test_rotate_snapshot_gc_cycle(self, tmp_path, batches):
        wal = WriteAheadLog(tmp_path / "wal")
        wal.append(batches[0])
        wal.append(batches[1])
        sealed = wal.rotate()
        wal.append(batches[2])  # lands in the next segment, not folded
        wal.snapshot(through_segment=sealed, extra={"windows": [{"k": 1}]})
        # Folded segments are gone; the live one survives.
        assert wal.segment_ids() == [sealed + 1]
        through, extra = wal.snapshot_meta()
        assert through == sealed
        assert extra == {"windows": [{"k": 1}]}
        replayed = wal.replay()
        assert len(replayed) == 1
        assert datasets_identical(replayed[0], batches[2])
        # The commit is JSON only: the log keeps records inside frames.
        assert sorted(os.listdir(wal.dir)) == [
            "snapshot.json", f"wal-{sealed + 1:08d}.log"]

    def test_pre_change_format_refused(self, tmp_path, batches):
        """A directory whose ``snapshot.json`` names a raw ``.npz``
        payload (format 1) is refused by name, not half-read."""
        wal = WriteAheadLog(tmp_path / "wal")
        with open(os.path.join(wal.dir, "snapshot.json"), "w",
                  encoding="utf-8") as f:
            json.dump({"file": "snapshot-00000001.npz", "records": 300,
                       "through_segment": 1, "extra": {}}, f)
        with pytest.raises(WalError, match="format 1"):
            wal.snapshot_meta()

    def test_no_snapshot_meta_is_empty(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal")
        assert wal.snapshot_meta() == (0, {})
