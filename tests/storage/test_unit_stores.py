"""Tests for the two storage-unit backends."""

from unittest import mock

import pytest

from repro.storage import (
    DirectoryStore,
    DuplicateUnit,
    InMemoryStore,
    UnitNotFound,
)


@pytest.fixture(params=["memory", "directory"])
def store(request, tmp_path):
    if request.param == "memory":
        return InMemoryStore()
    return DirectoryStore(str(tmp_path / "dir"))


class TestUnitStoreContract:
    def test_put_get(self, store):
        store.put("a", b"hello")
        assert store.get("a") == b"hello"

    def test_size(self, store):
        store.put("a", b"12345")
        assert store.size("a") == 5

    def test_missing_key(self, store):
        with pytest.raises(UnitNotFound):
            store.get("nope")
        with pytest.raises(UnitNotFound):
            store.size("nope")

    def test_duplicate_rejected(self, store):
        store.put("a", b"x")
        with pytest.raises(DuplicateUnit):
            store.put("a", b"y")

    def test_keys_and_total(self, store):
        store.put("a", b"xx")
        store.put("b", b"yyy")
        assert sorted(store.keys()) == ["a", "b"]
        assert store.total_bytes() == 5

    def test_nested_keys(self, store):
        store.put("replica/part-000001", b"data")
        assert store.get("replica/part-000001") == b"data"

    def test_empty_blob(self, store):
        store.put("empty", b"")
        assert store.get("empty") == b""
        assert store.size("empty") == 0


class TestDirectoryStoreSpecifics:
    def test_escaping_key_rejected(self, tmp_path):
        store = DirectoryStore(str(tmp_path / "dir"))
        with pytest.raises(ValueError, match="escapes"):
            store.put("../evil", b"x")

    def test_persists_across_instances(self, tmp_path):
        root = str(tmp_path / "dir")
        DirectoryStore(root).put("a", b"persist")
        assert DirectoryStore(root).get("a") == b"persist"

    def test_put_never_overwrites_when_the_check_races(self, tmp_path):
        # A second writer that passed an existence check before the first
        # writer's file appeared must still be refused, not overwrite it.
        store = DirectoryStore(str(tmp_path / "dir"))
        store.put("replica/part-000001", b"first")
        with mock.patch("repro.storage.unit.os.path.exists",
                        return_value=False):
            with pytest.raises(DuplicateUnit):
                store.put("replica/part-000001", b"second")
        assert store.get("replica/part-000001") == b"first"


class TestGetView:
    """Zero-copy reads: get_view must return a read-only memoryview with
    the same bytes as get(), on every backend and edge case."""

    def test_view_matches_get(self, store):
        store.put("a", b"hello world")
        view = store.get_view("a")
        assert isinstance(view, memoryview)
        assert bytes(view) == store.get("a")

    def test_view_of_empty_blob(self, store):
        store.put("empty", b"")
        assert bytes(store.get_view("empty")) == b""

    def test_missing_key(self, store):
        with pytest.raises(UnitNotFound):
            store.get_view("nope")

    def test_views_after_growth(self, store):
        """Views taken before later puts stay valid, and new keys are
        readable."""
        store.put("first", b"0123456789")
        early = store.get_view("first")
        for i in range(5):
            store.put(f"k{i}", bytes([i]) * 1000)
        assert bytes(early) == b"0123456789"
        for i in range(5):
            assert bytes(store.get_view(f"k{i}")) == bytes([i]) * 1000

    def test_view_survives_release_cycle(self, store):
        store.put("a", b"x" * 100)
        v1 = store.get_view("a")
        del v1
        v2 = store.get_view("a")
        assert bytes(v2) == b"x" * 100

    def test_delete_with_outstanding_view(self, store):
        """delete() must succeed even while a caller still holds a view
        (the mmap stays alive until the view is released)."""
        store.put("a", b"abcdef")
        view = store.get_view("a")
        store.delete("a")
        assert bytes(view) == b"abcdef"
        with pytest.raises(UnitNotFound):
            store.get("a")


class TestRunningTotals:
    def test_in_memory_total_tracks_puts_and_deletes(self):
        store = InMemoryStore()
        assert store.total_bytes() == 0
        store.put("a", b"x" * 10)
        store.put("b", b"y" * 7)
        assert store.total_bytes() == 17
        store.delete("a")
        assert store.total_bytes() == 7
        store.delete("b")
        assert store.total_bytes() == 0
