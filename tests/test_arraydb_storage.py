"""Unit tests for the chunk store."""

import numpy as np
import pytest

from repro.arraydb.storage import MemoryChunkStore

KEY = ("A", "v", (0, 1))
OTHER = ("A", "v", (1, 1))


@pytest.fixture
def store():
    return MemoryChunkStore()


class TestChunkStore:
    def test_put_get_roundtrip(self, store):
        chunk = np.arange(12.0).reshape(3, 4)
        store.put(KEY, chunk)
        np.testing.assert_array_equal(store.get(KEY), chunk)

    def test_contains(self, store):
        assert KEY not in store
        store.put(KEY, np.zeros(2))
        assert KEY in store

    def test_get_missing_raises(self, store):
        with pytest.raises(KeyError):
            store.get(KEY)

    def test_overwrite(self, store):
        store.put(KEY, np.zeros(3))
        store.put(KEY, np.ones(3))
        np.testing.assert_array_equal(store.get(KEY), np.ones(3))

    def test_delete(self, store):
        store.put(KEY, np.zeros(3))
        store.delete(KEY)
        assert KEY not in store

    def test_delete_missing_raises(self, store):
        with pytest.raises(KeyError):
            store.delete(KEY)

    def test_keys(self, store):
        store.put(KEY, np.zeros(2))
        store.put(OTHER, np.zeros(2))
        assert set(store.keys()) == {KEY, OTHER}

    def test_negative_chunk_coordinates(self, store):
        key = ("A", "v", (-3, 0))
        store.put(key, np.arange(4.0))
        np.testing.assert_array_equal(store.get(key), np.arange(4.0))
        assert ("A", "v", (3, 0)) not in store

    def test_keys_is_a_snapshot(self, store):
        store.put(KEY, np.zeros(2))
        store.put(OTHER, np.zeros(2))
        for key in store.keys():
            store.delete(key)
        assert list(store.keys()) == []

    def test_put_stores_an_array(self, store):
        store.put(KEY, [[1, 2], [3, 4]])
        assert isinstance(store.get(KEY), np.ndarray)
        assert store.get(KEY).shape == (2, 2)

    def test_dtype_preserved(self, store):
        chunk = np.arange(4, dtype="int16")
        store.put(KEY, chunk)
        assert store.get(KEY).dtype == np.dtype("int16")


    def test_put_does_not_alias_the_callers_array(self, store):
        chunk = np.arange(4.0)
        store.put(KEY, chunk)
        chunk[0] = 99.0
        np.testing.assert_array_equal(store.get(KEY), np.arange(4.0))
        assert chunk.flags.writeable

    def test_put_copies_a_read_only_view(self, store):
        base = np.arange(8.0)
        view = base[:4]
        view.flags.writeable = False
        store.put(KEY, view)
        base[0] = 99.0
        np.testing.assert_array_equal(store.get(KEY), np.arange(4.0))
        assert base.flags.writeable

    def test_put_keeps_an_owned_read_only_array(self, store):
        chunk = np.arange(4.0)
        chunk.flags.writeable = False
        store.put(KEY, chunk)
        assert store.get(KEY) is chunk

    def test_stored_chunks_are_read_only(self, store):
        store.put(KEY, np.zeros(3))
        with pytest.raises(ValueError):
            store.get(KEY)[0] = 1.0

    def test_every_change_bumps_the_version(self, store):
        """Each put and delete moves the version; reads never do."""
        assert store.version == 0
        store.put(KEY, np.zeros(2))
        store.put(KEY, np.ones(2))
        store.put(OTHER, np.zeros(2))
        assert store.version == 3
        store.get(KEY), KEY in store, list(store.keys())
        assert store.version == 3
        store.delete(KEY)
        assert store.version == 4
        with pytest.raises(KeyError):
            store.delete(KEY)
        assert store.version == 4
