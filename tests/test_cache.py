"""Unit tests for the LRU, tile cache, and cache manager."""

import numpy as np
import pytest

from repro.cache.lru import LRUCache, ShardedLRUCache
from repro.cache.manager import CacheManager
from repro.cache.tile_cache import TileCache
from repro.tiles.key import TileKey
from repro.tiles.tile import DataTile


def tile(key: TileKey) -> DataTile:
    return DataTile(key=key, attributes={"v": np.zeros((2, 2))})


A, B, C, D = (TileKey(2, i, 0) for i in range(4))


class TestLRUCache:
    def test_put_get(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.hits == 1

    def test_miss_counted(self):
        cache = LRUCache(2)
        assert cache.get("missing") is None
        assert cache.misses == 1

    def test_eviction_order(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        evicted = cache.put("c", 3)
        assert evicted == "a"
        assert "a" not in cache

    def test_get_refreshes_recency(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")
        evicted = cache.put("c", 3)
        assert evicted == "b"

    def test_peek_does_not_refresh(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.peek("a")
        evicted = cache.put("c", 3)
        assert evicted == "a"

    def test_overwrite_no_eviction(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.put("a", 3) is None
        assert cache.get("a") == 3

    def test_keys_order(self):
        cache = LRUCache(3)
        for key in "abc":
            cache.put(key, key)
        cache.get("a")
        assert cache.keys() == ["b", "c", "a"]

    def test_hit_rate(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.get("a")
        cache.get("b")
        assert cache.hit_rate == pytest.approx(0.5)

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            LRUCache(0)


class TestTileCache:
    def test_lookup_both_regions(self):
        cache = TileCache(recent_capacity=2, prefetch_capacity=2)
        cache.record_request(tile(A))
        cache.store_prefetched(tile(B), "m")
        assert cache.lookup(A) is not None
        assert cache.lookup(B) is not None
        assert cache.lookup(C) is None

    def test_prefetch_capacity_enforced(self):
        cache = TileCache(prefetch_capacity=2)
        assert cache.store_prefetched(tile(A), "m")
        assert cache.store_prefetched(tile(B), "m")
        assert not cache.store_prefetched(tile(C), "m")
        assert C not in cache

    def test_begin_cycle_clears_prefetch_only(self):
        cache = TileCache(recent_capacity=2, prefetch_capacity=2)
        cache.record_request(tile(A))
        cache.store_prefetched(tile(B), "m")
        assert cache.begin_prefetch_cycle([]) == {}
        assert cache.lookup(B) is None
        assert cache.lookup(A) is not None

    def test_attribution(self):
        cache = TileCache()
        cache.store_prefetched(tile(A), "markov3")
        cache.store_prefetched(tile(B), "sb:sift")
        assert cache.attribution(A) == "markov3"
        assert cache.model_usage() == {"markov3": 1, "sb:sift": 1}

    def test_nbytes_counts_both_regions(self):
        cache = TileCache()
        cache.record_request(tile(A))
        cache.store_prefetched(tile(B), "m")
        assert cache.nbytes() == 2 * tile(A).nbytes

    def test_nbytes_counts_a_key_in_both_regions_once(self):
        cache = TileCache()
        cache.record_request(tile(A))
        assert cache.begin_prefetch_cycle([(A, "m")]) == {A: "m"}
        assert cache.claim_prefetched(A, "m") is not None
        assert A in cache.prefetched_keys and A in cache.recent_keys
        assert cache.nbytes() == tile(A).nbytes

    def test_clear(self):
        cache = TileCache()
        cache.record_request(tile(A))
        cache.store_prefetched(tile(B), "m")
        cache.clear()
        assert cache.lookup(A) is None
        assert cache.lookup(B) is None

    def test_rejects_zero_prefetch(self):
        with pytest.raises(ValueError):
            TileCache(prefetch_capacity=0)


class TestCacheManager:
    @pytest.fixture
    def manager(self, small_dataset):
        return CacheManager(small_dataset.pyramid, TileCache())

    def test_rejects_a_negative_backend_delay(self, small_dataset):
        with pytest.raises(ValueError, match="backend delay must be >= 0"):
            CacheManager(small_dataset.pyramid, TileCache(), backend_delay_seconds=-0.001)

    def test_first_fetch_misses(self, manager):
        outcome = manager.fetch(TileKey(0, 0, 0))
        assert not outcome.hit
        assert outcome.backend_seconds > 0
        assert manager.hit_rate == 0.0

    def test_repeat_fetch_hits_recent(self, manager):
        key = TileKey(1, 0, 0)
        manager.fetch(key)
        outcome = manager.fetch(key)
        assert outcome.hit
        assert outcome.backend_seconds == 0.0
        assert manager.hit_rate == pytest.approx(0.5)

    def test_prefetched_tile_hits(self, manager):
        key = TileKey(1, 1, 0)
        queries = manager.prefetch([(key, "m")])
        assert queries == 1
        outcome = manager.fetch(key)
        assert outcome.hit

    def test_prefetch_skips_resident(self, manager):
        key = TileKey(1, 1, 1)
        manager.fetch(key)  # now in recent region
        queries = manager.prefetch([(key, "m")])
        assert queries == 0
        # Still claims a prefetch slot for bookkeeping.
        assert key in manager.cache.prefetched_keys

    def test_prefetch_respects_capacity(self, small_dataset):
        manager = CacheManager(
            small_dataset.pyramid, TileCache(prefetch_capacity=2)
        )
        keys = [(TileKey(2, i, 0), "m") for i in range(4)]
        manager.prefetch(keys)
        assert len(manager.cache.prefetched_keys) == 2

    def test_reset_stats(self, manager):
        manager.fetch(TileKey(0, 0, 0))
        manager.reset_stats()
        assert manager.requests == 0
        assert manager.hits == 0


class TestPromoteOnHit:
    """A requested tile lives in exactly one region: serving it from
    the prefetch region moves it to the recent LRU and frees the slot."""

    @pytest.fixture
    def manager(self, small_dataset):
        return CacheManager(small_dataset.pyramid, TileCache())

    def test_hit_from_prefetch_region_promotes(self, manager):
        key = TileKey(1, 1, 0)
        manager.prefetch([(key, "m")])
        assert key in manager.cache.prefetched_keys
        outcome = manager.fetch(key)
        assert outcome.hit
        assert key not in manager.cache.prefetched_keys
        assert key in manager.cache.recent_keys
        assert manager.cache.attribution(key) is None

    def test_promote_does_not_double_count_nbytes(self, manager):
        key = TileKey(1, 1, 0)
        manager.prefetch([(key, "m")])
        tile_bytes = manager.fetch(key).tile.nbytes
        assert manager.cache.nbytes() == tile_bytes

    def test_promote_frees_slot_for_next_admission(self, small_dataset):
        manager = CacheManager(
            small_dataset.pyramid, TileCache(prefetch_capacity=2)
        )
        a, b, c = (TileKey(2, i, 0) for i in range(3))
        manager.prefetch_one(a, "m")
        manager.prefetch_one(b, "m")
        manager.fetch(a)  # promoted out of the full prefetch region
        evicted = manager.prefetch_one(c, "m")
        assert evicted.key == c
        # The freed slot absorbed c; b was not evicted to make room.
        assert manager.cache.lookup(b) is not None
        assert set(manager.cache.prefetched_keys) == {b, c}

    def test_plain_hit_from_recent_unaffected(self, manager):
        key = TileKey(1, 0, 1)
        manager.fetch(key)
        outcome = manager.fetch(key)
        assert outcome.hit
        assert key in manager.cache.recent_keys


class TestRecordRequestOnce:
    """Every fetch path records the tile into the recent LRU exactly
    once: hit, miss owner (via publish), and coalesced waiter."""

    def test_hit_and_owner_record_once(self, small_dataset):
        manager = CacheManager(small_dataset.pyramid, TileCache())
        calls: list[TileKey] = []
        original = manager.cache.record_request

        def counting(t):
            calls.append(t.key)
            original(t)

        manager.cache.record_request = counting
        key = TileKey(1, 0, 0)
        manager.fetch(key)  # miss: owner records via publish only
        assert calls == [key]
        manager.fetch(key)  # hit: records once more
        assert calls == [key, key]

    def test_coalesced_waiter_records_once(self, small_dataset):
        import threading

        manager = CacheManager(small_dataset.pyramid, TileCache())
        calls: list[TileKey] = []
        record_original = manager.cache.record_request

        def counting(t):
            calls.append(t.key)
            record_original(t)

        manager.cache.record_request = counting
        key = TileKey(1, 1, 1)
        started = threading.Event()
        release = threading.Event()
        query_original = manager._query_backend

        def gated(query_key):
            started.set()
            assert release.wait(10)
            return query_original(query_key)

        manager._query_backend = gated
        owner = threading.Thread(target=manager.fetch, args=(key,))
        owner.start()
        assert started.wait(10)
        waiter = threading.Thread(target=manager.fetch, args=(key,))
        waiter.start()
        release.set()
        owner.join(timeout=10)
        waiter.join(timeout=10)
        assert not owner.is_alive() and not waiter.is_alive()
        # Two requests, two recordings: owner via publish, waiter itself.
        assert calls == [key, key]


class TestShardedTileCache:
    def test_shards_capped_at_capacity(self):
        cache = TileCache(prefetch_capacity=2, shards=8)
        assert cache.shards == 2

    def test_capacity_split_sums_to_total(self):
        cache = TileCache(prefetch_capacity=9, shards=4)
        assert sum(cache._capacities) == 9
        assert max(cache._capacities) - min(cache._capacities) <= 1

    def test_lookup_and_attribution_across_shards(self):
        cache = TileCache(prefetch_capacity=8, shards=4)
        # Pick keys that respect each shard's capacity slice (2 slots),
        # so every store is accepted.
        per_shard: dict[int, int] = {}
        keys = []
        for candidate in (TileKey(4, x, y) for x in range(16) for y in range(16)):
            shard = cache._shard(candidate)
            if per_shard.get(shard, 0) < 2:
                per_shard[shard] = per_shard.get(shard, 0) + 1
                keys.append(candidate)
            if len(keys) == 6:
                break
        for i, key in enumerate(keys):
            assert cache.store_prefetched(tile(key), f"m{i % 2}")
        for i, key in enumerate(keys):
            assert cache.lookup(key) is not None
            assert cache.attribution(key) == f"m{i % 2}"
        usage = cache.model_usage()
        assert usage == {"m0": 3, "m1": 3}
        assert sorted(cache.prefetched_keys) == sorted(keys)

    def test_admit_evicts_within_the_keys_shard(self):
        cache = TileCache(prefetch_capacity=4, shards=4)
        # Find three keys that land in the same (single-slot) shard.
        target = cache._shard(TileKey(6, 0, 0))
        same_shard = [
            key
            for key in (TileKey(6, x, y) for x in range(12) for y in range(12))
            if cache._shard(key) == target
        ][:3]
        first, second, third = same_shard
        assert cache.admit_prefetched(tile(first), "m") is None
        assert cache.admit_prefetched(tile(second), "m") == first
        assert cache.admit_prefetched(tile(third), "m") == second
        assert cache.lookup(third) is not None

    def test_clear_spans_all_shards(self):
        cache = TileCache(recent_capacity=4, prefetch_capacity=8, shards=4)
        for x in range(6):
            cache.store_prefetched(tile(TileKey(3, x, 0)), "m")
        cache.record_request(tile(TileKey(3, 0, 1)))
        cache.clear()
        assert cache.prefetched_keys == []
        assert cache.recent_keys == []
        assert cache.nbytes() == 0

    def test_rejects_zero_shards(self):
        with pytest.raises(ValueError):
            TileCache(shards=0)

    def test_manager_rejects_zero_shards(self, small_dataset):
        with pytest.raises(ValueError):
            CacheManager(small_dataset.pyramid, TileCache(), shards=0)


class TestRiderAdmission:
    def test_prefetch_rider_does_not_readmit_fetched_tile(self, small_dataset):
        """A prefetch job coalescing on a user fetch's in-flight load
        must not admit the tile into the prefetch region: the fetch
        owner already recorded it into the recent LRU, and one tile
        lives in exactly one region."""
        import threading

        manager = CacheManager(small_dataset.pyramid, TileCache())
        key = TileKey(1, 1, 0)
        started = threading.Event()
        release = threading.Event()
        original = manager._query_backend

        def gated(query_key):
            started.set()
            assert release.wait(10)
            return original(query_key)

        manager._query_backend = gated
        owner = threading.Thread(target=manager.fetch, args=(key,))
        owner.start()
        assert started.wait(10)  # fetch owns the in-flight load
        rider = threading.Thread(
            target=manager.prefetch_one, args=(key, "m")
        )
        rider.start()
        release.set()
        owner.join(timeout=10)
        rider.join(timeout=10)
        assert not owner.is_alive() and not rider.is_alive()
        assert key in manager.cache.recent_keys
        assert key not in manager.cache.prefetched_keys
        assert manager.cache.nbytes() == manager.fetch(key).tile.nbytes


class TestShardedSyncCycle:
    def test_full_shard_does_not_abort_cycle(self, small_dataset):
        """A sync prefetch cycle over a sharded region skips a tile
        whose shard is full but keeps filling the other shards; only a
        truly full region stops the cycle."""
        cache = TileCache(recent_capacity=4, prefetch_capacity=4, shards=4)
        # Two keys in one single-slot shard, then keys in other shards.
        target = cache._shard(TileKey(5, 0, 0))
        same_shard, others = [], []
        for candidate in (TileKey(5, x, y) for x in range(12) for y in range(12)):
            if cache._shard(candidate) == target and len(same_shard) < 2:
                same_shard.append(candidate)
            elif cache._shard(candidate) != target and len(others) < 3:
                # One key per distinct other shard.
                if all(
                    cache._shard(candidate) != cache._shard(k) for k in others
                ):
                    others.append(candidate)
        manager = CacheManager(small_dataset.pyramid, cache)
        predictions = [(same_shard[0], "m"), (same_shard[1], "m")] + [
            (key, "m") for key in others
        ]
        manager.prefetch(predictions)
        stored = set(cache.prefetched_keys)
        # The colliding key was skipped; everything after it still landed.
        assert same_shard[0] in stored
        assert same_shard[1] not in stored
        assert stored.issuperset(others)
        assert len(stored) == 4


class TestShardedLRUCache:
    def test_one_shard_matches_plain_lru_exactly(self):
        """shards=1 must be operation-for-operation identical to LRUCache
        (the sync figure benchmarks replay through this configuration)."""
        import random

        plain = LRUCache(4)
        sharded = ShardedLRUCache(4, shards=1)
        rng = random.Random(7)
        for step in range(500):
            key = rng.randrange(12)
            op = rng.randrange(3)
            if op == 0:
                assert plain.put(key, step) == sharded.put(key, step)
            elif op == 1:
                assert plain.get(key) == sharded.get(key)
            else:
                assert plain.peek(key) == sharded.peek(key)
            assert plain.keys() == sharded.keys()
            assert plain.hits == sharded.hits
            assert plain.misses == sharded.misses

    def test_capacity_split_across_segments(self):
        cache = ShardedLRUCache(10, shards=4)
        assert cache.shards == 4
        assert [seg.capacity for seg in cache._segments] == [3, 3, 2, 2]
        assert cache.capacity == 10

    def test_shards_clamped_to_capacity(self):
        cache = ShardedLRUCache(2, shards=8)
        assert cache.shards == 2

    def test_total_occupancy_bounded(self):
        cache = ShardedLRUCache(6, shards=3)
        for n in range(50):
            cache.put(n, n)
        assert len(cache) <= 6

    def test_counters_aggregate_segments(self):
        cache = ShardedLRUCache(8, shards=4)
        for n in range(8):
            cache.put(n, n)
        present = sum(1 for n in range(8) if cache.get(n) is not None)
        assert cache.hits == present
        cache.get(99)
        assert cache.misses >= 1
        assert 0.0 < cache.hit_rate < 1.0

    def test_eviction_is_per_segment(self):
        """An insert can only evict from its own key's segment."""
        cache = ShardedLRUCache(4, shards=4)
        keys = list(range(16))
        for key in keys:
            evicted = cache.put(key, key)
            if evicted is not None:
                same_segment = (
                    cache._segments[hash(evicted) % cache.shards]
                    is cache._segments[hash(key) % cache.shards]
                )
                assert same_segment

    def test_clear_and_validation(self):
        cache = ShardedLRUCache(4, shards=2)
        cache.put("a", 1)
        cache.clear()
        assert len(cache) == 0
        assert "a" not in cache
        with pytest.raises(ValueError):
            ShardedLRUCache(0)
        with pytest.raises(ValueError):
            ShardedLRUCache(4, shards=0)
