"""Unit tests for the tile cache, its recent region, the cache manager,
and the standalone sharded LRU."""

import random
from collections import OrderedDict

import numpy as np
import pytest

from repro.cache.lru import ShardedLRUCache
from repro.cache.manager import CacheManager
from repro.cache.tile_cache import TileCache
from repro.tiles.key import TileKey
from repro.tiles.tile import DataTile


def tile(key: TileKey) -> DataTile:
    return DataTile(key=key, attributes={"v": np.zeros((2, 2))})


class Table(dict):
    """A stand-in for a pyramid's live tile table: :meth:`query` loads a
    key's tile into it, as a pyramid fetch fills its table."""

    def query(self, key: TileKey) -> tuple[DataTile, float]:
        entry = self[key] = (tile(key), 0.5)
        return entry


#: The table the helpers below serve from; no test here drops an entry.
TILES = Table()


def request(cache: TileCache, key: TileKey, tiles: Table = TILES):
    """Request ``key`` as the request path does; what ``request`` returns."""
    return cache.request(key, tiles.query, tiles)


def admit(cache: TileCache, key: TileKey, model: str = "m", tiles: Table = TILES):
    """Admit ``key`` as the background path does; what ``request`` returns."""
    return cache.request(key, tiles.query, tiles, model)


def refill(cache: TileCache, predictions, tiles: Table = TILES) -> list[TileKey]:
    """Run one synchronous cycle on ``cache``; the keys it queried."""
    queried: list[TileKey] = []

    def query(key):
        queried.append(key)
        return tiles.query(key)

    cache.load(predictions, query)
    return queried


A, B, C, D = (TileKey(2, i, 0) for i in range(4))


class TestRecentRegion:
    """The recent region is an LRU of keys per shard, entered only
    through the request path (``promote``, ``request``)."""

    def test_eviction_order(self):
        cache = TileCache(recent_capacity=2)
        for key in (A, B, C):
            request(cache, key)
        assert cache.recent_keys == [B, C]
        assert A not in cache

    def test_promote_refreshes_recency(self):
        cache = TileCache(recent_capacity=2)
        request(cache, A)
        request(cache, B)
        assert cache.promote(A, TILES).key == A
        request(cache, C)
        assert cache.recent_keys == [A, C]

    def test_lookup_does_not_refresh(self):
        cache = TileCache(recent_capacity=2)
        request(cache, A)
        request(cache, B)
        assert cache.lookup(A, TILES).key == A
        request(cache, C)
        assert cache.recent_keys == [B, C]

    def test_promote_of_an_absent_key_changes_nothing(self):
        cache = TileCache(recent_capacity=2)
        request(cache, A)
        assert cache.promote(B, TILES) is None
        assert cache.recent_keys == [A]
        assert cache.inflight_count == 0

    def test_a_repeated_request_refreshes_without_eviction(self):
        cache = TileCache(recent_capacity=2)
        request(cache, A)
        request(cache, B)
        assert request(cache, A) == (TILES[A][0], None, False)  # a hit
        assert cache.recent_keys == [B, A]

    def test_rejects_zero_recent_capacity(self):
        with pytest.raises(ValueError, match="recent capacity must be >= 1"):
            TileCache(recent_capacity=0)


class TestStaleKeys:
    """A slot holds a key, not a tile: a resident key the live table no
    longer holds was written since it was loaded.  Where a tile is
    handed out it loses its slots and loads as an absent key; the cycle
    carries it unread."""

    def test_a_request_loads_it_again(self):
        cache, tiles = TileCache(recent_capacity=2, prefetch_capacity=2), Table()
        request(cache, A, tiles)
        admit(cache, B, tiles=tiles)
        old = tiles.pop(A)[0]
        served, pending, owner = request(cache, A, tiles)
        assert pending is not None and owner
        assert served is tiles[A][0] and served is not old
        assert cache.recent_keys == [A]
        assert request(cache, A, tiles)[1] is None  # loaded again: a hit

    def test_promote_and_lookup_drop_its_slots(self):
        cache, tiles = TileCache(recent_capacity=2, prefetch_capacity=2), Table()
        request(cache, A, tiles)
        admit(cache, B, tiles=tiles)
        tiles.clear()
        assert cache.promote(A, tiles) is None
        assert cache.lookup(B, tiles) is None
        assert A not in cache and B not in cache
        assert cache.recent_keys == cache.prefetched_keys == []
        assert cache.inflight_count == 0

    def test_an_admission_loads_it_again_into_its_slot(self):
        cache, tiles = TileCache(recent_capacity=2, prefetch_capacity=2), Table()
        admit(cache, A, "m", tiles)
        tiles.clear()
        served, pending, owner = admit(cache, A, "n", tiles)
        assert owner and served is tiles[A][0]
        assert cache.prefetched_keys == [A]
        assert cache.attribution(A) == "n"

    def test_the_cycle_carries_it_unread(self):
        cache, tiles = TileCache(recent_capacity=2, prefetch_capacity=2), Table()
        request(cache, A, tiles)
        admit(cache, B, tiles=tiles)
        tiles.clear()
        assert refill(cache, [(B, "m"), (A, "n")], tiles) == []
        assert cache.prefetched_keys == [B, A]
        assert tiles == {}


class TestTileCache:
    def test_lookup_both_regions(self):
        cache = TileCache(recent_capacity=2, prefetch_capacity=2)
        request(cache, A)
        admit(cache, B)
        assert cache.lookup(A, TILES) is not None
        assert cache.lookup(B, TILES) is not None
        assert cache.lookup(C, TILES) is None

    def test_prefetch_capacity_enforced(self):
        cache = TileCache(prefetch_capacity=2)
        assert refill(cache, [(A, "m"), (B, "m"), (C, "m")]) == [A, B]
        assert cache.prefetched_keys == [A, B]
        assert C not in cache

    def test_begin_cycle_clears_prefetch_only(self):
        cache = TileCache(recent_capacity=2, prefetch_capacity=2)
        request(cache, A)
        admit(cache, B)
        assert refill(cache, []) == []
        assert cache.lookup(B, TILES) is None
        assert cache.lookup(A, TILES) is not None

    def test_attribution(self):
        cache = TileCache()
        admit(cache, A, "markov3")
        admit(cache, B, "sb:sift")
        assert cache.attribution(A) == "markov3"
        assert cache.model_usage() == {"markov3": 1, "sb:sift": 1}

    def test_clear(self):
        cache = TileCache()
        request(cache, A)
        admit(cache, B)
        cache.clear()
        assert cache.lookup(A, TILES) is None
        assert cache.lookup(B, TILES) is None

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
        assert manager.peek(b) is not None
        assert set(manager.cache.prefetched_keys) == {b, c}

    def test_plain_hit_from_recent_unaffected(self, manager):
        key = TileKey(1, 0, 1)
        manager.fetch(key)
        outcome = manager.fetch(key)
        assert outcome.hit
        assert key in manager.cache.recent_keys


class RecordingSlice(OrderedDict):
    """A shard's recent slice that notes each key it records: every
    recording — a hit's refresh or promotion, a loaded tile's publish —
    moves the key to the slice's most recent end exactly once."""

    def __init__(self, entries, calls: list) -> None:
        super().__init__(entries)
        self.calls = calls

    def move_to_end(self, key, last=True):
        self.calls.append(key)
        super().move_to_end(key, last)


def count_recordings(cache: TileCache) -> list[TileKey]:
    """The keys ``cache`` records into its recent LRU, as they come."""
    calls: list[TileKey] = []
    cache._recent[:] = [RecordingSlice(s, calls) for s in cache._recent]
    return calls


class TestRecordRequestOnce:
    """Every fetch path records the tile into the recent LRU exactly
    once: hit, miss owner (via publish), and coalesced waiter."""

    def test_hit_and_owner_record_once(self, small_dataset):
        manager = CacheManager(small_dataset.pyramid, TileCache())
        calls = count_recordings(manager.cache)
        key = TileKey(1, 0, 0)
        manager.fetch(key)  # miss: owner records via publish only
        assert calls == [key]
        manager.fetch(key)  # hit: records once more
        assert calls == [key, key]

    def test_promotion_records_once(self, small_dataset):
        manager = CacheManager(small_dataset.pyramid, TileCache())
        calls = count_recordings(manager.cache)
        key = TileKey(1, 0, 1)
        manager.prefetch([(key, "m")])
        assert calls == []  # a cycle never touches the recent region
        assert manager.fetch(key).hit  # promoted: recorded once
        assert calls == [key]
        assert manager.try_fetch(key).hit  # the probe records like fetch
        assert calls == [key, key]
        assert manager.try_fetch(TileKey(1, 1, 1)) is None
        assert manager.peek(key) is not None  # a peek records nothing
        assert calls == [key, key]

    def test_coalesced_waiter_records_once(self, small_dataset):
        import threading

        manager = CacheManager(small_dataset.pyramid, TileCache())
        calls = count_recordings(manager.cache)
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
        # Two requests, two recordings: owner and waiter, each at its
        # publish.
        assert calls == [key, key]


class TestShardedTileCache:
    def test_shards_capped_at_capacity(self):
        cache = TileCache(prefetch_capacity=2, shards=8)
        assert cache.shards == 2

    def test_capacity_split_sums_to_total(self):
        cache = TileCache(prefetch_capacity=9, shards=4)
        assert sum(cache._capacities) == 9
        assert max(cache._capacities) - min(cache._capacities) <= 1

    def test_recent_capacity_split_like_the_prefetch_slots(self):
        cache = TileCache(recent_capacity=10, prefetch_capacity=9, shards=4)
        assert cache.shards == 4
        assert cache._recent_capacities == [3, 3, 2, 2]
        assert cache._capacities == [3, 2, 2, 2]
        assert len(cache._recent) == len(cache._locks) == 4

    def test_shards_clamped_to_the_recent_capacity(self):
        """More shards than recent slots: both regions share the clamped
        count, so a key's recent entry and its prefetch slot live in
        the one shard ``hash(key) % 2``, under one lock."""
        cache = TileCache(recent_capacity=2, prefetch_capacity=8, shards=4)
        assert cache.shards == 2
        assert len(cache._locks) == len(cache._recent) == 2
        assert cache._recent_capacities == [1, 1]
        assert cache._capacities == [4, 4]
        keys = [TileKey(4, x, 0) for x in range(8)]
        for key in keys:
            admit(cache, key)
        for key in keys[:2]:
            request(cache, key)
        for key in keys:
            index = hash(key) % 2
            in_recent = key in cache._recent[index]
            assert in_recent == (key in keys[:2])
            assert (key in cache._prefetched[index]) == (not in_recent)
            assert key not in cache._recent[1 - index]
            assert key not in cache._prefetched[1 - index]
        # Each shard's one recent slot holds its last requested key.
        for later in (TileKey(4, x, 1) for x in range(4)):
            request(cache, later)
            assert later in cache._recent[hash(later) % 2]
            assert len(cache._recent[hash(later) % 2]) == 1

    def test_shards_clamped_to_the_smaller_capacity(self):
        assert TileCache(recent_capacity=3, prefetch_capacity=5, shards=8).shards == 3
        assert TileCache(recent_capacity=5, prefetch_capacity=3, shards=8).shards == 3

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
            admit(cache, key, f"m{i % 2}")
        for i, key in enumerate(keys):
            assert cache.lookup(key, TILES) is not None
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
        admit(cache, first)
        admit(cache, second)
        assert cache.lookup(first, TILES) is None
        admit(cache, third)
        assert cache.lookup(second, TILES) is None
        assert cache.lookup(third, TILES) is not None
        assert cache.prefetched_keys == [third]

    def test_clear_spans_all_shards(self):
        cache = TileCache(recent_capacity=4, prefetch_capacity=8, shards=4)
        for x in range(6):
            admit(cache, TileKey(3, x, 0))
        request(cache, TileKey(3, 0, 1))
        cache.clear()
        assert cache.prefetched_keys == []
        assert cache.recent_keys == []

    def test_rejects_zero_shards(self):
        with pytest.raises(ValueError):
            TileCache(shards=0)

    def test_manager_rejects_zero_shards(self, small_dataset):
        """Shards are the cache's alone: the manager takes none."""
        with pytest.raises(ValueError):
            CacheManager(small_dataset.pyramid, TileCache(shards=0))
        with pytest.raises(TypeError):
            CacheManager(small_dataset.pyramid, TileCache(), shards=2)


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
        assert manager.fetch(key).hit


class CountedLock:
    """A shard lock whose ``with`` entries (re-entrant ones too) are counted."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.calls = 0

    def __enter__(self):
        self.calls += 1
        return self.inner.__enter__()

    def __exit__(self, *exc_info):
        return self.inner.__exit__(*exc_info)


class TestAdmitPath:
    """``prefetch_one`` (the background and push admission) visits the
    key's shard lock once for a resident tile and twice for a miss."""

    def test_a_resident_tile_takes_one_visit_and_stays_put(self, small_dataset):
        manager = CacheManager(small_dataset.pyramid, TileCache())
        recent, prefetched = TileKey(2, 0, 0), TileKey(2, 1, 0)
        manager.fetch(recent)
        manager.prefetch_one(prefetched, "m")
        lock = manager.cache._locks[0] = CountedLock(manager.cache._locks[0])
        assert manager.prefetch_one(recent, "x").key == recent
        assert manager.prefetch_one(prefetched, "x").key == prefetched
        assert lock.calls == 2
        assert manager.prefetch_queries == 1
        assert manager.cache.recent_keys == [recent]
        assert manager.cache.prefetched_keys == [prefetched]
        assert manager.cache.attribution(prefetched) == "m"

    def test_a_miss_takes_two_visits(self, small_dataset):
        manager = CacheManager(small_dataset.pyramid, TileCache(prefetch_capacity=2))
        lock = manager.cache._locks[0] = CountedLock(manager.cache._locks[0])
        a, b, c = (TileKey(2, i, 0) for i in range(3))
        for key in (a, b, c):
            assert manager.prefetch_one(key, "m").key == key
        assert lock.calls == 6
        assert manager.prefetch_queries == 3
        assert manager.cache.prefetched_keys == [b, c]  # a made room
        assert manager.inflight_count == 0


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


def lru_contents(cache: ShardedLRUCache) -> list:
    """Every segment's keys, least to most recently used, segment by segment."""
    return [key for _, entries, _ in cache._segments for key in entries]


class TestShardedLRUCache:
    """The standalone sharded LRU timed by the perf tracing microbench."""

    def test_put_get(self):
        cache = ShardedLRUCache(2)
        assert cache.put("a", 1) is None
        assert cache.get("a") == 1
        assert cache.get("missing") is None

    def test_eviction_order(self):
        cache = ShardedLRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.put("c", 3) == "a"
        assert cache.get("a") is None
        assert lru_contents(cache) == ["b", "c"]

    def test_get_refreshes_recency(self):
        cache = ShardedLRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")
        assert cache.put("c", 3) == "b"

    def test_overwrite_no_eviction(self):
        cache = ShardedLRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.put("a", 3) is None
        assert cache.get("a") == 3
        assert lru_contents(cache) == ["b", "a"]

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            ShardedLRUCache(0)
        with pytest.raises(ValueError):
            ShardedLRUCache(4, shards=0)

    def test_one_shard_matches_a_reference_lru(self):
        cache = ShardedLRUCache(4, shards=1)
        reference: OrderedDict = OrderedDict()
        rng = random.Random(7)
        for step in range(500):
            key = rng.randrange(12)
            if rng.randrange(2):
                reference[key] = step
                reference.move_to_end(key)
                expected = reference.popitem(last=False)[0] if len(reference) > 4 else None
                assert cache.put(key, step) == expected
            else:
                expected = reference.get(key)
                if expected is not None:
                    reference.move_to_end(key)
                assert cache.get(key) == expected
            assert lru_contents(cache) == list(reference)

    def test_capacity_split_across_segments(self):
        cache = ShardedLRUCache(10, shards=4)
        assert cache.shards == 4
        assert [capacity for _, _, capacity in cache._segments] == [3, 3, 2, 2]

    def test_shards_clamped_to_capacity(self):
        cache = ShardedLRUCache(2, shards=8)
        assert cache.shards == 2

    def test_total_occupancy_bounded(self):
        cache = ShardedLRUCache(6, shards=3)
        for n in range(50):
            cache.put(n, n)
        assert len(lru_contents(cache)) <= 6

    def test_eviction_is_per_segment(self):
        """An insert can only evict from its own key's segment."""
        cache = ShardedLRUCache(4, shards=4)
        for key in range(16):
            evicted = cache.put(key, key)
            if evicted is not None:
                assert hash(evicted) % cache.shards == hash(key) % cache.shards
