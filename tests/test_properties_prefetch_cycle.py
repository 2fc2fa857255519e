"""A prefetch cycle is a diff — and nothing but its cost may show.

``CacheManager.prefetch`` plans which predictions get a slot, drops only
the tiles the plan supersedes and queries the backend only for planned
keys resident nowhere.  The reference it must match — region, order,
attribution, recent LRU, every byte — is the cycle it replaced: clear
the region, then refill it in prediction order (``reference_cycle``
below, transcribed from the parent commit).
"""

import threading

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.cache.manager as manager_module
import repro.cache.tile_cache as tile_cache_module
from repro.cache.manager import CacheManager
from repro.cache.tile_cache import TileCache
from repro.tiles.key import TileKey
from repro.tiles.tile import DataTile

#: Small enough that predictions repeat from round to round and collide
#: in a shard; 12 keys spread over every residue of 2 and 3.
KEYS = [TileKey(3, x, y) for x in range(4) for y in range(3)]
MODELS = ("markov", "sb", "momentum")


class CountingPyramid:
    """The two methods ``CacheManager`` calls on a pyramid, fetches
    counted: a key's first fetch reads it into the live tile table."""

    def __init__(self) -> None:
        self.fetched: list[TileKey] = []
        self.table: dict[TileKey, tuple[DataTile, float]] = {}

    def tiles(self) -> dict[TileKey, tuple[DataTile, float]]:
        return self.table

    def fetch_tile_timed(self, key: TileKey) -> tuple[DataTile, float]:
        self.fetched.append(key)
        entry = self.table.get(key)
        if entry is None:
            block = np.full((2, 2), hash(key) % 9973, dtype="int32")
            entry = self.table[key] = (DataTile(key=key, attributes={"v": block}), 0.5)
        return entry


class RefillCache(TileCache):
    """A tile cache plus the two cycle calls ``reference_cycle`` makes,
    transcribed from the parent commit (``begin_prefetch_cycle`` only as
    the reference calls it: with no predictions, it plans nothing and
    drops the whole region), a slot holding a key's model and the
    tile-table entry it was loaded as.  The manager's cycle calls
    neither."""

    def begin_prefetch_cycle(self, predictions) -> dict[TileKey, str]:
        assert predictions == []
        for index in range(self.shards):
            with self._locks[index]:
                self._prefetched[index].clear()
        return {}

    def store_prefetched(self, key: TileKey, model: str, entry: tuple) -> bool:
        index = self._shard(key)
        with self._locks[index]:
            region = self._prefetched[index]
            if key not in region and len(region) >= self._capacities[index]:
                return False
            region[key] = (model, entry)
            return True


def build_manager(shards: int, prefetch_capacity: int, recent_capacity: int):
    cache = RefillCache(
        recent_capacity=recent_capacity,
        prefetch_capacity=prefetch_capacity,
        shards=shards,
    )
    return CacheManager(CountingPyramid(), cache)


def reference_cycle(manager: CacheManager, predictions) -> int:
    """The parent commit's ``_run_prefetch_cycle``, on one thread: the
    region is emptied first, every prediction is looked up (so only the
    recent LRU and this cycle's own stores can be found) and a
    non-resident one is queried *before* its store can be refused."""
    cache = manager.cache

    def region_full() -> bool:
        return len(cache.prefetched_keys) >= cache.prefetch_capacity

    tiles = manager.pyramid.tiles()  # never moves: a fetch fills it once
    cache.begin_prefetch_cycle([])
    queries = 0
    for key, model in predictions:
        if key in cache:
            if not cache.store_prefetched(key, model, tiles[key]) and region_full():
                break
            continue
        manager.pyramid.fetch_tile_timed(key)
        queries += 1
        if not cache.store_prefetched(key, model, tiles[key]) and region_full():
            break
    manager.prefetch_queries += queries
    return queries


def assert_same_cache(new: CacheManager, ref: CacheManager) -> None:
    assert new.cache.prefetched_keys == ref.cache.prefetched_keys
    assert new.cache.recent_keys == ref.cache.recent_keys
    assert new.cache.model_usage() == ref.cache.model_usage()
    for key in KEYS:
        assert new.cache.attribution(key) == ref.cache.attribution(key)
        ours = new.cache.lookup(key, new.pyramid.tiles())
        theirs = ref.cache.lookup(key, ref.pyramid.tiles())
        assert (ours is None) == (theirs is None)
        if ours is not None:
            assert ours.key == theirs.key == key
            assert np.array_equal(ours.attribute("v"), theirs.attribute("v"))


keys = st.sampled_from(KEYS)
predictions = st.lists(st.tuples(keys, st.sampled_from(MODELS)), max_size=10)
operations = st.lists(
    st.one_of(
        st.tuples(st.just("fetch"), keys),
        st.tuples(st.just("prefetch"), predictions),
        st.tuples(st.just("prefetch_one"), keys, st.sampled_from(MODELS)),
    ),
    max_size=30,
)


@settings(max_examples=300, deadline=None)
@given(
    shards=st.integers(1, 3),
    prefetch_capacity=st.integers(1, 6),
    recent_capacity=st.integers(1, 4),
    ops=operations,
)
def test_cycle_leaves_the_parents_region_and_queries_only_absent_tiles(
    shards, prefetch_capacity, recent_capacity, ops
):
    new = build_manager(shards, prefetch_capacity, recent_capacity)
    ref = build_manager(shards, prefetch_capacity, recent_capacity)
    for op, *args in ops:
        if op == "fetch":
            ours, theirs = new.fetch(*args), ref.fetch(*args)
            assert ours.hit == theirs.hit
            assert ours.backend_seconds == theirs.backend_seconds
        elif op == "prefetch_one":
            new.prefetch_one(*args)
            ref.prefetch_one(*args)
        else:
            (round_predictions,) = args
            outgoing = set(new.cache.prefetched_keys)
            resident = outgoing | set(new.cache.recent_keys)
            already_fetched = len(new.pyramid.fetched)
            queries = new.prefetch(round_predictions)
            ref_queries = reference_cycle(ref, round_predictions)
            # Contract 2: exactly the planned keys resident in neither
            # region are queried, in prediction order — never more than
            # the refill queried.
            planned = set(new.cache.prefetched_keys)
            absent = [k for k, _ in round_predictions if k in planned - resident]
            assert new.pyramid.fetched[already_fetched:] == list(dict.fromkeys(absent))
            assert queries == len(new.pyramid.fetched) - already_fetched
            assert queries <= ref_queries
            if outgoing.isdisjoint(planned) and planned == {
                k for k, _ in round_predictions
            }:
                assert queries == ref_queries
        # Contract 1: same region, same order, same attribution, same
        # recent LRU, same bytes — after every operation.
        assert_same_cache(new, ref)
        assert new.prefetch_queries <= ref.prefetch_queries
        assert (new.requests, new.hits) == (ref.requests, ref.hits)
        assert new.inflight_count == 0


def test_a_prediction_whose_shard_is_full_is_not_queried():
    """Five predictions hashing to one two-slot shard of a four-slot
    region: two get a slot, and only those two are loaded.  The refill
    queried all five and threw three tiles away."""
    new = build_manager(shards=2, prefetch_capacity=4, recent_capacity=4)
    ref = build_manager(shards=2, prefetch_capacity=4, recent_capacity=4)
    candidates = (TileKey(5, x, y) for x in range(12) for y in range(12))
    five = [(key, "m") for key in candidates if new.cache._shard(key) == 0][:5]
    assert new.prefetch(five) == 2
    assert new.pyramid.fetched == [key for key, _ in five[:2]]
    assert reference_cycle(ref, five) == 5
    assert new.cache.prefetched_keys == ref.cache.prefetched_keys
    assert new.cache.prefetched_keys == [key for key, _ in five[:2]]
    assert new.prefetch_queries == 2


class Counted:
    """Wrap a callable (or a lock's context entry) and count its uses."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.calls = 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self.inner(*args, **kwargs)

    def __enter__(self):
        self.calls += 1
        return self.inner.__enter__()

    def __exit__(self, *exc_info):
        return self.inner.__exit__(*exc_info)


def test_a_cycle_does_no_work_nobody_needs(monkeypatch):
    """Contract 5, on one thread: two visits to the shard lock — one
    to carry and register, one to slot and unregister; no
    per-key probe or write call, no tile read; nothing waitable
    constructed for a load no second caller joins."""
    manager = build_manager(shards=1, prefetch_capacity=6, recent_capacity=4)
    cache = manager.cache
    a, b, c, d, e = KEYS[:5]
    manager.prefetch([(a, "m"), (b, "m"), (c, "m")])
    manager.fetch(d)  # d: recent LRU only

    shard = cache._locks[0] = Counted(cache._locks[0])
    probes = [Counted(cache.lookup), Counted(cache.promote), Counted(cache._fresh)]
    cache.lookup, cache.promote, cache._fresh = probes
    writes = [Counted(cache.request), Counted(cache._record)]
    cache.request, cache._record = writes
    reads = manager.pyramid.tiles = Counted(manager.pyramid.tiles)
    built: list[str] = []

    class RecordingThreading:
        """A module's ``threading`` for this one cycle: the real one,
        every name it reaches for noted (the cache modules only touch
        ``threading`` to construct something)."""

        def __getattr__(self, name):
            built.append(name)
            return getattr(threading, name)

    monkeypatch.setattr(manager_module, "threading", RecordingThreading())
    monkeypatch.setattr(tile_cache_module, "threading", RecordingThreading())

    # b, a carried from the region, d from the recent LRU, e loaded.
    round_predictions = [(b, "x"), (e, "x"), (a, "y"), (d, "y"), (b, "y")]
    assert manager.prefetch(round_predictions) == 1
    monkeypatch.undo()
    assert shard.calls == 2  # carry, register; slot, unregister

    assert built == []
    assert cache.prefetched_keys == [b, e, a, d]
    assert [cache.attribution(k) for k in (b, e, a, d)] == ["y", "x", "y", "y"]
    assert sum(probe.calls for probe in probes) == 0
    assert sum(write.calls for write in writes) == 0
    assert reads.calls == 0  # the cycle carries keys, its tiles unread
    assert manager.inflight_count == 0


def test_a_cycle_visits_a_shard_at_most_twice():
    """With several shards: a shard holding a planned key absent
    everywhere is visited twice, one holding only carried keys or no
    planned key at all once (its superseded tiles still drop)."""
    manager = build_manager(shards=3, prefetch_capacity=6, recent_capacity=4)
    cache = manager.cache
    by_shard = [[k for k in KEYS if cache._shard(k) == i] for i in range(3)]
    carried, loaded = by_shard[0][0], by_shard[1][0]
    superseded = by_shard[2][0]
    manager.prefetch([(carried, "m"), (superseded, "m")])
    visits = [Counted(lock) for lock in cache._locks]
    cache._locks[:] = visits
    assert manager.prefetch([(carried, "n"), (loaded, "n")]) == 1
    assert [lock.calls for lock in visits] == [1, 2, 1]
    assert manager.peek(superseded) is None
    assert cache.prefetched_keys == [carried, loaded]
    assert manager.inflight_count == 0
