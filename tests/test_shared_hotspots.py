"""The cross-user shared hotspot subsystem: concurrency + determinism.

The contract under test (``repro.core.popularity`` and its wiring
through engine, service, and scheduler):

- the registry's ``snapshot(top_n)`` is a pure function of the multiset
  of observations — any thread interleaving and any shard count yield
  the same top-N, bit for bit;
- decay is monotone on the virtual tick and never drives a count
  negative;
- ``shared_hotspots="off"`` (the default) and ``"observe"`` replay
  traces with output identical to the isolated-prediction serving
  stack; only ``"boost"`` changes behavior — and on convergent
  multi-user traces it must *improve* the cross-user hit rate.
"""

import random
import threading

import pytest

from repro.cache.manager import CacheManager
from repro.cache.tile_cache import TileCache
from repro.core.allocation import SingleModelStrategy
from repro.core.engine import PredictionEngine
from repro.core.popularity import SharedHotspotRegistry
from repro.experiments.sweep.run import replay_walks
from repro.middleware.config import CacheConfig, PrefetchPolicy, ServiceConfig
from repro.middleware.scheduler import (
    DONE,
    HOT_RANK_STEPS,
    PrefetchScheduler,
)
from repro.middleware.service import ForeCacheService
from repro.recommenders.hotspot import HotspotRecommender
from repro.recommenders.momentum import MomentumRecommender
from repro.tiles.key import TileKey
from repro.tiles.pyramid import TilePyramid
from repro.users.convergent import convergent_walks, cross_user_hit_rate


@pytest.fixture(scope="module")
def pyramid() -> TilePyramid:
    from repro.modis.dataset import MODISDataset

    return MODISDataset.build(size=256, tile_size=32, days=1, seed=3).pyramid


def keys_at(level: int):
    n = 1 << level
    return [TileKey(level, x, y) for y in range(n) for x in range(n)]


def momentum_engine(grid) -> PredictionEngine:
    model = MomentumRecommender()
    return PredictionEngine(
        grid, {model.name: model}, SingleModelStrategy(model.name)
    )


def hotspot_engine_factory(grid, **kwargs):
    def factory() -> PredictionEngine:
        model = HotspotRecommender(**kwargs)
        return PredictionEngine(
            grid, {model.name: model}, SingleModelStrategy(model.name)
        )

    return factory


# ----------------------------------------------------------------------
# registry semantics
# ----------------------------------------------------------------------
class TestRegistryBasics:
    def test_validation(self):
        with pytest.raises(ValueError):
            SharedHotspotRegistry(shards=0)
        with pytest.raises(ValueError):
            SharedHotspotRegistry(decay=0.0)
        with pytest.raises(ValueError):
            SharedHotspotRegistry(decay=1.5)
        registry = SharedHotspotRegistry()
        with pytest.raises(ValueError):
            registry.observe(TileKey(0, 0, 0), weight=0.0)
        with pytest.raises(ValueError):
            registry.advance(-1)
        with pytest.raises(ValueError):
            registry.snapshot(top_n=0)

    def test_counts_accumulate_and_order(self):
        registry = SharedHotspotRegistry()
        a, b = TileKey(1, 0, 0), TileKey(1, 1, 1)
        registry.observe(a)
        registry.observe(b)
        registry.observe(b)
        assert registry.count(b) == 2.0
        assert registry.snapshot() == [(b, 2.0), (a, 1.0)]
        assert registry.hot_keys(1) == [b]
        assert len(registry) == 2
        assert registry.total_observations == 3

    def test_count_ties_break_by_key(self):
        registry = SharedHotspotRegistry()
        high, low = TileKey(2, 3, 3), TileKey(2, 0, 1)
        registry.observe(high)  # insertion order must not matter
        registry.observe(low)
        assert registry.hot_keys(2) == [low, high]

    def test_decay_on_advance(self):
        registry = SharedHotspotRegistry(decay=0.5)
        key = TileKey(0, 0, 0)
        registry.observe(key, 8.0)
        assert registry.count(key) == 8.0
        registry.advance()
        assert registry.count(key) == 4.0
        registry.advance(2)
        assert registry.count(key) == 1.0
        # A new observation lands undecayed on top of the decayed count.
        registry.observe(key)
        assert registry.count(key) == 2.0

    def test_decay_monotone_and_order_preserving(self):
        registry = SharedHotspotRegistry(decay=0.5)
        tiles = keys_at(2)[:6]
        for index, key in enumerate(tiles):
            registry.observe(key, float(2**index))
        previous = dict(registry.snapshot())
        order = [key for key, _ in registry.snapshot()]
        for _ in range(4):
            registry.advance()
            current = dict(registry.snapshot())
            for key, weight in current.items():
                assert 0.0 <= weight < previous[key]
            # Uniform decay never reorders the ranking.
            assert [key for key, _ in registry.snapshot()] == order
            previous = current

    def test_public_surface(self):
        """Observe, advance, read: nothing writes a registry but the
        sessions of the service that owns it."""
        public = {
            name for name in dir(SharedHotspotRegistry) if not name.startswith("_")
        }
        assert public == {
            "tick", "advance", "observe",
            "count", "snapshot", "hot_keys", "total_observations",
        }


# ----------------------------------------------------------------------
# determinism: interleaving and sharding
# ----------------------------------------------------------------------
class TestRegistryDeterminism:
    def _streams(self, num_threads: int = 4, per_thread: int = 200):
        tiles = keys_at(3)
        rng = random.Random(42)
        return [
            [rng.choice(tiles) for _ in range(per_thread)]
            for _ in range(num_threads)
        ]

    def test_concurrent_observation_matches_sequential(self):
        """The hammer: N threads racing on the sharded registry must
        produce the exact snapshot of a sequential replay — the top-N is
        a function of the observation multiset, not the interleaving.
        """
        streams = self._streams()
        sequential = SharedHotspotRegistry(shards=4)
        for stream in streams:
            for key in stream:
                sequential.observe(key)
        expected = sequential.snapshot()
        assert expected, "scenario must actually observe something"

        for _ in range(3):  # several trials: interleavings vary
            registry = SharedHotspotRegistry(shards=4)
            barrier = threading.Barrier(len(streams))

            def worker(stream):
                barrier.wait()
                for key in stream:
                    registry.observe(key)

            threads = [
                threading.Thread(target=worker, args=(stream,))
                for stream in streams
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert registry.snapshot() == expected
            assert registry.total_observations == sum(
                len(stream) for stream in streams
            )

    def test_observation_order_is_irrelevant(self):
        streams = self._streams(num_threads=1, per_thread=120)
        observations = streams[0]
        forward = SharedHotspotRegistry()
        for key in observations:
            forward.observe(key)
        backward = SharedHotspotRegistry()
        for key in reversed(observations):
            backward.observe(key)
        assert forward.snapshot() == backward.snapshot()

    @pytest.mark.parametrize("shards", [2, 3, 8])
    def test_shard_count_invariance(self, shards):
        """shards=1 and shards=N must agree bit-for-bit, including under
        decay: per-key arithmetic is independent of shard membership.
        """
        tiles = keys_at(3)
        rng = random.Random(7)
        baseline = SharedHotspotRegistry(shards=1, decay=0.5)
        sharded = SharedHotspotRegistry(shards=shards, decay=0.5)
        for step in range(400):
            if step % 17 == 0:
                baseline.advance()
                sharded.advance()
            key = rng.choice(tiles)
            weight = float(rng.randint(1, 4))
            baseline.observe(key, weight)
            sharded.observe(key, weight)
        assert baseline.snapshot() == sharded.snapshot()
        assert baseline.snapshot(5) == sharded.snapshot(5)
        probe = tiles[3]
        assert baseline.count(probe) == sharded.count(probe)

    def test_concurrent_snapshot_does_not_crash_or_corrupt(self):
        registry = SharedHotspotRegistry(shards=4)
        tiles = keys_at(2)
        stop = threading.Event()
        errors: list[BaseException] = []

        def reader():
            try:
                while not stop.is_set():
                    for key, weight in registry.snapshot(8):
                        assert weight > 0
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        readers = [threading.Thread(target=reader) for _ in range(2)]
        for thread in readers:
            thread.start()
        for _ in range(50):
            for key in tiles:
                registry.observe(key)
        stop.set()
        for thread in readers:
            thread.join()
        assert not errors
        assert registry.count(tiles[0]) == 50.0


# ----------------------------------------------------------------------
# scheduler rank boost
# ----------------------------------------------------------------------
class TestSchedulerBoost:
    def test_globally_hot_tile_jumps_the_rank_queue(self, pyramid):
        """With the queue backed up, a rank-3 job for a globally hot
        tile completes with the rank-1 cohort (its heap rank jumps
        ``HOT_RANK_STEPS``), while ``PrefetchJob.rank`` still reports
        the model's original opinion.
        """
        manager = CacheManager(pyramid, TileCache(prefetch_capacity=16))
        gate_key = pyramid.grid.root
        started, release = threading.Event(), threading.Event()
        original = manager._query_backend

        def gated(key):
            if key == gate_key:
                started.set()
                assert release.wait(30)
            return original(key)

        manager._query_backend = gated
        registry = SharedHotspotRegistry()
        hot_tile = TileKey(3, 5, 5)
        for _ in range(3):
            registry.observe(hot_tile)
        scheduler = PrefetchScheduler(
            manager, max_workers=1, hotspot_registry=registry
        )
        try:
            scheduler.schedule([(gate_key, "m")], session_id="gate")
            assert started.wait(30)
            round_ = scheduler.schedule(
                [(TileKey(3, x, 0), "m") for x in range(3)]
                + [(hot_tile, "m"), (TileKey(3, 3, 0), "m")],
                session_id="user",
            )
            release.set()
            assert scheduler.wait_idle(30)
            assert all(job.state == DONE for job in round_)
            boosted = round_[3]
            assert boosted.key == hot_tile
            assert boosted.rank == 3 == 1 + HOT_RANK_STEPS
            # Boosted to effective rank 1: behind the real rank-1 job
            # (earlier admission seq), ahead of every cold rank>=2 job.
            assert [job.finish_order for job in round_] == [2, 3, 5, 4, 6]
        finally:
            release.set()
            scheduler.shutdown()

    def test_no_registry_means_no_boost_key_change(self, pyramid):
        manager = CacheManager(pyramid, TileCache(prefetch_capacity=16))
        scheduler = PrefetchScheduler(manager, max_workers=1)
        try:
            jobs = scheduler.schedule(
                [(TileKey(3, x, 1), "m") for x in range(4)], session_id=1
            )
            assert scheduler.wait_idle(30)
            finish = [job.finish_order for job in jobs]
            assert finish == sorted(finish)
        finally:
            scheduler.shutdown()


# ----------------------------------------------------------------------
# service wiring
# ----------------------------------------------------------------------
def _service_config(mode: str, k: int = 2) -> ServiceConfig:
    return ServiceConfig(
        prefetch=PrefetchPolicy(k=k, shared_hotspots=mode),
        cache=CacheConfig(recent_capacity=2, prefetch_capacity=k),
    )


class TestServiceWiring:
    def test_off_has_no_registry(self, pyramid):
        with ForeCacheService(pyramid, _service_config("off")) as service:
            assert service.hotspot_registry is None

    def test_observe_feeds_registry_without_going_live(self, pyramid):
        grid = pyramid.grid
        factory = hotspot_engine_factory(grid, num_hotspots=1, proximity=4)
        with ForeCacheService(
            pyramid, _service_config("observe"), engine_factory=factory
        ) as service:
            handle = service.open_session()
            handle.request(None, grid.root)
            assert service.hotspot_registry.snapshot() == [(grid.root, 1.0)]
            recommender = handle.engine.recommenders["hotspot"]
            assert recommender.registry is None  # collected, not consulted
            assert handle.engine.hotspot_registry is service.hotspot_registry

    def test_boost_binds_live_recommenders(self, pyramid):
        grid = pyramid.grid
        factory = hotspot_engine_factory(grid, num_hotspots=1, proximity=4)
        with ForeCacheService(
            pyramid, _service_config("boost"), engine_factory=factory
        ) as service:
            handle = service.open_session()
            recommender = handle.engine.recommenders["hotspot"]
            assert recommender.registry is service.hotspot_registry

    def test_registry_shards_follow_cache_shards(self, pyramid):
        config = ServiceConfig(
            prefetch=PrefetchPolicy(k=2, shared_hotspots="observe"),
            cache=CacheConfig(
                recent_capacity=2, prefetch_capacity=2, shards=4
            ),
        )
        with ForeCacheService(pyramid, config) as service:
            assert service.hotspot_registry.shards == 4

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            PrefetchPolicy(shared_hotspots="sometimes")
        with pytest.raises(ValueError):
            PrefetchPolicy(hotspot_decay=0.0)
        with pytest.raises(ValueError):
            PrefetchPolicy(hotspot_tick_every=-1)
        assert PrefetchPolicy(shared_hotspots="boost").hotspots_live
        assert PrefetchPolicy(shared_hotspots="observe").shares_hotspots
        assert not PrefetchPolicy().shares_hotspots

    def test_close_unbinds_engine_from_service_registry(self, pyramid):
        """A departing engine must stop feeding (and predicting from)
        the service's registry — reusing it under a later "off" service
        must not keep the stale signal alive.
        """
        grid = pyramid.grid
        factory = hotspot_engine_factory(grid, num_hotspots=1, proximity=4)
        with ForeCacheService(
            pyramid, _service_config("boost"), engine_factory=factory
        ) as boost_service:
            handle = boost_service.open_session()
            handle.request(None, grid.root)
            engine = handle.engine
            registry = boost_service.hotspot_registry
            handle.close()
            assert engine.hotspot_registry is None
            assert engine.recommenders["hotspot"].registry is None
        before = registry.total_observations
        with ForeCacheService(pyramid, _service_config("off")) as off_service:
            off_handle = off_service.open_session(engine)
            off_handle.request(None, grid.root)
        assert registry.total_observations == before

    def test_service_close_unbinds_open_sessions(self, pyramid):
        grid = pyramid.grid
        factory = hotspot_engine_factory(grid, num_hotspots=1)
        service = ForeCacheService(
            pyramid, _service_config("observe"), engine_factory=factory
        )
        handle = service.open_session()
        engine = handle.engine
        service.close()
        assert engine.hotspot_registry is None

    def test_close_leaves_foreign_bindings_alone(self, pyramid):
        """An engine the caller bound to their *own* registry keeps it."""
        grid = pyramid.grid
        mine = SharedHotspotRegistry()
        engine = momentum_engine(grid)
        engine.bind_hotspot_registry(mine)
        with ForeCacheService(pyramid, _service_config("off")) as service:
            with service.open_session(engine) as handle:
                handle.request(None, grid.root)
        assert engine.hotspot_registry is mine
        assert mine.total_observations == 1

    def test_tick_every_drives_decay(self, pyramid):
        grid = pyramid.grid
        config = ServiceConfig(
            prefetch=PrefetchPolicy(
                k=2,
                shared_hotspots="observe",
                hotspot_decay=0.5,
                hotspot_tick_every=2,
            ),
            cache=CacheConfig(recent_capacity=2, prefetch_capacity=2),
        )
        with ForeCacheService(
            pyramid, config, engine_factory=lambda: momentum_engine(grid)
        ) as service:
            handle = service.open_session()
            root = grid.root
            child = root.children()[0]
            # 4 requests with tick_every=2 -> 2 ticks, at known points.
            handle.request(None, root)                     # root @ tick 0
            handle.request(root.move_to(child), child)     # tick -> 1
            handle.request(child.move_to(root), root)      # root @ tick 1
            handle.request(root.move_to(child), child)     # tick -> 2
            registry = service.hotspot_registry
            assert registry.tick == 2
            # root: (1 halved to tick 1, +1) halved again at tick 2.
            assert registry.count(root) == 0.75


# ----------------------------------------------------------------------
# end to end: "off" is bit-identical, "boost" helps convergent users
# ----------------------------------------------------------------------
def _seeded_walk(grid, steps: int = 40, seed: int = 11):
    rng = random.Random(seed)
    key = grid.root
    walk = [(None, key)]
    for _ in range(steps):
        move, key = rng.choice(grid.available_moves(key))
        walk.append((move, key))
    return walk


class TestEndToEnd:
    def test_off_and_observe_replay_identical_to_isolated_stack(
        self, pyramid
    ):
        """``shared_hotspots="off"`` (the default) and ``"observe"``
        must replay a trace with output identical to a stack whose
        policy never mentions sharing (default ``PrefetchPolicy``, hand-
        built cache).
        """
        grid = pyramid.grid
        walk = _seeded_walk(grid)

        with ForeCacheService(
            pyramid,
            ServiceConfig(prefetch=PrefetchPolicy(k=2)),
            cache_manager=CacheManager(
                pyramid, TileCache(recent_capacity=2, prefetch_capacity=2)
            ),
        ) as isolated:
            handle = isolated.open_session(momentum_engine(grid))
            for move, key in walk:
                handle.request(move, key)
            baseline = handle.recorder.to_dict()

        for mode in ("off", "observe"):
            with ForeCacheService(pyramid, _service_config(mode)) as service:
                handle = service.open_session(momentum_engine(grid))
                for move, key in walk:
                    handle.request(move, key)
                assert handle.recorder.to_dict() == baseline, mode
                if mode == "observe":
                    registry = service.hotspot_registry
                    assert registry.total_observations == len(walk)

    def test_default_config_has_sharing_off(self):
        assert ServiceConfig().prefetch.shared_hotspots == "off"

    def test_boost_beats_off_on_convergent_traces(self, pyramid):
        """The headline: on convergent multi-user walks, cross-user
        (users 2..N) prefetch hit rate under live sharing must strictly
        exceed the isolated baseline — later users get hits predicted
        from other users' behavior.
        """
        grid = pyramid.grid
        walks = convergent_walks(grid, num_users=3)
        rates = {}
        for mode in ("off", "boost"):
            config = ServiceConfig(
                prefetch=PrefetchPolicy(k=1, shared_hotspots=mode),
                cache=CacheConfig(recent_capacity=1, prefetch_capacity=1),
            )
            factory = hotspot_engine_factory(
                grid, num_hotspots=1, proximity=4
            )
            recorders, _, _ = replay_walks(pyramid, config, walks, factory)
            rates[mode] = cross_user_hit_rate(recorders)
        assert rates["boost"] > rates["off"]

    def test_convergent_replay_is_deterministic(self, pyramid):
        grid = pyramid.grid
        walks = convergent_walks(grid, num_users=3)

        def run():
            config = ServiceConfig(
                prefetch=PrefetchPolicy(k=1, shared_hotspots="boost"),
                cache=CacheConfig(recent_capacity=1, prefetch_capacity=1),
            )
            factory = hotspot_engine_factory(
                grid, num_hotspots=1, proximity=4
            )
            recorders, _, _ = replay_walks(pyramid, config, walks, factory)
            return [recorder.to_dict() for recorder in recorders]

        assert run() == run()

    def test_concurrent_boost_sessions_stay_healthy(self, pyramid):
        """Threaded sessions under "boost": no deadlock between the
        registry's shard locks and the session/scheduler locks, every
        request answered, registry totals exact.
        """
        grid = pyramid.grid
        num_users, steps = 4, 25
        config = ServiceConfig(
            prefetch=PrefetchPolicy(
                k=4,
                mode="background",
                workers=2,
                shared_hotspots="boost",
            ),
            cache=CacheConfig(
                recent_capacity=8, prefetch_capacity=8, shards=4
            ),
        )
        factory = hotspot_engine_factory(grid, num_hotspots=4, proximity=4)
        errors: list[BaseException] = []
        with ForeCacheService(
            pyramid, config, engine_factory=factory
        ) as service:
            handles = [
                service.open_session(session_id=f"user-{i}")
                for i in range(num_users)
            ]

            def drive(index: int) -> None:
                try:
                    rng = random.Random(500 + index)
                    key = grid.root
                    handles[index].request(None, key)
                    for _ in range(steps):
                        move, key = rng.choice(grid.available_moves(key))
                        handles[index].request(move, key)
                except BaseException as exc:  # pragma: no cover
                    errors.append(exc)

            threads = [
                threading.Thread(target=drive, args=(i,))
                for i in range(num_users)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert not errors
            assert service.drain(timeout=30)
            registry = service.hotspot_registry
            assert registry.total_observations == num_users * (steps + 1)
            assert sum(
                recorder.count for recorder in
                (handle.recorder for handle in handles)
            ) == num_users * (steps + 1)


class TestSubEpsilonPruning:
    """``prune_epsilon`` bounds memory without changing the top-N."""

    def test_validation(self):
        with pytest.raises(ValueError):
            SharedHotspotRegistry(prune_epsilon=-0.1)

    def test_service_registry_prunes_at_the_constant(self):
        """A service-owned registry drops a once-seen key after enough
        decay ticks; the live keys' top-N equals an unpruned reference
        fed the same observations and ticks."""
        policy = PrefetchPolicy(
            k=1,
            shared_hotspots="boost",
            hotspot_decay=0.5,
            hotspot_tick_every=1,
        )
        pyramid = _small_pyramid()
        reference = SharedHotspotRegistry(decay=0.5)
        once = TileKey(0, 0, 0)
        live = [TileKey(1, 0, 0), TileKey(1, 1, 0)]
        with ForeCacheService(
            pyramid,
            ServiceConfig(prefetch=policy),
            engine_factory=lambda: momentum_engine(pyramid.grid),
        ) as service:
            session = service.open_session()
            # ``once`` decays 22 ticks: 0.5**22 ~ 2.4e-7 < 1e-6.
            for key in [once] + live * 11:
                session.request(None, key)
                reference.observe(key)
                reference.advance()
            registry = service.hotspot_registry
            assert registry.snapshot(2) == reference.snapshot(2)
            assert len(registry) == 2 and len(reference) == 3
            assert registry.count(once) == 0.0 < reference.count(once)

    def test_snapshot_sweeps_dead_entries(self):
        registry = SharedHotspotRegistry(decay=0.5, prune_epsilon=0.05)
        cold = keys_at(2)[:8]
        for key in cold:
            registry.observe(key)
        hot = TileKey(0, 0, 0)
        registry.observe(hot, weight=100.0)
        assert len(registry) == 9
        # After 6 ticks every cold count is 1 * 0.5**6 ~ 0.0156 < 0.05.
        registry.advance(6)
        top = registry.snapshot()
        assert [key for key, _ in top] == [hot]
        # The snapshot's lazy sweep dropped the dead counters for real.
        assert len(registry) == 1

    def test_count_prunes_dead_key(self):
        registry = SharedHotspotRegistry(decay=0.5, prune_epsilon=0.1)
        key = TileKey(1, 0, 1)
        registry.observe(key)
        registry.advance(5)
        assert registry.count(key) == 0.0
        assert len(registry) == 0

    def test_observe_restarts_subepsilon_count_from_scratch(self):
        registry = SharedHotspotRegistry(decay=0.5, prune_epsilon=0.1)
        key = TileKey(1, 1, 0)
        registry.observe(key)
        registry.advance(10)  # decayed ~ 0.00098 << 0.1
        # Re-observing must behave exactly as if the key was dropped:
        # the new count is the fresh weight, not fresh + dust.
        assert registry.observe(key) == 1.0

    def test_default_epsilon_keeps_every_decayed_key(self):
        registry = SharedHotspotRegistry(decay=0.5)
        for key in keys_at(1):
            registry.observe(key)
        registry.advance(40)  # 0.5**40 ~ 9e-13: dust, but kept
        assert registry.snapshot() == [(key, 0.5**40) for key in sorted(keys_at(1))]
        assert len(registry) == len(keys_at(1))

    def test_advance_sweeps_nothing_until_a_read(self):
        """Pruning rides on reads: ``advance`` is O(1) and drops no
        entry; ``count`` drops the one key it reads, ``snapshot`` the
        rest."""
        registry = SharedHotspotRegistry(decay=0.5, prune_epsilon=0.05)
        cold = keys_at(2)[:10]
        for key in cold:
            registry.observe(key)
        survivor = TileKey(0, 0, 0)
        registry.observe(survivor, weight=64.0)
        registry.advance(6)  # cold: 0.5**6 < 0.05; survivor: 1.0
        assert len(registry) == 11
        assert registry.count(cold[0]) == 0.0
        assert len(registry) == 10
        assert registry.snapshot() == [(survivor, 1.0)]
        assert len(registry) == 1

    def test_pruned_snapshot_is_shard_invariant(self):
        """Determinism: the pruned snapshot is a pure function of the
        observation sequence — the shard count never changes it."""
        snapshots = []
        for shards in (1, 2, 4):
            registry = SharedHotspotRegistry(
                shards=shards, decay=0.6, prune_epsilon=0.03
            )
            rng = random.Random(99)
            keys = keys_at(3)
            for step in range(400):
                registry.observe(rng.choice(keys))
                if step % 25 == 24:
                    registry.advance()
            snapshots.append(registry.snapshot())
        assert snapshots[0] == snapshots[1] == snapshots[2]

    def test_pruning_only_sheds_subepsilon_dust(self):
        """Approximation: vs. an unpruned reference, pruning loses at
        most the sub-epsilon dust a restart drops — never a hot count."""
        epsilon = 0.03
        pruned = SharedHotspotRegistry(decay=0.6, prune_epsilon=epsilon)
        reference = SharedHotspotRegistry(decay=0.6)
        rng = random.Random(99)
        keys = keys_at(3)
        for step in range(400):
            key = rng.choice(keys)
            pruned.observe(key)
            reference.observe(key)
            if step % 25 == 24:
                pruned.advance()
                reference.advance()
        ref = dict(reference.snapshot())
        pr = dict(pruned.snapshot())
        assert set(pr) <= set(ref)
        # Every surviving count is within one epsilon of the reference.
        assert all(0 <= ref[key] - pr[key] < epsilon for key in pr)
        # Nothing that still matters was lost.
        assert all(key in pr for key, count in ref.items() if count >= 1.0)
        assert pruned.hot_keys(1) == reference.hot_keys(1)

    def test_memory_bounded_under_adversarial_sweep(self):
        """A random walk over many tiles cannot grow the registry
        without bound when decay + pruning are on."""
        registry = SharedHotspotRegistry(decay=0.5, prune_epsilon=0.01)
        keys = keys_at(4)  # 256 distinct tiles
        rng = random.Random(7)
        high_water = 0
        for step in range(2000):
            registry.observe(rng.choice(keys))
            if step % 10 == 9:
                registry.advance()
            if step % 50 == 49:
                registry.snapshot()  # the sweep that enforces the bound
                high_water = max(high_water, len(registry))
        # 0.5-decay with a tick every 10 observations keeps only a few
        # recent epochs alive: ~10 fresh keys per epoch, 7 epochs to
        # decay 1.0 below 0.01.
        assert high_water < 120
        unbounded = SharedHotspotRegistry(decay=0.5)
        rng = random.Random(7)
        for step in range(2000):
            unbounded.observe(rng.choice(keys))
            if step % 10 == 9:
                unbounded.advance()
        assert len(unbounded) == len(keys)  # what pruning prevents


def _small_pyramid():
    from repro.modis.dataset import MODISDataset

    return MODISDataset.build(size=64, tile_size=8, days=1, seed=3).pyramid
