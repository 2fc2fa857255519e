"""The serving facade: session lifecycle, config validation, and
front-end equivalence (facade / wire transport)."""

import threading

import pytest

from repro.cache.manager import CacheManager
from repro.cache.tile_cache import TileCache
from repro.core.allocation import SingleModelStrategy
from repro.core.engine import PredictionEngine
from repro.experiments.sweep import SweepSpec, UnknownParameterError
from repro.middleware.config import CacheConfig, PrefetchPolicy, ServiceConfig
from repro.middleware.protocol import (
    DuplicateSessionError,
    SessionClosedError,
    SessionNotFoundError,
)
from repro.middleware.service import ForeCacheService
from repro.modis.dataset import MODISDataset
from repro.recommenders.momentum import MomentumRecommender
from repro.tiles.key import TileKey
from repro.tiles.moves import Move
from repro.tiles.reduce import carve_from_ancestor


def make_engine(grid) -> PredictionEngine:
    model = MomentumRecommender()
    return PredictionEngine(
        grid, {model.name: model}, SingleModelStrategy(model.name)
    )


def sweep_spec(**fixed) -> SweepSpec:
    return SweepSpec.from_dict(
        {"name": "retired", "parameters": {"users": [1]}, "fixed": fixed}
    )


@pytest.fixture
def service(small_dataset):
    with ForeCacheService(
        small_dataset.pyramid,
        ServiceConfig(prefetch=PrefetchPolicy(k=5)),
        engine_factory=lambda: make_engine(small_dataset.pyramid.grid),
    ) as service:
        yield service


class TestConfig:
    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            PrefetchPolicy(k=0)

    def test_rejects_bad_mode(self):
        with pytest.raises(ValueError):
            PrefetchPolicy(mode="eager")

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            PrefetchPolicy(workers=0)

    def test_rejects_undersized_shared_prefetch_region(self, small_dataset):
        # Validated when the service materializes the cache (the config
        # alone cannot know whether an injected manager will be used).
        config = ServiceConfig(
            prefetch=PrefetchPolicy(k=9, share_budget=True),
            cache=CacheConfig(prefetch_capacity=4),
        )
        with pytest.raises(ValueError):
            ForeCacheService(small_dataset.pyramid, config)

    def test_share_budget_config_ok_with_roomy_injected_cache(
        self, small_dataset
    ):
        """A small config.cache must not veto a large injected manager."""
        manager = CacheManager(
            small_dataset.pyramid, TileCache(prefetch_capacity=32)
        )
        config = ServiceConfig(
            prefetch=PrefetchPolicy(k=16, share_budget=True)
        )
        with ForeCacheService(
            small_dataset.pyramid, config, cache_manager=manager
        ) as service:
            assert service.cache_manager is manager

    def test_rejects_undersized_injected_cache(self, small_dataset):
        manager = CacheManager(
            small_dataset.pyramid, TileCache(prefetch_capacity=2)
        )
        with pytest.raises(ValueError):
            ForeCacheService(
                small_dataset.pyramid,
                ServiceConfig(
                    prefetch=PrefetchPolicy(k=8, share_budget=True)
                ),
                cache_manager=manager,
            )

    @pytest.mark.parametrize(
        "config, field, bad",
        [
            (PrefetchPolicy, "k", 0),
            (PrefetchPolicy, "mode", "eager"),
            (PrefetchPolicy, "workers", 0),
            (PrefetchPolicy, "shared_hotspots", "loud"),
            (PrefetchPolicy, "hotspot_decay", 0.0),
            (PrefetchPolicy, "hotspot_tick_every", -1),
            (PrefetchPolicy, "push", "maybe"),
            (PrefetchPolicy, "push_budget_bytes", 10),
            (PrefetchPolicy, "push_max_inflight", 0),
            (PrefetchPolicy, "fidelity", "lossy"),
            (PrefetchPolicy, "shed_queue_depth", 0),
            (PrefetchPolicy, "shed_miss_streak", -1),
            (CacheConfig, "recent_capacity", 0),
            (CacheConfig, "prefetch_capacity", 0),
            (CacheConfig, "backend_delay_seconds", -1.0),
            (CacheConfig, "shards", 0),
            (ServiceConfig, "bind_port", 70000),
            (ServiceConfig, "max_frame_bytes", 16),
            (ServiceConfig, "payloads", ("binary",)),
            (ServiceConfig, "ring_replicas", 0),
        ],
    )
    def test_validation_error_names_the_field_the_caller_typed(
        self, config, field, bad
    ):
        with pytest.raises(ValueError) as excinfo:
            config(**{field: bad})
        assert str(excinfo.value).startswith(f"{field} must ")

    @pytest.mark.parametrize(
        "build, retired, error",
        [
            (PrefetchPolicy, {"admission": "fifo"}, TypeError),
            (PrefetchPolicy, {"push_utility": "density"}, TypeError),
            (PrefetchPolicy, {"hotspot_tick_seconds": 1.0}, TypeError),
            (PrefetchPolicy, {"hotspot_prune_epsilon": 1e-6}, TypeError),
            (PrefetchPolicy, {"hotspot_top_n": 8}, TypeError),
            (PrefetchPolicy, {"hotspot_boost": 2}, TypeError),
            (PrefetchPolicy, {"fidelity_reduction": 4}, TypeError),
            (PrefetchPolicy, {"shed_keep_k": 2}, TypeError),
            (ServiceConfig, {"gossip_interval": 1.0}, TypeError),
            (sweep_spec, {"prefetch_admission": "fifo"}, UnknownParameterError),
            (sweep_spec, {"hotspot_top_n": 8}, UnknownParameterError),
            (sweep_spec, {"hotspot_boost": 2}, UnknownParameterError),
            (sweep_spec, {"hotspot_prune_epsilon": 1e-6}, UnknownParameterError),
            (sweep_spec, {"fidelity_reduction": 4}, UnknownParameterError),
            (sweep_spec, {"shed_keep_k": 2}, UnknownParameterError),
        ],
    )
    def test_retired_knobs_are_refused_by_name(self, build, retired, error):
        with pytest.raises(error, match=next(iter(retired))):
            build(**retired)

    def test_configs_are_frozen(self):
        policy = PrefetchPolicy()
        with pytest.raises(AttributeError):
            policy.k = 3


class TestSessionLifecycle:
    def test_open_request_close(self, service):
        session = service.open_session()
        response = session.request(None, TileKey(0, 0, 0))
        assert response.tile.key == TileKey(0, 0, 0)
        assert session.recorder.count == 1
        session.close()
        assert session.closed
        assert service.session_count == 0

    def test_auto_session_ids_are_unique(self, service):
        ids = {service.open_session().session_id for _ in range(10)}
        assert len(ids) == 10

    def test_auto_id_skips_names_callers_claimed(self, service):
        service.open_session(session_id="session-1")
        auto = service.open_session()
        assert auto.session_id != "session-1"

    def test_duplicate_session_id_rejected(self, service):
        service.open_session(session_id="alice")
        with pytest.raises(DuplicateSessionError):
            service.open_session(session_id="alice")
        # The typed error still honors the legacy ValueError contract.
        with pytest.raises(ValueError):
            service.open_session(session_id="alice")

    def test_request_after_close_rejected(self, service):
        session = service.open_session()
        session.request(None, TileKey(0, 0, 0))
        session.close()
        with pytest.raises(SessionClosedError):
            session.request(Move.ZOOM_IN_NW, TileKey(1, 0, 0))

    def test_close_is_idempotent(self, service):
        session = service.open_session()
        session.close()
        session.close()

    def test_unknown_session_rejected(self, service):
        with pytest.raises(SessionNotFoundError):
            service.request("ghost", None, TileKey(0, 0, 0))
        with pytest.raises(SessionNotFoundError):
            service.close_session("ghost")
        for call, args in (
            (service.info, ()),
            (service.pending_predictions, ()),
            (service.local_hit, (None, TileKey(0, 0, 0))),
        ):
            with pytest.raises(SessionNotFoundError, match="ghost"):
                call("ghost", *args)

    def test_open_after_service_close_rejected(self, small_dataset):
        service = ForeCacheService(small_dataset.pyramid)
        service.close()
        with pytest.raises(SessionClosedError):
            service.open_session(make_engine(small_dataset.pyramid.grid))

    def test_service_close_closes_sessions(self, small_dataset):
        service = ForeCacheService(
            small_dataset.pyramid,
            engine_factory=lambda: make_engine(small_dataset.pyramid.grid),
        )
        session = service.open_session()
        service.close()
        with pytest.raises(SessionClosedError):
            session.request(None, TileKey(0, 0, 0))

    def test_session_handle_context_manager(self, service):
        with service.open_session() as session:
            session.request(None, TileKey(0, 0, 0))
        assert session.closed

    def test_open_session_requires_engine_or_factory(self, small_dataset):
        with ForeCacheService(small_dataset.pyramid) as service:
            with pytest.raises(ValueError):
                service.open_session()

    def test_concurrent_open_session_from_many_threads(self, service):
        """Auto ids stay unique and named collisions lose cleanly."""
        opened, errors = [], []
        barrier = threading.Barrier(8)

        def auto_open():
            barrier.wait()
            opened.append(service.open_session())

        def named_open():
            barrier.wait()
            try:
                opened.append(service.open_session(session_id="contested"))
            except DuplicateSessionError:
                errors.append(1)

        threads = [threading.Thread(target=auto_open) for _ in range(4)] + [
            threading.Thread(target=named_open) for _ in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        ids = [session.session_id for session in opened]
        assert len(ids) == len(set(ids))
        assert len(errors) == 3  # exactly one thread won the name
        assert service.session_count == 5

    def test_session_info_snapshot(self, service):
        session = service.open_session(session_id="s1")
        session.request(None, TileKey(2, 1, 1))
        info = session.info()
        assert info.session_id == "s1"
        assert info.open
        assert info.requests == 1
        assert info.hits == 0
        assert info.prefetch_mode == "sync"
        session.close()

    def test_shared_cache_across_sessions(self, service):
        """A tile one session pulled in serves the other from cache."""
        first = service.open_session(session_id=1)
        second = service.open_session(session_id=2)
        first.request(None, TileKey(2, 1, 1))
        response = second.request(None, TileKey(2, 1, 1))
        assert response.hit


class TestBackgroundService:
    def test_background_sessions_prefetch_and_drain(self, small_dataset):
        config = ServiceConfig(
            prefetch=PrefetchPolicy(k=5, mode="background", workers=2)
        )
        with ForeCacheService(small_dataset.pyramid, config) as service:
            session = service.open_session(
                make_engine(small_dataset.pyramid.grid)
            )
            first = session.request(None, TileKey(2, 1, 1))
            assert service.drain(timeout=10)
            target = first.prefetched[0]
            move = TileKey(2, 1, 1).move_to(target)
            assert session.request(move, target).hit

    def test_close_shuts_down_owned_scheduler(self, small_dataset):
        config = ServiceConfig(prefetch=PrefetchPolicy(mode="background"))
        service = ForeCacheService(small_dataset.pyramid, config)
        service.close()
        with pytest.raises(RuntimeError):
            service.scheduler.schedule([(TileKey(0, 0, 0), "m")])

    def test_a_served_request_that_meets_the_shut_pool_gets_a_typed_error(
        self, small_dataset
    ):
        # Closing the service shuts its prefetch pool down.  A request
        # whose tile was already fetched when the pool went away must
        # report the typed lifecycle error, not the scheduler's bare
        # RuntimeError.
        config = ServiceConfig(prefetch=PrefetchPolicy(k=5, mode="background"))
        with ForeCacheService(
            small_dataset.pyramid,
            config,
            engine_factory=lambda: make_engine(small_dataset.pyramid.grid),
        ) as service:
            session = service.open_session(session_id="racer")
            fetch = service.cache_manager.fetch

            def fetch_then_shut_the_pool(key):
                outcome = fetch(key)
                service.scheduler.shutdown()
                return outcome

            service.cache_manager.fetch = fetch_then_shut_the_pool
            with pytest.raises(SessionClosedError) as caught:
                session.request(None, TileKey(0, 0, 0))
            assert type(caught.value) is SessionClosedError
            assert "prefetch scheduler is shut down" in str(caught.value)
            assert caught.value.session_id == "racer"
            assert service.scheduler.closed


class TestSchedulingKnobs:
    """shards thread from config through the facade."""

    def test_rejects_zero_shards(self):
        with pytest.raises(ValueError):
            CacheConfig(shards=0)

    def test_cache_config_shards_reach_both_layers(self, small_dataset):
        """One shard count for both cache regions and the in-flight
        loads, each shard a slice of every one of them; the manager
        keeps no stripes of its own."""
        manager = CacheConfig(shards=4).build_cache_manager(
            small_dataset.pyramid
        )
        assert not hasattr(manager, "shards")
        assert manager.cache.shards == 4
        assert len(manager.cache._inflight) == 4
        assert len(manager.cache._recent) == 4
        assert len(manager.cache._prefetched) == 4
        assert len(manager.cache._locks) == 4

    def test_background_requests_flow_through_priority_scheduler(
        self, small_dataset
    ):
        with ForeCacheService(
            small_dataset.pyramid,
            ServiceConfig(
                prefetch=PrefetchPolicy(k=4, mode="background"),
                cache=CacheConfig(shards=4),
            ),
            engine_factory=lambda: make_engine(small_dataset.pyramid.grid),
        ) as svc:
            session = svc.open_session()
            response = session.request(None, small_dataset.pyramid.grid.root)
            assert response.tile.key == small_dataset.pyramid.grid.root
            assert svc.drain(timeout=10)
            scheduler = svc.scheduler
            assert scheduler.jobs_submitted > 0
            assert scheduler.jobs_submitted == (
                scheduler.jobs_completed
                + scheduler.jobs_cancelled
                + scheduler.jobs_failed
            )
            assert scheduler.jobs_failed == 0


class TestProgressiveFidelity:
    """The overload ladder: config knobs, admission-time shedding in the
    prefetch scheduler, and degraded (ancestor-carved) serving."""

    def test_rejects_bad_fidelity_knobs(self):
        with pytest.raises(ValueError):
            PrefetchPolicy(fidelity="lossy")
        with pytest.raises(ValueError):
            PrefetchPolicy(shed_queue_depth=0)
        with pytest.raises(ValueError):
            PrefetchPolicy(shed_miss_streak=-1)

    def test_fidelity_defaults_off(self):
        policy = PrefetchPolicy()
        assert policy.fidelity == "off"
        assert not policy.fidelity_enabled
        assert PrefetchPolicy(fidelity="progressive").fidelity_enabled

    def test_shedding_arms_only_with_progressive_fidelity(
        self, small_dataset
    ):
        background = PrefetchPolicy(mode="background", shed_queue_depth=4)
        with ForeCacheService(
            small_dataset.pyramid,
            ServiceConfig(prefetch=background),
            engine_factory=lambda: make_engine(small_dataset.pyramid.grid),
        ) as svc:
            assert svc.scheduler.shed_queue_depth is None
        armed = PrefetchPolicy(
            mode="background", fidelity="progressive", shed_queue_depth=4
        )
        with ForeCacheService(
            small_dataset.pyramid,
            ServiceConfig(prefetch=armed),
            engine_factory=lambda: make_engine(small_dataset.pyramid.grid),
        ) as svc:
            assert svc.scheduler.shed_queue_depth == 4

    def test_scheduler_sheds_low_rank_tail_under_backlog(self, small_dataset):
        from repro.middleware.scheduler import PrefetchScheduler

        manager = CacheManager(
            small_dataset.pyramid, backend_delay_seconds=0.1
        )
        with PrefetchScheduler(
            manager, max_workers=1, shed_queue_depth=2
        ) as scheduler:
            first = [
                (TileKey(3, x, 0), "momentum") for x in range(4)
            ]
            scheduler.schedule(first, session_id="a")
            assert scheduler.queue_depth >= 2  # backlog past the threshold
            second = [
                (TileKey(3, x, 1), "momentum") for x in range(5)
            ]
            jobs = scheduler.schedule(second, session_id="b")
            # Only the SHED_KEEP_RANKS best-ranked survive admission.
            assert len(jobs) == 2
            assert [job.rank for job in jobs] == [0, 1]
            assert scheduler.jobs_shed == 3
            assert scheduler.wait_idle(timeout=10)

    def test_no_shedding_when_disarmed(self, small_dataset):
        from repro.middleware.scheduler import PrefetchScheduler

        manager = CacheManager(
            small_dataset.pyramid, backend_delay_seconds=0.1
        )
        with PrefetchScheduler(manager, max_workers=1) as scheduler:
            scheduler.schedule(
                [(TileKey(3, x, 0), "momentum") for x in range(4)],
                session_id="a",
            )
            jobs = scheduler.schedule(
                [(TileKey(3, x, 1), "momentum") for x in range(5)],
                session_id="b",
            )
            assert len(jobs) == 5
            assert scheduler.jobs_shed == 0
            assert scheduler.wait_idle(timeout=10)

    def degraded_service(self, pyramid, **knobs):
        policy = PrefetchPolicy(
            k=2,
            fidelity="progressive",
            shed_miss_streak=2,
            **knobs,
        )
        return ForeCacheService(
            pyramid,
            ServiceConfig(
                prefetch=policy,
                cache=CacheConfig(recent_capacity=8, prefetch_capacity=4),
            ),
            engine_factory=lambda: make_engine(pyramid.grid),
        )

    def test_overload_serves_cached_ancestor_at_reduced_fidelity(
        self, small_dataset
    ):
        with self.degraded_service(small_dataset.pyramid) as svc:
            session = svc.open_session()
            # Warm the level-1 ancestor, then trip the miss streak.
            assert session.request(None, TileKey(1, 0, 0)).fidelity == 1.0
            session.request(None, TileKey(4, 9, 9))
            session.request(None, TileKey(5, 20, 20))
            assert svc._overloaded()
            response = session.request(None, TileKey(3, 1, 1))
            # Depth-2 carve from the cached level-1 tile: full shape,
            # quarter resolution, served at hit latency.
            assert response.fidelity == 0.25
            assert response.hit
            assert response.tile.key == TileKey(3, 1, 1)
            assert response.tile.shape == (32, 32)
            assert svc.degraded_served == 1

    def test_a_written_ancestor_is_not_carved_from(self):
        # A world of its own: this test writes into a view.
        pyramid = MODISDataset.build(size=256, tile_size=32, days=1, seed=7).pyramid
        with self.degraded_service(pyramid) as svc:
            session = svc.open_session()
            ancestor, key = TileKey(1, 0, 0), TileKey(3, 1, 1)
            assert session.request(None, ancestor).fidelity == 1.0
            old = pyramid.fetch_tile(ancestor, charge=False)
            for name, block in old.attributes.items():
                pyramid.db.write(
                    pyramid.view_name(1), name, block + 1.0, pyramid.tile_region(ancestor)
                )
            session.request(None, TileKey(3, 7, 7))
            session.request(None, TileKey(3, 6, 6))
            assert svc._overloaded()
            response = session.request(None, key)
            # The cached ancestor was written since it was loaded: no
            # carve from its old bytes, a real fetch instead.
            assert response.tile != carve_from_ancestor(old, key)
            assert (response.fidelity, response.hit) == (1.0, False)
            assert response.tile == pyramid.fetch_tile(key, charge=False)
            assert svc.degraded_served == 0

    def test_no_cached_ancestor_pays_the_backend(self, small_dataset):
        with self.degraded_service(small_dataset.pyramid) as svc:
            session = svc.open_session()
            session.request(None, TileKey(4, 9, 9))
            session.request(None, TileKey(5, 20, 20))
            assert svc._overloaded()
            # Nothing above this tile is resident: a real (full
            # fidelity) fetch happens, and is reported as the miss it is.
            response = session.request(None, TileKey(5, 3, 29))
            assert response.fidelity == 1.0
            assert not response.hit
            assert svc.degraded_served == 0

    def test_real_hit_clears_the_miss_streak(self, small_dataset):
        with self.degraded_service(small_dataset.pyramid) as svc:
            session = svc.open_session()
            session.request(None, TileKey(4, 9, 9))
            session.request(None, TileKey(5, 20, 20))
            assert svc._overloaded()
            assert session.request(None, TileKey(4, 9, 9)).hit  # resident
            assert not svc._overloaded()
            assert svc._miss_streak == 0

    def test_off_mode_never_degrades(self, small_dataset):
        config = ServiceConfig(
            prefetch=PrefetchPolicy(k=2, shed_miss_streak=2),
            cache=CacheConfig(recent_capacity=8, prefetch_capacity=4),
        )
        with ForeCacheService(
            small_dataset.pyramid,
            config,
            engine_factory=lambda: make_engine(small_dataset.pyramid.grid),
        ) as svc:
            session = svc.open_session()
            session.request(None, TileKey(1, 0, 0))
            session.request(None, TileKey(4, 9, 9))
            session.request(None, TileKey(5, 20, 20))
            response = session.request(None, TileKey(3, 1, 1))
            assert response.fidelity == 1.0
            assert svc.degraded_served == 0
            assert svc._miss_streak == 0  # off mode never counts
