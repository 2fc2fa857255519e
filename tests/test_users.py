"""Unit tests for sessions, traces, behavior, and the study runner."""

import numpy as np
import pytest

from repro.phases.model import AnalysisPhase
from repro.tiles.key import TileKey
from repro.tiles.moves import Move
from repro.users.behavior import BehaviorProfile, SimulatedUser
from repro.users.session import Request, StudyData, Trace
from repro.users.study import run_study

P = AnalysisPhase


def sample_trace(user=1, task=1) -> Trace:
    return Trace(
        user_id=user,
        task_id=task,
        requests=[
            Request(0, TileKey(0, 0, 0), None, P.FORAGING),
            Request(1, TileKey(1, 1, 0), Move.ZOOM_IN_NE, P.NAVIGATION),
            Request(2, TileKey(1, 0, 0), Move.PAN_LEFT, P.SENSEMAKING),
        ],
    )


class TestRequestTrace:
    def test_request_roundtrip(self):
        request = Request(3, TileKey(2, 1, 0), Move.PAN_DOWN, P.FORAGING)
        assert Request.from_dict(request.to_dict()) == request

    def test_initial_request_roundtrip(self):
        request = Request(0, TileKey(0, 0, 0), None, None)
        assert Request.from_dict(request.to_dict()) == request

    def test_trace_moves_skips_initial(self):
        assert sample_trace().moves() == [Move.ZOOM_IN_NE, Move.PAN_LEFT]

    def test_trace_tiles(self):
        assert sample_trace().tiles()[0] == TileKey(0, 0, 0)

    def test_trace_roundtrip(self):
        trace = sample_trace()
        assert Trace.from_dict(trace.to_dict()).requests == trace.requests


class TestStudyData:
    def _study(self) -> StudyData:
        return StudyData(
            traces=[
                sample_trace(1, 1),
                sample_trace(1, 2),
                sample_trace(2, 1),
            ]
        )

    def test_ids(self):
        study = self._study()
        assert study.user_ids == [1, 2]
        assert study.task_ids == [1, 2]

    def test_filters(self):
        study = self._study()
        assert len(study.by_user(1)) == 2
        assert len(study.by_task(1)) == 2
        assert len(study.excluding_user(1)) == 1

    def test_total_requests(self):
        assert self._study().total_requests() == 9

    def test_save_load_roundtrip(self, tmp_path):
        study = self._study()
        path = tmp_path / "traces.jsonl"
        study.save(path)
        loaded = StudyData.load(path)
        assert len(loaded) == 3
        assert loaded.traces[0].requests == study.traces[0].requests


class TestBehaviorProfile:
    def test_sample_within_bounds(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            profile = BehaviorProfile.sample(rng)
            assert 0.0 <= profile.attention <= 1.0
            assert profile.retreat_depth >= 1
            assert profile.patience >= 1

    def test_validation(self):
        with pytest.raises(ValueError):
            BehaviorProfile(
                attention=1.5, persistence=0.5, wander=0.1, peek_rate=0.1,
                retreat_depth=2, patience=2, cluster_greed=0.5,
                verify_rate=0.1, compare_rate=0.1,
            )
        with pytest.raises(ValueError):
            BehaviorProfile(
                attention=0.9, persistence=0.5, wander=0.1, peek_rate=0.1,
                retreat_depth=0, patience=2, cluster_greed=0.5,
                verify_rate=0.1, compare_rate=0.1,
            )


class TestSimulatedUser:
    @pytest.fixture(scope="class")
    def one_trace(self, small_dataset):
        profile = BehaviorProfile.sample(np.random.default_rng(1))
        user = SimulatedUser(small_dataset, user_id=1, profile=profile, seed=17)
        return user.run_task(small_dataset.tasks[1])

    def test_starts_at_root(self, one_trace):
        assert one_trace.requests[0].tile == TileKey(0, 0, 0)
        assert one_trace.requests[0].move is None

    def test_moves_are_legal(self, one_trace, small_dataset):
        grid = small_dataset.pyramid.grid
        for prev, cur in zip(one_trace.requests, one_trace.requests[1:]):
            assert cur.move is not None
            assert grid.apply(prev.tile, cur.move) == cur.tile

    def test_every_request_labeled(self, one_trace):
        assert all(r.phase is not None for r in one_trace.requests)

    def test_indices_sequential(self, one_trace):
        assert [r.index for r in one_trace.requests] == list(range(len(one_trace)))

    def test_deterministic_for_seed(self, small_dataset):
        profile = BehaviorProfile.sample(np.random.default_rng(1))
        a = SimulatedUser(small_dataset, 1, profile, seed=17).run_task(
            small_dataset.tasks[1]
        )
        b = SimulatedUser(small_dataset, 1, profile, seed=17).run_task(
            small_dataset.tasks[1]
        )
        assert a.requests == b.requests

    def test_budget_respected(self, small_dataset):
        profile = BehaviorProfile.sample(np.random.default_rng(2))
        user = SimulatedUser(
            small_dataset, 1, profile, seed=17, max_requests=15
        )
        trace = user.run_task(small_dataset.tasks[0])
        assert len(trace) <= 15

    def test_completes_task_2(self, small_dataset, one_trace):
        """Task 2 is well-stocked in the small world: user must finish."""
        task = small_dataset.tasks[1]
        found = {
            r.tile
            for r in one_trace.requests
            if small_dataset.satisfies_task(r.tile, task)
        }
        assert len(found) >= task.tiles_to_find


class TestRunStudy:
    def test_trace_count(self, small_study, small_dataset):
        assert len(small_study) == 4 * len(small_dataset.tasks)

    def test_user_ids_one_based(self, small_study):
        assert small_study.user_ids == [1, 2, 3, 4]

    def test_profiles_vary_between_users(self, small_study):
        """Different users produce different traces (Figure 8c-e)."""
        task1 = small_study.by_task(1)
        lengths = {len(t) for t in task1}
        moves = {tuple(m.value for m in t.moves()) for t in task1}
        assert len(moves) > 1

    def test_all_phases_appear(self, small_study):
        phases = {r.phase for t in small_study.traces for r in t.requests}
        assert phases == {P.FORAGING, P.NAVIGATION, P.SENSEMAKING}

    def test_rejects_bad_user_count(self, small_dataset):
        with pytest.raises(ValueError):
            run_study(small_dataset, num_users=0)
