"""What the engine remembers between prediction rounds (PR 15).

The pure parts of a round — the phase decision of a ``(tile, move)``,
the Kneser–Ney distribution of a context, the raw signature distance of
a tile pair, the grid's legal moves and candidate sets, the SB ranking
of a ``(candidates, ROI)`` and the Markov ranking of a ``(last moves,
tile)`` — are computed once and remembered by the object that owns the
state they derive from.  These tests hold the three promises that
makes: a remembered answer *is* the computed answer (bit for bit,
against a transcription of the pair-by-pair Algorithm 3 and a digest
recorded before anything was remembered), it is dropped exactly when
its source changes, and it stays bounded.
"""

from __future__ import annotations

import hashlib
import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.allocation import PaperFinalStrategy
from repro.core.engine import PredictionEngine
from repro.experiments.context import ExperimentContext
from repro.experiments.runner import HYBRID_SIGNATURE, hybrid_factory
from repro.phases import classifier as classifier_module
from repro.phases.classifier import PhaseClassifier
from repro.phases.features import trace_features
from repro.recommenders import markov as markov_module
from repro.recommenders import signature_based as signature_based_module
from repro.recommenders import smoothing as smoothing_module
from repro.recommenders.base import PredictionContext
from repro.recommenders.markov import MarkovRecommender
from repro.recommenders.signature_based import SignatureBasedRecommender
from repro.recommenders.smoothing import KneserNeyEstimator
from repro.signatures import provider as provider_module
from repro.signatures.base import Signature, SignatureRegistry
from repro.signatures.distance import rank_by_score, score_candidates
from repro.signatures.provider import SignatureProvider
from repro.tiles import pyramid as pyramid_module
from repro.tiles.key import TileKey
from repro.tiles.moves import ALL_MOVES, Move
from repro.tiles.pyramid import TileGrid
from repro.users.session import Request, Trace

#: blake2b over every hybrid round of the tiny study (see
#: :func:`prediction_digest`), recorded at commit 338397e — the last one
#: that computed every round from scratch.
GOLDEN_DIGEST = "02eccee61d9d36e992616db51e6619e4"
GOLDEN_ROUNDS = 836


@pytest.fixture(scope="module")
def tiny_context():
    return ExperimentContext.build(size=256, num_users=3, days=1, num_words=8)


def round_record(result) -> tuple:
    return (
        None if result.phase is None else result.phase.value,
        [str(tile) for tile in result.tiles],
        [(str(tile), name) for tile, name in result.attributed_tiles()],
        result.allocation,
    )


def prediction_digest(context, ks=(1, 3, 5, 8)) -> tuple[str, int]:
    """Digest of (phase, tiles, attributions, allocation) of every round
    of the hybrid engine over every study trace, and the round count."""
    engine = hybrid_factory(context)(context.study.traces)
    digest = hashlib.blake2b(digest_size=16)
    rounds = 0
    for trace in context.study.traces:
        engine.reset()
        for request in trace.requests:
            engine.observe(request.move, request.tile)
            for k in ks:
                digest.update(repr(round_record(engine.predict(k))).encode())
                rounds += 1
    return digest.hexdigest(), rounds


# ----------------------------------------------------------------------
# Algorithm 3: the array form against the pair-by-pair form
# ----------------------------------------------------------------------
def reference_weighted_l2(distances, weights=None) -> float:
    """``weighted_l2`` as of 338397e, transcribed."""
    distances = np.asarray(distances, dtype="float64")
    if weights is None:
        weights = np.ones_like(distances)
    else:
        weights = np.asarray(weights, dtype="float64")
    scale = float(np.max(np.abs(distances))) if distances.size else 0.0
    if scale == 0.0 or not np.isfinite(scale):
        return float(np.sqrt(np.sum(weights * distances**2)))
    scaled = distances / scale
    return float(scale * np.sqrt(np.sum(weights * scaled**2)))


def reference_score_candidates(
    candidates, roi_tiles, signature_names, get_vector, distance_fns, weights=None
):
    """``score_candidates`` as of 338397e, transcribed: one dict entry
    and one ``weighted_l2`` round trip per candidate/ROI pair."""
    pairs = [(a, b) for a in candidates for b in roi_tiles]
    manhattan = {(a, b): a.manhattan_distance(b) for a, b in pairs}
    per_signature = {}
    for name in signature_names:
        dist_fn = distance_fns[name]
        d_max = 1.0
        table = {}
        for a, b in pairs:
            raw = dist_fn(get_vector(a, name), get_vector(b, name))
            penalized = (2.0 ** (manhattan[(a, b)] - 1)) * raw
            table[(a, b)] = penalized
            d_max = max(d_max, penalized)
        for pair in table:
            table[pair] /= d_max
        per_signature[name] = table
    pair_distance = {}
    for a, b in pairs:
        per_pair = [per_signature[name][(a, b)] for name in signature_names]
        physical = max(1, manhattan[(a, b)])
        pair_distance[(a, b)] = reference_weighted_l2(per_pair, weights) / physical
    return {a: sum(pair_distance[(a, b)] for b in roi_tiles) for a in candidates}


@st.composite
def keys(draw, max_level: int = 5):
    level = draw(st.integers(0, max_level))
    n = 2**level
    return TileKey(level, draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1)))


#: Zero, the two ends of the float range (the far one overflows once the
#: physical-distance penalty is applied), and ordinary values; few
#: enough distinct ones that ties are the rule.
raw_distances = st.one_of(
    st.sampled_from([0.0, 1e-300, 1e300, 0.25, 1.0, 3.0]),
    st.floats(0.0, 1e3, allow_nan=False),
)


def same_float(a: float, b: float) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b))


class TestAlgorithm3Exact:
    @settings(max_examples=300, deadline=None)
    @given(
        candidates=st.lists(keys(), min_size=1, max_size=9, unique=True),
        roi=st.lists(keys(), min_size=1, max_size=12),
        num_signatures=st.integers(1, 3),
        weighted=st.booleans(),
        weight_pool=st.lists(st.floats(0.0, 4.0), min_size=3, max_size=3),
        table=st.lists(raw_distances, min_size=7, max_size=7),
    )
    def test_equals_the_pair_by_pair_form(
        self, candidates, roi, num_signatures, weighted, weight_pool, table
    ):
        names = [f"s{i}" for i in range(num_signatures)]
        weights = weight_pool[:num_signatures] if weighted else None

        def get_vector(tile, name):
            return (tile, name)

        def distance(va, vb):
            (a, name), (b, _) = va, vb
            index = (
                a.level + 3 * a.x + 5 * a.y
                + 7 * b.level + 11 * b.x + 13 * b.y + 17 * names.index(name)
            )
            return table[index % len(table)]

        fns = {name: distance for name in names}
        expected = reference_score_candidates(
            candidates, roi, names, get_vector, fns, weights
        )
        actual = score_candidates(candidates, roi, names, get_vector, fns, weights)
        assert list(actual) == list(expected)
        for tile in expected:
            assert type(actual[tile]) is float
            assert same_float(actual[tile], expected[tile]), tile
        assert rank_by_score(actual) == rank_by_score(expected)

    def test_negative_weight_still_rejected(self):
        tile = TileKey(1, 0, 0)
        with pytest.raises(ValueError, match="non-negative"):
            score_candidates(
                [tile], [tile], ["s"], lambda t, n: t, {"s": lambda a, b: 1.0}, [-1.0]
            )

    def test_no_signatures_scores_zero(self):
        tile = TileKey(1, 0, 0)
        assert score_candidates([tile], [tile], [], None, {}) == {tile: 0.0}


# ----------------------------------------------------------------------
# remembered == computed; dropped when the source changes
# ----------------------------------------------------------------------
def fitted_estimator(sequences=(["a", "b", "a", "c", "a", "b"],)) -> KneserNeyEstimator:
    return KneserNeyEstimator(order=2, vocabulary=["a", "b", "c"]).fit(
        [list(s) for s in sequences]
    )


def labeled_features(seed: int = 0, deep_phase_level: int = 5):
    rng = np.random.default_rng(seed)
    rows, labels = [], []
    for _ in range(30):
        rows.append([rng.integers(0, 4), rng.integers(0, 4), 1, 1, 0, 0])
        labels.append(classifier_module.ALL_PHASES[0])
        rows.append([rng.integers(0, 8), rng.integers(0, 8), 3, 0, 1, 0])
        labels.append(classifier_module.ALL_PHASES[1])
        rows.append(
            [rng.integers(0, 32), rng.integers(0, 32), deep_phase_level, 1, 0, 0]
        )
        labels.append(classifier_module.ALL_PHASES[2])
    return np.asarray(rows, dtype=float), labels


class TestKneserNeyMemo:
    def test_second_answer_comes_from_memory(self):
        estimator = fitted_estimator()
        first = estimator.distribution(("a", "b"))
        second = estimator.distribution(("a", "b"))
        assert first == second
        assert estimator._distribution.cache_info().hits == 1
        assert first == {
            symbol: estimator.probability(symbol, ("a", "b"))
            for symbol in estimator.vocabulary
        }

    def test_contexts_sharing_a_suffix_share_an_entry(self):
        estimator = fitted_estimator()
        assert estimator.distribution(("c", "a", "b")) == estimator.distribution(
            ["a", "b"]
        )
        info = estimator._distribution.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    def test_returned_dict_is_the_callers(self):
        estimator = fitted_estimator()
        first = estimator.distribution(("a",))
        expected = dict(first)
        first["a"] = 99.0
        first.clear()
        assert estimator.distribution(("a",)) == expected

    def test_fit_forgets(self):
        estimator = fitted_estimator()
        before = estimator.distribution(("a",))
        estimator.fit([["a", "c", "a", "c", "a", "c"]])
        after = estimator.distribution(("a",))
        assert after != before
        assert after["c"] > after["b"]
        assert estimator._distribution.cache_info().hits == 0

    def test_unfitted_still_raises(self):
        with pytest.raises(RuntimeError):
            KneserNeyEstimator(order=2, vocabulary="ab").distribution(())

    def test_bounded(self, monkeypatch):
        monkeypatch.setattr(smoothing_module, "DISTRIBUTION_MEMO_CONTEXTS", 2)
        small, reference = fitted_estimator(), fitted_estimator()
        contexts = [(), ("a",), ("b",), ("c",), ("a", "b"), ("a",), ()]
        for context in contexts:
            assert small.distribution(context) == reference._find_distribution(
                context
            )
            assert small._distribution.cache_info().currsize <= 2
        assert small._distribution.cache_info().misses == len(contexts)


class TestPhaseDecisionMemo:
    REQUEST = (TileKey(5, 10, 12), Move.PAN_LEFT)

    def test_second_answer_comes_from_memory(self):
        classifier = PhaseClassifier().fit(*labeled_features())
        first = classifier.predict(*self.REQUEST)
        assert classifier.predict(*self.REQUEST) is first
        assert classifier._decision.cache_info().hits == 1
        assert first is classifier._decide(*self.REQUEST)

    def test_fit_forgets(self):
        classifier = PhaseClassifier().fit(*labeled_features())
        before = classifier.predict(*self.REQUEST)
        # The same feature clusters with the deep cluster's label given
        # to the shallow one and vice versa.
        features, labels = labeled_features()
        swap = {labels[0]: labels[2], labels[2]: labels[0]}
        classifier.fit(features, [swap.get(label, label) for label in labels])
        assert classifier._decision.cache_info().currsize == 0
        assert classifier.predict(*self.REQUEST) is not before

    def test_unfitted_still_raises_every_time(self):
        classifier = PhaseClassifier()
        for _ in range(2):
            with pytest.raises(RuntimeError):
                classifier.predict(TileKey(0, 0, 0), None)

    def test_bounded(self, monkeypatch):
        monkeypatch.setattr(classifier_module, "DECISION_MEMO_REQUESTS", 3)
        features, labels = labeled_features()
        small = PhaseClassifier().fit(features, labels)
        reference = PhaseClassifier().fit(features, labels)
        requests = [
            (TileKey(level, x, 0), move)
            for level in (1, 3, 5)
            for x in (0, 1)
            for move in (None, Move.PAN_LEFT, Move.ZOOM_IN_NW)
        ]
        for request in requests + requests:
            assert small.predict(*request) is reference._decide(*request)
            assert small._decision.cache_info().currsize <= 3


class _CountingSignature(Signature):
    """A one-bin-per-coordinate histogram; counts distance evaluations."""

    name = "coords"

    def __init__(self) -> None:
        self.distance_calls = 0

    def compute(self, tile, attribute):
        return np.asarray([tile.key.level, tile.key.x, tile.key.y], dtype="float64")

    def distance(self, a, b):
        self.distance_calls += 1
        return super().distance(a, b)


@pytest.fixture
def counting_provider(tiny_dataset):
    signature = _CountingSignature()
    provider = SignatureProvider(
        tiny_dataset.pyramid, SignatureRegistry((signature,)), "ndsi_avg"
    )
    return provider, signature


class TestPairDistanceMemo:
    A, B = TileKey(2, 1, 1), TileKey(2, 3, 0)

    def test_second_answer_comes_from_memory(self, counting_provider):
        provider, signature = counting_provider
        first = provider.pair_distance(self.A, self.B, "coords")
        assert provider.pair_distance(self.A, self.B, "coords") == first
        assert signature.distance_calls == 1
        assert provider._pair_distance.cache_info().hits == 1
        assert first == signature.distance(
            provider.vector(self.A, "coords"), provider.vector(self.B, "coords")
        )

    def test_a_new_vector_drops_nothing(self, counting_provider):
        provider, signature = counting_provider
        provider.pair_distance(self.A, self.B, "coords")
        provider.vector(TileKey(1, 1, 1), "coords")
        provider.pair_distance(self.A, self.B, "coords")
        assert signature.distance_calls == 1

    def test_a_held_vector_is_never_replaced(self, counting_provider):
        provider, signature = counting_provider
        held = provider.vector(self.A, "coords")
        first = provider.pair_distance(self.A, self.B, "coords")
        assert provider.keep(self.A, "coords", held.copy()) is held
        with pytest.raises(ValueError, match="already holds another"):
            provider.keep(self.A, "coords", held + 1.0)
        with pytest.raises(ValueError, match="already holds another"):
            provider.keep(self.A, "coords", held[:2])
        assert provider.vector(self.A, "coords") is held
        assert provider.pair_distance(self.A, self.B, "coords") == first
        assert first == signature.distance(held, provider.vector(self.B, "coords"))

    def test_unknown_signature_still_raises(self, counting_provider):
        provider, _ = counting_provider
        with pytest.raises(KeyError):
            provider.pair_distance(self.A, self.B, "nope")

    def test_vector_hit_skips_the_registry(self, counting_provider, monkeypatch):
        provider, _ = counting_provider
        first = provider.vector(self.A, "coords")
        monkeypatch.setattr(
            provider.registry, "get", lambda name: pytest.fail("resolved on a hit")
        )
        assert provider.vector(self.A, "coords") is first

    def test_bounded(self, tiny_dataset, monkeypatch):
        monkeypatch.setattr(provider_module, "PAIR_DISTANCE_MEMO_PAIRS", 4)
        signature = _CountingSignature()
        provider = SignatureProvider(
            tiny_dataset.pyramid, SignatureRegistry((signature,)), "ndsi_avg"
        )
        tiles = list(tiny_dataset.pyramid.grid.keys_at_level(2))[:4]
        pairs = [(a, b) for a in tiles for b in tiles]
        for a, b in pairs + pairs:
            expected = signature.distance(
                provider.vector(a, "coords"), provider.vector(b, "coords")
            )
            assert provider.pair_distance(a, b, "coords") == expected
            assert provider._pair_distance.cache_info().currsize <= 4


class TestGeometryMemo:
    def test_second_answer_comes_from_memory(self):
        grid = TileGrid(4)
        key = TileKey(2, 1, 1)
        assert grid.candidates(key, 2) == grid.candidates(key, 2)
        assert grid._candidates.cache_info().hits == 1
        assert grid.available_moves(key) == grid.available_moves(key)
        # once by the candidate search, twice just now
        assert grid._legal_moves.cache_info().misses >= 1
        assert grid._legal_moves.cache_info().hits >= 2

    def test_returned_lists_are_the_callers(self):
        grid = TileGrid(4)
        key = TileKey(2, 1, 1)
        moves, candidates = grid.available_moves(key), grid.candidates(key)
        expected = list(moves), list(candidates)
        moves.clear()
        candidates.append(key)
        assert (grid.available_moves(key), grid.candidates(key)) == expected
        assert grid.neighbors(key) == [target for _, target in expected[0]]

    def test_each_grid_has_its_own(self):
        small, large = TileGrid(2), TileGrid(4)
        key = TileKey(1, 0, 0)
        assert len(large.available_moves(key)) > len(small.available_moves(key))

    def test_legal_moves_match_apply(self):
        grid = TileGrid(4)
        for key in grid.all_keys():
            expected = [
                (move, grid.apply(key, move))
                for move in ALL_MOVES
                if grid.apply(key, move) is not None
            ]
            assert grid.available_moves(key) == expected
            for move, target in expected:
                assert grid.valid(target)
                assert target == key.apply(move)

    def test_invalid_key_still_raises_every_time(self):
        grid = TileGrid(2)
        for _ in range(2):
            with pytest.raises(ValueError):
                grid.candidates(TileKey(5, 0, 0))
            with pytest.raises(ValueError):
                grid.available_moves(TileKey(5, 0, 0))

    def test_bounded(self, monkeypatch):
        monkeypatch.setattr(pyramid_module, "GEOMETRY_MEMO_KEYS", 3)
        small = TileGrid(4)
        monkeypatch.undo()
        reference = TileGrid(4)
        keys_twice = list(small.keys_at_level(2)) * 2
        for key in keys_twice:
            assert small.candidates(key, 2) == reference.candidates(key, 2)
            assert small.available_moves(key) == reference.available_moves(key)
            assert small._candidates.cache_info().currsize <= 3
            assert small._legal_moves.cache_info().currsize <= 3
        assert reference._candidates.cache_info().currsize == 16


def reference_sb_ranking(provider, signature, context) -> list[TileKey]:
    """``SignatureBasedRecommender.predict`` before rankings were
    remembered: Algorithm 3 from the vectors, every round."""
    roi = list(context.roi) if context.roi else [context.current]
    scores = reference_score_candidates(
        list(context.candidates),
        roi,
        [signature.name],
        provider.vector,
        {signature.name: signature.distance},
    )
    return rank_by_score(scores)


def round_context(grid, current, roi=(), moves=()) -> PredictionContext:
    return PredictionContext(
        current=current,
        grid=grid,
        candidates=tuple(grid.candidates(current)),
        history_moves=tuple(moves),
        roi=tuple(roi),
    )


class TestSBRankingMemo:
    CURRENT, ROI = TileKey(2, 1, 1), (TileKey(2, 2, 1), TileKey(2, 2, 2))

    @pytest.fixture
    def model(self, counting_provider):
        provider, _ = counting_provider
        return SignatureBasedRecommender(provider, ("coords",))

    def test_second_answer_comes_from_memory(
        self, model, counting_provider, tiny_dataset
    ):
        provider, signature = counting_provider
        context = round_context(tiny_dataset.pyramid.grid, self.CURRENT, self.ROI)
        first = model.predict(context)
        calls = signature.distance_calls
        assert model.predict(context) == first
        assert signature.distance_calls == calls
        assert model._ranking.cache_info().hits == 1
        assert first == reference_sb_ranking(provider, signature, context)

    def test_empty_roi_is_the_current_tile(self, model, tiny_dataset):
        grid = tiny_dataset.pyramid.grid
        alone = model.predict(round_context(grid, self.CURRENT))
        assert model.predict(round_context(grid, self.CURRENT, (self.CURRENT,))) == alone
        assert model._ranking.cache_info().hits == 1

    def test_returned_list_is_the_callers(self, model, tiny_dataset):
        context = round_context(tiny_dataset.pyramid.grid, self.CURRENT, self.ROI)
        first = model.predict(context)
        expected = list(first)
        first.reverse()
        first.append(self.CURRENT)
        assert model.predict(context) == expected

    def test_bounded(self, counting_provider, tiny_dataset, monkeypatch):
        provider, signature = counting_provider
        monkeypatch.setattr(signature_based_module, "RANKING_MEMO_ROUNDS", 2)
        small = SignatureBasedRecommender(provider, ("coords",))
        grid = tiny_dataset.pyramid.grid
        contexts = [
            round_context(grid, current, roi)
            for current in list(grid.keys_at_level(2))[:3]
            for roi in ((), (TileKey(2, 3, 3),), self.ROI)
        ]
        for context in contexts + contexts:
            assert small.predict(context) == reference_sb_ranking(
                provider, signature, context
            )
            assert small._ranking.cache_info().currsize <= 2
        assert small._ranking.cache_info().misses == 2 * len(contexts)


def markov_traces(grid) -> list[Trace]:
    """Two short walks over a 16-tile level: right along the top, then
    down, so some move contexts prefer a pan and others a zoom."""
    walks = [
        (TileKey(2, 0, 0), [Move.PAN_RIGHT] * 3 + [Move.PAN_DOWN, Move.ZOOM_IN_NW]),
        (TileKey(2, 0, 1), [Move.PAN_RIGHT, Move.PAN_RIGHT, Move.ZOOM_OUT]),
    ]
    traces = []
    for user, (tile, moves) in enumerate(walks, start=1):
        requests = [Request(0, tile, None, None)]
        for step, move in enumerate(moves, start=1):
            tile = grid.apply(tile, move)
            requests.append(Request(step, tile, move, None))
        traces.append(Trace(user_id=user, task_id=1, requests=requests))
    return traces


def reference_markov_ranking(model, context) -> list[TileKey]:
    """``MarkovRecommender.predict`` before rankings were remembered:
    the move distribution ranked over the legal moves, every round."""
    distribution = model.move_distribution(context.history_moves)
    ranked = [
        (-distribution[move], index, target)
        for index, (move, target) in enumerate(
            context.grid.available_moves(context.current)
        )
        if target in set(context.candidates)
    ]
    return [tile for _, _, tile in sorted(ranked)]


class TestMarkovRankingMemo:
    GRID = TileGrid(4)
    CURRENT = TileKey(2, 1, 1)
    MOVES = (Move.PAN_RIGHT, Move.PAN_RIGHT)

    def model(self, order: int = 2) -> MarkovRecommender:
        model = MarkovRecommender(order=order)
        model.train(markov_traces(self.GRID))
        return model

    def test_second_answer_comes_from_memory(self):
        model = self.model()
        context = round_context(self.GRID, self.CURRENT, moves=self.MOVES)
        first = model.predict(context)
        assert model.predict(context) == first
        assert model._ranking.cache_info().hits == 1
        assert first == reference_markov_ranking(model, context)
        assert first[0] == TileKey(2, 2, 1)

    def test_histories_sharing_the_last_moves_share_an_entry(self):
        model = self.model()
        longer = (Move.ZOOM_OUT, Move.PAN_UP) + self.MOVES
        for moves in (self.MOVES, longer):
            model.predict(round_context(self.GRID, self.CURRENT, moves=moves))
        info = model._ranking.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    def test_returned_list_is_the_callers(self):
        model = self.model()
        context = round_context(self.GRID, self.CURRENT, moves=self.MOVES)
        first = model.predict(context)
        expected = list(first)
        first.clear()
        assert model.predict(context) == expected

    def test_train_forgets(self):
        model = self.model()
        context = round_context(self.GRID, self.CURRENT, moves=self.MOVES)
        before = model.predict(context)
        walk = [Request(0, TileKey(1, 0, 0), None, None)]
        for step in range(1, 7):
            move = Move.ZOOM_IN_SE if step % 2 else Move.ZOOM_OUT
            walk.append(Request(step, self.GRID.apply(walk[-1].tile, move), move, None))
        model.train([Trace(user_id=1, task_id=1, requests=walk)] * 3)
        assert model._ranking.cache_info().currsize == 0
        after = model.predict(context)
        assert after != before
        assert after == reference_markov_ranking(model, context)

    def test_untrained_still_raises_every_time(self):
        model = MarkovRecommender(order=2)
        context = round_context(self.GRID, self.CURRENT, moves=self.MOVES)
        for _ in range(2):
            with pytest.raises(RuntimeError):
                model.predict(context)
        assert model._ranking.cache_info().currsize == 0

    def test_bounded(self, monkeypatch):
        monkeypatch.setattr(markov_module, "RANKING_MEMO_ROUNDS", 3)
        small = self.model()
        monkeypatch.undo()
        reference = self.model()
        contexts = [
            round_context(self.GRID, current, moves=moves)
            for current in (self.CURRENT, TileKey(1, 1, 0), TileKey(3, 7, 7))
            for moves in ((), self.MOVES, (Move.PAN_DOWN,))
        ]
        for context in contexts + contexts:
            assert small.predict(context) == reference_markov_ranking(
                reference, context
            )
            assert small._ranking.cache_info().currsize <= 3
        assert small._ranking.cache_info().misses == 2 * len(contexts)


# ----------------------------------------------------------------------
# the whole engine
# ----------------------------------------------------------------------
class TestHybridEngineUnchanged:
    def test_golden_digest_cold_then_warm(self, tiny_context):
        cold = prediction_digest(tiny_context)
        warm = prediction_digest(tiny_context)
        assert cold == warm == (GOLDEN_DIGEST, GOLDEN_ROUNDS)

    def test_two_sessions_share_the_models(self, tiny_context):
        """Two threads, two engines, one classifier / Markov chain /
        provider, everything cold: request for request the predictions
        of a sequential run over models of its own."""
        traces = tiny_context.study.traces

        def shared_models():
            ab = MarkovRecommender(order=3)
            ab.train(traces)
            provider = SignatureProvider(
                tiny_context.pyramid,
                tiny_context.provider.registry,
                tiny_context.attribute,
            )
            sb = SignatureBasedRecommender(provider, (HYBRID_SIGNATURE,))
            classifier = PhaseClassifier().fit(*trace_features(traces))

            def engine():
                return PredictionEngine(
                    tiny_context.grid,
                    {ab.name: ab, sb.name: sb},
                    PaperFinalStrategy(ab.name, sb.name, sb_only_phase=None),
                    phase_predictor=classifier.predict,
                )

            return engine, provider, classifier, ab, sb

        def drive(engine, share, records):
            for trace in share:
                engine.reset()
                for request in trace.requests:
                    engine.observe(request.move, request.tile)
                    records.append(round_record(engine.predict(8)))

        shares = [traces[0::2], traces[1::2]]
        engine, provider, classifier, ab, sb = shared_models()
        threaded = [[], []]
        workers = [
            threading.Thread(target=drive, args=(engine(), share, records))
            for share, records in zip(shares, threaded)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert provider._pair_distance.cache_info().hits > 0
        assert classifier._decision.cache_info().hits > 0
        assert ab._ranking.cache_info().hits > 0
        assert sb._ranking.cache_info().hits > 0

        engine = shared_models()[0]
        for share, records in zip(shares, threaded):
            sequential = []
            drive(engine(), share, sequential)
            assert records == sequential
