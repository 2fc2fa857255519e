"""Unit tests for the nine-move vocabulary."""

import copy
import pickle
import sys

import pytest

from repro.tiles.moves import (
    ALL_MOVES,
    Move,
    MoveCategory,
    PAN_MOVES,
    PAN_OFFSETS,
    ZOOM_IN_MOVES,
    ZOOM_IN_OFFSETS,
    move_from_string,
    pan_move_for_offset,
    zoom_in_move_for_quadrant,
)


class TestVocabulary:
    def test_exactly_nine_moves(self):
        """The interface supports nine moves — k=9 guarantees a hit."""
        assert len(ALL_MOVES) == 9
        assert len(set(ALL_MOVES)) == 9

    def test_partition(self):
        assert len(PAN_MOVES) == 4
        assert len(ZOOM_IN_MOVES) == 4
        assert Move.ZOOM_OUT not in PAN_MOVES | ZOOM_IN_MOVES

    def test_categories(self):
        assert Move.PAN_LEFT.category is MoveCategory.PAN
        assert Move.ZOOM_IN_NW.category is MoveCategory.ZOOM_IN
        assert Move.ZOOM_OUT.category is MoveCategory.ZOOM_OUT

    def test_flags(self):
        assert Move.PAN_UP.is_pan
        assert not Move.PAN_UP.is_zoom_in
        assert Move.ZOOM_IN_SE.is_zoom_in
        assert Move.ZOOM_OUT.is_zoom_out


class TestOffsets:
    def test_pan_offsets_unique(self):
        assert len(set(PAN_OFFSETS.values())) == 4

    def test_zoom_in_offsets_cover_quadrants(self):
        assert set(ZOOM_IN_OFFSETS.values()) == {(0, 0), (0, 1), (1, 0), (1, 1)}

    def test_quadrant_roundtrip(self):
        for move, (dx, dy) in ZOOM_IN_OFFSETS.items():
            assert zoom_in_move_for_quadrant(dx, dy) is move

    def test_pan_roundtrip(self):
        for move, (dx, dy) in PAN_OFFSETS.items():
            assert pan_move_for_offset(dx, dy) is move

    def test_bad_quadrant(self):
        with pytest.raises(ValueError):
            zoom_in_move_for_quadrant(2, 0)

    def test_bad_pan_offset(self):
        with pytest.raises(ValueError):
            pan_move_for_offset(1, 1)


class TestSerialization:
    def test_roundtrip_all(self):
        for move in ALL_MOVES:
            assert move_from_string(move.value) is move

    def test_unknown_string(self):
        with pytest.raises(ValueError):
            move_from_string("teleport")

    def test_str(self):
        assert str(Move.PAN_LEFT) == "pan_left"


class TestHash:
    """A move hashes by identity, in C: the memos, sets and dicts keyed
    by moves look one up without a Python call."""

    def test_hashing_every_move_calls_no_python_function(self):
        calls = []
        moves = list(Move)

        def profile(frame, event, arg):
            if event == "call":
                calls.append(frame.f_code.co_name)

        previous = sys.getprofile()  # a call recorder may be running
        sys.setprofile(profile)
        try:
            for move in moves:
                hash(move)
            set(moves), dict.fromkeys(moves), moves[0] in PAN_MOVES
        finally:
            sys.setprofile(previous)
        assert calls == []

    # Ids by name: str() ids would run Move.__str__ while any suite
    # collects, which experiments/uncalled.py would count as a call.
    @pytest.mark.parametrize("move", list(Move), ids=[move.name for move in Move])
    @pytest.mark.parametrize(
        "round_trip",
        [copy.copy, copy.deepcopy, lambda m: pickle.loads(pickle.dumps(m))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_a_round_trip_is_the_member_and_hashes_as_it(self, move, round_trip):
        again = round_trip(move)
        assert again is move
        assert again == move and hash(again) == hash(move)
        assert {move: 1}[again] == 1
