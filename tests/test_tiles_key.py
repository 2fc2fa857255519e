"""Unit tests for tile keys and quadtree coordinate math."""

import copy
import copyreg
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.tiles.key import TileKey
from repro.tiles.moves import Move


class TestConstruction:
    def test_rejects_negative_level(self):
        with pytest.raises(ValueError):
            TileKey(-1, 0, 0)

    def test_rejects_negative_coords(self):
        with pytest.raises(ValueError):
            TileKey(1, -1, 0)

    def test_is_hashable_value(self):
        assert TileKey(1, 0, 1) == TileKey(1, 0, 1)
        assert len({TileKey(1, 0, 1), TileKey(1, 0, 1)}) == 1


class TestValueSemantics:
    """A key is the value ``(level, x, y)``: its hash is the field
    tuple's, and every way of copying, ordering or printing it agrees."""

    coords = st.integers(0, 2**40)

    @given(st.integers(0, 64), coords, coords)
    def test_equals_the_field_tuple_hash(self, level, x, y):
        # hash(key) % shards places keys in every sharded cache, and the
        # committed sweep baselines are functions of that placement.
        assert hash(TileKey(level, x, y)) == hash((level, x, y))

    @given(st.integers(0, 64), coords, coords)
    def test_survives_every_way_of_copying_a_key(self, level, x, y):
        key = TileKey(level, x, y)
        copies = [
            pickle.loads(pickle.dumps(key, protocol))
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
        ] + [copy.copy(key), copy.deepcopy(key)]
        for other in copies:
            assert type(other) is TileKey
            assert other == key and hash(other) == hash(key)
            assert (other.level, other.x, other.y) == (level, x, y)

    @given(st.integers(0, 64), st.integers(1, 2**40), coords)
    def test_unpickling_checks_the_fields(self, level, x, y):
        # From protocol 2 on, pickle rebuilds a key by calling __new__
        # with its fields, so a stream carrying a negative one is refused.
        key = TileKey(level, x, y)
        for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
            rebuild, args = key.__reduce_ex__(protocol)[:2]
            assert (rebuild, args) == (copyreg.__newobj__, (TileKey, level, x, y))
        fields = pickle.dumps((level, x, y), 2)[2:-3]  # the args, unframed
        stream = pickle.dumps(key, 2)
        assert stream.count(fields) == 1
        forged = stream.replace(fields, pickle.dumps((level, -x, y), 2)[2:-3])
        with pytest.raises(ValueError, match="non-negative"):
            pickle.loads(forged)

    @given(st.lists(st.tuples(st.integers(0, 64), coords, coords), max_size=20))
    def test_orders_like_its_field_tuples(self, fields):
        keys = [TileKey(*f) for f in fields]
        assert [tuple(k) for k in sorted(keys)] == sorted(fields)

    @given(st.integers(0, 64), coords, coords)
    def test_is_immutable(self, level, x, y):
        key = TileKey(level, x, y)
        for name in ("level", "x", "y"):
            with pytest.raises(AttributeError):
                setattr(key, name, 0)
        with pytest.raises(AttributeError):
            key.other = 0
        assert not hasattr(key, "__dict__")
        assert (key.level, key.x, key.y) == (level, x, y)

    @given(st.integers(0, 64), coords, coords)
    def test_repr_names_the_fields(self, level, x, y):
        assert repr(TileKey(level, x, y)) == f"TileKey(level={level}, x={x}, y={y})"
        assert repr(TileKey(3, 5, 2)) == "TileKey(level=3, x=5, y=2)"


class TestQuadtreeRelations:
    def test_children_count_and_level(self):
        children = TileKey(1, 1, 0).children()
        assert len(children) == 4
        assert all(c.level == 2 for c in children)

    def test_children_coordinates(self):
        children = set(TileKey(1, 1, 1).children())
        assert children == {
            TileKey(2, 2, 2),
            TileKey(2, 3, 2),
            TileKey(2, 2, 3),
            TileKey(2, 3, 3),
        }

    def test_parent_inverts_child(self):
        key = TileKey(3, 5, 2)
        for child in key.children():
            assert child.parent == key

    def test_root_has_no_parent(self):
        with pytest.raises(ValueError):
            _ = TileKey(0, 0, 0).parent

    def test_child_quadrant_roundtrip(self):
        key = TileKey(2, 1, 3)
        for dx in (0, 1):
            for dy in (0, 1):
                child = key.child(dx, dy)
                assert child.parent == key
                assert (child.x % 2, child.y % 2) == (dx, dy)

    def test_child_bad_offsets(self):
        with pytest.raises(ValueError):
            TileKey(0, 0, 0).child(2, 0)

    def test_ancestor(self):
        key = TileKey(4, 13, 6)
        assert key.ancestor(4) == key
        assert key.ancestor(2) == TileKey(2, 3, 1)
        assert key.ancestor(0) == TileKey(0, 0, 0)

    def test_ancestor_deeper_raises(self):
        with pytest.raises(ValueError):
            TileKey(2, 1, 1).ancestor(3)

    def test_contains(self):
        parent = TileKey(1, 0, 0)
        assert parent.contains(TileKey(3, 2, 3))
        assert not parent.contains(TileKey(3, 4, 0))
        assert not parent.contains(TileKey(0, 0, 0))


class TestMovement:
    def test_apply_pan(self):
        assert TileKey(2, 1, 1).apply(Move.PAN_RIGHT) == TileKey(2, 2, 1)
        assert TileKey(2, 1, 1).apply(Move.PAN_UP) == TileKey(2, 1, 0)

    def test_apply_zoom(self):
        assert TileKey(1, 1, 0).apply(Move.ZOOM_IN_SW) == TileKey(2, 2, 1)
        assert TileKey(2, 2, 1).apply(Move.ZOOM_OUT) == TileKey(1, 1, 0)

    def test_move_to_pan(self):
        assert TileKey(2, 1, 1).move_to(TileKey(2, 2, 1)) is Move.PAN_RIGHT

    def test_move_to_zoom_in(self):
        assert TileKey(1, 1, 0).move_to(TileKey(2, 3, 1)) is Move.ZOOM_IN_SE

    def test_move_to_zoom_out(self):
        assert TileKey(2, 3, 1).move_to(TileKey(1, 1, 0)) is Move.ZOOM_OUT

    def test_move_to_unreachable(self):
        assert TileKey(2, 0, 0).move_to(TileKey(2, 2, 0)) is None
        assert TileKey(2, 0, 0).move_to(TileKey(2, 1, 1)) is None
        assert TileKey(1, 1, 0).move_to(TileKey(2, 0, 0)) is None
        assert TileKey(0, 0, 0).move_to(TileKey(3, 0, 0)) is None

    def test_every_move_is_invertible(self):
        key = TileKey(3, 4, 5)
        for move in Move:
            try:
                target = key.apply(move)
            except ValueError:
                continue
            assert target.move_to(key) is not None


class TestManhattanDistance:
    def test_same_level(self):
        assert TileKey(3, 1, 1).manhattan_distance(TileKey(3, 4, 3)) == 5

    def test_symmetric(self):
        a, b = TileKey(3, 1, 1), TileKey(2, 3, 0)
        assert a.manhattan_distance(b) == b.manhattan_distance(a)

    def test_self_distance_zero(self):
        key = TileKey(2, 1, 3)
        assert key.manhattan_distance(key) == 0

    def test_one_zoom_away(self):
        parent = TileKey(2, 1, 1)
        # The SE child's projected center coincides with the parent's.
        assert parent.manhattan_distance(parent.child(1, 1)) == 1

    def test_cross_level_includes_level_gap(self):
        assert TileKey(0, 0, 0).manhattan_distance(TileKey(2, 0, 0)) >= 2


class TestNormalizedGeometry:
    def test_root_covers_unit_square(self):
        assert TileKey(0, 0, 0).normalized_bounds() == (0.0, 0.0, 1.0, 1.0)

    def test_level1_quadrant(self):
        assert TileKey(1, 1, 0).normalized_bounds() == (0.5, 0.0, 1.0, 0.5)

    def test_center_inside_bounds(self):
        key = TileKey(3, 5, 2)
        x_min, y_min, x_max, y_max = key.normalized_bounds()
        cx, cy = key.normalized_center()
        assert x_min < cx < x_max
        assert y_min < cy < y_max

    def test_children_cover_parent(self):
        key = TileKey(2, 1, 3)
        px0, py0, px1, py1 = key.normalized_bounds()
        xs = set()
        for child in key.children():
            b = child.normalized_bounds()
            assert px0 <= b[0] and b[2] <= px1
            assert py0 <= b[1] and b[3] <= py1
            xs.add(b[:2])
        assert len(xs) == 4


class TestSerialization:
    def test_roundtrip(self):
        key = TileKey(5, 17, 30)
        assert TileKey.from_string(key.to_string()) == key

    def test_malformed(self):
        with pytest.raises(ValueError):
            TileKey.from_string("1/2")
        with pytest.raises(ValueError):
            TileKey.from_string("a/b/c")
