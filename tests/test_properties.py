"""Property-based tests (hypothesis) on core invariants."""

from collections import OrderedDict
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.lru import ShardedLRUCache
from repro.cache.manager import CacheManager
from repro.cache.tile_cache import TileCache
from repro.core.roi import ROITracker
from repro.middleware import protocol as protocol_module
from repro.recommenders.smoothing import KneserNeyEstimator
from repro.signatures.distance import chi_squared_distance, weighted_l2
from repro.signatures.histogram import HistogramSignature
from repro.tiles.key import TileKey
from repro.tiles.moves import ALL_MOVES
from repro.tiles.pyramid import TileGrid
from repro.tiles.tile import DataTile

# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
MAX_LEVEL = 5


@st.composite
def tile_keys(draw, max_level: int = MAX_LEVEL):
    level = draw(st.integers(0, max_level))
    n = 2**level
    x = draw(st.integers(0, n - 1))
    y = draw(st.integers(0, n - 1))
    return TileKey(level, x, y)


moves = st.sampled_from(ALL_MOVES)
histograms = st.lists(
    st.floats(0.0, 1.0, allow_nan=False), min_size=2, max_size=16
).map(np.asarray)


# ----------------------------------------------------------------------
# tile geometry invariants
# ----------------------------------------------------------------------
class TestKeyProperties:
    @given(tile_keys())
    def test_children_roundtrip_through_parent(self, key):
        for child in key.children():
            assert child.parent == key
            assert key.contains(child)

    @given(tile_keys(max_level=4), moves)
    def test_moves_are_invertible(self, key, move):
        grid = TileGrid(6)
        target = grid.apply(key, move)
        if target is not None:
            back = target.move_to(key)
            assert back is not None
            assert grid.apply(target, back) == key

    @given(tile_keys(), tile_keys())
    def test_manhattan_symmetric_nonnegative(self, a, b):
        assert a.manhattan_distance(b) == b.manhattan_distance(a)
        assert a.manhattan_distance(b) >= 0
        assert a.manhattan_distance(a) == 0

    @given(tile_keys())
    def test_serialization_roundtrip(self, key):
        assert TileKey.from_string(key.to_string()) == key

    @given(tile_keys())
    def test_normalized_bounds_contain_center(self, key):
        x0, y0, x1, y1 = key.normalized_bounds()
        cx, cy = key.normalized_center()
        assert x0 < cx < x1
        assert y0 < cy < y1
        assert 0.0 <= x0 < x1 <= 1.0

    @given(tile_keys(max_level=4))
    def test_candidate_set_bounded_by_nine(self, key):
        grid = TileGrid(6)
        candidates = grid.candidates(key, 1)
        assert 1 <= len(candidates) <= 9
        assert key not in candidates
        # Every candidate is exactly one legal move away.
        for candidate in candidates:
            assert key.move_to(candidate) is not None

    @given(tile_keys(max_level=3), st.integers(1, 3))
    def test_candidates_monotone_in_distance(self, key, d):
        grid = TileGrid(5)
        smaller = set(grid.candidates(key, d))
        larger = set(grid.candidates(key, d + 1))
        assert smaller <= larger


# ----------------------------------------------------------------------
# distance invariants
# ----------------------------------------------------------------------
class TestDistanceProperties:
    @given(histograms)
    def test_chi_squared_identity(self, vec):
        assert chi_squared_distance(vec, vec) == 0.0

    @given(st.integers(2, 16), st.data())
    def test_chi_squared_symmetry(self, size, data):
        a = np.asarray(
            data.draw(st.lists(st.floats(0, 1), min_size=size, max_size=size))
        )
        b = np.asarray(
            data.draw(st.lists(st.floats(0, 1), min_size=size, max_size=size))
        )
        assert chi_squared_distance(a, b) == chi_squared_distance(b, a)
        assert chi_squared_distance(a, b) >= 0.0

    @given(st.lists(st.floats(0, 10), min_size=1, max_size=8))
    def test_weighted_l2_nonnegative(self, distances):
        assert weighted_l2(distances) >= 0.0

    @given(
        st.lists(
            # Subnormals excluded: at 5e-324 one ulp is 50% relative
            # error, so no rescaling can preserve homogeneity there.
            st.floats(0.0, 5.0, allow_subnormal=False),
            min_size=1,
            max_size=8,
        )
    )
    def test_weighted_l2_absolutely_homogeneous(self, distances):
        doubled = [2.0 * d for d in distances]
        np.testing.assert_allclose(
            weighted_l2(doubled), 2.0 * weighted_l2(distances), rtol=1e-9
        )


# ----------------------------------------------------------------------
# signature invariants
# ----------------------------------------------------------------------
class TestSignatureProperties:
    @given(
        st.lists(
            st.floats(-1.0, 1.0, allow_nan=False), min_size=16, max_size=16
        )
    )
    def test_histogram_mass_and_bounds(self, values):
        tile = DataTile(
            key=TileKey(0, 0, 0),
            attributes={"v": np.asarray(values).reshape(4, 4)},
        )
        vec = HistogramSignature(bins=8).compute(tile, "v")
        assert vec.min() >= 0.0
        assert vec.sum() == 1.0 or abs(vec.sum() - 1.0) < 1e-9


# ----------------------------------------------------------------------
# Kneser-Ney invariants
# ----------------------------------------------------------------------
class TestSmoothingProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.lists(st.sampled_from("abc"), min_size=2, max_size=12),
            min_size=1,
            max_size=5,
        ),
        st.lists(st.sampled_from("abc"), min_size=0, max_size=4),
    )
    def test_distribution_is_probability(self, sequences, context):
        estimator = KneserNeyEstimator(order=2, vocabulary=("a", "b", "c"))
        estimator.fit(sequences)
        dist = estimator.distribution(tuple(context))
        total = sum(dist.values())
        assert abs(total - 1.0) < 1e-9
        assert all(p > 0.0 for p in dist.values())


# ----------------------------------------------------------------------
# ROI tracker invariants (Algorithm 1)
# ----------------------------------------------------------------------
class TestROIProperties:
    @settings(max_examples=50, deadline=None)
    @given(st.lists(moves, min_size=0, max_size=40), st.randoms(use_true_random=False))
    def test_roi_only_changes_on_zoom_out(self, move_list, rng):
        """The committed ROI changes only when a zoom-out commits it."""
        grid = TileGrid(5)
        tracker = ROITracker()
        current = TileKey(2, 1, 1)
        previous_roi = tracker.roi
        for move in move_list:
            target = grid.apply(current, move)
            if target is None:
                continue
            current = target
            roi = tracker.update(move, current)
            if move.is_zoom_out:
                previous_roi = roi
            else:
                assert roi == previous_roi
        # ROI tiles, if any, were actually visited while collecting.
        assert len(set(tracker.roi)) == len(tracker.roi)


# ----------------------------------------------------------------------
# recent-region (LRU) invariants
# ----------------------------------------------------------------------
RECENT_KEYS = [TileKey(3, x, y) for x in range(4) for y in range(3)]


class StubPyramid:
    """The one method ``CacheManager`` calls on a pyramid."""

    def fetch_tile_timed(self, key: TileKey) -> tuple[DataTile, float]:
        return DataTile(key=key, attributes={"v": np.zeros((2, 2))}), 0.5


recent_operations = st.lists(
    st.one_of(
        st.tuples(st.just("fetch"), st.sampled_from(RECENT_KEYS)),
        st.tuples(st.just("record_request"), st.sampled_from(RECENT_KEYS)),
        st.tuples(
            st.just("prefetch"),
            st.lists(
                st.tuples(st.sampled_from(RECENT_KEYS), st.just("m")), max_size=6
            ),
        ),
        st.tuples(st.just("clear")),
    ),
    max_size=40,
)


class TestRecentRegionProperties:
    """Each shard's slice of the recent region is a plain LRU of its
    capacity slice, whatever the prefetch cycle does beside it."""

    @settings(max_examples=150, deadline=None)
    @given(
        shards=st.integers(1, 4),
        recent_capacity=st.integers(1, 8),
        prefetch_capacity=st.integers(1, 8),
        operations=recent_operations,
    )
    def test_slices_match_a_reference_lru(
        self, shards, recent_capacity, prefetch_capacity, operations
    ):
        cache = TileCache(recent_capacity, prefetch_capacity, shards)
        manager = CacheManager(StubPyramid(), cache)
        count = min(shards, recent_capacity, prefetch_capacity)
        assert cache.shards == count
        base, extra = divmod(recent_capacity, count)
        capacities = [base + (1 if i < extra else 0) for i in range(count)]
        reference: list[OrderedDict] = [OrderedDict() for _ in range(count)]
        last = None
        for operation in operations:
            name = operation[0]
            if name == "prefetch":
                manager.prefetch(operation[1])
            elif name == "clear":
                cache.clear()
                for lru in reference:
                    lru.clear()
                last = None
            else:
                key = last = operation[1]
                if name == "fetch":
                    assert manager.fetch(key).tile.key == key
                else:
                    cache.record_request(StubPyramid().fetch_tile_timed(key)[0])
                lru = reference[hash(key) % count]
                lru[key] = None
                lru.move_to_end(key)
                if len(lru) > capacities[hash(key) % count]:
                    lru.popitem(last=False)
            assert cache.recent_keys == [k for lru in reference for k in lru]
            for index, capacity in enumerate(capacities):
                assert len(cache._recent[index]) <= capacity
            if last is not None:
                assert last in cache.recent_keys
                assert cache.lookup(last).key == last


class TestLRUProperties:
    """The standalone sharded LRU: bounded, and a put is always kept."""

    @settings(max_examples=50, deadline=None)
    @given(
        st.integers(1, 8),
        st.integers(1, 4),
        st.lists(st.tuples(st.sampled_from("abcdefgh"), st.booleans()), max_size=60),
    )
    def test_capacity_never_exceeded(self, capacity, shards, operations):
        cache = ShardedLRUCache(capacity, shards)
        for key, is_put in operations:
            if is_put:
                cache.put(key, key)
            else:
                cache.get(key)
            for _, entries, segment_capacity in cache._segments:
                assert len(entries) <= segment_capacity
            assert sum(len(entries) for _, entries, _ in cache._segments) <= capacity

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.sampled_from("abcd"), min_size=1, max_size=30))
    def test_most_recent_put_always_present(self, keys):
        cache = ShardedLRUCache(2)
        for key in keys:
            cache.put(key, key)
            assert cache.get(key) == key


# ----------------------------------------------------------------------
# wire-framing invariants
# ----------------------------------------------------------------------
framings = st.sampled_from(["lines", "length"])


@st.composite
def tile_requests(draw):
    key = draw(tile_keys())
    return protocol_module.TileRequest(
        session_id=draw(st.text("abcdefgh-123", min_size=1, max_size=8)),
        tile=protocol_module.TileRef.from_key(key),
        move=draw(st.sampled_from([None, "pan_right", "zoom_out", "pan_up"])),
    )


def _feed_chunked(decoder, stream: bytes, sizes: list[int]) -> list[str]:
    """Feed ``stream`` cut into the given chunk sizes (cycled)."""
    frames: list[str] = []
    start = 0
    index = 0
    while start < len(stream):
        size = sizes[index % len(sizes)] if sizes else len(stream)
        frames.extend(decoder.feed(stream[start : start + size]))
        start += size
        index += 1
    return frames


class TestFramingProperties:
    """The fuzz bar: the decoder never fails untyped, and valid frames
    split at arbitrary byte boundaries always reassemble exactly."""

    @settings(max_examples=200, deadline=None)
    @given(
        data=st.binary(max_size=512),
        framing=framings,
        sizes=st.lists(st.integers(1, 64), max_size=8),
    )
    def test_garbage_never_crashes_untyped(self, data, framing, sizes):
        decoder = protocol_module.FrameDecoder(framing, max_frame_bytes=256)
        try:
            frames = _feed_chunked(decoder, data, sizes)
        except protocol_module.FramingError:
            return  # a typed framing rejection is a pass
        # Whatever came out is text; decoding it either yields a wire
        # message or the typed malformed-message error — nothing else.
        for text in frames:
            try:
                protocol_module.decode(text)
            except protocol_module.InvalidRequestError:
                pass

    @settings(max_examples=100, deadline=None)
    @given(
        messages=st.lists(tile_requests(), min_size=1, max_size=5),
        framing=framings,
        sizes=st.lists(st.integers(1, 16), max_size=8),
    )
    def test_valid_frames_reassemble_exactly(self, messages, framing, sizes):
        texts = [protocol_module.encode(m) for m in messages]
        stream = b"".join(
            protocol_module.encode_frame(t, framing) for t in texts
        )
        decoder = protocol_module.FrameDecoder(framing)
        frames = _feed_chunked(decoder, stream, sizes)
        assert frames == texts
        assert [protocol_module.decode(t) for t in frames] == messages
        assert decoder.buffered == 0

    @settings(max_examples=100, deadline=None)
    @given(
        prefix=st.lists(tile_requests(), min_size=1, max_size=3),
        garbage=st.binary(min_size=1, max_size=64),
        framing=framings,
    )
    def test_valid_prefix_survives_trailing_garbage(
        self, prefix, garbage, framing
    ):
        """Frames completed before the stream went bad are still
        delivered; the failure, if any, is typed."""
        texts = [protocol_module.encode(m) for m in prefix]
        stream = b"".join(
            protocol_module.encode_frame(t, framing) for t in texts
        )
        decoder = protocol_module.FrameDecoder(framing, max_frame_bytes=4096)
        delivered = decoder.feed(stream)
        assert delivered == texts
        try:
            delivered.extend(decoder.feed(garbage))
        except protocol_module.FramingError:
            pass


# ----------------------------------------------------------------------
# binary framing / payload codec invariants
# ----------------------------------------------------------------------
_BINARY_DTYPES = st.sampled_from(["float64", "float32", "int32", "uint8"])


@st.composite
def data_tiles(draw, dtypes=_BINARY_DTYPES, finite=True):
    """Tiles with arbitrary dense attribute blocks."""
    key = draw(tile_keys(max_level=3))
    rows = draw(st.integers(1, 4))
    cols = draw(st.integers(1, 4))
    names = draw(
        st.lists(
            st.text("abcxyz_", min_size=1, max_size=6),
            min_size=1,
            max_size=3,
            unique=True,
        )
    )
    attributes = {}
    for name in names:
        dtype = np.dtype(draw(dtypes))
        cells = rows * cols
        if dtype.kind == "f":
            values = draw(
                st.lists(
                    st.floats(
                        allow_nan=not finite,
                        allow_infinity=not finite,
                        width=32,
                    ),
                    min_size=cells,
                    max_size=cells,
                )
            )
        else:
            values = draw(
                st.lists(st.integers(0, 200), min_size=cells, max_size=cells)
            )
        with np.errstate(over="ignore"):  # a float16 cell may become inf
            array = np.asarray(values, dtype=dtype)
        attributes[name] = array.reshape(rows, cols)
    return DataTile(key=key, attributes=attributes)


@st.composite
def tile_responses(draw):
    """Payload-bearing responses with arbitrary dense attribute blocks."""
    tile = draw(data_tiles())
    return protocol_module.TileResponse(
        session_id=draw(st.text("abcdefgh-123", min_size=1, max_size=8)),
        tile=protocol_module.TileRef.from_key(tile.key),
        latency_seconds=draw(st.floats(0.0, 10.0, allow_nan=False)),
        hit=draw(st.booleans()),
        payload=protocol_module.TilePayload.from_tile(tile, binary=True),
    )


class TestBinaryFramingProperties:
    """The binary wire holds the same fuzz bar as the JSON framings:
    garbage and truncation fail typed, and valid frames cut at arbitrary
    byte boundaries reassemble into equal messages."""

    @settings(max_examples=200, deadline=None)
    @given(
        data=st.binary(max_size=512),
        sizes=st.lists(st.integers(1, 64), max_size=8),
    )
    def test_garbage_never_crashes_untyped(self, data, sizes):
        decoder = protocol_module.FrameDecoder("binary", max_frame_bytes=256)
        try:
            frames = _feed_chunked(decoder, data, sizes)
        except protocol_module.FramingError:
            return  # a typed framing rejection is a pass
        # Survivors decode to a wire message or fail with the typed
        # malformed-message error — nothing escapes untyped.
        for frame in frames:
            try:
                protocol_module.decode_wire(frame)
            except protocol_module.InvalidRequestError:
                pass

    @settings(max_examples=60, deadline=None)
    @given(
        messages=st.lists(tile_responses(), min_size=1, max_size=3),
        sizes=st.lists(st.integers(1, 16), max_size=8),
    )
    def test_valid_binary_frames_reassemble_exactly(self, messages, sizes):
        stream = b"".join(
            protocol_module.encode_wire(m, "binary") for m in messages
        )
        decoder = protocol_module.FrameDecoder("binary")
        frames = _feed_chunked(decoder, stream, sizes)
        decoded = [protocol_module.decode_wire(f) for f in frames]
        assert decoded == messages
        assert decoder.buffered == 0

    @settings(max_examples=60, deadline=None)
    @given(message=tile_responses(), cut=st.integers(1, 2**31))
    def test_truncated_frame_stays_buffered(self, message, cut):
        frame = protocol_module.encode_wire(message, "binary")
        decoder = protocol_module.FrameDecoder("binary")
        # Any strict prefix yields nothing yet; the remainder completes
        # the frame exactly once.
        prefix = frame[: cut % len(frame)]
        assert decoder.feed(prefix) == []
        frames = decoder.feed(frame[len(prefix) :])
        assert [protocol_module.decode_wire(f) for f in frames] == [message]
        assert decoder.buffered == 0

    @settings(max_examples=60, deadline=None)
    @given(message=tile_responses(), flip=st.integers(0, 2**31))
    def test_corrupted_body_fails_typed(self, message, flip):
        frame = bytearray(protocol_module.encode_wire(message, "binary"))
        # Corrupt one body byte (skip the 5-byte kind+length header so
        # the decoder still cuts a frame to hand to the message codec).
        body_index = 5 + flip % (len(frame) - 5)
        frame[body_index] ^= 0xFF
        decoder = protocol_module.FrameDecoder("binary")
        try:
            frames = decoder.feed(bytes(frame))
        except protocol_module.FramingError:
            return  # corrupting the kind byte of a later frame is typed
        for out in frames:
            try:
                decoded = protocol_module.decode_wire(out)
            except protocol_module.InvalidRequestError:
                continue
            # A flip that survives decoding must have produced a
            # different message, never a silently-wrong equal one —
            # unless it only toggled JSON cosmetics (whitespace); those
            # decode equal by design.
            if decoded == message:
                rebuilt = protocol_module.encode_wire(decoded, "binary")
                assert rebuilt == protocol_module.encode_wire(
                    message, "binary"
                )

    def test_json_fallback_messages_pass_through_binary_framing(self):
        request = protocol_module.TileRequest(
            session_id="s1", tile=protocol_module.TileRef(0, 0, 0)
        )
        frame = protocol_module.encode_wire(request, "binary")
        decoder = protocol_module.FrameDecoder("binary")
        (out,) = decoder.feed(frame)
        assert isinstance(out, str)
        assert protocol_module.decode_wire(out) == request

    def test_unknown_kind_byte_rejected_immediately(self):
        decoder = protocol_module.FrameDecoder("binary")
        with pytest.raises(protocol_module.FramingError):
            decoder.feed(b"\x7f")


# ----------------------------------------------------------------------
# encode once, send many: the cached-segment encoder vs the reference
# ----------------------------------------------------------------------
_tile_refs = tile_keys(max_level=3).map(protocol_module.TileRef.from_key)


@st.composite
def payloadless_messages(draw, tile):
    """The per-send header of a reply or a push for ``tile``."""
    ref = protocol_module.TileRef.from_key(tile.key)
    session_id = draw(st.text(min_size=1, max_size=8))
    if draw(st.booleans()):
        return protocol_module.TileResponse(
            session_id=session_id,
            tile=ref,
            latency_seconds=draw(st.floats(0.0, 10.0, allow_nan=False)),
            hit=draw(st.booleans()),
            phase=draw(st.sampled_from([None, "Foraging", "Sensemaking"])),
            prefetched=tuple(draw(st.lists(_tile_refs, max_size=3))),
        )
    return protocol_module.PushTile(
        session_id=session_id,
        tile=ref,
        rank=draw(st.integers(0, 8)),
        generation=draw(st.integers(0, 1000)),
        utility=draw(st.floats(0.0, 4.0, allow_nan=False)),
    )


class TestEncodeOnceProperties:
    """``encode_tile_frame`` is the reference encoder, byte for byte —
    on the send that fills the cache and on every send after it."""

    @settings(max_examples=150, deadline=None)
    @given(
        data=st.data(),
        tile=data_tiles(
            dtypes=st.sampled_from(
                ["float64", "float32", "float16", "int64", "int16",
                 "uint8", "bool"]
            ),
            finite=False,
        ),
        framing=st.sampled_from(["lines", "length", "binary"]),
    )
    def test_byte_identical_to_encode_wire_cold_and_warm(
        self, data, tile, framing
    ):
        cache = protocol_module.TileSegmentCache()
        binary = framing == "binary"
        for sends in (1, 2, 3):
            message = data.draw(payloadless_messages(tile))
            reference = protocol_module.encode_wire(
                replace(
                    message,
                    payload=protocol_module.TilePayload.from_tile(
                        tile, binary=binary
                    ),
                ),
                framing,
            )
            frame = protocol_module.encode_tile_frame(
                message,
                tile,
                framing,
                protocol_module.DEFAULT_MAX_FRAME_BYTES,
                cache,
            )
            assert frame == reference
            assert cache.stats()["misses"] == 1
            assert cache.stats()["hits"] == sends - 1

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(),
        tile=data_tiles(),
        framing=st.sampled_from(["lines", "length", "binary"]),
    )
    def test_size_limit_raises_what_the_reference_raises(
        self, data, tile, framing
    ):
        message = data.draw(payloadless_messages(tile))
        complete = replace(
            message,
            payload=protocol_module.TilePayload.from_tile(
                tile, binary=framing == "binary"
            ),
        )
        exact = len(protocol_module.encode_wire(complete, framing)) - (
            {"lines": 1, "length": 4, "binary": 5}[framing]
        )
        cache = protocol_module.TileSegmentCache()
        for limit in (exact, exact - 1, exact - 1):
            try:
                reference = protocol_module.encode_wire(
                    complete, framing, limit
                )
            except protocol_module.FrameTooLargeError as exc:
                reference = str(exc)
            try:
                frame = protocol_module.encode_tile_frame(
                    message, tile, framing, limit, cache
                )
            except protocol_module.FrameTooLargeError as exc:
                frame = str(exc)
            assert frame == reference
        assert isinstance(frame, str)  # the tight limit did refuse


# ----------------------------------------------------------------------
# the remembered descriptor entry is the validated one, or absent
# ----------------------------------------------------------------------
def _entry(name="v", dtype="float64", shape=(2, 3), nbytes=None) -> dict:
    if nbytes is None:
        nbytes = int(np.prod(shape, dtype=int)) * np.dtype(dtype).itemsize
    return {"name": name, "dtype": dtype, "shape": list(shape), "nbytes": nbytes}


def _without(key: str) -> dict:
    entry = _entry()
    del entry[key]
    return entry


#: One descriptor of every family ``_parse_attribute_specs`` rejects,
#: with the text it is rejected with.
_MALFORMED_DESCRIPTORS = {
    "non-list": ({"name": "v"}, "binary payload attributes must be a list"),
    "non-dict entry": (
        [["v", "float64"]],
        "binary payload attribute entries must be objects",
    ),
    "missing name": (
        [_without("name")],
        "malformed binary attribute descriptor: 'name'",
    ),
    "missing nbytes": (
        [_without("nbytes")],
        "malformed binary attribute descriptor: 'nbytes'",
    ),
    "non-integer shape": (
        [{**_entry(), "shape": ["x"]}],
        "malformed binary attribute descriptor: expected an integer, got str",
    ),
    "float shape": (
        [{**_entry(), "shape": [2.0, 3.0]}],
        "malformed binary attribute descriptor: expected an integer, got float",
    ),
    "string nbytes": (
        [{**_entry(), "nbytes": "48"}],
        "malformed binary attribute descriptor: expected an integer, got str",
    ),
    "shape not a sequence": (
        [{**_entry(), "shape": 6}],
        "malformed binary attribute descriptor: expected a list, got int",
    ),
    "unknown dtype": (
        [_entry(dtype="float64", nbytes=48) | {"dtype": "floaty"}],
        "unknown dtype 'floaty' in binary payload",
    ),
    "object dtype": (
        [_entry() | {"dtype": "O"}],
        "object dtype 'O' cannot travel on the wire",
    ),
    "negative shape": (
        [_entry() | {"shape": [-2, 3]}],
        "binary attribute shape/nbytes must be non-negative",
    ),
    "negative nbytes": (
        [_entry() | {"nbytes": -48}],
        "binary attribute shape/nbytes must be non-negative",
    ),
    "size mismatch": (
        [_entry(nbytes=47)],
        "attribute 'v' declares 47 bytes but shape (2, 3) x float64 needs 48",
    ),
    "unhashable name, size mismatch": (
        [_entry(name=["v"], nbytes=47)],
        "attribute ['v'] declares 47 bytes but shape (2, 3) x float64 needs 48",
    ),
}

_entry_names = st.one_of(
    st.text(max_size=6),
    st.sampled_from([1, 1.0, True, None, "x" * 200]),
    st.lists(st.text(max_size=3), max_size=2),  # unhashable
)
_valid_entries = st.builds(
    _entry,
    name=_entry_names,
    dtype=st.sampled_from(["float64", "<f4", "int32", "uint8", "bool"]),
    shape=st.lists(st.integers(0, 5), max_size=3).map(tuple),
)
_malformed_entries = st.sampled_from(
    [
        attrs[0]
        for attrs, _ in _MALFORMED_DESCRIPTORS.values()
        if isinstance(attrs, list)
    ]
)


def _parse_outcome(attrs):
    """What parsing ``attrs`` comes to; anything but the typed error
    (a ``TypeError`` from hashing a list, say) propagates."""
    try:
        return "parsed", protocol_module._parse_attribute_specs(attrs)
    except protocol_module.InvalidRequestError as exc:
        return "rejected", str(exc)


def _unmemoised_parse_outcome(attrs):
    with mock.patch.object(
        protocol_module,
        "_remembered_attribute_spec",
        protocol_module._attribute_spec,
    ):
        return _parse_outcome(attrs)


class TestAttributeSpecMemoProperties:
    @pytest.mark.parametrize("family", sorted(_MALFORMED_DESCRIPTORS))
    def test_each_malformed_family_keeps_its_message(self, family):
        attrs, message = _MALFORMED_DESCRIPTORS[family]
        protocol_module._remembered_attribute_spec.cache_clear()
        for _ in ("cold", "warm"):
            assert _parse_outcome(attrs) == ("rejected", message)
        # A rejected entry is never remembered.
        assert protocol_module._remembered_attribute_spec.cache_info().currsize == 0

    @settings(max_examples=200, deadline=None)
    @given(
        attrs=st.lists(st.one_of(_valid_entries, _malformed_entries), max_size=5)
    )
    def test_memoised_parse_equals_unmemoised(self, attrs):
        expected = _unmemoised_parse_outcome(attrs)
        protocol_module._remembered_attribute_spec.cache_clear()
        assert _parse_outcome(attrs) == expected  # cold
        assert _parse_outcome(attrs) == expected  # warm

    def test_equal_keys_of_different_types_stay_apart(self):
        """``1 == 1.0 == True`` hash alike; their names differ."""
        specs, total = protocol_module._parse_attribute_specs(
            [_entry(name=name) for name in (1, True, 1.0, "1")]
        )
        assert [spec[0] for spec in specs] == ["1", "True", "1.0", "1"]
        assert total == 4 * 48

    def test_only_small_text_entries_are_remembered(self):
        memo = protocol_module._remembered_attribute_spec
        memo.cache_clear()
        long_name = "n" * protocol_module.ATTRIBUTE_SPEC_MEMO_KEY_CHARS
        for name in (["v"], 7, long_name):
            (spec,), _ = protocol_module._parse_attribute_specs(
                [_entry(name=name)]
            )
            assert spec[0] == str(name)
        assert memo.cache_info().currsize == 0
        protocol_module._parse_attribute_specs([_entry(), _entry()])
        info = memo.cache_info()
        assert (info.currsize, info.hits) == (1, 1)
        assert info.maxsize == protocol_module.ATTRIBUTE_SPEC_MEMO_ENTRIES


# ----------------------------------------------------------------------
# shared hotspot registry invariants
# ----------------------------------------------------------------------
# Exactness discipline: weights are small integers, decay is 0.5, and
# op lists are short, so every count is a dyadic rational well inside
# the 53-bit mantissa — float addition is exact, letting the
# properties assert bit-identical snapshots instead of approximations.
registry_ops = st.lists(
    st.one_of(
        st.tuples(st.just("observe"), tile_keys(max_level=3), st.integers(1, 4)),
        st.tuples(st.just("advance"), st.just(None), st.integers(1, 1)),
    ),
    max_size=12,
)


def _apply_registry_ops(registry, ops):
    for kind, key, amount in ops:
        if kind == "observe":
            registry.observe(key, float(amount))
        else:
            registry.advance(amount)
    return registry


def _fresh_registry(ops, decay=0.5, shards=1):
    from repro.core.popularity import SharedHotspotRegistry

    return _apply_registry_ops(
        SharedHotspotRegistry(shards=shards, decay=decay), ops
    )


class TestSharedHotspotProperties:
    @settings(max_examples=100, deadline=None)
    @given(ops=registry_ops, decay=st.sampled_from([0.25, 0.5, 1.0]))
    def test_decayed_counts_never_negative(self, ops, decay):
        registry = _fresh_registry(ops, decay=decay)
        registry.advance(3)
        snap = registry.snapshot()
        assert all(weight >= 0.0 for _, weight in snap)
        assert snap == sorted(snap, key=lambda item: (-item[1], item[0]))

    @settings(max_examples=100, deadline=None)
    @given(ops=registry_ops, shards=st.integers(1, 6))
    def test_shard_count_never_changes_the_snapshot(self, ops, shards):
        assert (
            _fresh_registry(ops, shards=shards).snapshot()
            == _fresh_registry(ops, shards=1).snapshot()
        )

    @settings(max_examples=100, deadline=None)
    @given(ops=registry_ops, shards=st.integers(1, 6))
    def test_total_observations_counts_every_observe(self, ops, shards):
        registry = _fresh_registry(ops, shards=shards)
        assert registry.total_observations == sum(
            kind == "observe" for kind, _, _ in ops
        )
        assert registry.tick == sum(
            amount for kind, _, amount in ops if kind == "advance"
        )

    @settings(max_examples=100, deadline=None)
    @given(ops=registry_ops)
    def test_count_agrees_with_the_snapshot_and_reads_change_nothing(self, ops):
        registry = _fresh_registry(ops)
        snap = registry.snapshot()
        assert [(key, registry.count(key)) for key, _ in snap] == snap
        assert registry.count(TileKey(6, 0, 0)) == 0.0  # never observed
        assert registry.snapshot() == snap
        assert registry.tick == _fresh_registry(ops).tick

    @settings(max_examples=100, deadline=None)
    @given(ops=registry_ops, n=st.integers(1, 5))
    def test_topn_is_a_prefix_of_the_full_snapshot(self, ops, n):
        registry = _fresh_registry(ops)
        assert registry.snapshot(n) == registry.snapshot()[:n]

    @settings(max_examples=100, deadline=None)
    @given(ops=registry_ops, n=st.integers(1, 5))
    def test_topn_stable_under_lighter_unrelated_observations(self, ops, n):
        """Observing a fresh key strictly lighter than the current N-th
        entry must leave the top-N prefix untouched."""
        registry = _fresh_registry(ops)
        full = registry.snapshot()
        if len(full) < n:
            return  # the newcomer would enter the top-N legitimately
        top_before = registry.snapshot(n)
        cutoff = full[n - 1][1]
        # Level 6 is outside the strategy's key space: guaranteed fresh.
        unrelated = TileKey(6, 0, 0)
        registry.observe(unrelated, cutoff / 2)
        assert registry.snapshot(n) == top_before
