"""The records one request round builds are read-only named tuples.

``FetchOutcome``, ``PredictionContext``, ``TileResponse`` and
``PushHitResult`` are ``typing.NamedTuple`` classes: the same field
names, order and defaults the frozen dataclasses they replaced had,
built by keyword, read-only, and pickled by value.  ``PredictionResult``
stays a (mutable) dataclass, slotted.
"""

import copy
import pickle

import numpy as np
import pytest

from repro.cache.manager import FetchOutcome
from repro.core.engine import PredictionResult
from repro.middleware.service import PushHitResult, TileResponse
from repro.phases.model import AnalysisPhase
from repro.recommenders.base import PredictionContext
from repro.tiles.key import TileKey
from repro.tiles.moves import Move
from repro.tiles.tile import DataTile

KEY = TileKey(2, 1, 3)
TILE = DataTile(key=KEY, attributes={"v": np.arange(4.0).reshape(2, 2)})
PHASE = next(iter(AnalysisPhase))

#: Per record: its fields in order, each ``(name, default or REQUIRED)``,
#: and a value per field to build one with (a ``TileGrid`` does not
#: pickle, so the context's ``grid`` is a stand-in).
REQUIRED = object()
RECORDS = {
    FetchOutcome: (
        [("tile", REQUIRED), ("hit", REQUIRED), ("backend_seconds", REQUIRED),
         ("coalesced", False)],
        dict(tile=TILE, hit=False, backend_seconds=0.984, coalesced=True),
    ),
    PredictionContext: (
        [("current", REQUIRED), ("grid", REQUIRED), ("candidates", REQUIRED),
         ("history_moves", ()), ("history_tiles", ()), ("roi", ())],
        dict(current=KEY, grid="grid", candidates=(KEY.parent,),
             history_moves=(Move.ZOOM_IN_SE,), history_tiles=(KEY.parent, KEY),
             roi=(KEY,)),
    ),
    TileResponse: (
        [("tile", REQUIRED), ("latency_seconds", REQUIRED), ("hit", REQUIRED),
         ("phase", REQUIRED), ("prefetched", ()), ("fidelity", 1.0)],
        dict(tile=TILE, latency_seconds=0.0195, hit=True, phase=PHASE,
             prefetched=(KEY.parent,), fidelity=0.25),
    ),
    PushHitResult: (
        [("phase", REQUIRED), ("prefetched", ()), ("latency_seconds", 0.0),
         ("hit", True)],
        dict(phase=PHASE, prefetched=(KEY,), latency_seconds=0.5, hit=False),
    ),
}


@pytest.mark.parametrize("cls", list(RECORDS), ids=lambda cls: cls.__name__)
class TestRecordContract:
    def test_fields_order_and_defaults(self, cls):
        fields, _ = RECORDS[cls]
        assert cls._fields == tuple(name for name, _ in fields)
        assert cls._field_defaults == {
            name: default for name, default in fields if default is not REQUIRED
        }

    def test_keyword_construction(self, cls):
        fields, values = RECORDS[cls]
        record = cls(**values)
        for name, _ in fields:
            assert getattr(record, name) is values[name]
        required = {name: values[name] for name, default in fields if default is REQUIRED}
        defaulted = cls(**required)
        for name, default in fields:
            assert getattr(defaulted, name) == (
                values[name] if default is REQUIRED else default
            )

    def test_a_field_cannot_be_assigned(self, cls):
        fields, values = RECORDS[cls]
        record = cls(**values)
        for name, _ in fields:
            with pytest.raises(AttributeError):
                setattr(record, name, None)
        with pytest.raises(AttributeError):
            record.extra = None

    @pytest.mark.parametrize(
        "round_trip",
        [lambda r: pickle.loads(pickle.dumps(r)), copy.copy, copy.deepcopy],
        ids=["pickle", "copy", "deepcopy"],
    )
    def test_round_trips(self, cls, round_trip):
        _, values = RECORDS[cls]
        record = cls(**values)
        again = round_trip(record)
        assert type(again) is cls
        assert again == record
        assert again._asdict().keys() == record._asdict().keys()


def test_a_context_keeps_its_last_move():
    _, values = RECORDS[PredictionContext]
    context = PredictionContext(**values)
    assert context.last_move is Move.ZOOM_IN_SE
    assert context._replace(history_moves=()).last_move is None


def test_a_prediction_result_is_slotted():
    result = PredictionResult(phase=None, tiles=[KEY], attributions={KEY: "m"})
    assert not hasattr(result, "__dict__")
    assert result.attributed_tiles() == [(KEY, "m")]
    with pytest.raises(AttributeError):
        result.extra = None
