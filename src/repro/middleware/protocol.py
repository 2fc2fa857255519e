"""The typed, JSON-serializable request/response protocol.

Everything that crosses the client/server boundary is one of the wire
messages defined here — frozen dataclasses whose fields are JSON
scalars, lists, or further wire forms.  The in-process objects
(``DataTile``, ``Move``, ``AnalysisPhase``) stay server-side; the wire
speaks tile *references* (``[level, x, y]``), move and phase names, and
an optional dense payload.  :func:`encode` tags a message with its
``type``; :func:`decode` dispatches back.  Failures travel as
:class:`ErrorInfo`, which maps 1:1 onto the typed exception hierarchy,
so a client re-raises exactly what the server threw.

Byte transports (:mod:`repro.middleware.net`) frame messages as
newline-delimited (``"lines"``) or u32-length-prefixed (``"length"``)
UTF-8 JSON, cut back out by :class:`FrameDecoder`.  A connection opens
with a :class:`Hello` / :class:`Welcome` handshake that negotiates the
version, the optional ``push`` capability (unsolicited
:class:`PushTile` frames, always *before* the reply they accompany;
the client's push-cache digests in :class:`PushAck` /
``TileRequest.held``) and the payload encoding (:data:`PAYLOADS`).
Under ``"binary"`` every later frame is ``kind byte + u32 length +
body``: kind 0 a JSON message, kind 1 a payload-bearing message as a
JSON header plus the attribute arrays' raw bytes (deflated when that
wins, one deflate block per attribute block).  :func:`encode_wire` /
:func:`decode_wire` pick the form per message; declining peers keep the
byte-identical JSON protocol.  :func:`encode_tile_frame` splices a
tile's encoded segment, memoised on the tile (``DataTile.segments``),
into each send, byte-identical to :func:`encode_wire`.

A message's wire form is declared once, on its dataclass fields
(:func:`_wire`: kind, default, what is left off the wire), and its two
codecs are generated from that table at import (:func:`_wire_form`),
as ``dataclasses`` generates ``__init__``: no table is walked per
message.  ``from_dict`` ignores unknown keys, so a newer peer can add
fields, and coerces nothing: a field takes exactly the JSON type of its
kind (a string ``str``, an integer ``int`` and not ``bool``, a number
``int | float``, a tile reference a list of three integers); anything
else is an :class:`InvalidRequestError` naming the field.  A JSON
payload block's entries are checked as a whole.  ``to_json`` writes
byte for byte what ``json.dumps`` writes for the field dict — its
separators, ``encode_basestring_ascii`` strings, ``float.__repr__``
numbers — and hands ``json.dumps`` itself any value not of its kind's
exact type (``NaN`` / ``Infinity`` included).

The number domain is doubles and 64-bit integers, as in I-JSON: an
integer literal inside ``[-2**63, 2**64)`` reads as that ``int``, one
outside it as the nearest double, and the non-finite literals read as
those floats.  One function, :func:`_load_tagged`, reads every frame and
binary header: ``orjson``, and ``json.loads`` for what orjson refuses
(non-finite literals, lone surrogates, non-UTF-8 ``bytes``) or is never
handed — a text of more than 1024 ``[`` / ``{``, so nesting past its
depth is refused, typed.  Both read the same value from the same text.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import operator
import struct
import zlib
from _collections import _tuplegetter
from dataclasses import MISSING, dataclass, field, fields
from json.encoder import encode_basestring_ascii
from typing import NamedTuple

import numpy as np
import orjson

from repro.phases.model import AnalysisPhase
from repro.tiles.key import TileKey
from repro.tiles.moves import Move
from repro.tiles.tile import DataTile


# ----------------------------------------------------------------------
# error variants
# ----------------------------------------------------------------------
class ProtocolError(Exception):
    """Base of every typed serving-protocol failure."""

    code = "error"

    def __init__(self, message: str, session_id: str | None = None) -> None:
        super().__init__(message)
        self.message = message
        self.session_id = session_id

    # KeyError subclasses would otherwise render str(exc) as
    # repr(message), double-quoting every log line and match= pattern.
    __str__ = Exception.__str__


class SessionNotFoundError(ProtocolError, KeyError):
    """The request named a session the service does not know."""

    code = "session_not_found"


class DuplicateSessionError(ProtocolError, ValueError):
    """``open_session`` asked for an id that is already live."""

    code = "duplicate_session"


class SessionClosedError(ProtocolError, RuntimeError):
    """The request arrived after the session (or service) closed."""

    code = "session_closed"


class InvalidRequestError(ProtocolError, ValueError):
    """The request was malformed or not legal for the pyramid."""

    code = "invalid_request"


class FramingError(ProtocolError, ValueError):
    """The byte stream could not be cut into frames."""

    code = "framing"


class FrameTooLargeError(FramingError):
    """A frame exceeded the transport's ``max_frame_bytes`` budget."""

    code = "frame_too_large"


class VersionMismatchError(ProtocolError, ValueError):
    """Hello/Welcome negotiation found no mutually supported version."""

    code = "version_mismatch"


class WorkerUnavailableError(ProtocolError, ConnectionError):
    """The cluster worker owning the requested tile is down.

    The router surfaces this instead of hanging the client; the request
    is safe to retry — the ring has already re-mapped the dead worker's
    partition onto the survivors.  Older clients that predate the code
    degrade to the base :class:`ProtocolError` via
    :meth:`ErrorInfo.to_exception`.
    """

    code = "worker_unavailable"


ERROR_TYPES: dict[str, type[ProtocolError]] = {
    cls.code: cls
    for cls in (
        ProtocolError, SessionNotFoundError, DuplicateSessionError, SessionClosedError,
        InvalidRequestError, FramingError, FrameTooLargeError, VersionMismatchError,
        WorkerUnavailableError,
    )
}


# ----------------------------------------------------------------------
# the field table, and the codecs generated from it
# ----------------------------------------------------------------------
#: What reading a well-framed but malformed message may raise; every
#: decode site turns exactly these into :class:`InvalidRequestError`.
#: ``OverflowError`` is an ``int`` too large for a double (``from_dict``
#: given one directly: the reader never makes one).
_MALFORMED = (KeyError, TypeError, ValueError, OverflowError)


class _Kind(NamedTuple):
    """How one kind of field crosses the wire: the source the codec
    generator splices in for each field of the kind.  ``read`` is the
    statements that take the JSON value ``v`` — of exactly one JSON
    type, nothing coerced into it — to the field value, left in ``v``,
    or raise; ``write`` the expression giving the field value ``v``'s
    JSON text, which is what ``json.dumps`` writes for it: a value not
    of the kind's exact type is handed to ``json.dumps`` itself.
    ``env`` binds the names the two use beyond :data:`_CODEC_NAMES`."""

    read: str
    write: str
    env: tuple = ()


def _expected(what: str, value) -> TypeError:
    got = type(value).__name__
    if type(value) is list:  # of the wrong entries: name theirs, bounded
        got = f"[{', '.join(type(entry).__name__ for entry in value[:5])}]"
    return TypeError(f"expected {what}, got {got}")


_countOf = operator.countOf
#: The names every generated codec may use.
_CODEC_NAMES = dict(
    MISSING=MISSING, MALFORMED=_MALFORMED, InvalidRequestError=InvalidRequestError,
    _expected=_expected, _quote=encode_basestring_ascii, _dumps=json.dumps, _countOf=_countOf,
)


def _codec(source: str, env=()):
    """Compile one generated function (its frames read ``<string>``)."""
    names = {**_CODEC_NAMES, **dict(env)}
    exec(source, names)
    return names[source[len("def ") : source.index("(")]]


def _reader(kind: _Kind):
    """``kind.read`` as a function of one JSON value."""
    body = "".join(f"    {line}\n" for line in kind.read.splitlines())
    return _codec(f"def read(v):\n{body}    return v\n", kind.env)


def _scalar(what: str, t: str, text: str) -> _Kind:
    """The kind whose JSON value is of type ``t`` exactly (a ``bool``
    is no ``int``), kept as it is and written as ``text``."""
    return _Kind(
        f"if type(v) is not {t}: raise _expected({what!r}, v)",
        f"'null' if v is None else {text} if type(v) is {t} else _dumps(v)",
    )


def _list_of(what: str, t: str, text: str) -> _Kind:
    """A JSON list of ``t`` values (each as :func:`_scalar` reads it and
    written as ``text(entry)``); a tuple on this side."""
    return _Kind(
        "if type(v) is not list: raise _expected('a list', v)\n"
        f"if _countOf(map(type, v), {t}) != len(v):\n"
        f"    for e in v: read_{t}(e)  # the first stray entry's refusal\n"
        "v = tuple(v)",
        f"'null' if v is None else '[%s]' % ', '.join(map({text}, v)) if type(v)"
        f" is tuple and _countOf(map(type, v), {t}) == len(v) else _dumps(v)",
        ((f"read_{t}", _reader(_scalar(what, t, ""))),),
    )


_STR = _scalar("a string", "str", "_quote(v)")
_INT = _scalar("an integer", "int", "repr(v)")
_BOOL = _scalar("a boolean", "bool", "('true' if v else 'false')")
_NUMBER = _Kind(
    "if type(v) is not float:\n"
    "    if type(v) is not int: raise _expected('a number', v)\n"
    "    v = float(v)",
    # json.dumps writes a non-finite float: NaN, Infinity, -Infinity.
    "'null' if v is None else repr(v) if type(v) is float and v - v == 0.0"
    " or type(v) is int else _dumps(v)",
)
_STRS = _list_of("a string", "str", "_quote")
_INTS = _list_of("an integer", "int", "repr")


def _wire(kind: _Kind, default=MISSING, *, required=False, omit=False):
    """Declare a dataclass field that crosses the wire, under its own
    name and in field order, as ``kind``.  ``default`` is what the
    constructor *and* an absent key give (none: the key must be there;
    ``required`` demands the key although the constructor defaults);
    ``null`` is legal exactly where the default is ``None``; ``omit``
    leaves a value equal to the default off the wire."""
    absent = MISSING if required else default
    return field(default=default, metadata={"wire": (kind, absent, omit)})


def _wire_form(cls):
    """Give a dataclass of :func:`_wire` fields its field table,
    ``wire_fields`` (one ``(name, kind, absent, omit)`` row per field),
    and the two codecs generated from it, as ``dataclasses`` generates
    ``__init__`` — no class writes a codec of its own:

    - ``from_dict(data)``: the instance the declared keys of a JSON
      object give (any other key is ignored), built the way ``copy``
      restores one, or the refusal naming the field (a message's is
      the typed :class:`InvalidRequestError`);
    - ``to_json(self)``: its JSON text, a message's ``type`` tag first,
      byte for byte what ``json.dumps`` writes for the dict of its
      fields.  A binary-body message's ``to_json(self, payload)``
      writes the JSON text ``payload`` as its payload's.
    """
    cls.wire_fields = rows = tuple(
        (f.name, *f.metadata["wire"]) for f in fields(cls) if "wire" in f.metadata
    )
    tag = getattr(cls, "wire_type", None)
    spliced = getattr(cls, "binary_body", False)
    env = {"cls": cls, "new": object.__new__}
    read = ["def from_dict(data):", "    get = data.get", "    try:"]
    write = [f"def to_json(m{', payload=None' if spliced else ''}):"]
    parts = [f'"type": {json.dumps(tag)}'] if tag else []
    for i, (name, kind, absent, omit) in enumerate(rows):
        env.update(kind.env, **{f"absent{i}": absent})
        missing = "raise ValueError('missing')" if absent is MISSING else f"v = absent{i}"
        read += [
            f"        field, v = {name!r}, get({name!r}, MISSING)",
            f"        if v is MISSING: {missing}",
            f"        {'elif v is not None' if absent is None else 'else'}:",
            *(f"            {line}" for line in kind.read.splitlines()),
            f"        f_{name} = v",
        ]
        text = kind.write
        if spliced and name == "payload":
            text = f"payload if payload is not None else {text}"
        key = f"{json.dumps(name)}: "
        if omit:  # follows a written field: the tag or a declared one
            text = f"'' if v == absent{i} else {', ' + key!r} + ({text})"
            parts[-1] += "%s"
        else:
            parts.append(f"{key}%s")
        write += [f"    v = m.{name}", f"    t{i} = {text}"]
    error = f"InvalidRequestError(f'malformed {tag} message: " if tag else "ValueError(f'"
    read += ["    except MALFORMED as exc:", f"        raise {error}{{field}}: {{exc}}') from None"]
    state = []
    for f in fields(cls):
        if "wire" not in f.metadata:
            env[f"d_{f.name}"] = f.default
        state.append(f"{f.name!r}: {'f' if 'wire' in f.metadata else 'd'}_{f.name}")
    read += ["    m = new(cls)", f"    m.__dict__.update({{{', '.join(state)}}})"]
    if hasattr(cls, "__post_init__"):
        read.append("    m.__post_init__()")
    read.append("    return m")
    write.append(
        f"    return {'{' + ', '.join(parts) + '}'!r} % ({''.join(f't{i}, ' for i in range(len(rows)))})"
    )
    cls.from_dict = staticmethod(_codec("\n".join(read) + "\n", env))
    cls.to_json = _codec("\n".join(write) + "\n", env)
    return cls


def _object(cls) -> _Kind:
    """A nested JSON object read and written by ``cls``'s codecs."""
    name = cls.__name__
    return _Kind(
        "if type(v) is not dict: raise _expected('an object', v)\n"
        f"v = read_{name}(v)",
        f"'null' if v is None else write_{name}(v) if type(v) is {name} else _dumps(v)",
        ((name, cls), (f"read_{name}", cls.from_dict), (f"write_{name}", cls.to_json)),
    )


def _objects(cls) -> _Kind:
    """A JSON list of :func:`_object` values; a tuple on this side."""
    name = cls.__name__
    return _Kind(
        "if type(v) is not list: raise _expected('a list', v)\n"
        f"v = tuple(map(read_{name}_object, v))",
        f"'null' if v is None else '[%s]' % ', '.join(map(write_{name}, v)) if type(v)"
        f" is tuple and _countOf(map(type, v), {name}) == len(v) else _dumps(v)",
        (*_object(cls).env, (f"read_{name}_object", _reader(_object(cls)))),
    )


#: Every message class by its ``type`` tag, in definition order.
MESSAGE_TYPES: dict[str, type] = {}


def _message(name: str, *, client: bool = False, binary: bool = False):
    """Register a wire message under its tag, with the per-type facts
    every layer reads off the class: ``client_sends`` (a serving
    endpoint has a handler for it: ``connection.CLIENT_MESSAGES``) and
    ``binary_body`` (its payload may travel as a binary body)."""

    def register(cls):
        cls.wire_type, cls.client_sends, cls.binary_body = name, client, binary
        MESSAGE_TYPES[name] = cls
        return _wire_form(cls)

    return register


# ----------------------------------------------------------------------
# wire building blocks
# ----------------------------------------------------------------------
class TileRef(tuple):
    """A tile address on the wire: ``[level, x, y]``, three ``int``.

    Like :class:`TileKey` it is the tuple of its fields (one check and
    one ``tuple.__new__`` to read, ``"[%d, %d, %d]" % ref`` to write),
    so it equals a key or a plain tuple of the same fields: keep refs
    out of containers of keys.  Unlike a key it may hold what no key
    can — a peer's negative coordinate, which :func:`requested_key` /
    :func:`held_keys` refuse, typed."""

    __slots__ = ()

    def __new__(cls, level: int, x: int, y: int) -> "TileRef":
        if not type(level) is type(x) is type(y) is int:
            raise _expected("[level, x, y]", [level, x, y])
        return tuple.__new__(cls, (level, x, y))

    level = _tuplegetter(0, "Zoom level, 0 the coarsest.")
    x = _tuplegetter(1, "Column at this level.")
    y = _tuplegetter(2, "Row at this level.")

    def __getnewargs__(self) -> tuple[int, int, int]:
        # pickle and copy rebuild a ref through __new__, checks included.
        return tuple(self)

    @classmethod
    def from_key(cls, key: TileKey) -> "TileRef":
        return tuple.__new__(cls, key)

    def to_key(self) -> TileKey:
        return TileKey(*self)

    def to_list(self) -> list[int]:
        return list(self)

    @classmethod
    def from_list(cls, data) -> "TileRef":
        return _read_ref(data)


_REF = _Kind(
    "if type(v) is not list or len(v) != 3 or not type(v[0]) is type(v[1])"
    " is type(v[2]) is int: raise _expected('[level, x, y]', v)\n"
    "v = tuple.__new__(TileRef, v)",
    "'null' if v is None else '[%d, %d, %d]' % v if type(v) is TileRef else _dumps(v)",
    (("TileRef", TileRef),),
)
_read_ref = _reader(_REF)
_new_ref = functools.partial(tuple.__new__, TileRef)
_REFS = _Kind(
    # In C, one pass each: every entry a list of three, every field int.
    "if type(v) is not list: raise _expected('a list', v)\n"
    "if (_countOf(map(type, v), list) != len(v) or _countOf(map(len, v), 3) != len(v)\n"
    "        or _countOf(map(type, _chain(v)), int) != 3 * len(v)):\n"
    "    for e in v: read_ref(e)  # the first stray entry's refusal\n"
    "v = tuple(map(new_ref, v))",
    "'null' if v is None else '[%s]' % ', '.join(map(ref_text, v)) if type(v)"
    " is tuple and _countOf(map(type, v), TileRef) == len(v) else _dumps(v)",
    (
        ("TileRef", TileRef),
        ("read_ref", _read_ref),
        ("new_ref", _new_ref),
        ("ref_text", "[%d, %d, %d]".__mod__),
        ("_chain", itertools.chain.from_iterable),
    ),
)

#: The JSON types a payload block's entries may take, by the kind of its
#: dtype; a block of any other dtype cannot travel as JSON.
_ENTRY_TYPES = {
    "f": ({float, int}, "numbers"),
    "i": ({int}, "integers"),
    "u": ({int}, "integers"),
    "b": ({bool}, "booleans"),
}


def _values_array(block: "AttributeBlock") -> np.ndarray:
    """A block's ``values`` as its array, or the refusal naming the
    attribute: every entry of its dtype's JSON type (a ``bool`` is no
    number, a list no entry), integers inside the dtype's range, and as
    many entries as the shape holds.  One pass over the entries' types
    (numpy's inference would read ``[true, 1.5]`` as two floats), then
    numpy converts.

    A float block whose entries are all exactly ``float`` — every block
    a server writes — takes a cheaper exact route: one count of the
    types compared by identity (a ``bool``, an ``int`` or a float
    subclass fails it, and the full scan then names the stray), and a
    ``struct`` pack read back as doubles, which is bit for bit what
    ``np.array`` makes of them in any float dtype.  A native ``float64``
    block comes back read-only, as a binary-born one does."""
    name, values, shape = block.name, block.values, block.shape
    try:
        dtype = np.dtype(block.dtype)
    except (TypeError, ValueError):
        raise TypeError(f"attribute {name!r}: unknown dtype {block.dtype!r}") from None
    if dtype.kind not in _ENTRY_TYPES:
        raise TypeError(f"attribute {name!r}: dtype {dtype} cannot travel as JSON")
    exact_floats = (dtype.kind == "f" and operator.countOf(map(type, values), float) == len(values))
    if not exact_floats:
        allowed, what = _ENTRY_TYPES[dtype.kind]
        stray = set(map(type, values)) - allowed
        if stray:
            got = ", ".join(sorted(kind.__name__ for kind in stray))
            raise TypeError(f"attribute {name!r}: {dtype} entries must be {what}, got {got}")
    if min(shape, default=0) < 0 or math.prod(shape) != len(values):
        raise ValueError(f"attribute {name!r}: {len(values)} entries for shape {list(shape)}")
    if exact_floats:
        doubles = np.frombuffer(struct.pack(f"{len(values)}d", *values), np.float64)
        return doubles.astype(dtype, copy=False).reshape(shape)
    if dtype.kind in "iu" and values:
        bounds = np.iinfo(dtype)
        if min(values) < bounds.min or max(values) > bounds.max:
            raise ValueError(f"attribute {name!r}: an entry is outside {dtype}")
    return np.array(values, dtype=dtype).reshape(shape)


@_wire_form
@dataclass(frozen=True, eq=False)
class AttributeBlock:
    """One attribute's dense block.

    Every block carries its dense ``array``.  JSON-born blocks also keep
    ``values`` (the flattened scalars as read, checked and converted
    once, when the block is built); binary-born blocks skip the
    expensive ``tolist()`` round trip (``values=None``).  Equality
    compares the dense data — two blocks are equal iff their names,
    dtypes, shapes, and element values match, regardless of which
    carrier they arrived on.
    """

    name: str = _wire(_STR)
    dtype: str = _wire(_STR)
    shape: tuple[int, ...] = _wire(_INTS)
    #: The one bulk field (thousands of scalars per JSON reply): taken
    #: as a list, its entries checked by :func:`_values_array` as a
    #: whole, not one by one; a binary-born block's are listed only
    #: when JSON asks.
    values: tuple | None = _wire(_Kind(
        "if type(v) is not list: raise _expected('a list', v)\nv = tuple(v)",
        "_dumps(v if v is not None else m.array.ravel().tolist())",
    ), None)
    #: The dense array itself — always C-contiguous, so the binary
    #: encoder can take its bytes with a zero-copy memoryview.
    array: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.array is None:
            if self.values is None:
                raise ValueError("AttributeBlock needs values or an array")
            object.__setattr__(self, "array", _values_array(self))

    def __eq__(self, other) -> bool:
        if not isinstance(other, AttributeBlock):
            return NotImplemented
        if (self.name, self.dtype, self.shape) != (other.name, other.dtype, other.shape):
            return False
        mine, theirs = self.to_array(), other.to_array()
        equal_nan = mine.dtype.kind == "f" and theirs.dtype.kind == "f"
        return bool(np.array_equal(mine, theirs, equal_nan=equal_nan))

    def __hash__(self) -> int:
        return hash((self.name, self.dtype, self.shape))

    @classmethod
    def from_array(cls, name: str, array: np.ndarray, *, binary: bool = False) -> "AttributeBlock":
        array = np.ascontiguousarray(array)
        return cls(
            name=name,
            dtype=str(array.dtype),
            shape=tuple(array.shape),
            values=None if binary else tuple(array.ravel().tolist()),
            array=array,
        )

    def to_array(self) -> np.ndarray:
        return self.array


@_wire_form
@dataclass(frozen=True)
class TilePayload:
    """A full tile on the wire: its address plus every attribute block."""

    tile: TileRef = _wire(_REF)
    attributes: tuple[AttributeBlock, ...] = _wire(_objects(AttributeBlock))

    @classmethod
    def from_tile(cls, tile: DataTile, *, binary: bool = False) -> "TilePayload":
        """Build the wire form; ``binary=True`` keeps the arrays as
        arrays (no per-scalar ``tolist()``) for the binary encoder."""
        return cls(
            tile=TileRef.from_key(tile.key),
            attributes=tuple(
                AttributeBlock.from_array(name, array, binary=binary)
                for name, array in sorted(tile.attributes.items())
            ),
        )

    def to_tile(self) -> DataTile:
        blocks = self.attributes
        return DataTile(
            key=_key_of(self.tile),
            attributes=dict(zip(map(_NAME, blocks), map(_ARRAY, blocks))),
        )


_PAYLOAD = _object(TilePayload)
_NAME, _ARRAY = operator.attrgetter("name"), operator.attrgetter("array")


# ----------------------------------------------------------------------
# messages
# ----------------------------------------------------------------------
#: Each interface move and analysis phase by its wire name.
_MOVES = {move.value: move for move in Move}
_PHASES = {phase.value: phase for phase in AnalysisPhase}


def _to_move(message: "TileRequest | PushAck") -> Move | None:
    """The interface move a ``tile_request`` / ``push_ack`` names."""
    if message.move is None:
        return None
    move = _MOVES.get(message.move)
    if move is None:
        raise InvalidRequestError(f"unknown move {message.move!r}", session_id=message.session_id)
    return move


@_message("tile_request", client=True)
@dataclass(frozen=True)
class TileRequest:
    """One client request: session, the move taken, the target tile."""

    session_id: str = _wire(_STR)
    tile: TileRef = _wire(_REF)
    #: The interface move that led here (``Move.value``), or None for
    #: the session-opening request.
    move: str | None = _wire(_STR, None)
    #: Push-negotiated clients attach their push-cache digest (the tiles
    #: they already hold) so the server never re-streams a held tile.
    #: ``None`` — the default, and the only value a non-push client ever
    #: sends — is omitted from the wire form entirely, keeping the frame
    #: byte-identical to the pre-push protocol.
    held: tuple[TileRef, ...] | None = _wire(_REFS, None, omit=True)

    to_move = _to_move


@_message("tile_response", binary=True)
@dataclass(frozen=True)
class TileResponse:
    """One server response on the wire.

    ``payload`` carries the tile's dense data; the reply to a
    ``push_ack`` (the client already holds the tile) leaves it None.

    ``fidelity`` is the linear resolution fraction of the carried tile
    (1.0 = full resolution).  It is omitted from the wire form when
    full — legacy and fidelity-off peers stay wire-byte-identical.
    """

    session_id: str = _wire(_STR)
    tile: TileRef = _wire(_REF)
    latency_seconds: float = _wire(_NUMBER)
    hit: bool = _wire(_BOOL)
    phase: str | None = _wire(_STR, None)
    prefetched: tuple[TileRef, ...] = _wire(_REFS, ())
    payload: TilePayload | None = _wire(_PAYLOAD, None)
    # Omitted when full: absent -> 1.0, so fidelity-off replies are
    # byte-identical to the pre-fidelity protocol revision.
    fidelity: float = _wire(_NUMBER, 1.0, omit=True)

    @classmethod
    def from_result(
        cls, session_id: str, result, include_payload: bool = True, *, binary: bool = False
    ) -> "TileResponse":
        """Build the wire form of an in-process ``TileResponse``, in one
        step as :meth:`from_dict` builds one."""
        phase, tile = result.phase, result.tile
        message = object.__new__(cls)
        message.__dict__.update(
            session_id=session_id,
            tile=_new_ref(tile.key),
            latency_seconds=result.latency_seconds,
            hit=result.hit,
            phase=phase._value_ if phase is not None else None,  # no enum frames
            prefetched=tuple(map(_new_ref, result.prefetched)),
            payload=TilePayload.from_tile(tile, binary=binary) if include_payload else None,
            fidelity=getattr(result, "fidelity", 1.0),
        )
        return message

    def to_phase(self) -> AnalysisPhase | None:
        if not self.phase:
            return None
        return _PHASES.get(self.phase) or AnalysisPhase.from_string(self.phase)


@_message("push_tile", binary=True)
@dataclass(frozen=True)
class PushTile:
    """An unsolicited server→client frame: one predicted tile, streamed
    ahead of need (Khameleon-style continuous prefetch).

    Push frames only travel on connections that negotiated the ``push``
    capability, and always *precede* the reply to the request whose
    prediction round produced them — the strict request/reply pairing of
    every other message is untouched.
    """

    session_id: str = _wire(_STR)
    tile: TileRef = _wire(_REF)
    #: Position in the prediction round that produced this push (0 = the
    #: model's best guess).
    rank: int = _wire(_INT)
    #: The server-side push round (generation) this frame belongs to; a
    #: newer request bumps it and cancels what the old round still had
    #: queued.
    generation: int = _wire(_INT)
    #: The scheduler's computed utility for this tile (diagnostic).
    utility: float = _wire(_NUMBER)
    payload: TilePayload | None = _wire(_PAYLOAD, None)
    #: Linear resolution fraction of the carried payload (1.0 = full);
    #: omitted on the wire when full, so fidelity-off push streams are
    #: byte-identical to the pre-fidelity revision.
    fidelity: float = _wire(_NUMBER, 1.0, omit=True)


@_message("push_ack", client=True)
@dataclass(frozen=True)
class PushAck:
    """Client → server: the push-cache digest, optionally reporting a
    locally answered (push-hit) request.

    ``held`` is the authoritative list of tiles the client's push cache
    holds right now — the server clears its in-flight accounting from it
    and never re-streams a held tile.  When ``tile`` is set the client
    answered a request locally from the push cache: the server records
    the zero-latency hit, feeds its prediction engine, and replies with
    a payload-less :class:`TileResponse` (the client already holds the
    tile).  With ``tile`` unset the reply is the session's
    :class:`SessionInfo`.
    """

    session_id: str = _wire(_STR)
    held: tuple[TileRef, ...] = _wire(_REFS, ())
    #: Move that led to the locally served tile (``Move.value``).
    move: str | None = _wire(_STR, None)
    #: The locally served tile, when this ack reports a push hit.
    tile: TileRef | None = _wire(_REF, None)

    to_move = _to_move


@functools.lru_cache(maxsize=4096)
def _key_of(ref: TileRef) -> TileKey:
    """A reference's key, built and validated once (a ``held`` digest
    repeats nearly whole request after request); a raise is not kept."""
    return TileKey(*ref)


def requested_key(message: "TileRequest | PushAck", grid=None) -> TileKey:
    """The tile a ``tile_request`` / ``push_ack`` names, as a key.

    A reference no :class:`TileKey` can hold (a negative coordinate)
    or, given the serving pyramid's ``grid``, one outside it is refused
    here — typed, with the session id — before the session or the cache
    see it.
    """
    try:
        key = _key_of(message.tile)
    except ValueError as exc:
        raise InvalidRequestError(
            f"invalid tile reference {list(message.tile)}: {exc}", session_id=message.session_id
        ) from None
    if grid is not None and not grid.valid(key):
        raise InvalidRequestError(
            f"tile {key} is not in this pyramid", session_id=message.session_id
        )
    return key


def held_keys(message: "TileRequest | PushAck") -> list[TileKey]:
    """The push-cache digest a ``tile_request`` / ``push_ack`` carries,
    as keys — an un-keyable reference refused as :func:`requested_key`
    refuses the tile, before the push scheduler sees anything.  Only a
    reference not keyed before constructs a :class:`TileKey`."""
    try:
        return list(map(_key_of, message.held))
    except ValueError:
        for ref in message.held:  # name the first reference refused
            try:
                _key_of(ref)
            except ValueError as exc:
                raise InvalidRequestError(
                    f"invalid held tile reference {list(ref)}: {exc}",
                    session_id=message.session_id,
                ) from None
        raise


def prefetched_keys(message: "TileResponse") -> tuple[TileKey, ...]:
    """The tiles a ``tile_response`` says were prefetched, as keys."""
    return tuple(map(_key_of, message.prefetched))


@_message("session_info")
@dataclass(frozen=True)
class SessionInfo:
    """A session's externally visible state and latency statistics."""

    session_id: str = _wire(_STR)
    open: bool = _wire(_BOOL)
    prefetch_mode: str = _wire(_STR)
    requests: int = _wire(_INT)
    hits: int = _wire(_INT)
    hit_rate: float = _wire(_NUMBER)
    average_latency_seconds: float = _wire(_NUMBER)


@_message("error")
@dataclass(frozen=True)
class ErrorInfo:
    """A failure on the wire; re-raisable via :meth:`to_exception`."""

    code: str = _wire(_STR)
    message: str = _wire(_STR)
    session_id: str | None = _wire(_STR, None)

    @classmethod
    def from_exception(cls, exc: BaseException) -> "ErrorInfo":
        if isinstance(exc, ProtocolError):
            return cls(code=exc.code, message=exc.message, session_id=exc.session_id)
        return cls(code=ProtocolError.code, message=str(exc))

    def to_exception(self) -> ProtocolError:
        return ERROR_TYPES.get(self.code, ProtocolError)(self.message, session_id=self.session_id)


# ----------------------------------------------------------------------
# control envelope (connection setup and session lifecycle)
# ----------------------------------------------------------------------
#: Every revision this build can serve (negotiation picks the highest
#: revision both peers list).
SUPPORTED_VERSIONS: tuple[int, ...] = (1,)


@_message("hello", client=True)
@dataclass(frozen=True)
class Hello:
    """The client's first frame: who it is and what it speaks."""

    versions: tuple[int, ...] = _wire(_INTS, SUPPORTED_VERSIONS, required=True)
    client: str = _wire(_STR, "")
    #: Client opts into server-streamed ``push_tile`` frames.  Older
    #: peers simply omit the field (``from_dict`` defaults it off), so
    #: the capability degrades to plain pull without a version bump.
    push: bool = _wire(_BOOL, False)
    #: Payload encodings the client can speak, best-preferred first.
    #: Serialized only when it says more than the default ``("json",)``,
    #: so a JSON-only client's hello stays byte-identical to older
    #: builds and older servers negotiate JSON implicitly.
    payloads: tuple[str, ...] = _wire(_STRS, ("json",), omit=True)


@_message("welcome")
@dataclass(frozen=True)
class Welcome:
    """The server's handshake reply: the negotiated version and limits."""

    version: int = _wire(_INT)
    server: str = _wire(_STR, "")
    max_frame_bytes: int = _wire(_INT, 0)
    #: Push capability granted: True only when the client asked for it
    #: *and* this server runs with ``PrefetchPolicy.push="on"``.
    push: bool = _wire(_BOOL, False)
    #: The payload encoding this connection will speak from the next
    #: frame on.  Omitted from the wire when it is the default
    #: ``"json"``, keeping declining handshakes byte-identical to older
    #: builds.
    payload: str = _wire(_STR, "json", omit=True)


def negotiate_version(offered) -> int:
    """Pick the highest mutually supported protocol revision.

    Raises :class:`VersionMismatchError` when the peer offers nothing
    this build speaks.
    """
    common = set(SUPPORTED_VERSIONS) & {int(v) for v in offered}
    if not common:
        raise VersionMismatchError(
            f"no common protocol version: peer speaks {sorted(offered)}, "
            f"server speaks {sorted(SUPPORTED_VERSIONS)}"
        )
    return max(common)


#: Payload encodings a connection may negotiate.  ``"json"`` — scalars
#: inlined into the message JSON — is mandatory-to-implement and the
#: fallback; ``"binary"`` ships attribute arrays as raw (optionally
#: deflated) bytes under the binary framing.
PAYLOADS: tuple[str, ...] = ("json", "binary")


def check_payloads(payloads) -> tuple[str, ...]:
    """The encodings a server may be configured to grant: a non-empty
    subset of :data:`PAYLOADS` that keeps the mandatory fallback."""
    payloads = tuple(payloads)
    if not payloads or any(p not in PAYLOADS for p in payloads):
        raise ValueError(f"payloads must be a non-empty subset of {PAYLOADS}, got {payloads!r}")
    if "json" not in payloads:
        raise ValueError(f'payloads must include "json" (the mandatory fallback), got {payloads!r}')
    return payloads


def negotiate_payload(offered, supported=PAYLOADS) -> str:
    """Pick the payload encoding for a connection.

    ``"binary"`` wins only when both the peer's hello and this server's
    ``supported`` list include it; anything else — including encodings
    neither side has heard of — falls back to the mandatory ``"json"``.
    Unlike version negotiation this can't fail: JSON is always common
    ground.
    """
    if "binary" in tuple(offered) and "binary" in tuple(supported):
        return "binary"
    return "json"


@_message("open_session", client=True)
@dataclass(frozen=True)
class OpenSession:
    """Open a server-side session (engine comes from the server's
    ``engine_factory``).  The reply is the new session's
    :class:`SessionInfo`."""

    #: A string or absent: anything else would name a session under one
    #: key at the service and another (its ``str``) on the connection.
    session_id: str | None = _wire(_STR, None)


@_message("close_session", client=True)
@dataclass(frozen=True)
class CloseSession:
    """Close an open session.  The reply is the session's final
    :class:`SessionInfo` snapshot (``open=False``)."""

    session_id: str = _wire(_STR)


# ----------------------------------------------------------------------
# envelope
# ----------------------------------------------------------------------
def encode(message) -> str:
    """Serialize any wire message to a tagged JSON string."""
    if getattr(type(message), "wire_type", None) is None:
        raise TypeError(f"{type(message).__name__} is not a wire message")
    return message.to_json()


def _wire_int(literal: str) -> int | float:
    """An integer literal as orjson reads it: the ``int`` inside
    ``[-2**63, 2**64)``, the nearest double outside."""
    value = int(literal)
    return value if -(2**63) <= value < 2**64 else float(literal)


#: The deepest nesting orjson is handed.  orjson 3.8 builds nested values
#: recursively in native code with no cap of its own: one closed frame of
#: a million levels overflows the C stack and kills the process.  Later
#: releases refuse past 1024 levels; this holds the same line on all.
_ORJSON_MAX_DEPTH = 1024


def _may_nest_deeper(text, depth: int) -> bool:
    """Whether ``text`` (``str`` or ``bytes``) could nest deeper than
    ``depth``.  It cannot hold more levels than characters, nor more than
    it has ``[`` and ``{`` bytes — in UTF-8, UTF-16 and UTF-32 alike
    (``byte | 0x20 == 0x7B`` is exactly those two)."""
    if len(text) <= depth:
        return False
    data = text.encode("utf-8", "surrogatepass") if isinstance(text, str) else text
    return np.count_nonzero((np.frombuffer(data, np.uint8) | 0x20) == 0x7B) > depth


def _load_tagged(text, what: str) -> tuple[object, type | None, dict]:
    """Parse one tagged JSON object — a JSON frame (``str``), or the
    header of a binary body (``bytes``) — into ``(type tag, its message
    class if it names one, the other keys)``; anything but a JSON object
    is refused, typed.  The one reader of the wire: orjson, and
    ``json.loads`` for what orjson refuses or is not handed (see the
    module docstring)."""
    try:
        if len(text) > _ORJSON_MAX_DEPTH and _may_nest_deeper(text, _ORJSON_MAX_DEPTH):
            raise orjson.JSONDecodeError("nested too deeply for orjson", "", 0)
        raw = orjson.loads(text)
    except orjson.JSONDecodeError:
        try:
            raw = json.loads(text, parse_int=_wire_int)
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
            raise InvalidRequestError(f"{what} is not valid JSON: {exc}") from None
        except RecursionError:
            # json.loads recurses per nesting level; a hostile deeply-nested
            # payload must be a typed rejection, not a server crash.
            raise InvalidRequestError("JSON nested too deeply") from None
    if not isinstance(raw, dict):
        raise InvalidRequestError(f"{what} must be a JSON object")
    name = raw.pop("type", None)
    # A non-string tag (e.g. a list) is unhashable — guard the lookup.
    return name, MESSAGE_TYPES.get(name) if isinstance(name, str) else None, raw


def decode(data: str):
    """Parse a tagged JSON string back into its wire message."""
    name, cls, raw = _load_tagged(data, "wire message")
    if cls is None:
        raise InvalidRequestError(f"unknown message type {name!r}")
    return cls.from_dict(raw)


# ----------------------------------------------------------------------
# framing (byte transports)
# ----------------------------------------------------------------------
#: Frame encodings a byte transport may speak: newline-delimited JSON
#: (``"lines"``, debuggable with netcat) or 4-byte big-endian
#: length-prefixed JSON (``"length"``, binary-safe and self-sizing).
FRAMINGS: tuple[str, ...] = ("lines", "length")


def check_framing(framing: str, allowed: tuple[str, ...] = FRAMINGS) -> str:
    if framing not in allowed:
        raise ValueError(f"framing must be one of {allowed}, got {framing!r}")
    return framing


#: Default ceiling on one frame's size.  A 32x32 float64 tile payload is
#: ~25 KB of JSON; 8 MiB leaves room for much larger tiles while still
#: bounding what a misbehaving peer can make the server buffer.
DEFAULT_MAX_FRAME_BYTES = 8 * 1024 * 1024

_LENGTH_HEADER = struct.Struct(">I")


def _check_frame_size(size: int, max_frame_bytes: int) -> None:
    if size > max_frame_bytes:
        raise FrameTooLargeError(
            f"frame of {size} bytes exceeds the "
            f"{max_frame_bytes}-byte limit"
        )


def encode_frame(
    frame: "str | bytes", framing: str = "lines", max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES
) -> bytes:
    """Put one frame on the byte stream, as :class:`FrameDecoder` cuts
    it back out: a message's JSON text in any framing (a kind-0 frame
    under ``"binary"``), or — under ``"binary"`` only — a
    payload-bearing message's binary body (kind 1).

    Refuses locally (with the same typed errors the server would send
    back) payloads the peer is guaranteed to reject: oversized frames,
    and — in ``"lines"`` framing — embedded newlines, which would split
    into two bogus frames on the wire.
    """
    if framing != "binary":
        return _frame_json(frame.encode("utf-8"), framing, max_frame_bytes)
    if isinstance(frame, str):
        kind, frame = _FRAME_KIND_JSON, frame.encode("utf-8")
    else:
        kind = _FRAME_KIND_BINARY
    _check_frame_size(len(frame), max_frame_bytes)
    return _BINARY_FRAME_HEADER.pack(kind, len(frame)) + frame


def _frame_json(payload: bytes, framing: str, max_frame_bytes: int) -> bytes:
    check_framing(framing)
    _check_frame_size(len(payload), max_frame_bytes)
    if framing == "lines":
        if b"\n" in payload:
            raise FramingError("newline-delimited framing cannot carry embedded newlines")
        return payload + b"\n"
    return _LENGTH_HEADER.pack(len(payload)) + payload


# ----------------------------------------------------------------------
# binary payload encoding (negotiated; framing "binary")
# ----------------------------------------------------------------------
#: Binary-framing kind bytes: 0 = the body is an ordinary UTF-8 JSON
#: message; 1 = the body is a binary-encoded payload message.
_FRAME_KIND_JSON = 0x00
_FRAME_KIND_BINARY = 0x01
_BINARY_FRAME_HEADER = struct.Struct(">BI")

#: The encoder deflates a blob (codec ``"zlib"``, else ``"raw"``) when
#: that shrinks it, each attribute block its own fixed-Huffman deflate
#: block (a sync flush after each): a repeated or constant block becomes
#: back-references, float noise goes *stored* unless fixed codes save a
#: few bytes (on 113 of ``benchmarks/perf``'s 179 binary replies it goes
#: stored at seed 7 and 116 at seed 3; a fixed-coded blob inflates in
#: ~59 µs, a stored one in ~16).  Level 1 keeps the encode cheap.
_COMPRESS_LEVEL = 1
_COMPRESS_MIN_BYTES = 64

#: Validated descriptor entries a decoder remembers, and the largest
#: entry (characters of name and dtype plus dimensions) it will.
ATTRIBUTE_SPEC_MEMO_ENTRIES = 1024
ATTRIBUTE_SPEC_MEMO_KEY_CHARS = 128


@_wire_form
@dataclass(frozen=True)
class _BlobEntry:
    """One attribute's bytes in a binary body's blob, as listed."""

    name: str = _wire(_STR)
    dtype: str = _wire(_STR)
    shape: tuple[int, ...] = _wire(_INTS)
    nbytes: int = _wire(_INT)


@_wire_form
@dataclass(frozen=True)
class _BlobDescriptor:
    """A binary body's payload, as its header carries it: the tile, the
    blob's codec and the attributes in blob order."""

    tile: TileRef = _wire(_REF)
    codec: str = _wire(_STR)
    attributes: tuple[_BlobEntry, ...] = _wire(_objects(_BlobEntry))


_read_shape = _reader(_INTS)


def _payload_descriptor(payload: TilePayload) -> "tuple[_BlobDescriptor, bytes]":
    """Flatten a payload into its descriptor and packed blob."""
    attrs = []
    views = []
    for block in payload.attributes:
        array = np.ascontiguousarray(block.to_array())
        view = memoryview(array).cast("B")
        attrs.append(_BlobEntry(block.name, str(array.dtype), array.shape, view.nbytes))
        views.append(view)
    blob = b"".join(views)
    codec = "raw"
    if len(blob) >= _COMPRESS_MIN_BYTES:
        deflate = zlib.compressobj(_COMPRESS_LEVEL, zlib.DEFLATED, 15, 8, zlib.Z_FIXED)
        parts = []
        for view in views:
            parts.append(deflate.compress(view))
            parts.append(deflate.flush(zlib.Z_SYNC_FLUSH))
        parts.append(deflate.flush())
        packed = b"".join(parts)
        if len(packed) < len(blob):
            codec, blob = "zlib", packed
    return _BlobDescriptor(payload.tile, codec, tuple(attrs)), blob


def encode_binary_message(message) -> bytes:
    """Serialize a payload-bearing message to its binary body.

    The body is ``u32 header_len + JSON header + blob``: the header is
    the message's ordinary tagged dict with the payload replaced by a
    compact descriptor (tile ref, blob codec, per-attribute dtype/shape/
    byte counts), and the blob is every attribute array's raw bytes
    concatenated in descriptor order, deflated when that is smaller.
    """
    if not getattr(type(message), "binary_body", False):
        raise TypeError(f"{type(message).__name__} cannot travel as a binary body")
    payload = message.payload
    if payload is None:
        raise TypeError("message carries no payload; encode it as JSON")
    descriptor, blob = _payload_descriptor(payload)
    header_bytes = message.to_json(descriptor.to_json()).encode("utf-8")
    return b"".join((_LENGTH_HEADER.pack(len(header_bytes)), header_bytes, blob))


def _attribute_spec(name, dtype_name, shape: tuple, nbytes: int) -> tuple:
    """Validate one descriptor entry (its ``shape`` and ``nbytes``
    already integers); returns ``(name, dtype, shape, count, nbytes,
    dtype text)``."""
    try:
        dtype = np.dtype(dtype_name)
    except (TypeError, ValueError):
        raise InvalidRequestError(f"unknown dtype {dtype_name!r} in binary payload") from None
    if dtype.hasobject:
        raise InvalidRequestError(f"object dtype {dtype_name!r} cannot travel on the wire")
    if any(n < 0 for n in shape) or nbytes < 0:
        raise InvalidRequestError("binary attribute shape/nbytes must be non-negative")
    count = 1
    for n in shape:
        count *= n
    if count * dtype.itemsize != nbytes:
        raise InvalidRequestError(
            f"attribute {name!r} declares {nbytes} bytes but "
            f"shape {shape} x {dtype} needs {count * dtype.itemsize}"
        )
    return str(name), dtype, shape, count, nbytes, str(dtype)


#: Every reply of one deployment repeats the same few entries, so a
#: validated one is remembered (a rejected one raises and is not).
_remembered_attribute_spec = functools.lru_cache(
    maxsize=ATTRIBUTE_SPEC_MEMO_ENTRIES
)(_attribute_spec)


def _parse_attribute_specs(attrs) -> tuple[list, int]:
    """Validate descriptor attribute entries; return specs and blob size."""
    if not isinstance(attrs, list):
        raise InvalidRequestError("binary payload attributes must be a list")
    specs = []
    total = 0
    for item in attrs:
        if not isinstance(item, dict):
            raise InvalidRequestError("binary payload attribute entries must be objects")
        try:
            name = item["name"]
            dtype_name = item["dtype"]
            shape = item["shape"]
            if type(shape) is not list or _countOf(map(type, shape), int) != len(shape):
                _read_shape(shape)  # raises what the field table would
            nbytes = item["nbytes"]
            if type(nbytes) is not int:
                raise _expected("an integer", nbytes)
            shape = tuple(shape)
        except _MALFORMED as exc:
            raise InvalidRequestError(f"malformed binary attribute descriptor: {exc}") from None
        # Only a small entry with text for name and dtype is remembered:
        # the memo never holds a peer's oversized key, an unhashable one
        # (a JSON list) never reaches it, and equal keys of different
        # types (1, 1.0, True) cannot stand in for each other.
        if type(name) is str is type(dtype_name) and (
            len(name) + len(dtype_name) + len(shape) <= ATTRIBUTE_SPEC_MEMO_KEY_CHARS
        ):
            validate = _remembered_attribute_spec
        else:
            validate = _attribute_spec
        specs.append(validate(name, dtype_name, shape, nbytes))
        total += nbytes
    return specs, total


def _unpack_blob(codec, body: memoryview, total: int) -> "bytes | memoryview":
    if codec == "raw":
        if len(body) != total:
            raise InvalidRequestError(f"binary payload blob is {len(body)} bytes, expected {total}")
        return body
    if codec == "zlib":
        # Bounded decompression: never inflate past what the descriptor
        # declares, and require the deflate stream to end exactly there
        # (a zlib bomb or truncated stream is a typed rejection, not an
        # allocation blow-up).  zlib reads a max_length of 0 as "no
        # limit", so a blob declared empty may inflate one byte, which the
        # length check below refuses.
        decomp = zlib.decompressobj()
        try:
            raw = decomp.decompress(body, total or 1)
        except zlib.error as exc:
            raise InvalidRequestError(f"binary payload blob failed to inflate: {exc}") from None
        if len(raw) != total or not decomp.eof or decomp.unconsumed_tail or decomp.unused_data:
            raise InvalidRequestError("binary payload blob does not inflate to the declared size")
        return raw
    raise InvalidRequestError(f"unknown binary payload codec {codec!r}")


def _decode_binary_payload(descriptor, body: memoryview) -> TilePayload:
    if not isinstance(descriptor, dict):
        raise InvalidRequestError("binary payload descriptor must be an object")
    try:
        tile = TileRef.from_list(descriptor["tile"])
        attrs = descriptor["attributes"]
        codec = descriptor.get("codec", "raw")
    except _MALFORMED as exc:
        raise InvalidRequestError(f"malformed binary payload descriptor: {exc}") from None
    specs, total = _parse_attribute_specs(attrs)
    buffer = _unpack_blob(codec, body, total)
    blocks = []
    offset = 0
    for name, dtype, shape, count, nbytes, dtype_text in specs:
        try:
            array = np.frombuffer(buffer, dtype=dtype, count=count, offset=offset).reshape(shape)
        except ValueError as exc:
            raise InvalidRequestError(
                f"attribute {name!r} bytes do not form its array: {exc}"
            ) from None
        # Built in one step, as ``from_dict`` builds one.
        block = object.__new__(AttributeBlock)
        block.__dict__.update(name=name, dtype=dtype_text, shape=shape, values=None, array=array)
        blocks.append(block)
        offset += nbytes
    payload = object.__new__(TilePayload)
    payload.__dict__.update(tile=tile, attributes=tuple(blocks))
    return payload


def _split_binary_body(data) -> tuple[type, dict, memoryview]:
    """Cut a binary body into ``(message class, header dict, blob view)``.

    Checks everything about the body that does not need the blob: it is
    long enough for the header it declares, the header is a JSON object,
    and its type may travel as a binary body.
    """
    view = memoryview(data)
    if view.ndim != 1 or view.format != "B":
        view = view.cast("B")
    if len(view) < _LENGTH_HEADER.size:
        raise InvalidRequestError("binary message truncated before header")
    (header_len,) = _LENGTH_HEADER.unpack_from(view)
    body_start = _LENGTH_HEADER.size + header_len
    if header_len == 0 or body_start > len(view):
        raise InvalidRequestError(
            f"binary message declares a {header_len}-byte header but "
            f"carries {len(view) - _LENGTH_HEADER.size} bytes"
        )
    name, cls, header = _load_tagged(
        bytes(view[_LENGTH_HEADER.size : body_start]), "binary message header"
    )
    if cls is None or not cls.binary_body:
        raise InvalidRequestError(f"message type {name!r} cannot travel as a binary body")
    return cls, header, view[body_start:]


def frame_type(frame) -> str:
    """The type name of a frame as cut by :class:`FrameDecoder`, from
    its tag alone.

    For a forwarder that passes the frame on without opening it: a JSON
    text is parsed but never built into its message, a binary body's
    header checks of :func:`decode_binary_message` run and its blob is
    not touched (the final receiver's decoder validates every byte).
    """
    if isinstance(frame, str):
        name, cls, _ = _load_tagged(frame, "wire message")
        if cls is None:
            raise InvalidRequestError(f"unknown message type {name!r}")
        return name
    return _split_binary_body(frame)[0].wire_type


def decode_binary_message(data):
    """Parse a binary body back into its payload-bearing message."""
    cls, header, blob = _split_binary_body(data)
    descriptor = header.pop("payload", None)
    message = cls.from_dict(header)  # the payload absent: None
    if descriptor is not None:
        # Not yet seen by anyone: completed in place, as it was built.
        object.__setattr__(message, "payload", _decode_binary_payload(descriptor, blob))
    return message


def encode_wire(
    message, framing: str = "lines", max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES
) -> bytes:
    """Encode one message for the byte stream under any framing.

    Under the JSON framings this is exactly ``encode_frame(encode(m))``.
    Under ``"binary"`` framing, payload-bearing messages go out as kind-1
    binary bodies and everything else as kind-0 JSON, both behind the
    ``kind byte + u32 length`` header.
    """
    if (
        framing == "binary"
        and getattr(type(message), "binary_body", False)
        and message.payload is not None
    ):
        return encode_frame(encode_binary_message(message), framing, max_frame_bytes)
    return encode_frame(encode(message), framing, max_frame_bytes)


# ----------------------------------------------------------------------
# encode once, send many
# ----------------------------------------------------------------------
def _encode_tile_segment(tile: DataTile, binary: bool) -> "tuple[str, bytes]":
    payload = TilePayload.from_tile(tile, binary=binary)
    if not binary:
        return payload.to_json(), b""
    descriptor, blob = _payload_descriptor(payload)
    return descriptor.to_json(), blob


def encode_tile_frame(message, tile: DataTile, framing: str, max_frame_bytes: int) -> bytes:
    """Frame a full-fidelity ``tile`` behind ``message``'s header,
    encoding the tile's bytes at most once per tile object and payload
    encoding.

    ``message`` is the :class:`TileResponse` or :class:`PushTile` to
    send *without* its payload.  The result — and any
    :class:`FrameTooLargeError` / :class:`FramingError` raised instead —
    is what the reference encoder gives for the complete message::

        encode_wire(
            replace(message, payload=TilePayload.from_tile(
                tile, binary=framing == "binary")),
            framing, max_frame_bytes)

    The tile-dependent segment — the JSON text of the ``payload`` value
    (the whole :class:`TilePayload` under the JSON framings, the blob
    descriptor under ``"binary"``) and, for binary, the deflated blob —
    is kept in ``tile.segments``, so it lives exactly as long as the
    tile: a pyramid's tile table drops its tiles when the store is
    written, and their segments with them.  (A reduced-fidelity tile
    is a fresh object, sent by :func:`encode_wire`.)  The message's
    generated writer splices the segment in as its payload's text.
    """
    if (
        not getattr(type(message), "binary_body", False)
        or message.payload is not None
        or message.fidelity != 1.0
    ):
        raise ValueError(
            "encode_tile_frame takes a payload-less, full-fidelity "
            "tile_response or push_tile"
        )
    binary = framing == "binary"
    segment = tile.segments.get(binary)
    if segment is None:
        # Two event loops sharing one pyramid (a ThreadedClusterServer's
        # in-process workers) may both fill this slot; they write the
        # same bytes, and the dict assignment is atomic.
        segment = tile.segments[binary] = _encode_tile_segment(tile, binary)
    payload_text, blob = segment
    header = message.to_json(payload_text).encode("utf-8")
    if not binary:
        return _frame_json(header, framing, max_frame_bytes)
    body_len = _LENGTH_HEADER.size + len(header) + len(blob)
    _check_frame_size(body_len, max_frame_bytes)
    return b"".join(
        (
            _BINARY_FRAME_HEADER.pack(_FRAME_KIND_BINARY, body_len),
            _LENGTH_HEADER.pack(len(header)),
            header,
            blob,
        )
    )


def decode_wire(frame):
    """Decode one frame as cut by :class:`FrameDecoder`.

    JSON framings yield ``str`` frames (dispatched to :func:`decode`);
    binary framing yields ``bytes`` for kind-1 frames (dispatched to
    :func:`decode_binary_message`).
    """
    if isinstance(frame, str):
        return decode(frame)
    return decode_binary_message(frame)


class FrameDecoder:
    """Incremental frame cutter for one connection's byte stream.

    Feed it whatever ``recv`` returned; it buffers partial frames and
    returns each completed frame's text.  Violations raise the typed
    :class:`FramingError` family — after which the stream is
    unrecoverable (the decoder refuses further input), matching the
    server's close-on-framing-error behavior.

    Besides the two JSON framings, the decoder can run (or be switched
    mid-stream, by :meth:`switch_to_binary`, once the handshake grants
    the binary payload encoding) in ``"binary"`` framing: each frame is
    ``kind byte + u32 length + body``, where kind-0 bodies come back as
    decoded text and kind-1 bodies as raw ``bytes`` for
    :func:`decode_binary_message`.
    """

    def __init__(
        self,
        framing: str = "lines",
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
    ) -> None:
        if max_frame_bytes < 1:
            raise ValueError(f"max_frame_bytes must be >= 1, got {max_frame_bytes}")
        self.framing = check_framing(framing, (*FRAMINGS, "binary"))
        self.max_frame_bytes = max_frame_bytes
        self._buffer = bytearray()
        # Lines framing: everything before this offset is known to hold
        # no newline, so each feed scans only fresh bytes (keeps big
        # frames arriving in small reads linear, not quadratic).
        self._scanned = 0
        self._dead = False

    @property
    def buffered(self) -> int:
        """Bytes held waiting for their frame to complete."""
        return len(self._buffer)

    def switch_to_binary(self) -> None:
        """Flip this stream to the negotiated binary framing.

        Called right after the handshake frame that granted
        ``payload="binary"``; the strict request/reply pairing means a
        well-behaved peer has nothing else in flight at that point, so
        any bytes already buffered are simply re-cut under the new
        framing.
        """
        self.framing = "binary"
        self._scanned = 0

    def feed(self, data: bytes) -> "list[str | bytes]":
        """Add bytes; return every frame they completed.

        JSON framings yield ``str`` frames; binary framing yields
        ``str`` for kind-0 (JSON) frames and ``bytes`` for kind-1
        (binary payload) frames.
        """
        if self._dead:
            raise FramingError("stream already failed; open a new connection")
        self._buffer.extend(data)
        try:
            if self.framing == "lines":
                return self._cut_lines()
            if self.framing == "binary":
                return self._cut_binary()
            return self._cut_length_prefixed()
        except FramingError:
            self._dead = True
            raise

    def _decode_text(self, payload: bytes) -> str:
        try:
            return payload.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FramingError(f"frame is not valid UTF-8: {exc}") from None

    def _cut_lines(self) -> list[str]:
        frames = []
        while True:
            newline = self._buffer.find(b"\n", self._scanned)
            if newline < 0:
                self._scanned = len(self._buffer)
                if len(self._buffer) > self.max_frame_bytes:
                    raise FrameTooLargeError(
                        f"unterminated line exceeds the "
                        f"{self.max_frame_bytes}-byte frame limit"
                    )
                return frames
            _check_frame_size(newline, self.max_frame_bytes)
            payload = bytes(self._buffer[:newline])
            del self._buffer[: newline + 1]
            self._scanned = 0
            # A bare "\r\n" or empty line is keepalive noise, not a frame.
            text = self._decode_text(payload).strip()
            if text:
                frames.append(text)

    def _cut_length_prefixed(self) -> list[str]:
        frames = []
        while len(self._buffer) >= _LENGTH_HEADER.size:
            (length,) = _LENGTH_HEADER.unpack_from(self._buffer)
            _check_frame_size(length, self.max_frame_bytes)
            if length == 0:
                raise FramingError("length-prefixed frame of 0 bytes")
            end = _LENGTH_HEADER.size + length
            if len(self._buffer) < end:
                return frames
            payload = bytes(self._buffer[_LENGTH_HEADER.size : end])
            del self._buffer[:end]
            frames.append(self._decode_text(payload))
        return frames

    def _cut_binary(self) -> "list[str | bytes]":
        frames: "list[str | bytes]" = []
        while self._buffer:
            # Reject an unknown kind byte the instant it arrives —
            # don't wait for a bogus length header to fill in.
            kind = self._buffer[0]
            if kind not in (_FRAME_KIND_JSON, _FRAME_KIND_BINARY):
                raise FramingError(f"unknown binary frame kind {kind:#04x}")
            if len(self._buffer) < _BINARY_FRAME_HEADER.size:
                return frames
            _, length = _BINARY_FRAME_HEADER.unpack_from(self._buffer)
            _check_frame_size(length, self.max_frame_bytes)
            if length == 0:
                raise FramingError("binary frame of 0 bytes")
            end = _BINARY_FRAME_HEADER.size + length
            if len(self._buffer) < end:
                return frames
            payload = bytes(self._buffer[_BINARY_FRAME_HEADER.size : end])
            del self._buffer[:end]
            if kind == _FRAME_KIND_JSON:
                frames.append(self._decode_text(payload))
            else:
                frames.append(payload)
        return frames
