"""Wire codec for the deployment transport: JSON payloads, length-prefixed.

The simulation never serializes — messages are Python objects handed between
replicas, and :class:`~repro.types.sizes.SizeModel` *estimates* their wire
size for the NIC model.  The real transport has to actually put them on a
socket, so this module gives every kind in :data:`WIRE_KINDS` a canonical
JSON encoding, framed with a 4-byte big-endian length prefix.

The encoding is derived from the declarations: each type's constructor
signature and type hints are read once, and a converter pair is compiled
per type from these rules —

* ``str``/``int``/``float`` pass through (an int is accepted where a float
  is declared; a bool is never an int); ``bytes`` travel as hex;
* ``FrozenSet[...]`` is a sorted list, ``Tuple[...]`` a list,
  ``Optional[...]`` allows ``null``;
* any other declared type (a dataclass, or a class with an annotated
  ``__init__``) is an object of its fields in declaration order; dataclass
  fields declared ``compare=False`` (``message_id``) stay off the wire.

A message frame is ``{"kind", <the fields of Message>, "body": {<the rest>}}``.
Decoding checks every key and leaf type against the declaration, so any
malformed peer input raises :class:`CodecError` and nothing else.

JSON (rather than a binary format) keeps frames debuggable with ``nc`` and
avoids any dependency; the measured-throughput comparison against the model
is honest as long as both modes pay their own serialization costs — the model
charges the size-model estimate, the deployment pays real
encode/decode + syscalls.

Round-trip property: ``decode_message(encode_message(m))`` reconstructs an
equal message for every kind (``message_id`` excluded — it is
``compare=False`` bookkeeping and each decode mints a fresh one).
"""

from __future__ import annotations

import asyncio
import inspect
import json
import struct
from dataclasses import fields, is_dataclass
from functools import cache
from typing import Any, Callable, Dict, Optional, Tuple, Union, get_args, get_origin, get_type_hints

from repro.checkpoint.messages import SnapshotRequest, SnapshotResponse
from repro.sync.messages import BlockRequest, BlockResponse
from repro.types.messages import (
    ClientReply,
    ClientRequest,
    Message,
    ProposalMessage,
    TimeoutMessage,
    VoteMessage,
)

_LENGTH_PREFIX = struct.Struct(">I")

#: Upper bound on a single frame; a peer announcing more is treated as
#: corrupt rather than allocated for (snapshots dominate and stay well under).
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: The message kinds the deployment transport carries.
WIRE_KINDS = (
    ProposalMessage,
    VoteMessage,
    TimeoutMessage,
    ClientRequest,
    ClientReply,
    BlockRequest,
    BlockResponse,
    SnapshotRequest,
    SnapshotResponse,
)

_KINDS = {kind.__name__: kind for kind in WIRE_KINDS}


class CodecError(ValueError):
    """A payload that cannot be encoded or decoded."""


#: ``encode`` (``None`` when a value is its own JSON) and ``decode``.
_Converters = Tuple[Optional[Callable[[Any], Any]], Callable[[Any], Any]]


def _declared_fields(cls: type) -> Tuple[Tuple[str, Any], ...]:
    """``(name, type)`` of each wire field of ``cls``, in constructor order."""
    if is_dataclass(cls):
        hints = get_type_hints(cls)
        local = {f.name for f in fields(cls) if not f.compare}
    else:
        hints, local = get_type_hints(cls.__init__), set()
    return tuple(
        (name, hints[name]) for name in inspect.signature(cls).parameters if name not in local
    )


def _leaf(*json_types: type) -> _Converters:
    def decode(value):
        if type(value) in json_types:
            return value
        raise CodecError(f"expected {json_types[0].__name__}, got {type(value).__name__}")

    return None, decode


def _decode_list(value) -> list:
    if type(value) is not list:
        raise CodecError(f"expected a list, got {type(value).__name__}")
    return value


def _decode_hex(value) -> bytes:
    try:
        return bytes.fromhex(value)
    except (TypeError, ValueError) as exc:
        raise CodecError(f"bad hex: {exc}") from None


_LEAVES: Dict[Any, _Converters] = {
    str: _leaf(str),
    int: _leaf(int),
    float: _leaf(float, int),
    bytes: (bytes.hex, _decode_hex),
}


@cache
def _converters(declared: Any) -> _Converters:
    """The converter pair for values declared as ``declared``."""
    if declared in _LEAVES:
        return _LEAVES[declared]
    origin, args = get_origin(declared), get_args(declared)
    if origin is Union and len(args) == 2 and args[1] is type(None):
        enc, dec = _converters(args[0])
        encode = None if enc is None else (lambda value: None if value is None else enc(value))
        return encode, lambda value: None if value is None else dec(value)
    if origin is frozenset:
        _, dec = _converters(args[0])
        return sorted, lambda value: frozenset([dec(item) for item in _decode_list(value)])
    if origin is tuple and len(args) == 2 and args[1] is Ellipsis:
        enc, dec = _converters(args[0])
        encode = list if enc is None else (lambda value: [enc(item) for item in value])
        return encode, lambda value: tuple([dec(item) for item in _decode_list(value)])
    if origin is tuple:
        pairs = [_converters(arg) for arg in args]

        def decode_row(value):
            if len(_decode_list(value)) != len(pairs):
                raise CodecError(f"expected {len(pairs)} items, got {len(value)}")
            return tuple([dec(item) for (_, dec), item in zip(pairs, value)])

        return (
            lambda value: [item if enc is None else enc(item) for (enc, _), item in zip(pairs, value)],
            decode_row,
        )
    if isinstance(declared, type):
        encode, decode_fields = _object(declared)
        return encode, lambda value: declared(**decode_fields(value))
    raise TypeError(f"no wire encoding for declared type {declared!r}")


@cache
def _object(cls: type, skip: Tuple[str, ...] = ()):
    """Compile an encoder of ``cls`` instances to JSON objects and a decoder
    of such objects to constructor keyword arguments, over the declared
    fields not in ``skip`` (generated source, as ``dataclasses`` does)."""
    env: Dict[str, Any] = {"CodecError": CodecError}
    encoded, decoded = [], []
    for i, (name, hint) in enumerate(_declared_fields(cls)):
        if name not in skip:
            env[f"e{i}"], env[f"d{i}"] = _converters(hint)
            value = f"obj.{name}" if env[f"e{i}"] is None else f"e{i}(obj.{name})"
            encoded.append(f"{name!r}: {value}")
            decoded.append(f"{name!r}: d{i}(data[{name!r}])")
    exec(
        f"def encode(obj):\n"
        f"    return {{{', '.join(encoded)}}}\n"
        f"def decode_fields(data):\n"
        f"    if type(data) is not dict:\n"
        f"        raise CodecError('{cls.__name__}: expected an object, got ' + type(data).__name__)\n"
        f"    try:\n"
        f"        return {{{', '.join(decoded)}}}\n"
        f"    except KeyError as exc:\n"
        f"        raise CodecError('{cls.__name__}: missing field ' + str(exc)) from None\n",
        env,
    )
    return env["encode"], env["decode_fields"]


_encode_header, _decode_header = _object(Message)
_HEADER = tuple(name for name, _ in _declared_fields(Message))


def encode_message(message: Message) -> bytes:
    """Serialize a message to its JSON wire form (unframed)."""
    kind = type(message)
    if _KINDS.get(kind.__name__) is not kind:
        raise CodecError(f"no wire encoding for {kind.__name__}")
    payload = {"kind": kind.__name__, **_encode_header(message),
               "body": _object(kind, _HEADER)[0](message)}
    return json.dumps(payload, separators=(",", ":")).encode("utf-8")


def decode_message(data: bytes) -> Message:
    """Parse one unframed JSON payload back into a message object.

    Raises :class:`CodecError` — and nothing else — on malformed input.
    """
    try:
        payload = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, ValueError, RecursionError) as exc:
        raise CodecError(f"malformed frame: {exc}") from exc
    if type(payload) is not dict:
        raise CodecError(f"frame is not an object: {type(payload).__name__}")
    kind = payload.get("kind")
    cls = _KINDS.get(kind) if type(kind) is str else None
    if cls is None:
        raise CodecError(f"unknown message kind {kind!r}")
    header = _decode_header(payload)
    return cls(**header, **_object(cls, _HEADER)[1](payload.get("body")))


def frame(payload: bytes) -> bytes:
    """Prefix an encoded payload with its 4-byte big-endian length."""
    if len(payload) > MAX_FRAME_BYTES:
        raise CodecError(f"frame of {len(payload)} bytes exceeds {MAX_FRAME_BYTES}")
    return _LENGTH_PREFIX.pack(len(payload)) + payload


async def read_frame(reader) -> Optional[bytes]:
    """Read one length-prefixed frame from an ``asyncio.StreamReader``.

    Returns ``None`` on clean EOF at a frame boundary; raises
    :class:`CodecError` on a truncated or oversized frame.
    """
    try:
        prefix = await reader.readexactly(_LENGTH_PREFIX.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise CodecError("connection closed mid-prefix") from exc
    (length,) = _LENGTH_PREFIX.unpack(prefix)
    if length > MAX_FRAME_BYTES:
        raise CodecError(f"peer announced a {length}-byte frame (cap {MAX_FRAME_BYTES})")
    try:
        return await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise CodecError("connection closed mid-frame") from exc
