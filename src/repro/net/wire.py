"""The wire codec: versioned, length-prefixed binary frames.

Every message on a real socket is one *frame*:

    offset  size  field
    0       2     magic ``b"AF"`` (Amoeba File service)
    2       1     wire version (currently 2)
    3       1     frame type: 1 request, 2 reply, 3 error
    4       4     request id (correlation header), unsigned big-endian
    8       4     payload length, unsigned big-endian
    12      n     payload (a value encoding, below)

The *request id* is the correlation header that makes pipelining
possible: a client may write several request frames onto one connection
before reading any reply, and every reply or error frame echoes the id
of the request it answers.  Wire version 1 had no correlation header;
version-1 frames are rejected with the typed
:class:`~repro.errors.WireVersionMismatch` error rather than misparsed.

A request payload is the value-encoded triple ``(sender, command,
params)``; a reply payload is the value-encoded result; an error payload
is the pair ``(exception class name, message)``.  The class name maps
back to the :mod:`repro.errors` hierarchy on the client, so a
:class:`~repro.errors.CommitConflict` raised by a server over TCP is a
``CommitConflict`` at the caller — exactly the propagation contract of
the simulated RPC layer.

The value encoding is a tagged, recursive scheme covering everything the
``cmd_*`` command set moves: ``None``, bools, arbitrary-precision ints,
floats, bytes, str, list, tuple, dict, and the service's own value types
(:class:`~repro.capability.Capability`, ``VersionHandle``, ``TasResult``,
stable-pair intentions, and read leases).

Safety is explicit, never silent:

* frames larger than ``max_frame`` raise :class:`~repro.errors.
  FrameTooLarge` on encode *and* on decode of the length prefix — a
  malicious or buggy peer cannot make a receiver allocate unbounded
  memory, and an oversized reply is an error, not a truncation;
* a payload that ends mid-value raises :class:`~repro.errors.
  TruncatedFrame`;
* trailing garbage after a complete value, bad magic, an unknown wire
  version, tag, or frame type raise :class:`~repro.errors.BadFrame`.
"""

from __future__ import annotations

import struct
from typing import Any

from repro.capability import Capability
from repro.errors import (
    BadFrame,
    FrameTooLarge,
    RemoteCallError,
    ReproError,
    TruncatedFrame,
    WireVersionMismatch,
)

MAGIC = b"AF"
WIRE_VERSION = 2
HEADER_SIZE = 12
_HEADER = struct.Struct(">2sBBII")

# Request ids are a u32; connections wrap around (a connection never has
# 2**32 calls in flight, so reuse after wrap cannot collide).
MAX_REQUEST_ID = (1 << 32) - 1

FRAME_REQUEST = 1
FRAME_REPLY = 2
FRAME_ERROR = 3
_FRAME_TYPES = (FRAME_REQUEST, FRAME_REPLY, FRAME_ERROR)

# 4 MiB default: a full commit flush of 32 K pages batches comfortably,
# while a lying length prefix cannot demand unbounded memory.
DEFAULT_MAX_FRAME = 4 * 1024 * 1024

# Containers deeper than this are rejected rather than recursed into — a
# hostile frame must not be able to blow the decoder's stack.
MAX_DEPTH = 32

# -- value tags -------------------------------------------------------------

_T_NONE = 0x00
_T_TRUE = 0x01
_T_FALSE = 0x02
_T_INT = 0x03
_T_FLOAT = 0x04
_T_BYTES = 0x05
_T_STR = 0x06
_T_LIST = 0x07
_T_TUPLE = 0x08
_T_DICT = 0x09
_T_CAP = 0x0A
_T_HANDLE = 0x0B
_T_TAS = 0x0C
_T_INTENTION = 0x0D
_T_LEASE = 0x0E
_T_PLACEMENT = 0x0F

_U32 = struct.Struct(">I")
_F64 = struct.Struct(">d")
# A tag byte and a u32 count or length, packed in one call.
_TAG_U32 = struct.Struct(">BI")


# The service value types.  Importing them when this module loads would
# cycle (block.stable imports sim.rpc; wire must stay importable first),
# so the codec's entry points bind them on first use, once per process.
VersionHandle: Any = None
TasResult: Any = None
_Intention: Any = None
Lease: Any = None
PlacementMap: Any = None
ShardRange: Any = None


def _bind_service_types() -> None:
    global VersionHandle, TasResult, _Intention, Lease, PlacementMap, ShardRange
    from repro.block import server, sharding, stable
    from repro.core import cache, service

    TasResult = server.TasResult
    PlacementMap, ShardRange = sharding.PlacementMap, sharding.ShardRange
    _Intention = stable._Intention
    Lease = cache.Lease
    # Last: the entry points test this one, so a thread racing the first
    # binding never sees a half-bound set.
    VersionHandle = service.VersionHandle


# ---------------------------------------------------------------------------
# value encoding
# ---------------------------------------------------------------------------


def encode_value(value: Any) -> bytes:
    """The tagged encoding of ``value``."""
    return bytes(_encode_into(bytearray(), value))


def _encode_into(out: bytearray, value: Any) -> bytearray:
    """Append the encoding of ``value`` to ``out`` and return ``out``: a
    frame is built in one buffer, whatever the nesting."""
    if VersionHandle is None:
        _bind_service_types()
    _encode(value, out, 0)
    return out


def _encode(value: Any, out: bytearray, depth: int) -> None:
    """Append the tagged encoding of ``value`` to ``out``: the common
    types by exact type, everything else (subclasses included) through
    :func:`_encode_other`."""
    if depth > MAX_DEPTH:
        raise BadFrame(f"value nesting exceeds {MAX_DEPTH} levels")
    kind = type(value)
    if kind is str:
        data = value.encode("utf-8")
        out += _TAG_U32.pack(_T_STR, len(data))
        out += data
    elif kind is bytes:
        out += _TAG_U32.pack(_T_BYTES, len(value))
        out += value
    elif kind is dict:
        out += _TAG_U32.pack(_T_DICT, len(value))
        depth += 1
        for key, item in value.items():
            _encode(key, out, depth)
            _encode(item, out, depth)
    elif kind is tuple or kind is list:
        out += _TAG_U32.pack(_T_TUPLE if kind is tuple else _T_LIST, len(value))
        depth += 1
        for item in value:
            _encode(item, out, depth)
    elif kind is int:
        raw = value.to_bytes((value.bit_length() + 8) // 8 or 1, "big", signed=True)
        if len(raw) > 255:
            raise BadFrame(f"integer needs {len(raw)} bytes, limit 255")
        out.append(_T_INT)
        out.append(len(raw))
        out += raw
    elif kind is Capability:
        out.append(_T_CAP)
        out += value.pack()
    elif value is None:
        out.append(_T_NONE)
    else:
        _encode_other(value, out, depth)


def _encode_other(value: Any, out: bytearray, depth: int) -> None:
    """The ``isinstance`` ladder: service value types first, then bools,
    floats and subclasses of the common types (as their base type)."""
    if isinstance(value, Lease):
        out.append(_T_LEASE)
        _encode(value.epoch, out, depth + 1)
        _encode(value.ttl, out, depth + 1)
    elif isinstance(value, VersionHandle):
        out.append(_T_HANDLE)
        out += value.version.pack()
        out += value.file.pack()
    elif isinstance(value, TasResult):
        out.append(_T_TAS)
        out.append(1 if value.success else 0)
        out += _U32.pack(len(value.current))
        out += value.current
    elif isinstance(value, _Intention):
        out.append(_T_INTENTION)
        _encode(value.kind, out, depth + 1)
        _encode(value.account, out, depth + 1)
        _encode(value.block_no, out, depth + 1)
        _encode(value.data, out, depth + 1)
    elif isinstance(value, PlacementMap):
        out.append(_T_PLACEMENT)
        _encode(value.epoch, out, depth + 1)
        out += _U32.pack(len(value.ranges))
        for r in value.ranges:
            _encode(r.lo, out, depth + 1)
            _encode(r.hi, out, depth + 1)
            _encode(r.port, out, depth + 1)
    elif value is True:
        out.append(_T_TRUE)
    elif value is False:
        out.append(_T_FALSE)
    elif isinstance(value, int):
        _encode(int(value), out, depth)
    elif isinstance(value, float):
        out.append(_T_FLOAT)
        out += _F64.pack(value)
    elif isinstance(value, (bytes, bytearray, memoryview)):
        _encode(bytes(value), out, depth)
    elif isinstance(value, str):
        _encode(str.__str__(value), out, depth)  # the text, not a __str__
    elif isinstance(value, (list, tuple, dict)):
        base = next(t for t in (list, tuple, dict) if isinstance(value, t))
        _encode(base(value), out, depth)
    elif isinstance(value, Capability):
        out.append(_T_CAP)
        out += value.pack()
    else:
        raise BadFrame(f"type {type(value).__name__} has no wire encoding")


def decode_value(payload: bytes) -> Any:
    """Decode one complete value; trailing bytes are an error."""
    if VersionHandle is None:
        _bind_service_types()
    try:
        value, pos = _decode(payload, 0, 0)
    except (IndexError, struct.error):  # a fixed-size read past the end
        raise TruncatedFrame(f"payload of {len(payload)} bytes ends mid-value") from None
    if pos != len(payload):
        raise BadFrame(f"{len(payload) - pos} trailing bytes after value")
    return value


def _span(buf: bytes, pos: int, n: int) -> int:
    """The end of an ``n``-byte field at ``pos`` (a slice would come back short)."""
    end = pos + n
    if end > len(buf):
        raise TruncatedFrame(f"payload ends at byte {len(buf)}, needed {end}")
    return end


def _decode(buf: bytes, pos: int, depth: int) -> tuple[Any, int]:
    """The value whose tag is at ``pos`` and the offset past it; a fixed-size
    read past the end raises ``IndexError`` or ``struct.error``."""
    if depth > MAX_DEPTH:
        raise BadFrame(f"value nesting exceeds {MAX_DEPTH} levels")
    tag = buf[pos]
    pos += 1
    if tag == _T_STR or tag == _T_BYTES:
        start = pos + 4
        end = _span(buf, start, _U32.unpack_from(buf, pos)[0])
        if tag == _T_BYTES:
            return bytes(buf[start:end]), end
        try:
            return buf[start:end].decode("utf-8"), end
        except UnicodeDecodeError as exc:
            raise BadFrame(f"invalid utf-8 in string value: {exc}") from None
    if tag == _T_INT:
        start = pos + 1
        end = _span(buf, start, buf[pos])
        return int.from_bytes(buf[start:end], "big", signed=True), end
    if tag == _T_TUPLE or tag == _T_LIST:
        count = _U32.unpack_from(buf, pos)[0]
        pos += 4
        depth += 1
        items = []
        for _ in range(count):
            item, pos = _decode(buf, pos, depth)
            items.append(item)
        return (items if tag == _T_LIST else tuple(items)), pos
    if tag == _T_DICT:
        count = _U32.unpack_from(buf, pos)[0]
        pos += 4
        depth += 1
        result = {}
        for _ in range(count):
            key, pos = _decode(buf, pos, depth)
            item, pos = _decode(buf, pos, depth)
            try:
                result[key] = item
            except TypeError:
                raise BadFrame(f"unhashable {type(key).__name__} dict key") from None
        return result, pos
    if tag == _T_CAP:
        end = _span(buf, pos, Capability.PACKED_SIZE)
        cap = Capability.unpack(buf[pos:end])
        if cap is None:
            raise BadFrame("nil capability on the wire (encode None instead)")
        return cap, end
    if tag == _T_LEASE:
        epoch, pos = _decode(buf, pos, depth + 1)
        ttl, pos = _decode(buf, pos, depth + 1)
        if not isinstance(epoch, int) or not isinstance(ttl, int):
            raise BadFrame("lease epoch and ttl must be integers")
        return Lease(epoch, ttl), pos
    if tag <= _T_FALSE:
        return (None, True, False)[tag], pos
    if tag == _T_FLOAT:
        return _F64.unpack_from(buf, pos)[0], pos + 8
    if tag == _T_HANDLE:
        mid = pos + Capability.PACKED_SIZE
        end = _span(buf, mid, Capability.PACKED_SIZE)
        version, file = Capability.unpack(buf[pos:mid]), Capability.unpack(buf[mid:end])
        if version is None or file is None:
            raise BadFrame("nil capability inside a version handle")
        return VersionHandle(version, file), end
    if tag == _T_TAS:
        success = buf[pos] != 0
        start = pos + 5
        end = _span(buf, start, _U32.unpack_from(buf, pos + 1)[0])
        return TasResult(success, bytes(buf[start:end])), end
    if tag == _T_INTENTION:
        fields = []
        for _ in range(4):
            field, pos = _decode(buf, pos, depth + 1)
            fields.append(field)
        if not isinstance(fields[0], str):
            raise BadFrame("intention kind must be a string")
        return _Intention(*fields), pos
    if tag == _T_PLACEMENT:
        epoch, pos = _decode(buf, pos, depth + 1)
        count = _U32.unpack_from(buf, pos)[0]
        pos += 4
        ranges = []
        for _ in range(count):
            lo, pos = _decode(buf, pos, depth + 1)
            hi, pos = _decode(buf, pos, depth + 1)
            port, pos = _decode(buf, pos, depth + 1)
            if not all(isinstance(v, int) for v in (lo, hi, port)):
                raise BadFrame("placement range fields must be integers")
            ranges.append((lo, hi, port))
        if not isinstance(epoch, int):
            raise BadFrame("placement epoch must be an integer")
        try:
            return PlacementMap(
                epoch, tuple(ShardRange(lo, hi, port) for lo, hi, port in ranges)
            ), pos
        except ValueError as exc:
            raise BadFrame(f"invalid placement map on the wire: {exc}") from None
    raise BadFrame(f"unknown value tag {tag:#04x}")


# ---------------------------------------------------------------------------
# frames
# ---------------------------------------------------------------------------


def _frame(frame_type: int, request_id: int, value: Any, max_frame: int) -> bytes:
    """One frame carrying ``value``: the header slot is reserved, the
    payload encoded after it, and the header packed in place."""
    if not 0 <= request_id <= MAX_REQUEST_ID:
        raise BadFrame(f"request id {request_id} outside the u32 range")
    out = _encode_into(bytearray(HEADER_SIZE), value)
    if len(out) > max_frame:
        raise FrameTooLarge(
            f"frame of {len(out)} bytes exceeds the {max_frame}-byte maximum"
        )
    _HEADER.pack_into(
        out, 0, MAGIC, WIRE_VERSION, frame_type, request_id, len(out) - HEADER_SIZE
    )
    return bytes(out)


def encode_request(
    sender: str,
    command: str,
    params: dict[str, Any],
    max_frame: int = DEFAULT_MAX_FRAME,
    request_id: int = 0,
) -> bytes:
    return _frame(FRAME_REQUEST, request_id, (sender, command, params), max_frame)


def encode_reply(
    value: Any, max_frame: int = DEFAULT_MAX_FRAME, request_id: int = 0
) -> bytes:
    return _frame(FRAME_REPLY, request_id, value, max_frame)


def encode_error(
    exc: BaseException,
    max_frame: int = DEFAULT_MAX_FRAME,
    request_id: int = 0,
) -> bytes:
    return _frame(FRAME_ERROR, request_id, (type(exc).__name__, str(exc)), max_frame)


def decode_header(
    header: bytes, max_frame: int = DEFAULT_MAX_FRAME
) -> tuple[int, int, int]:
    """Validate a frame header; returns (frame type, request id, payload
    length).  The wire version is checked *before* any later field is
    trusted — a version-1 header has a different layout, so misparsing it
    would read a garbage length."""
    if len(header) != HEADER_SIZE:
        raise TruncatedFrame(f"header is {len(header)} bytes, need {HEADER_SIZE}")
    if header[:2] != MAGIC:
        raise BadFrame(f"bad magic {header[:2]!r}")
    if header[2] != WIRE_VERSION:
        raise WireVersionMismatch(
            f"wire version {header[2]}, this codec speaks {WIRE_VERSION}"
        )
    _, _, frame_type, request_id, length = _HEADER.unpack(header)
    if frame_type not in _FRAME_TYPES:
        raise BadFrame(f"unknown frame type {frame_type}")
    if HEADER_SIZE + length > max_frame:
        raise FrameTooLarge(
            f"frame announces {HEADER_SIZE + length} bytes, "
            f"maximum is {max_frame}"
        )
    return frame_type, request_id, length


class FrameAssembler:
    """An incremental decoder for a pipelined frame stream.

    Network reads deliver arbitrary byte chunks — half a header, three
    frames and a bit, one byte at a time.  ``feed`` buffers whatever
    arrives and returns every *complete* frame it now holds, as
    ``(frame type, request id, payload)`` triples in stream order.
    Header validation errors (bad magic, wrong version, oversize) raise
    exactly as :func:`decode_header` does, with the offending bytes left
    unconsumed — the stream is unrecoverable after that, as on a socket.
    """

    __slots__ = ("max_frame", "_buffer")

    def __init__(self, max_frame: int = DEFAULT_MAX_FRAME) -> None:
        self.max_frame = max_frame
        self._buffer = bytearray()

    def feed(self, data: bytes) -> list[tuple[int, int, bytes]]:
        self._buffer += data
        frames = []
        while len(self._buffer) >= HEADER_SIZE:
            frame_type, request_id, length = decode_header(
                bytes(self._buffer[:HEADER_SIZE]), self.max_frame
            )
            if len(self._buffer) < HEADER_SIZE + length:
                break
            payload = bytes(self._buffer[HEADER_SIZE : HEADER_SIZE + length])
            del self._buffer[: HEADER_SIZE + length]
            frames.append((frame_type, request_id, payload))
        return frames

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered towards an incomplete frame."""
        return len(self._buffer)


def decode_request(payload: bytes) -> tuple[str, str, dict[str, Any]]:
    """Decode a request payload into (sender, command, params)."""
    value = decode_value(payload)
    if (
        not isinstance(value, tuple)
        or len(value) != 3
        or not isinstance(value[0], str)
        or not isinstance(value[1], str)
        or not isinstance(value[2], dict)
    ):
        raise BadFrame("request payload is not (sender, command, params)")
    for key in value[2]:
        if not isinstance(key, str):
            raise BadFrame("request parameter names must be strings")
    return value


# Server-side exceptions that cross the wire by class name.  ReproError
# subclasses resolve against repro.errors; a handful of builtins cover the
# "anything else is a bug and propagates too, loudly" contract of the
# simulated RPC layer.
_BUILTIN_ERRORS = {
    "ValueError": ValueError,
    "TypeError": TypeError,
    "KeyError": KeyError,
    "AssertionError": AssertionError,
    "RuntimeError": RuntimeError,
    "NotImplementedError": NotImplementedError,
}


def error_to_exception(name: str, message: str) -> BaseException:
    """Rebuild the exception an error frame describes."""
    import repro.errors as errors_module

    cls = getattr(errors_module, name, None)
    if isinstance(cls, type) and issubclass(cls, ReproError):
        return cls(message)
    cls = _BUILTIN_ERRORS.get(name)
    if cls is not None:
        return cls(message)
    return RemoteCallError(f"{name}: {message}")


def decode_error(payload: bytes) -> BaseException:
    value = decode_value(payload)
    if (
        not isinstance(value, tuple)
        or len(value) != 2
        or not isinstance(value[0], str)
        or not isinstance(value[1], str)
    ):
        raise BadFrame("error payload is not (class name, message)")
    return error_to_exception(value[0], value[1])
