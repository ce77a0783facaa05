"""Property tests for the wire codec (repro.net.wire).

Round-trips arbitrary requests, replies and errors through the binary
encoding, and checks the explicit safety guards: oversized frames are
rejected (never truncated) on both encode and decode, truncated payloads
raise :class:`TruncatedFrame`, corrupted headers raise :class:`BadFrame`.
Golden frames pin the encoding byte for byte: wire version 2 is a
contract, and any faster codec must emit exactly these bytes.
"""

from __future__ import annotations

import builtins

import pytest
from hypothesis import given, settings, strategies as st

from repro.block.server import TasResult
from repro.block.sharding import PlacementMap, ShardRange
from repro.block.stable import _Intention
from repro.capability import Capability
from repro.core.cache import Lease
from repro.core.service import VersionHandle
from repro.errors import (
    BadFrame,
    CommitConflict,
    FrameTooLarge,
    RemoteCallError,
    ReproError,
    TruncatedFrame,
    WireVersionMismatch,
)
from repro.net import wire

# -- strategies -------------------------------------------------------------

capabilities = st.builds(
    Capability,
    port=st.integers(min_value=0, max_value=(1 << 48) - 1),
    obj=st.integers(min_value=1, max_value=(1 << 64) - 1),
    rights=st.integers(min_value=0, max_value=(1 << 16) - 1),
    check=st.integers(min_value=0, max_value=(1 << 48) - 1),
)

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(1 << 256), max_value=1 << 256),
    st.floats(allow_nan=False),
    st.binary(max_size=256),
    st.text(max_size=64),
    capabilities,
    st.builds(VersionHandle, version=capabilities, file=capabilities),
    st.builds(TasResult, success=st.booleans(), current=st.binary(max_size=64)),
    st.builds(
        _Intention,
        kind=st.sampled_from(["write", "free", "reserve"]),
        account=st.integers(min_value=0, max_value=1 << 32),
        block_no=st.integers(min_value=0, max_value=1 << 32),
        data=st.binary(max_size=64),
    ),
)

values = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=6),
        st.lists(children, max_size=6).map(tuple),
        st.dictionaries(
            st.one_of(st.text(max_size=16), st.integers(), st.binary(max_size=8)),
            children,
            max_size=6,
        ),
    ),
    max_leaves=24,
)

params = st.dictionaries(st.text(max_size=24), values, max_size=6)


# -- round trips ------------------------------------------------------------


@given(value=values)
@settings(max_examples=200)
def test_value_round_trip(value):
    assert wire.decode_value(wire.encode_value(value)) == value


request_ids = st.integers(min_value=0, max_value=wire.MAX_REQUEST_ID)


@given(
    sender=st.text(max_size=32),
    command=st.text(max_size=32),
    params=params,
    request_id=request_ids,
)
@settings(max_examples=100)
def test_request_round_trip(sender, command, params, request_id):
    frame = wire.encode_request(sender, command, params, request_id=request_id)
    frame_type, rid, length = wire.decode_header(frame[: wire.HEADER_SIZE])
    assert frame_type == wire.FRAME_REQUEST
    assert rid == request_id
    assert length == len(frame) - wire.HEADER_SIZE
    assert wire.decode_request(frame[wire.HEADER_SIZE :]) == (
        sender,
        command,
        params,
    )


@given(value=values, request_id=request_ids)
@settings(max_examples=100)
def test_reply_round_trip(value, request_id):
    frame = wire.encode_reply(value, request_id=request_id)
    frame_type, rid, length = wire.decode_header(frame[: wire.HEADER_SIZE])
    assert frame_type == wire.FRAME_REPLY
    assert rid == request_id
    assert wire.decode_value(frame[wire.HEADER_SIZE :]) == value


@given(message=st.text(max_size=128), request_id=request_ids)
def test_error_round_trip_repro_error(message, request_id):
    frame = wire.encode_error(CommitConflict(message), request_id=request_id)
    frame_type, rid, _ = wire.decode_header(frame[: wire.HEADER_SIZE])
    assert frame_type == wire.FRAME_ERROR
    assert rid == request_id
    exc = wire.decode_error(frame[wire.HEADER_SIZE :])
    assert type(exc) is CommitConflict
    assert str(exc) == message


@given(request_id=st.one_of(
    st.integers(max_value=-1),
    st.integers(min_value=wire.MAX_REQUEST_ID + 1),
))
def test_out_of_range_request_id_rejected_on_encode(request_id):
    with pytest.raises(BadFrame):
        wire.encode_reply(None, request_id=request_id)


def test_error_round_trip_builtin_and_unknown():
    exc = wire.decode_error(
        wire.encode_error(ValueError("bad range"))[wire.HEADER_SIZE :]
    )
    assert type(exc) is ValueError and str(exc) == "bad range"

    class Exotic(Exception):
        pass

    exc = wire.decode_error(wire.encode_error(Exotic("huh"))[wire.HEADER_SIZE :])
    assert type(exc) is RemoteCallError
    assert "Exotic" in str(exc) and "huh" in str(exc)


def test_error_decode_never_widens_to_non_repro_class():
    # A hostile error frame naming a non-exception attribute of the errors
    # module must not be instantiated.
    payload = wire.encode_value(("annotations", "x"))
    exc = wire.error_to_exception("annotations", "x")
    assert isinstance(exc, RemoteCallError)
    assert isinstance(wire.decode_error(payload), RemoteCallError)


# -- oversize guard ---------------------------------------------------------


def test_encode_rejects_oversized_frame():
    with pytest.raises(FrameTooLarge):
        wire.encode_reply(b"x" * 100, max_frame=64)


def test_decode_header_rejects_oversized_announcement():
    frame = wire.encode_reply(b"y" * 512)
    with pytest.raises(FrameTooLarge):
        wire.decode_header(frame[: wire.HEADER_SIZE], max_frame=64)


@given(value=values)
@settings(max_examples=50)
def test_oversize_is_all_or_nothing(value):
    """A value either encodes completely within the limit or raises —
    there is no silently truncated frame."""
    try:
        frame = wire.encode_reply(value, max_frame=256)
    except FrameTooLarge:
        return
    assert len(frame) <= 256
    assert wire.decode_value(frame[wire.HEADER_SIZE :]) == value


# -- truncation and corruption ----------------------------------------------


@given(value=values)
@settings(max_examples=100)
def test_truncated_payload_raises_cleanly(value):
    payload = wire.encode_value(value)
    for cut in {0, 1, len(payload) // 2, len(payload) - 1} - {len(payload)}:
        with pytest.raises((TruncatedFrame, BadFrame)):
            wire.decode_value(payload[:cut])


def test_trailing_garbage_is_rejected():
    payload = wire.encode_value(42) + b"\x00"
    with pytest.raises(BadFrame):
        wire.decode_value(payload)


def test_bad_magic_version_and_type():
    good = wire.encode_reply(None)
    with pytest.raises(BadFrame):
        wire.decode_header(b"ZZ" + good[2 : wire.HEADER_SIZE])
    with pytest.raises(BadFrame):
        wire.decode_header(good[:2] + b"\x63" + good[3 : wire.HEADER_SIZE])
    with pytest.raises(BadFrame):
        wire.decode_header(good[:3] + b"\x09" + good[4 : wire.HEADER_SIZE])
    with pytest.raises(TruncatedFrame):
        wire.decode_header(good[:5])


def test_unknown_tag_rejected():
    with pytest.raises(BadFrame):
        wire.decode_value(b"\xfe")


def test_depth_limit_is_enforced_both_ways():
    nested = []
    for _ in range(wire.MAX_DEPTH + 2):
        nested = [nested]
    with pytest.raises(BadFrame):
        wire.encode_value(nested)
    # Hand-rolled deep payload (decoder side).
    payload = b"\x07\x00\x00\x00\x01" * (wire.MAX_DEPTH + 2) + b"\x00"
    with pytest.raises((BadFrame, TruncatedFrame)):
        wire.decode_value(payload)


def test_subclasses_encode_as_their_base_type():
    """The encoder's exact-type fast path leaves subclasses to the
    ``isinstance`` ladder, which encodes them as their base type, byte
    for byte."""
    import collections
    import enum

    class Count(enum.IntEnum):
        TWO = 2

    class Text(str):
        def __str__(self):
            return "not the text"

    class Cap(Capability):
        pass

    Pair = collections.namedtuple("Pair", "a b")
    cases = [
        (Count.TWO, 2),
        (bytearray(b"ab"), b"ab"),
        (memoryview(b"ab"), b"ab"),
        (Text("text"), "text"),
        (Pair(1, "b"), (1, "b")),
        (collections.OrderedDict(a=1), {"a": 1}),
        (type("Items", (list,), {})([1, 2]), [1, 2]),
        (Cap(CAP.port, CAP.obj, CAP.rights, CAP.check), CAP),
    ]
    for value, base in cases:
        assert wire.encode_value(value) == wire.encode_value(base), value


def test_unhashable_dict_key_is_a_bad_frame():
    # A dict whose one key is an empty list: hashing it would raise.
    with pytest.raises(BadFrame, match="unhashable"):
        wire.decode_value(b"\x09\x00\x00\x00\x01\x07\x00\x00\x00\x00\x00")


def test_unencodable_type_is_an_explicit_error():
    with pytest.raises(BadFrame):
        wire.encode_value(object())


@given(st.binary(min_size=1, max_size=64))
@settings(max_examples=200)
def test_random_payloads_never_crash_the_decoder(data):
    """Garbage decodes to a value or raises a WireError — nothing else."""
    try:
        wire.decode_value(data)
    except (BadFrame, TruncatedFrame):
        pass
    except ReproError as exc:  # pragma: no cover - defensive
        raise AssertionError(f"unexpected error class {type(exc)}") from exc


# -- wire versioning (the pipelining header bump) ----------------------------


@given(version=st.integers(min_value=0, max_value=255))
def test_other_wire_versions_rejected_with_typed_error(version):
    """Every version byte except ours raises WireVersionMismatch — a
    *typed* error, distinct from plain corruption, and raised before the
    rest of the header (whose layout we cannot trust) is parsed."""
    frame = bytearray(wire.encode_reply(None))
    frame[2] = version
    if version == wire.WIRE_VERSION:
        wire.decode_header(bytes(frame[: wire.HEADER_SIZE]))
        return
    with pytest.raises(WireVersionMismatch):
        wire.decode_header(bytes(frame[: wire.HEADER_SIZE]))


def test_version_1_header_layout_is_not_misparsed():
    """An actual v1 header (magic, version=1, type, u32 length — no
    correlation id) must be refused outright: its length field sits where
    v2 keeps the request id, so 'parsing' it would read garbage."""
    import struct

    v1 = struct.pack(">2sBBI", b"AF", 1, wire.FRAME_REQUEST, 4) + b"\x00" * 4
    with pytest.raises(WireVersionMismatch):
        wire.decode_header(v1[: wire.HEADER_SIZE])
    assert issubclass(WireVersionMismatch, BadFrame)  # old catch sites hold


# -- FrameAssembler: pipelined streams reassembled from arbitrary chunks -----


frame_specs = st.lists(
    st.tuples(request_ids, st.binary(max_size=128)), min_size=1, max_size=10
)


@given(specs=frame_specs, data=st.data())
@settings(max_examples=100)
def test_assembler_reassembles_interleaved_partial_frames(specs, data):
    """A pipelined stream of reply frames, delivered in arbitrary chunk
    sizes (as TCP is free to do), comes out of the assembler as exactly
    the original frames, in order, with ids intact."""
    stream = b"".join(
        wire.encode_reply(payload, request_id=rid) for rid, payload in specs
    )
    assembler = wire.FrameAssembler()
    out = []
    i = 0
    while i < len(stream):
        step = data.draw(st.integers(min_value=1, max_value=37), label="chunk")
        out.extend(assembler.feed(stream[i : i + step]))
        i += step
    assert assembler.pending_bytes == 0
    assert [
        (frame_type, rid) for frame_type, rid, _ in out
    ] == [(wire.FRAME_REPLY, rid) for rid, _ in specs]
    assert [
        wire.decode_value(body) for _, _, body in out
    ] == [payload for _, payload in specs]


@given(specs=frame_specs)
@settings(max_examples=50)
def test_assembler_single_feed_equals_chunked_feed(specs):
    stream = b"".join(
        wire.encode_request("s", "c", {"p": payload}, request_id=rid)
        for rid, payload in specs
    )
    whole = wire.FrameAssembler().feed(stream)
    assert [(t, rid) for t, rid, _ in whole] == [
        (wire.FRAME_REQUEST, rid) for rid, _ in specs
    ]


def test_assembler_rejects_old_version_mid_stream():
    import struct

    good = wire.encode_reply(1, request_id=7)
    # A complete v1 frame: 8-byte header (no correlation id) + payload.
    v1 = struct.pack(">2sBBI", b"AF", 1, wire.FRAME_REPLY, 4) + b"\x00" * 4
    assembler = wire.FrameAssembler()
    assert [rid for _, rid, _ in assembler.feed(good)] == [7]
    with pytest.raises(WireVersionMismatch):
        assembler.feed(v1)


# -- golden frames: the byte-identical contract ------------------------------

CAP = Capability(port=0x0123456789AB, obj=42, rights=0x00FF, check=0xCAFEBABE1234)
FILE = Capability(port=0x0123456789AB, obj=7, rights=0xFFFF, check=0x0BADF00D5EED)
PLACEMENT = PlacementMap(
    2, (ShardRange(1, 4096, 0xC00), ShardRange(4097, 8192, 0xC01))
)

# One value per tag (the list also carries None, True and False).
GOLDEN_VALUES = {
    "int": (-1985, "0302f83f"),
    "bytes": (b"\x00page\xff", "05000000060070616765ff"),
    "str": ("\u00e9preuve", "0600000008c3a9707265757665"),
    "list": ([None, True, False, 0, 255, 256], "0700000006000102030100030200ff03020100"),
    "tuple": ((2.5, "x", b""), "08000000030440040000000000000600000001780500000000"),
    "dict": ({"a": 1, 2: b"b"}, "0900000002060000000161030101030102050000000162"),
    "capability": (CAP, "0a0123456789ab000000000000002a00ffcafebabe1234"),
    "version_handle": (
        VersionHandle(CAP, FILE),
        "0b0123456789ab000000000000002a00ffcafebabe1234"
        "0123456789ab0000000000000007ffff0badf00d5eed",
    ),
    "tas_result": (TasResult(True, b"\x00\x00\x00\x07"), "0c010000000400000007"),
    "intention": (
        _Intention("write", 1, 17, b"blk"),
        "0d060000000577726974650301010301110500000003626c6b",
    ),
    "lease": (Lease(5, 20_000), "0e03010503024e20"),
    "placement": (
        PLACEMENT,
        "0f030102000000020301010302100003020c00030210010302200003020c01",
    ),
}

WRITE_MANY_PARAMS = {
    "account": 1,
    "writes": [(100, b"A" * 16), (101, b"B" * 16)],
    "swaps": [(99, 0, b"\x00" * 4, b"\x00\x00\x00\x64")],
}

GOLDEN_FRAMES = {
    "read_current_request": (
        lambda: wire.encode_request(
            "host",
            "read_current",
            {"file_cap": FILE, "path": "0.1", "lease_ticks": 0},
            request_id=7,
        ),
        "41460201000000070000006c08000000030600000004686f7374060000000c72"
        "6561645f63757272656e740900000003060000000866696c655f6361700a0123"
        "456789ab0000000000000007ffff0badf00d5eed060000000470617468060000"
        "0003302e31060000000b6c656173655f7469636b73030100",
    ),
    "read_current_reply": (
        lambda: wire.encode_reply((b"page", CAP, Lease(3, 0)), request_id=7),
        "41460202000000070000002c08000000030500000004706167650a0123456789"
        "ab000000000000002a00ffcafebabe12340e030103030100",
    ),
    "write_many_request": (
        lambda: wire.encode_request(
            "fs0", "write_many", WRITE_MANY_PARAMS, request_id=9
        ),
        "4146020100000009000000a608000000030600000003667330060000000a7772"
        "6974655f6d616e79090000000306000000076163636f756e7403010106000000"
        "0677726974657307000000020800000002030164050000001041414141414141"
        "4141414141414141410800000002030165050000001042424242424242424242"
        "4242424242420600000005737761707307000000010800000004030163030100"
        "050000000400000000050000000400000064",
    ),
}


@pytest.mark.parametrize("name", GOLDEN_VALUES)
def test_golden_value_encodings(name):
    value, golden = GOLDEN_VALUES[name]
    assert wire.encode_value(value).hex() == golden
    assert wire.decode_value(bytes.fromhex(golden)) == value


@pytest.mark.parametrize("name", GOLDEN_FRAMES)
def test_golden_frames(name):
    encode, golden = GOLDEN_FRAMES[name]
    frame = encode()
    assert frame.hex() == golden
    frame_type, _, length = wire.decode_header(frame[: wire.HEADER_SIZE])
    assert length == len(frame) - wire.HEADER_SIZE
    body = frame[wire.HEADER_SIZE :]
    if frame_type == wire.FRAME_REQUEST:
        _, command, params = wire.decode_request(body)
        if command == "write_many":
            assert params == WRITE_MANY_PARAMS
    else:
        assert wire.decode_value(body) == (b"page", CAP, Lease(3, 0))


def test_warm_codec_performs_no_imports(monkeypatch):
    """The service value types are resolved once per process, not at
    every value node: a warm encode + decode imports nothing."""
    request = (
        "fs0",
        "write_many",
        {
            **WRITE_MANY_PARAMS,
            "handle": VersionHandle(CAP, FILE),
            "reply": [TasResult(False, b"\x01"), Lease(1, 2)],
            "intentions": (_Intention("free", 1, 2, b""),),
            "placement": PLACEMENT,
        },
    )
    wire.decode_value(wire.encode_value(request))  # warm-up
    imports: list[str] = []
    real_import = builtins.__import__

    def counting_import(name, *args, **kwargs):
        imports.append(name)
        return real_import(name, *args, **kwargs)

    monkeypatch.setattr(builtins, "__import__", counting_import)
    decoded = wire.decode_value(wire.encode_value(request))
    monkeypatch.undo()
    assert imports == []
    assert decoded == request
