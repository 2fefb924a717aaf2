"""Wire protocol properties: round-trips, truncation, and corruption."""

import dataclasses
import struct
import time
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.server.protocol import (
    DEFAULT_MAX_PAYLOAD,
    HEADER_SIZE,
    MAGIC,
    TRAILER_SIZE,
    VERSION,
    BatchRequest,
    FrameDecoder,
    GetRequest,
    GetResponse,
    Message,
    OkResponse,
    PingRequest,
    ProtocolError,
    REQUEST_TYPES,
    RESPONSE_TYPES,
    ScanRequest,
    TraceContext,
    TxnCommitRequest,
    decode_frame,
    encode_frame,
    try_decode_frame,
)

# -- strategies ----------------------------------------------------------------
#
# One strategy, derived from each class's field spec (``cls.WIRE``): a message
# type added to the protocol is round-tripped, truncated and corrupted by every
# property below without touching this file.

_text = st.text(max_size=24)
_binary = st.binary(max_size=48)
_floats = st.floats(allow_nan=False, allow_infinity=False, width=64)
_LEAVES = {
    "str": _text,
    "bytes": _binary,
    "bool": st.booleans(),
    "varint": st.integers(min_value=0, max_value=2**64 - 1),
    "f64": _floats,
    "trace": st.builds(TraceContext, trace_id=_text, span_id=_text, sampled=st.booleans()),
    # Mixed-kind write ops: puts/deletes as legacy triples, merges and TTL'd
    # puts with their kind-specific extras.
    "wire_op": st.one_of(
        st.tuples(st.sampled_from(["put", "delete"]), _binary, _binary),
        st.tuples(st.just("merge"), _binary, _binary, st.text(min_size=1, max_size=12)),
        st.tuples(st.just("put_ttl"), _binary, _binary, _floats),
    ),
}


def _values(kind):
    """A strategy for the values a field of this wire kind can hold."""
    if kind.label in _LEAVES:
        values = _LEAVES[kind.label]
    elif kind.label == "optional":
        values = st.none() | _values(kind.inner[0])
    elif kind.label == "repeated":
        values = st.lists(_values(kind.inner[0]), max_size=6).map(tuple)
    else:
        assert kind.label in ("record", "idem"), f"no strategy for kind {kind.label!r}"
        values = st.tuples(*map(_values, kind.inner))
    # Trailing blocks (trace, idem) are optional on every message carrying them.
    return st.none() | values if kind.trailing else values


_messages = st.one_of(
    *(
        st.builds(cls, **{name: _values(kind) for name, kind in cls.WIRE.items()})
        for cls in REQUEST_TYPES + RESPONSE_TYPES
    )
)


# -- round trips ---------------------------------------------------------------


class TestRoundTrip:
    @given(_messages)
    def test_every_frame_round_trips(self, message):
        frame = encode_frame(message)
        decoded, end = decode_frame(frame)
        assert decoded == message
        assert end == len(frame)

    @given(_messages)
    def test_the_builder_makes_what_init_makes(self, message):
        """``_CODEC.build`` (the hot path's constructor) equals the dataclass
        ``__init__``, field for field and byte for byte, and so does its
        all-defaults form."""
        values = [getattr(message, name) for name in type(message).WIRE]
        built = type(message)._CODEC.build(*values)
        assert built == message
        assert encode_frame(built) == encode_frame(message)
        defaults = [name for name, f in type(message).__dataclass_fields__.items()
                    if f.default is not dataclasses.MISSING]
        if len(defaults) == len(values):
            assert type(message)._CODEC.build() == type(message)()

    @given(_messages, st.integers(min_value=1, max_value=7))
    def test_streaming_decoder_any_chunking(self, message, chunk):
        frame = encode_frame(message)
        decoder = FrameDecoder()
        seen = []
        for i in range(0, len(frame), chunk):
            seen.extend(decoder.feed(frame[i : i + chunk]))
        assert seen == [message]
        assert decoder.pending_bytes == 0

    @given(st.lists(_messages, min_size=2, max_size=4))
    def test_back_to_back_frames_decode_in_order(self, messages):
        stream = b"".join(encode_frame(m) for m in messages)
        decoder = FrameDecoder()
        assert decoder.feed(stream) == messages
        # next_message drains the same queue
        decoder2 = FrameDecoder()
        decoder2.feed(stream)
        drained = []
        while (msg := decoder2.next_message()) is not None:
            drained.append(msg)
        assert drained == messages

    def test_all_registered_types_covered(self):
        # The strategies above must exercise every type the protocol exports.
        assert len(REQUEST_TYPES) == 11
        assert len(RESPONSE_TYPES) == 8
        types = {cls.TYPE for cls in REQUEST_TYPES + RESPONSE_TYPES}
        assert len(types) == 19

    def test_the_field_spec_is_the_only_codec(self):
        # No message class hand-writes an encoder or decoder: beyond the
        # generic pair on Message, the only method allowed is a normalising
        # __post_init__ (dunders are the dataclass machinery's).
        for cls in REQUEST_TYPES + RESPONSE_TYPES:
            own = {
                name for name, attr in vars(cls).items()
                if callable(attr) or isinstance(attr, (classmethod, staticmethod))
            }
            assert {n for n in own if not n.startswith("__")} == set(), cls
            assert cls.encode_payload is Message.encode_payload
            assert cls.decode_payload.__func__ is Message.decode_payload.__func__

    def test_op_name_and_mutating_come_from_the_class(self):
        assert {cls.OP for cls in REQUEST_TYPES} == {
            "ping", "stats", "stats_history", "get", "put", "delete",
            "multi_get", "scan", "batch", "merge", "txn_commit",
        }
        assert all(cls.OP is None and not cls.MUTATING for cls in RESPONSE_TYPES)
        # Mutating ⇔ the spec carries the idempotency block.
        assert {cls.OP for cls in REQUEST_TYPES if cls.MUTATING} == {
            "put", "delete", "merge", "batch", "txn_commit",
        }
        for cls in REQUEST_TYPES:
            assert cls.MUTATING == ("idem" in cls.WIRE)


# -- truncation ----------------------------------------------------------------


class TestTruncation:
    @given(_messages, st.data())
    def test_any_strict_prefix_is_incomplete_not_corrupt(self, message, data):
        frame = encode_frame(message)
        cut = data.draw(st.integers(min_value=0, max_value=len(frame) - 1))
        assert try_decode_frame(frame[:cut]) is None

    @given(_messages)
    def test_decode_frame_raises_on_truncation(self, message):
        frame = encode_frame(message)
        with pytest.raises(ProtocolError):
            decode_frame(frame[: len(frame) - 1])

    def test_mid_frame_eof_detected_by_socket_reader(self):
        # recv_message raises when the peer dies inside a frame.
        from repro.server.protocol import recv_message

        frame = encode_frame(PingRequest(tenant="t"))

        class HalfSocket:
            def __init__(self):
                self.chunks = [frame[: len(frame) // 2], b""]

            def recv(self, n):
                return self.chunks.pop(0)

        with pytest.raises(ProtocolError, match="mid-frame"):
            recv_message(HalfSocket(), FrameDecoder())


# -- corruption ----------------------------------------------------------------


class TestCorruption:
    @settings(max_examples=200)
    @given(_messages, st.data())
    def test_single_byte_corruption_never_yields_a_message(self, message, data):
        frame = bytearray(encode_frame(message))
        pos = data.draw(st.integers(min_value=0, max_value=len(frame) - 1))
        flip = data.draw(st.integers(min_value=1, max_value=255))
        frame[pos] ^= flip
        try:
            decoded = try_decode_frame(bytes(frame))
        except ProtocolError:
            return  # rejected loudly: the property holds
        # A grown length field can make the frame look incomplete — also
        # acceptable. What must never happen is a silently decoded message.
        assert decoded is None

    def _frame(self, msg_type, payload, magic=MAGIC, version=VERSION, crc=None):
        header = struct.pack(">HBBI", magic, version, msg_type, len(payload))
        body = header + payload
        if crc is None:
            crc = zlib.crc32(body) & 0xFFFFFFFF
        return body + struct.pack(">I", crc)

    def test_bad_magic_rejected(self):
        with pytest.raises(ProtocolError, match="magic"):
            try_decode_frame(self._frame(0x01, b"\x00", magic=0xDEAD))

    def test_unknown_version_rejected(self):
        with pytest.raises(ProtocolError, match="version"):
            try_decode_frame(self._frame(0x01, b"\x00", version=9))

    def test_unknown_message_type_rejected(self):
        with pytest.raises(ProtocolError, match="unknown message type"):
            try_decode_frame(self._frame(0x7F, b""))

    def test_crc_mismatch_rejected(self):
        with pytest.raises(ProtocolError, match="CRC"):
            try_decode_frame(self._frame(0x01, b"\x00", crc=0))

    def test_over_limit_payload_rejected_before_buffering(self):
        header = struct.pack(
            ">HBBI", MAGIC, VERSION, 0x01, DEFAULT_MAX_PAYLOAD + 1
        )
        with pytest.raises(ProtocolError, match="exceeds limit"):
            try_decode_frame(header)

    def test_trailing_payload_bytes_rejected(self):
        # A structurally valid frame whose payload has junk after the
        # typed fields must not decode (the generic decoder checks it consumed everything).
        # b"\x00" decodes as "no trace context"; the 0xff after it is junk.
        payload = PingRequest(tenant="t").encode_payload() + b"\x00\xff"
        with pytest.raises(ProtocolError, match="trailing"):
            try_decode_frame(self._frame(PingRequest.TYPE, payload))

    def test_bad_trace_flag_byte_rejected(self):
        # A trailing byte that is neither a valid trace block nor absent.
        payload = PingRequest(tenant="t").encode_payload() + b"\xff"
        with pytest.raises(ProtocolError, match="boolean"):
            try_decode_frame(self._frame(PingRequest.TYPE, payload))

    def test_trace_block_round_trips_and_is_optional_on_the_wire(self):
        bare = GetRequest(tenant="t", key=b"k")
        traced = GetRequest(
            tenant="t", key=b"k",
            trace=TraceContext(trace_id="abc123", span_id="d4", sampled=True),
        )
        # The traceless payload is byte-identical to the pre-trace format.
        assert bare.encode_payload() == b"\x01t\x01k"
        for message in (bare, traced):
            decoded, _ = decode_frame(encode_frame(message))
            assert decoded == message

    def test_bad_bool_byte_rejected(self):
        payload = b"\x07" + GetResponse(found=True, value=b"x").encode_payload()[1:]
        with pytest.raises(ProtocolError, match="boolean"):
            try_decode_frame(self._frame(GetResponse.TYPE, payload))

    def test_invalid_utf8_tenant_rejected(self):
        payload = b"\x02\xff\xfe"  # length-2 string that is not utf-8
        with pytest.raises(ProtocolError, match="utf-8"):
            try_decode_frame(self._frame(PingRequest.TYPE, payload))

    def test_unknown_batch_kind_rejected(self):
        out = bytearray()
        out.append(0)  # empty tenant string
        out.append(1)  # one op
        out.append(9)  # kind byte out of range
        with pytest.raises(ProtocolError, match="batch op kind"):
            try_decode_frame(self._frame(BatchRequest.TYPE, bytes(out)))

    @pytest.mark.parametrize(
        "cls, head",
        [
            (OkResponse, b""),  # count
            (ScanRequest, b"\x00\x00\x00"),  # tenant, no start, no end -> limit
            (TxnCommitRequest, b"\x00\x01\x01k"),  # tenant, 1 read, key -> seqno
            (GetRequest, b""),  # the tenant string's length prefix
        ],
    )
    def test_hostile_varint_is_rejected_in_constant_time(self, cls, head):
        # A CRC-valid frame whose varint is a 200 kB continuation run used to
        # shift an ever-growing bigint once per byte: ~2 s of handler thread
        # and GIL per frame, minutes at the 8 MiB payload limit.
        frame = self._frame(cls.TYPE, head + b"\xff" * 200_000 + b"\x01")
        started = time.perf_counter()
        with pytest.raises(ProtocolError, match="varint"):
            try_decode_frame(frame)
        assert time.perf_counter() - started < 0.05

    def test_varint_bounds_are_ten_bytes_and_64_bits(self):
        u64_max = b"\xff" * 9 + b"\x01"
        decoded, _ = decode_frame(self._frame(OkResponse.TYPE, u64_max))
        assert decoded == OkResponse(count=2**64 - 1)
        with pytest.raises(ProtocolError, match="wider than 64 bits"):
            try_decode_frame(self._frame(OkResponse.TYPE, b"\xff" * 9 + b"\x02"))
        with pytest.raises(ProtocolError, match="longer than 10 bytes"):
            try_decode_frame(self._frame(OkResponse.TYPE, b"\x80" * 10 + b"\x00"))

    def test_header_and_trailer_sizes_documented(self):
        frame = encode_frame(OkResponse(count=1))
        payload = OkResponse(count=1).encode_payload()
        assert len(frame) == HEADER_SIZE + len(payload) + TRAILER_SIZE
