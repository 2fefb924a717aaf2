"""The framed binary wire protocol spoken between LSMClient and LSMServer.

Every message travels in one length-prefixed, CRC-checked frame:

====== ===== =========================================================
offset bytes field
====== ===== =========================================================
0      2     magic ``0x4C53`` (``b"LS"``, big-endian)
2      1     protocol version (currently 1)
3      1     message type (see the ``*Request``/``*Response`` classes)
4      4     payload length ``N`` (big-endian u32)
8      N     payload (typed encoding below)
8+N    4     CRC32 over bytes ``[0, 8+N)`` — header *and* payload
====== ===== =========================================================

Payloads reuse the :mod:`repro.common.encoding` conventions: unsigned
LEB128 varints for counts and lengths, varint-length-prefixed byte
strings for keys/values/tenant ids. Floats are fixed 8-byte IEEE-754
big-endian. A decoder rejects (``ProtocolError``) any frame with a bad
magic, unknown version or type, an over-limit length, a CRC mismatch, or
payload bytes left over after the typed decode — so corruption anywhere
in a frame is detected, never silently accepted.

The schema lives in one place: each message class is a frozen dataclass
whose fields, in payload order, each name a :class:`Kind` from the
vocabulary below (``STR``, ``BYTES``, ``BOOL``, ``VARINT``, ``F64``,
``optional(x)``, ``repeated(x, ...)``, ``WIRE_OPS``, the trailing
``TRACE``/``IDEM`` blocks, and ``may_end(x)`` for fields appended to a
message after its first release). :meth:`Message.encode_payload` and
:meth:`Message.decode_payload` walk that list and are the only codec; a
request's ``OP`` name and whether it is ``MUTATING`` are read from the same
class by the server and the client. ``docs/API.md`` renders the table.

The module is transport-agnostic: :func:`encode_frame` /
:class:`FrameDecoder` work on byte strings; :func:`send_message` /
:func:`recv_message` adapt them to a blocking socket.
"""

from __future__ import annotations

import dataclasses
import struct
import zlib
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple, Type

from repro.common.encoding import encode_varint, put_length_prefixed
from repro.errors import ReproError
from repro.observe.tracing import TraceContext

MAGIC = 0x4C53  # b"LS"
VERSION = 1
#: Hard ceiling on a frame's payload; guards the server against a client
#: (or line noise) declaring a multi-gigabyte allocation.
DEFAULT_MAX_PAYLOAD = 8 << 20

_HEADER = struct.Struct(">HBBI")  # magic, version, type, payload length
_CRC = struct.Struct(">I")
_F64 = struct.Struct(">d")
HEADER_SIZE = _HEADER.size
TRAILER_SIZE = _CRC.size


class ProtocolError(ReproError):
    """A frame or payload violated the wire format (corrupt, truncated, unknown)."""


class RemoteError(ReproError):
    """The server answered with an :class:`ErrorResponse` (code + message)."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(f"[{code}] {message}")
        self.code = code
        self.remote_message = message


# -- field kinds --------------------------------------------------------------


class Kind(NamedTuple):
    """One word of the payload vocabulary: how a field value is written and read.

    ``put(out, value)`` appends the encoding to a bytearray; ``get(buf,
    offset)`` returns ``(value, next_offset)`` or raises ``ProtocolError``.
    """

    label: str
    put: Callable[[bytearray, Any], None]
    get: Callable[[bytes, int], Tuple[Any, int]]
    #: The kinds a composite (``optional``/``repeated``) is built from, so a
    #: test can derive values for a message from its ``WIRE`` table alone.
    inner: Tuple["Kind", ...] = ()
    #: Decode: the payload may end before this field, which then keeps its
    #: dataclass default. This is how a field added to a message later stays
    #: readable from a peer that predates it.
    may_end: bool = False
    #: A strictly-trailing optional block: flag ``0x01`` + body when present.
    #: When absent (``None``) nothing is written — so every frame from before
    #: the block existed stays byte-identical — unless a later trailing block
    #: is present, which forces an explicit ``0x00`` so the two flag-prefixed
    #: blocks never alias. Decoding treats end-of-payload as absent.
    trailing: bool = False


_U64_MAX = (1 << 64) - 1
_MAX_VARINT_BYTES = 10  # ceil(64 / 7)


def _put_varint(out: bytearray, value: int) -> None:
    out += encode_varint(value)


def _get_varint(buf: bytes, offset: int) -> Tuple[int, int]:
    """Read an unsigned LEB128 varint of at most 10 bytes / 64 bits.

    Every count, length and integer on the wire comes through here. The bound
    matters because the bytes are a peer's: an unbounded continuation run
    makes each step shift a longer bigint, so one CRC-valid frame of a few
    hundred kilobytes of ``0xff`` would pin a handler thread (and the GIL)
    for seconds. The block decoder's ``decode_varint`` reads only bytes this
    process wrote and keeps its unbounded fast path.
    """
    end = len(buf)
    if offset >= end:
        raise ProtocolError("truncated varint")
    byte = buf[offset]
    if byte < 0x80:
        return byte, offset + 1
    result = byte & 0x7F
    shift = 7
    for pos in range(offset + 1, min(end, offset + _MAX_VARINT_BYTES)):
        byte = buf[pos]
        result |= (byte & 0x7F) << shift
        if byte < 0x80:
            if result > _U64_MAX:
                raise ProtocolError("varint wider than 64 bits")
            return result, pos + 1
        shift += 7
    if end - offset < _MAX_VARINT_BYTES:
        raise ProtocolError("truncated varint")
    raise ProtocolError(f"varint longer than {_MAX_VARINT_BYTES} bytes")


def _get_bytes(buf: bytes, offset: int) -> Tuple[bytes, int]:
    length, start = _get_varint(buf, offset)
    end = start + length
    if end > len(buf):
        raise ProtocolError("truncated length-prefixed field")
    return bytes(buf[start:end]), end


def _put_str(out: bytearray, text: str) -> None:
    put_length_prefixed(out, text.encode("utf-8"))


def _get_str(buf: bytes, offset: int) -> Tuple[str, int]:
    raw, offset = _get_bytes(buf, offset)
    try:
        return raw.decode("utf-8"), offset
    except UnicodeDecodeError as exc:
        raise ProtocolError(f"invalid utf-8 in string field: {exc}") from None


def _put_bool(out: bytearray, flag: bool) -> None:
    out.append(1 if flag else 0)


def _get_bool(buf: bytes, offset: int) -> Tuple[bool, int]:
    if offset >= len(buf):
        raise ProtocolError("truncated boolean field")
    byte = buf[offset]
    if byte not in (0, 1):
        raise ProtocolError(f"boolean field holds {byte}, expected 0 or 1")
    return bool(byte), offset + 1


def _put_f64(out: bytearray, value: float) -> None:
    out += _F64.pack(value)


def _get_f64(buf: bytes, offset: int) -> Tuple[float, int]:
    if offset + _F64.size > len(buf):
        raise ProtocolError("truncated f64 field")
    return _F64.unpack_from(buf, offset)[0], offset + _F64.size


STR = Kind("str", _put_str, _get_str)
BYTES = Kind("bytes", put_length_prefixed, _get_bytes)
BOOL = Kind("bool", _put_bool, _get_bool)
VARINT = Kind("varint", _put_varint, _get_varint)
F64 = Kind("f64", _put_f64, _get_f64)


def optional(kind: Kind) -> Kind:
    """A presence flag byte, then ``kind`` when the value is not ``None``."""

    def put(out: bytearray, value: Any) -> None:
        _put_bool(out, value is not None)
        if value is not None:
            kind.put(out, value)

    def get(buf: bytes, offset: int) -> Tuple[Any, int]:
        present, offset = _get_bool(buf, offset)
        return kind.get(buf, offset) if present else (None, offset)

    return Kind("optional", put, get, inner=(kind,))


def record(*kinds: Kind, build: Callable = tuple, parts: Callable = tuple) -> Kind:
    """The ``kinds`` back to back. ``parts(value)`` yields one part per kind
    and ``build(parts)`` reassembles the value; both default to a tuple."""
    puts = tuple(kind.put for kind in kinds)
    gets = tuple(kind.get for kind in kinds)

    def put(out: bytearray, value: Any) -> None:
        for put_part, part in zip(puts, parts(value)):
            put_part(out, part)

    def get(buf: bytes, offset: int) -> Tuple[Any, int]:
        decoded = []
        for get_part in gets:
            part, offset = get_part(buf, offset)
            decoded.append(part)
        return build(decoded), offset

    return Kind("record", put, get, inner=kinds)


def repeated(*kinds: Kind) -> Kind:
    """A varint count, then that many items: a bare value for one kind, a
    :func:`record` tuple for several."""
    item = kinds[0] if len(kinds) == 1 else record(*kinds)

    def put(out: bytearray, items: tuple) -> None:
        out += encode_varint(len(items))
        for value in items:
            item.put(out, value)

    def get(buf: bytes, offset: int) -> Tuple[tuple, int]:
        count, offset = _get_varint(buf, offset)
        items = []
        for _ in range(count):
            value, offset = item.get(buf, offset)
            items.append(value)
        return tuple(items), offset

    return Kind("repeated", put, get, inner=(item,))


def may_end(kind: Kind) -> Kind:
    """``kind``, except that the payload may legally end before it."""
    return kind._replace(may_end=True)


def _trailing(label: str, block: Kind) -> Kind:
    return block._replace(label=label, may_end=True, trailing=True)


#: The optional trace context at the end of every request: trace_id + parent
#: span_id + sampled flag. A payload that simply ends (the pre-trace wire
#: image, or a tracing-unaware client) decodes as no context; the CRC covers
#: the block when present, and trailing junk after it is still rejected.
TRACE = _trailing("trace", record(
    STR, STR, BOOL,
    build=lambda parts: TraceContext(*parts),
    parts=lambda trace: (trace.trace_id, trace.span_id, trace.sampled),
))
#: The optional ``(client_id, token)`` idempotency pair after the trace
#: block: a string and a varint. Together with ``(tenant,)`` the pair keys
#: the server's request-dedup table, so a retried mutation is applied at most
#: once. The requests that carry it are exactly the ones that mutate state.
IDEM = _trailing("idem", record(STR, VARINT))

_WIRE_OP_KINDS = ("put", "delete", "merge", "put_ttl")
#: What follows key and value for the op kinds that carry a fourth element.
_WIRE_OP_EXTRA = {"merge": STR, "put_ttl": F64}


def _normalize_wire_ops(ops) -> "Tuple[tuple, ...]":
    """Validate/normalize wire batch ops (shared by Batch and TxnCommit).

    Accepted shapes: ``("put", key, value)``, ``("delete", key, b"")``
    (value ignored), ``("merge", key, operand, operator)``, and
    ``("put_ttl", key, value, ttl_seconds)``. 3-tuples for put/delete are
    normalized to carry their implicit extra (None).
    """
    normalized = []
    for op in ops:
        kind, key, value = op[0], op[1], op[2]
        extra = op[3] if len(op) > 3 else None
        if kind not in _WIRE_OP_KINDS:
            raise ValueError(
                f"batch op kind must be one of {_WIRE_OP_KINDS}, got {kind!r}"
            )
        if kind == "merge":
            extra = str(extra if extra is not None else "counter")
        elif kind == "put_ttl":
            if extra is None:
                raise ValueError("put_ttl op requires a ttl seconds extra")
            extra = float(extra)
        else:
            extra = None
        normalized.append((kind, bytes(key), bytes(value or b""), extra))
    return tuple(normalized)


def _put_wire_op(out: bytearray, op: tuple) -> None:
    kind, key, value, extra = op
    out.append(_WIRE_OP_KINDS.index(kind))
    put_length_prefixed(out, key)
    put_length_prefixed(out, value)
    if kind in _WIRE_OP_EXTRA:
        _WIRE_OP_EXTRA[kind].put(out, extra)


def _get_wire_op(buf: bytes, offset: int) -> Tuple[tuple, int]:
    if offset >= len(buf):
        raise ProtocolError("truncated batch op")
    if buf[offset] >= len(_WIRE_OP_KINDS):
        raise ProtocolError(f"unknown batch op kind {buf[offset]}")
    kind = _WIRE_OP_KINDS[buf[offset]]
    key, offset = _get_bytes(buf, offset + 1)
    value, offset = _get_bytes(buf, offset)
    extra = None
    if kind in _WIRE_OP_EXTRA:
        extra, offset = _WIRE_OP_EXTRA[kind].get(buf, offset)
    return (kind, key, value, extra), offset


#: A count, then per op: kind byte, key, value and the kind's extra (the
#: operator name for ``merge``, the TTL in simulated seconds for ``put_ttl``).
WIRE_OPS = repeated(Kind("wire_op", _put_wire_op, _get_wire_op))


# -- message classes ----------------------------------------------------------

_MESSAGE_TYPES: Dict[int, Type["Message"]] = {}


def wire(kind: Kind, default: Any = dataclasses.MISSING) -> Any:
    """Declare one message field: its wire kind and, optionally, its default."""
    return field(default=default, metadata={"kind": kind})


def wire_message(cls: Type["Message"]) -> Type["Message"]:
    """Make ``cls`` a frozen dataclass, compile its field spec, register its type."""
    cls = dataclass(frozen=True)(cls)
    if cls.TYPE in _MESSAGE_TYPES:  # pragma: no cover - module definition bug
        raise ValueError(f"duplicate message type 0x{cls.TYPE:02x}")
    cls.WIRE = {f.name: f.metadata["kind"] for f in dataclasses.fields(cls)}
    for f in dataclasses.fields(cls):
        # A short payload must decode to defaults, never to a TypeError.
        if cls.WIRE[f.name].may_end and f.default is dataclasses.MISSING:  # pragma: no cover
            raise TypeError(f"{cls.__name__}.{f.name} may be absent on the wire: needs a default")
    cls._CODEC = tuple(
        (name, kind.put, kind.get, kind.may_end, kind.trailing)
        for name, kind in cls.WIRE.items()
    )
    cls.MUTATING = IDEM in cls.WIRE.values()
    _MESSAGE_TYPES[cls.TYPE] = cls
    return cls


class Message:
    """Base class: every frame body is one typed, round-trippable message.

    A concrete message is a ``@wire_message`` class that declares ``TYPE`` (its
    frame type byte), its fields in payload order, each with its
    :class:`Kind` (collected into ``WIRE``), and, for requests, ``OP`` — the
    name the server dispatches, meters, sheds and traces it under.
    ``MUTATING`` is derived: a request changes state exactly when its spec
    carries the ``IDEM`` block.
    """

    TYPE = -1
    OP: Optional[str] = None
    WIRE: Dict[str, Kind] = {}
    MUTATING = False
    _CODEC: tuple = ()

    def encode_payload(self) -> bytes:
        out = bytearray()
        elided = 0  # absent trailing blocks not (yet) written; see Kind.trailing
        for name, put, _get, _may_end, trailing in self._CODEC:
            value = getattr(self, name)
            if trailing:
                if value is None:
                    elided += 1
                    continue
                out += b"\x00" * elided + b"\x01"
                elided = 0
            put(out, value)
        return bytes(out)

    @classmethod
    def decode_payload(cls, buf: bytes) -> "Message":
        values = {}
        offset, end = 0, len(buf)
        for name, _put, get, may_end, trailing in cls._CODEC:
            if may_end and offset == end:
                continue
            if trailing:
                present, offset = _get_bool(buf, offset)
                if not present:
                    continue
            values[name], offset = get(buf, offset)
        if offset != end:
            raise ProtocolError(f"{end - offset} trailing byte(s) after payload decode")
        return cls(**values)


@wire_message
class PingRequest(Message):
    """Liveness probe; answered by :class:`PongResponse`."""

    TYPE = 0x01
    OP = "ping"
    tenant: str = wire(STR, "")
    trace: Optional[TraceContext] = wire(TRACE, None)


@wire_message
class StatsRequest(Message):
    """Request the server's JSON stats snapshot (metrics + engine + tenants)."""

    TYPE = 0x02
    OP = "stats"
    tenant: str = wire(STR, "")
    trace: Optional[TraceContext] = wire(TRACE, None)


@wire_message
class GetRequest(Message):
    TYPE = 0x03
    OP = "get"
    tenant: str = wire(STR)
    key: bytes = wire(BYTES)
    trace: Optional[TraceContext] = wire(TRACE, None)


@wire_message
class PutRequest(Message):
    """Single durable write; ``ttl`` (simulated seconds) is an optional
    expiry — a presence flag plus fixed f64, encoded before the trace
    block; frames from before TTLs existed end after ``value``. ``idem`` is
    an optional trailing ``(client_id, token)`` idempotency pair (see
    :data:`IDEM`)."""

    TYPE = 0x04
    OP = "put"
    tenant: str = wire(STR)
    key: bytes = wire(BYTES)
    value: bytes = wire(BYTES)
    ttl: Optional[float] = wire(may_end(optional(F64)), None)
    trace: Optional[TraceContext] = wire(TRACE, None)
    idem: Optional[Tuple[str, int]] = wire(IDEM, None)


@wire_message
class DeleteRequest(Message):
    TYPE = 0x05
    OP = "delete"
    tenant: str = wire(STR)
    key: bytes = wire(BYTES)
    trace: Optional[TraceContext] = wire(TRACE, None)
    idem: Optional[Tuple[str, int]] = wire(IDEM, None)


@wire_message
class MultiGetRequest(Message):
    TYPE = 0x06
    OP = "multi_get"
    tenant: str = wire(STR)
    keys: Tuple[bytes, ...] = wire(repeated(BYTES), ())
    trace: Optional[TraceContext] = wire(TRACE, None)

    def __post_init__(self) -> None:
        object.__setattr__(self, "keys", tuple(bytes(k) for k in self.keys))


@wire_message
class ScanRequest(Message):
    """Range scan; ``start``/``end`` are inclusive bounds (None = unbounded),
    mirroring :meth:`LSMTree.scan`. ``limit`` caps the reply's entry count
    (the server clamps it to its own ``scan_limit_max``)."""

    TYPE = 0x07
    OP = "scan"
    tenant: str = wire(STR)
    start: Optional[bytes] = wire(optional(BYTES), None)
    end: Optional[bytes] = wire(optional(BYTES), None)
    limit: int = wire(VARINT, 1000)
    trace: Optional[TraceContext] = wire(TRACE, None)


@wire_message
class BatchRequest(Message):
    """Atomically ordered writes: ``ops`` are ``(kind, key, value[, extra])``
    tuples with kind ``put`` / ``delete`` / ``merge`` / ``put_ttl`` —
    ``extra`` is the operator name (merge) or the TTL in simulated seconds
    (put_ttl). Normalized ops always carry the 4th element."""

    TYPE = 0x08
    OP = "batch"
    tenant: str = wire(STR)
    ops: Tuple[tuple, ...] = wire(WIRE_OPS, ())
    trace: Optional[TraceContext] = wire(TRACE, None)
    idem: Optional[Tuple[str, int]] = wire(IDEM, None)

    def __post_init__(self) -> None:
        object.__setattr__(self, "ops", _normalize_wire_ops(self.ops))


@wire_message
class MergeRequest(Message):
    """A single merge-operand write for a named (pre-registered) operator."""

    TYPE = 0x0A
    OP = "merge"
    tenant: str = wire(STR)
    key: bytes = wire(BYTES)
    operand: bytes = wire(BYTES)
    operator: str = wire(STR, "counter")
    trace: Optional[TraceContext] = wire(TRACE, None)
    idem: Optional[Tuple[str, int]] = wire(IDEM, None)


@wire_message
class TxnCommitRequest(Message):
    """An optimistic-transaction commit: read-set fingerprints + write ops.

    ``read_set`` maps each footprint key to the seqno the client observed
    (the ``GetResult.seqno`` the server reported; 0 = absent). The server
    validates under the engine mutex and answers ``OkResponse`` or an
    ``ErrorResponse`` with code ``conflict``.
    """

    TYPE = 0x0B
    OP = "txn_commit"
    tenant: str = wire(STR)
    read_set: Tuple[Tuple[bytes, int], ...] = wire(repeated(BYTES, VARINT), ())
    ops: Tuple[tuple, ...] = wire(WIRE_OPS, ())
    trace: Optional[TraceContext] = wire(TRACE, None)
    idem: Optional[Tuple[str, int]] = wire(IDEM, None)

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "read_set",
            tuple(sorted((bytes(k), int(s)) for k, s in dict(self.read_set).items())),
        )
        object.__setattr__(self, "ops", _normalize_wire_ops(self.ops))


@wire_message
class StatsHistoryRequest(Message):
    """Request the server's time-series history (the sampler's ring buffers).

    ``last_n`` limits each series to its most recent N points (0 = all
    retained points).
    """

    TYPE = 0x09
    OP = "stats_history"
    tenant: str = wire(STR, "")
    last_n: int = wire(VARINT, 0)
    trace: Optional[TraceContext] = wire(TRACE, None)


@wire_message
class PongResponse(Message):
    TYPE = 0x81
    server_uptime_s: float = wire(F64, 0.0)
    engine_uptime_s: float = wire(F64, 0.0)


@wire_message
class StatsResponse(Message):
    """The server's stats snapshot as a JSON document (UTF-8)."""

    TYPE = 0x82
    payload_json: str = wire(STR, "{}")


@wire_message
class GetResponse(Message):
    """Point-lookup reply. ``seqno`` is the newest observed version of the
    key (0 when absent) — the fingerprint optimistic transactions validate
    against; encoded as a trailing varint (absent in pre-txn frames, which
    decode as seqno 0)."""

    TYPE = 0x83
    found: bool = wire(BOOL, False)
    value: bytes = wire(BYTES, b"")
    seqno: int = wire(may_end(VARINT), 0)


@wire_message
class OkResponse(Message):
    """Acknowledges a write; ``count`` is the records applied (batch size)."""

    TYPE = 0x84
    count: int = wire(VARINT, 1)


@wire_message
class MultiGetResponse(Message):
    """Per-key results, in the request's key order: ``(key, found, value)``."""

    TYPE = 0x85
    entries: Tuple[Tuple[bytes, bool, bytes], ...] = wire(repeated(BYTES, BOOL, BYTES), ())

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "entries",
            tuple((bytes(k), bool(f), bytes(v)) for k, f, v in self.entries),
        )


@wire_message
class ScanResponse(Message):
    """Scan results; ``truncated`` signals the limit cut the range short."""

    TYPE = 0x86
    truncated: bool = wire(BOOL, False)
    items: Tuple[Tuple[bytes, bytes], ...] = wire(repeated(BYTES, BYTES), ())

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "items", tuple((bytes(k), bytes(v)) for k, v in self.items)
        )


@wire_message
class ErrorResponse(Message):
    """A failed request. ``code`` is machine-readable (``bad_request``,
    ``throttled``, ``engine``, ``internal``, ``shutting_down``, ``busy``,
    ``overloaded``)."""

    TYPE = 0x8F
    code: str = wire(STR, "internal")
    message: str = wire(STR, "")


@wire_message
class StatsHistoryResponse(Message):
    """The sampler's ring-buffer series as a JSON document (UTF-8).

    Shape: ``{"samples": n, "capacity": c, "series": {name: {"kind":
    "cumulative"|"level", "t": [...], "v": [...]}}}`` — the direct rendering
    of :meth:`~repro.observe.TimeSeriesSampler.as_dict`.
    """

    TYPE = 0x87
    payload_json: str = wire(STR, "{}")


_BY_TYPE = tuple(cls for _, cls in sorted(_MESSAGE_TYPES.items()))
REQUEST_TYPES = tuple(cls for cls in _BY_TYPE if cls.OP is not None)
RESPONSE_TYPES = tuple(cls for cls in _BY_TYPE if cls.OP is None)


# -- framing ------------------------------------------------------------------


def encode_frame(message: Message) -> bytes:
    """Serialize one message into a complete CRC-trailed frame."""
    payload = message.encode_payload()
    header = _HEADER.pack(MAGIC, VERSION, message.TYPE, len(payload))
    body = header + payload
    return body + _CRC.pack(zlib.crc32(body) & 0xFFFFFFFF)


def try_decode_frame(
    buf: bytes, offset: int = 0, max_payload: int = DEFAULT_MAX_PAYLOAD
) -> Optional[Tuple[Message, int]]:
    """Decode one frame at ``offset`` if fully buffered.

    Returns:
        ``(message, next_offset)``, or None when more bytes are needed.

    Raises:
        ProtocolError: on a structurally invalid frame (bad magic/version/
            type/length/CRC, or a payload that does not decode exactly).
    """
    available = len(buf) - offset
    if available < HEADER_SIZE:
        return None
    magic, version, msg_type, length = _HEADER.unpack_from(buf, offset)
    if magic != MAGIC:
        raise ProtocolError(f"bad magic 0x{magic:04x} (expected 0x{MAGIC:04x})")
    if version != VERSION:
        raise ProtocolError(f"unsupported protocol version {version}")
    if length > max_payload:
        raise ProtocolError(f"frame payload {length} exceeds limit {max_payload}")
    total = HEADER_SIZE + length + TRAILER_SIZE
    if available < total:
        return None
    body_end = offset + HEADER_SIZE + length
    (expected_crc,) = _CRC.unpack_from(buf, body_end)
    # One view serves the CRC and the payload copy (a bytearray slice would
    # copy twice each); released at once, since a live view pins a bytearray
    # against the decoder's next feed.
    with memoryview(buf)[offset:body_end] as body:
        actual_crc = zlib.crc32(body) & 0xFFFFFFFF
        payload = bytes(body[HEADER_SIZE:])
    if actual_crc != expected_crc:
        raise ProtocolError(
            f"frame CRC mismatch (stored 0x{expected_crc:08x}, "
            f"computed 0x{actual_crc:08x})"
        )
    cls = _MESSAGE_TYPES.get(msg_type)
    if cls is None:
        raise ProtocolError(f"unknown message type 0x{msg_type:02x}")
    try:
        message = cls.decode_payload(payload)
    except ProtocolError:
        raise
    except (ValueError, struct.error) as exc:
        raise ProtocolError(f"malformed {cls.__name__} payload: {exc}") from None
    return message, offset + total


def decode_frame(
    buf: bytes, offset: int = 0, max_payload: int = DEFAULT_MAX_PAYLOAD
) -> Tuple[Message, int]:
    """Like :func:`try_decode_frame` but truncation is an error."""
    decoded = try_decode_frame(buf, offset, max_payload)
    if decoded is None:
        raise ProtocolError("truncated frame")
    return decoded


@dataclass
class FrameDecoder:
    """A streaming frame accumulator for a byte-oriented transport.

    Feed it arbitrary chunks; it returns every newly completed message (and
    also queues them for :meth:`next_message`), keeping the unconsumed tail
    buffered. A :class:`ProtocolError` raised by :meth:`feed` poisons the
    stream (resynchronizing inside a corrupt byte stream is not safe for a
    length-prefixed format).
    """

    max_payload: int = DEFAULT_MAX_PAYLOAD
    _buffer: bytearray = field(default_factory=bytearray)
    _ready: "deque" = field(default_factory=deque)

    def feed(self, data: bytes) -> List[Message]:
        self._buffer.extend(data)
        messages: List[Message] = []
        offset = 0
        while True:
            decoded = try_decode_frame(self._buffer, offset, self.max_payload)
            if decoded is None:
                break
            message, offset = decoded
            messages.append(message)
        if offset:
            del self._buffer[:offset]
        self._ready.extend(messages)
        return messages

    def next_message(self) -> Optional[Message]:
        """Pop one already-decoded message, or None if none is queued."""
        return self._ready.popleft() if self._ready else None

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered but not yet forming a complete frame."""
        return len(self._buffer)


# -- socket adapters ----------------------------------------------------------


def send_message(sock, message: Message) -> None:
    """Write one message as a frame to a blocking socket."""
    sock.sendall(encode_frame(message))


def recv_message(
    sock, decoder: FrameDecoder, recv_bytes: int = 64 << 10
) -> Optional[Message]:
    """Read exactly one message from a blocking socket.

    Frames already buffered in ``decoder`` (a previous recv may have pulled
    several) are drained before the socket is read again. Returns None on a
    clean EOF at a frame boundary.

    Raises:
        ProtocolError: on EOF inside a frame or on a corrupt frame.
    """
    while True:
        queued = decoder.next_message()
        if queued is not None:
            return queued
        chunk = sock.recv(recv_bytes)
        if not chunk:
            if decoder.pending_bytes:
                raise ProtocolError("connection closed mid-frame")
            return None
        decoder.feed(chunk)
