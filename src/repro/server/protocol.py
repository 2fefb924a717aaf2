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
message after its first release). :func:`wire_message` compiles that list
once per class, at import, into one encoder and one decoder (generated
source, kept in the class's ``_CODEC``); :meth:`Message.encode_payload`,
:meth:`Message.decode_payload`, :func:`encode_frame` and
:func:`try_decode_frame` all call that pair, and there is no other codec.
The decoder reads each field in place from the buffer the frame arrived in.
A request's ``OP`` name and whether it is ``MUTATING`` are read from the same
class by the server and the client. ``docs/API.md`` renders the table.

The module is transport-agnostic: :func:`encode_frame` /
:class:`FrameDecoder` work on byte strings; :func:`send_message` /
:func:`recv_message` adapt them to a blocking socket.
"""

from __future__ import annotations

import dataclasses
import itertools
import socket
import struct
import zlib
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple, Type

from repro.errors import ReproError
from repro.observe.tracing import TraceContext

MAGIC = 0x4C53  # b"LS"
VERSION = 1
#: Hard ceiling on a frame's payload; guards the server against a client
#: (or line noise) declaring a multi-gigabyte allocation.
DEFAULT_MAX_PAYLOAD = 8 << 20

_HEADER = struct.Struct(">HBBI")  # magic, version, type, payload length
_U32 = struct.Struct(">I")  # the CRC trailer; also the header's closing length field
_F64 = struct.Struct(">d")
HEADER_SIZE = _HEADER.size
TRAILER_SIZE = _U32.size


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
    """One word of the payload vocabulary: what a field holds on the wire.

    A kind is data only. :func:`wire_message` compiles a class's kinds into
    one encoder and one decoder (see :func:`_compile`); ``docs/API.md`` and
    the property tests read the same kinds.
    """

    label: str
    #: The kinds a composite (``optional``/``record``/``repeated``) is built
    #: from, so a test can derive values for a message from its ``WIRE`` table alone.
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
    #: A record's value type: a dataclass whose fields, in order, are the
    #: record's parts. ``None`` reads and writes a plain tuple.
    build: Optional[type] = None


_U64_MAX = (1 << 64) - 1
_MAX_VARINT_BYTES = 10  # ceil(64 / 7)


def _get_varint(buf: bytes, offset: int, end: int) -> Tuple[int, int]:
    """Read an unsigned LEB128 varint of at most 10 bytes / 64 bits from
    ``buf[offset:end]``.

    The compiled decoders read a one-byte varint inline and every longer one
    through here. The bound matters because the bytes are a peer's: an
    unbounded continuation run makes each step shift a longer bigint, so one
    CRC-valid frame of a few hundred kilobytes of ``0xff`` would pin a handler
    thread (and the GIL) for seconds. The block decoder's ``decode_varint``
    reads only bytes this process wrote and keeps its unbounded fast path.
    """
    result = shift = 0
    for pos in range(offset, min(end, offset + _MAX_VARINT_BYTES)):
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


STR = Kind("str")
BYTES = Kind("bytes")
BOOL = Kind("bool")
VARINT = Kind("varint")
F64 = Kind("f64")


def optional(kind: Kind) -> Kind:
    """A presence flag byte, then ``kind`` when the value is not ``None``."""
    return Kind("optional", (kind,))


def record(*kinds: Kind, build: Optional[type] = None) -> Kind:
    """The ``kinds`` back to back, read as a tuple or as ``build(*parts)``."""
    return Kind("record", kinds, build=build)


def repeated(*kinds: Kind) -> Kind:
    """A varint count, then that many items: a bare value for one kind, a
    :func:`record` tuple for several."""
    return Kind("repeated", (kinds[0] if len(kinds) == 1 else record(*kinds),))


def may_end(kind: Kind) -> Kind:
    """``kind``, except that the payload may legally end before it."""
    return kind._replace(may_end=True)


def _trailing(label: str, block: Kind) -> Kind:
    return block._replace(label=label, may_end=True, trailing=True)


#: The optional trace context at the end of every request: trace_id + parent
#: span_id + sampled flag. A payload that simply ends (the pre-trace wire
#: image, or a tracing-unaware client) decodes as no context; the CRC covers
#: the block when present, and trailing junk after it is still rejected.
TRACE = _trailing("trace", record(STR, STR, BOOL, build=TraceContext))
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


#: A count, then per op: kind byte, key, value and the kind's extra (the
#: operator name for ``merge``, the TTL in simulated seconds for ``put_ttl``).
WIRE_OPS = repeated(Kind("wire_op"))


# -- the compiler -------------------------------------------------------------
#
# Each message's field list becomes two straight-line functions, generated as
# source once per class at import (the way ``dataclasses`` builds
# ``__init__``): ``frame(message)`` writes the message as a whole frame,
# header to CRC, and ``decode(buf, pos, end)`` reads one from
# ``buf[pos:end]`` in place, where ``buf`` is the bytes or bytearray the frame
# arrived in. Every read is bounded by ``end``; a one-byte varint is read
# inline.


class _Codec(NamedTuple):
    #: ``frame(message)``: the message as one complete frame, header to CRC.
    frame: Callable[["Message"], bytes]
    #: ``decode(buf, pos, end)``: the message whose payload is ``buf[pos:end]``.
    decode: Callable[[bytes, int, int], "Message"]
    #: ``build(*fields)``: the message from its field values in payload
    #: order, defaults as declared — the dataclass ``__init__``'s result.
    build: Callable[..., "Message"]


class _Source:
    """Generated lines under construction: fresh local names, and the
    constants the code refers to."""

    def __init__(self) -> None:
        self.lines: List[str] = []
        self.env: Dict[str, Any] = {
            "ProtocolError": ProtocolError,
            "_get_varint": _get_varint,
            "_unpack_f64": _F64.unpack_from,
            "_pack_f64": _F64.pack,
            "_pack_u32_into": _U32.pack_into,
            "_pack_u32": _U32.pack,
            "_crc32": zlib.crc32,
            "_WIRE_OP_KINDS": _WIRE_OP_KINDS,
            "_new": object.__new__,
        }
        self._names = itertools.count()

    def fresh(self, stem: str) -> str:
        return f"{stem}{next(self._names)}"

    def const(self, value: Any) -> str:
        name = self.fresh("_const")
        self.env[name] = value
        return name

    def add(self, depth: int, *lines: str) -> None:
        self.lines.extend("    " * depth + line for line in lines)


def _record_parts(kind: Kind) -> Tuple[str, ...]:
    names = tuple(f.name for f in dataclasses.fields(kind.build))
    if len(names) != len(kind.inner):  # pragma: no cover - module definition bug
        raise TypeError(f"{kind.build.__name__} has {len(names)} fields, its record {len(kind.inner)}")
    return names


# Decoders: each emits code that reads one value into ``target`` and
# advances ``pos``, or raises ProtocolError.


def _read_varint(src: _Source, target: str, depth: int) -> None:
    src.add(
        depth,
        "if pos >= end:",
        "    raise ProtocolError('truncated varint')",
        f"{target} = buf[pos]",
        f"if {target} < 0x80:",
        "    pos += 1",
        "else:",
        f"    {target}, pos = _get_varint(buf, pos, end)",
    )


def _read_span(src: _Source, depth: int) -> str:
    """A length prefix; returns the name holding the field's end offset."""
    size, stop = src.fresh("size"), src.fresh("stop")
    _read_varint(src, size, depth)
    src.add(
        depth,
        f"{stop} = pos + {size}",
        f"if {stop} > end:",
        "    raise ProtocolError('truncated length-prefixed field')",
    )
    return stop


def _read_bytes(src: _Source, target: str, depth: int) -> None:
    stop = _read_span(src, depth)
    src.add(depth, f"{target} = bytes(buf[pos:{stop}])", f"pos = {stop}")


def _read_str(src: _Source, target: str, depth: int) -> None:
    stop = _read_span(src, depth)
    src.add(
        depth,
        "try:",
        f"    {target} = buf[pos:{stop}].decode()",
        "except UnicodeDecodeError as exc:",
        "    raise ProtocolError(f'invalid utf-8 in string field: {exc}') from None",
        f"pos = {stop}",
    )


def _read_bool(src: _Source, target: str, depth: int) -> None:
    src.add(
        depth,
        "if pos >= end:",
        "    raise ProtocolError('truncated boolean field')",
        f"{target} = buf[pos]",
        f"if {target} > 1:",
        f"    raise ProtocolError(f'boolean field holds {{{target}}}, expected 0 or 1')",
        "pos += 1",
        f"{target} = {target} == 1",
    )


def _read_f64(src: _Source, target: str, depth: int) -> None:
    src.add(
        depth,
        f"if pos + {_F64.size} > end:",
        "    raise ProtocolError('truncated f64 field')",
        f"{target} = _unpack_f64(buf, pos)[0]",
        f"pos += {_F64.size}",
    )


def _read_wire_op(src: _Source, target: str, depth: int) -> None:
    code, key, value, extra = (src.fresh(stem) for stem in ("code", "key", "value", "extra"))
    src.add(
        depth,
        "if pos >= end:",
        "    raise ProtocolError('truncated batch op')",
        f"{code} = buf[pos]",
        f"if {code} >= {len(_WIRE_OP_KINDS)}:",
        f"    raise ProtocolError(f'unknown batch op kind {{{code}}}')",
        "pos += 1",
    )
    _read_bytes(src, key, depth)
    _read_bytes(src, value, depth)
    branch = "if"
    for name, extra_kind in _WIRE_OP_EXTRA.items():
        src.add(depth, f"{branch} {code} == {_WIRE_OP_KINDS.index(name)}:")
        _read(src, extra_kind, extra, depth + 1)
        branch = "elif"
    src.add(
        depth,
        "else:",
        f"    {extra} = None",
        f"{target} = (_WIRE_OP_KINDS[{code}], {key}, {value}, {extra})",
    )


_READERS = {
    "str": _read_str, "bytes": _read_bytes, "bool": _read_bool,
    "varint": _read_varint, "f64": _read_f64, "wire_op": _read_wire_op,
}


def _read(src: _Source, kind: Kind, target: str, depth: int) -> None:
    leaf = _READERS.get(kind.label)
    if leaf is not None:
        leaf(src, target, depth)
    elif kind.label == "optional":
        present = src.fresh("present")
        _read_bool(src, present, depth)
        src.add(depth, f"if {present}:")
        _read(src, kind.inner[0], target, depth + 1)
        src.add(depth, "else:", f"    {target} = None")
    elif kind.label == "repeated":
        count, items, item = src.fresh("count"), src.fresh("items"), src.fresh("item")
        _read_varint(src, count, depth)
        src.add(depth, f"{items} = []", f"for _ in range({count}):")
        _read(src, kind.inner[0], item, depth + 1)
        src.add(depth + 1, f"{items}.append({item})")
        src.add(depth, f"{target} = tuple({items})")
    elif kind.inner:  # a record, trailing blocks included
        parts = [src.fresh("part") for _ in kind.inner]
        for part, part_kind in zip(parts, kind.inner):
            _read(src, part_kind, part, depth)
        if kind.build is None:
            src.add(depth, f"{target} = ({', '.join(parts)},)")
        else:
            src.add(depth, f"{target} = {src.const(kind.build)}({', '.join(parts)})")
    else:  # pragma: no cover - module definition bug
        raise TypeError(f"no codec for wire kind {kind.label!r}")


# Encoders: each emits code that appends the value named ``value`` to ``out``.


def _write_varint(src: _Source, value: str, depth: int) -> None:
    """LEB128, seven bits a byte; consumes ``value`` (a negative one fails
    in ``append``)."""
    src.add(
        depth,
        f"while {value} >= 0x80:",
        f"    out.append({value} & 0x7F | 0x80)",
        f"    {value} >>= 7",
        f"out.append({value})",
    )


def _write_bytes(src: _Source, value: str, depth: int) -> None:
    size = src.fresh("size")
    src.add(depth, f"{size} = len({value})")
    _write_varint(src, size, depth)
    src.add(depth, f"out += {value}")


def _write_str(src: _Source, value: str, depth: int) -> None:
    raw = src.fresh("raw")
    src.add(depth, f"{raw} = {value}.encode()")
    _write_bytes(src, raw, depth)


def _write_bool(src: _Source, value: str, depth: int) -> None:
    src.add(depth, f"out.append(1 if {value} else 0)")


def _write_f64(src: _Source, value: str, depth: int) -> None:
    src.add(depth, f"out += _pack_f64({value})")


def _write_wire_op(src: _Source, value: str, depth: int) -> None:
    name, key, data, extra = (src.fresh(stem) for stem in ("name", "key", "data", "extra"))
    src.add(
        depth,
        f"{name}, {key}, {data}, {extra} = {value}",
        f"out.append(_WIRE_OP_KINDS.index({name}))",
    )
    _write_bytes(src, key, depth)
    _write_bytes(src, data, depth)
    branch = "if"
    for op_name, extra_kind in _WIRE_OP_EXTRA.items():
        src.add(depth, f"{branch} {name} == {op_name!r}:")
        _write(src, extra_kind, extra, depth + 1)
        branch = "elif"


_WRITERS = {
    "str": _write_str, "bytes": _write_bytes, "bool": _write_bool,
    "varint": _write_varint, "f64": _write_f64, "wire_op": _write_wire_op,
}


def _write(src: _Source, kind: Kind, value: str, depth: int) -> None:
    leaf = _WRITERS.get(kind.label)
    if leaf is not None:
        leaf(src, value, depth)
    elif kind.label == "optional":
        src.add(depth, f"if {value} is None:", "    out.append(0)", "else:", "    out.append(1)")
        _write(src, kind.inner[0], value, depth + 1)
    elif kind.label == "repeated":
        count, item = src.fresh("count"), src.fresh("item")
        src.add(depth, f"{count} = len({value})")
        _write_varint(src, count, depth)
        src.add(depth, f"for {item} in {value}:")
        _write(src, kind.inner[0], item, depth + 1)
    elif kind.inner:  # a record, trailing blocks included
        parts = [src.fresh("part") for _ in kind.inner]
        if kind.build is None:
            src.add(depth, f"{', '.join(parts)}, = {value}")
        else:
            for part, attr in zip(parts, _record_parts(kind)):
                src.add(depth, f"{part} = {value}.{attr}")
        for part, part_kind in zip(parts, kind.inner):
            _write(src, part_kind, part, depth)
    else:  # pragma: no cover - module definition bug
        raise TypeError(f"no codec for wire kind {kind.label!r}")


def _compile(cls: Type["Message"]) -> _Codec:
    """Generate ``cls``'s encoder, decoder and builder from its field spec.

    The decoder and the builder make the instance as the frozen dataclass
    ``__init__`` would — every field set, then ``__post_init__`` — but write
    the fields into ``__dict__`` directly instead of through one
    ``object.__setattr__`` call each.
    """
    src = _Source()
    fields = dataclasses.fields(cls)
    # The frame: the header with a zero length, the payload, the length (the
    # header's last field) filled in, then the CRC. ``elided`` counts absent
    # trailing blocks not yet written (Kind.trailing).
    head = src.const(_HEADER.pack(MAGIC, VERSION, cls.TYPE, 0))
    src.add(0, "def frame(message):", f"    out = bytearray({head})", "    elided = 0")
    for f in fields:
        kind = f.metadata["kind"]
        value = src.fresh("value")
        src.add(1, f"{value} = message.{f.name}")
        if not kind.trailing:
            _write(src, kind, value, 1)
            continue
        src.add(
            1,
            f"if {value} is None:",
            "    elided += 1",
            "else:",
            "    if elided:",
            "        out += bytes(elided)",
            "        elided = 0",
            "    out.append(1)",
        )
        _write(src, kind, value, 2)
    src.add(
        1,
        f"_pack_u32_into(out, {HEADER_SIZE - _U32.size}, len(out) - {HEADER_SIZE})",
        "out += _pack_u32(_crc32(out))",
        "return bytes(out)",
    )

    src.add(0, "def decode(buf, pos, end):")
    for f in fields:
        kind, target, depth = f.metadata["kind"], f"field_{f.name}", 1
        if kind.may_end:
            default = src.const(f.default)
            src.add(1, "if pos == end:", f"    {target} = {default}", "else:")
            depth = 2
        if kind.trailing:
            present = src.fresh("present")
            _read_bool(src, present, depth)
            src.add(depth, f"if {present}:")
            _read(src, kind, target, depth + 1)
            src.add(depth, "else:", f"    {target} = {default}")
        else:
            _read(src, kind, target, depth)
    src.add(
        1,
        "if pos != end:",
        "    raise ProtocolError(f'{end - pos} trailing byte(s) after payload decode')",
    )
    # The instance, from the ``field_<name>`` locals (shared by decode and build).
    instance = [
        f"message = _new({src.const(cls)})",
        "state = message.__dict__",
        *(f"state[{f.name!r}] = field_{f.name}" for f in fields),
    ]
    if hasattr(cls, "__post_init__"):
        instance.append("message.__post_init__()")
    instance.append("return message")
    src.add(1, *instance)

    params = ", ".join(
        f"field_{f.name}" if f.default is dataclasses.MISSING
        else f"field_{f.name}={src.const(f.default)}"
        for f in fields
    )
    src.add(0, f"def build({params}):")
    src.add(1, *instance)

    source = "\n".join(src.lines) + "\n"
    exec(compile(source, f"<wire codec {cls.__name__}>", "exec"), src.env)
    return _Codec(src.env["frame"], src.env["decode"], src.env["build"])


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
    cls._CODEC = _compile(cls)
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
    carries the ``IDEM`` block. ``_CODEC`` holds the compiled encoder,
    decoder and builder; the server and client build their hot request and
    reply types through ``_CODEC.build``, a cheaper ``__init__``.
    """

    TYPE = -1
    OP: Optional[str] = None
    WIRE: Dict[str, Kind] = {}
    MUTATING = False
    _CODEC: _Codec

    def encode_payload(self) -> bytes:
        return self._CODEC.frame(self)[HEADER_SIZE:-TRAILER_SIZE]

    @classmethod
    def decode_payload(cls, buf: bytes) -> "Message":
        return cls._CODEC.decode(buf, 0, len(buf))


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
    return message._CODEC.frame(message)


def try_decode_frame(
    buf: bytes, offset: int = 0, max_payload: int = DEFAULT_MAX_PAYLOAD
) -> Optional[Tuple[Message, int]]:
    """Decode one frame at ``offset`` of ``buf`` (bytes or bytearray) if fully
    buffered. The payload is decoded in place, without a copy.

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
    (expected_crc,) = _U32.unpack_from(buf, body_end)
    # A slice is cheaper than a memoryview for the few hundred bytes of a
    # typical frame, and leaves no export pinning a bytearray buffer.
    actual_crc = zlib.crc32(buf[offset:body_end])
    if actual_crc != expected_crc:
        raise ProtocolError(
            f"frame CRC mismatch (stored 0x{expected_crc:08x}, "
            f"computed 0x{actual_crc:08x})"
        )
    cls = _MESSAGE_TYPES.get(msg_type)
    if cls is None:
        raise ProtocolError(f"unknown message type 0x{msg_type:02x}")
    try:
        message = cls._CODEC.decode(buf, offset + HEADER_SIZE, body_end)
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
    also queues them for :meth:`next_message`). Whole frames are decoded
    straight from the chunk they arrived in; only a partial frame at its end
    is buffered, to be completed by the next chunks. A :class:`ProtocolError`
    raised by :meth:`feed` poisons the stream: the offending bytes stay
    buffered, so every later feed raises again (resynchronizing inside a
    corrupt byte stream is not safe for a length-prefixed format).
    """

    max_payload: int = DEFAULT_MAX_PAYLOAD
    _buffer: bytearray = field(default_factory=bytearray)
    _ready: "deque" = field(default_factory=deque)

    def feed(self, data: bytes) -> List[Message]:
        buffer = self._buffer
        if buffer:
            buffer += data
            data = buffer
        messages: List[Message] = []
        offset, size = 0, len(data)
        try:
            while offset < size:
                decoded = try_decode_frame(data, offset, self.max_payload)
                if decoded is None:
                    break
                message, offset = decoded
                messages.append(message)
        finally:
            # Keep what is left from the first undecoded byte: a partial
            # frame, or (when raising) the frame that poisoned the stream.
            if data is buffer:
                del buffer[:offset]
            elif offset < size:
                buffer += memoryview(data)[offset:]
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

#: What a send or recv that ran out of time raises: ``socket.timeout`` under a
#: Python-level timeout, ``BlockingIOError`` (``EAGAIN``) under a kernel one.
TIMED_OUT = (socket.timeout, BlockingIOError)

_TIMEVAL = struct.Struct("@ll")


def set_kernel_timeout(sock, seconds: float) -> None:
    """Make ``seconds`` the per-call limit of every send and recv on ``sock``.

    The socket runs in blocking mode with the limit in the kernel
    (``SO_RCVTIMEO`` / ``SO_SNDTIMEO``), so each send or recv is one system
    call; a Python-level timeout polls before every call. A call that runs
    out of time raises ``BlockingIOError`` (see :data:`TIMED_OUT`). The
    option value is a ``struct timeval``, as on Linux and macOS.
    """
    # A zero timeval means "no limit": the shortest limit is 1 us.
    timeval = _TIMEVAL.pack(*divmod(max(1, round(seconds * 1e6)), 1_000_000))
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVTIMEO, timeval)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDTIMEO, timeval)
    sock.settimeout(None)


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
    ready = decoder._ready
    while not ready:
        chunk = sock.recv(recv_bytes)
        if not chunk:
            if decoder.pending_bytes:
                raise ProtocolError("connection closed mid-frame")
            return None
        decoder.feed(chunk)
    return ready.popleft()
