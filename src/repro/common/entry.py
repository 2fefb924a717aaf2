"""The versioned key-value record that flows through the engine.

An :class:`Entry` couples a user key with a monotonically increasing sequence
number and a kind (PUT or DELETE). LSM-trees ingest out-of-place, so an update
is simply a new PUT with a larger sequence number and a delete is a tombstone
(DELETE) entry; reconciliation happens at read time and during compaction.

Entries are the single hottest allocation in the engine — every memtable
record, block parse, merge step, and WAL frame creates them — so both
:class:`Entry` and :class:`GetResult` are hand-rolled ``__slots__`` classes
rather than dataclasses: no per-instance ``__dict__``, cheaper attribute
access, and ~60% less memory per record (a frozen dataclass cannot carry
``__slots__`` together with field defaults on every supported Python).
"""

from __future__ import annotations

import enum
import struct
from typing import Optional, Tuple

from repro.common.encoding import get_length_prefixed, put_length_prefixed


class EntryKind(enum.IntEnum):
    """Record type tag. Values are part of the on-"disk" block format."""

    PUT = 0
    DELETE = 1
    #: A merge operand (RocksDB's Merge): the value holds an operator name
    #: and an operand blob (see :func:`encode_merge_value`), resolved lazily
    #: against the key's older versions at read time and during compaction.
    MERGE = 2
    #: A PUT whose value is prefixed with an absolute expiry deadline on the
    #: simulated clock (see :func:`encode_ttl_value`); once the clock reaches
    #: the deadline the entry reads as deleted and compaction reclaims it.
    PUT_TTL = 3


# The kinds as module constants, the only spelling function bodies on the hot
# paths use: on Python 3.11 ``EntryKind.X`` costs ~160 ns a read (the enum
# metaclass defines ``__getattr__``, which keeps the interpreter from
# specialising the attribute load), a module global ~3 ns. They are the
# members themselves, so ``kind is DELETE`` and ``kind is EntryKind.DELETE``
# agree. CI's enum-read gate keeps ``EntryKind.<member>`` out of the hot
# modules' function bodies.
PUT = EntryKind.PUT
DELETE = EntryKind.DELETE
MERGE = EntryKind.MERGE
PUT_TTL = EntryKind.PUT_TTL
#: Each kind by its value: ``KINDS[byte]`` is the member a stored kind byte
#: names (block columns keep kinds as bytes).
KINDS = tuple(EntryKind)

_TTL_DEADLINE = struct.Struct(">d")
TTL_DEADLINE_SIZE = _TTL_DEADLINE.size  # bytes a PUT_TTL value adds


def encode_merge_value(operator: str, operand: bytes) -> bytes:
    """Pack a merge entry's value: length-prefixed operator name + operand."""
    body = bytearray()
    put_length_prefixed(body, operator.encode("utf-8"))
    body.extend(operand)
    return bytes(body)


def decode_merge_value(value: bytes) -> Tuple[str, bytes]:
    """Inverse of :func:`encode_merge_value` → ``(operator, operand)``."""
    name, pos = get_length_prefixed(value, 0)
    return name.decode("utf-8"), value[pos:]


def encode_ttl_value(deadline: float, payload: bytes) -> bytes:
    """Pack a PUT_TTL entry's value: 8-byte deadline prefix + stored payload."""
    return _TTL_DEADLINE.pack(deadline) + payload


def decode_ttl_value(value: bytes) -> Tuple[float, bytes]:
    """Inverse of :func:`encode_ttl_value` → ``(deadline, payload)``."""
    return _TTL_DEADLINE.unpack_from(value)[0], value[_TTL_DEADLINE.size:]


class Entry:
    """One versioned record (immutable).

    Attributes:
        key: user key bytes (compared lexicographically).
        seqno: global sequence number; larger means more recent.
        kind: PUT or DELETE (tombstone).
        value: payload for PUT entries; ``b""`` for tombstones.
    """

    __slots__ = ("key", "seqno", "kind", "value")

    def __init__(
        self,
        key: bytes,
        seqno: int,
        kind: EntryKind = PUT,
        value: bytes = b"",
    ) -> None:
        if seqno < 0:
            raise ValueError("seqno must be non-negative")
        if kind is DELETE and value:
            raise ValueError("tombstones carry no value")
        # The slots' own setters (bound below the class): half the cost of
        # four ``object.__setattr__`` calls, and they bypass the blocking
        # ``__setattr__`` just the same.
        _set_key(self, key)
        _set_seqno(self, seqno)
        _set_kind(self, kind)
        _set_value(self, value)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"Entry is immutable; cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"Entry is immutable; cannot delete {name!r}")

    def __repr__(self) -> str:
        return (
            f"Entry(key={self.key!r}, seqno={self.seqno!r}, "
            f"kind={self.kind!r}, value={self.value!r})"
        )

    def __eq__(self, other) -> bool:
        if other.__class__ is not Entry:
            return NotImplemented
        return (
            self.key == other.key
            and self.seqno == other.seqno
            and self.kind == other.kind
            and self.value == other.value
        )

    def __hash__(self) -> int:
        return hash((self.key, self.seqno, self.kind, self.value))

    @property
    def is_tombstone(self) -> bool:
        """True when the entry logically deletes its key."""
        return self.kind is DELETE

    @property
    def is_merge(self) -> bool:
        """True when the entry is a merge operand (not a full value)."""
        return self.kind is MERGE

    def expired(self, now: float) -> bool:
        """True when this PUT_TTL entry's deadline has passed (``now`` may
        equal the deadline: a key is invisible at exactly its deadline)."""
        if self.kind is not PUT_TTL:
            return False
        return now >= _TTL_DEADLINE.unpack_from(self.value)[0]

    def shadows(self, other: "Entry") -> bool:
        """True when this entry supersedes ``other`` for the same key."""
        return self.key == other.key and self.seqno >= other.seqno

    def sort_key(self) -> "tuple[bytes, int]":
        """Total order used inside runs: by key, then *newest first*.

        Within one sorted run each key appears once, but merge iterators order
        same-key entries from different runs so the freshest wins.
        """
        return (self.key, -self.seqno)

    @property
    def approximate_size(self) -> int:
        """Bytes this entry occupies in a buffer (key + value + header)."""
        return len(self.key) + len(self.value) + 16


_set_key = Entry.key.__set__
_set_seqno = Entry.seqno.__set__
_set_kind = Entry.kind.__set__
_set_value = Entry.value.__set__


def split_chain(versions) -> "Tuple[Optional[Entry], list]":
    """Split one key's versions (newest first) at its first non-merge version.

    Returns ``(base, operands)``: the version that terminates the merge
    chain (None when the versions run out first) and the MERGE operands
    above it, newest first. Anything older than the base is shadowed.
    """
    operands = []
    for entry in versions:
        if entry.kind is MERGE:
            operands.append(entry)
        else:
            return entry, operands
    return None, operands


def live_value(entry: Optional[Entry], now: float, values=None) -> Optional[bytes]:
    """The user value a base version carries at simulated time ``now``.

    None when it carries none: no version at all, a tombstone, or a TTL
    deadline at or before ``now``. ``values`` (a
    :class:`~repro.storage.value_log.ValueCodec`) decodes the stored form of
    a tree with key-value separation.
    """
    if entry is None or entry.kind is DELETE:
        return None
    stored = entry.value
    if entry.kind is PUT_TTL:
        deadline, stored = decode_ttl_value(stored)
        if now >= deadline:
            return None
    return stored if values is None else values.decode(stored)


class GetResult:
    """Outcome of a point lookup, with the provenance used by experiments.

    Attributes:
        value: the found value, or None when the key is absent/deleted.
        found: whether a live value was found.
        runs_probed: sorted runs whose filter/fence pointers were consulted.
        blocks_read: data blocks fetched from storage (cache misses included).
        filter_negatives: probes skipped thanks to a negative filter answer.
        false_positives: filter said maybe but the run did not hold the key.
        source_level: level that served the hit (None for misses/memtable).
        seqno: sequence number of the newest raw version observed for the
            key (0 when no version exists at all). Set even for tombstoned
            or expired keys — optimistic transactions record it as the
            read-set fingerprint validated at commit.
    """

    __slots__ = (
        "value", "found", "runs_probed", "blocks_read",
        "filter_negatives", "false_positives", "source_level", "seqno",
    )

    def __init__(
        self,
        value: Optional[bytes] = None,
        found: bool = False,
        runs_probed: int = 0,
        blocks_read: int = 0,
        filter_negatives: int = 0,
        false_positives: int = 0,
        source_level: Optional[int] = None,
        seqno: int = 0,
    ) -> None:
        self.value = value
        self.found = found
        self.runs_probed = runs_probed
        self.blocks_read = blocks_read
        self.filter_negatives = filter_negatives
        self.false_positives = false_positives
        self.source_level = source_level
        self.seqno = seqno

    def __repr__(self) -> str:
        return (
            f"GetResult(value={self.value!r}, found={self.found!r}, "
            f"runs_probed={self.runs_probed!r}, blocks_read={self.blocks_read!r}, "
            f"filter_negatives={self.filter_negatives!r}, "
            f"false_positives={self.false_positives!r}, "
            f"source_level={self.source_level!r}, seqno={self.seqno!r})"
        )

    def __eq__(self, other) -> bool:
        if other.__class__ is not GetResult:
            return NotImplemented
        return all(
            getattr(self, name) == getattr(other, name) for name in GetResult.__slots__
        )
