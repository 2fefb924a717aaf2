"""Merge operators: RocksDB-style read-modify-write without the read.

A merge writes an *operand* instead of a full value; the engine folds
operands over the key's older versions lazily — at read time, when a newer
operand lands on a memtable-resident base, and during compaction. The fold
is defined by a :class:`MergeOperator`:

* ``apply(base, operand)`` is the **full merge** step: combine one operand
  with the current value (``None`` when the key is absent, deleted, or
  expired) into a new full value.
* ``combine(older, newer)`` is the **partial merge**: collapse two operands
  into one equivalent operand. It must be *associative* so that folding a
  chain serially, in parallel subcompaction ranges, or incrementally in the
  memtable all produce bit-identical results — the property the hypothesis
  suite checks.

A key's merge history must use a single operator; mixing operators raises
:class:`~repro.errors.MergeError`.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro.common.encoding import decode_varint, encode_varint
from repro.common.entry import decode_merge_value
from repro.errors import MergeError


class MergeOperator:
    """Interface for user-defined merge operators.

    Subclasses set :attr:`name` (the identifier stored inside every operand
    entry) and implement :meth:`apply`; :meth:`combine` has a correct but
    slow default that keeps operands concatenated until a base is known.
    """

    #: Stable identifier written into each operand entry on disk.
    name: str = ""

    def apply(self, base: Optional[bytes], operand: bytes) -> bytes:
        """Fold one operand over the current value (None = key absent)."""
        raise NotImplementedError

    def combine(self, older: bytes, newer: bytes) -> bytes:
        """Collapse two adjacent operands into one equivalent operand.

        Must be associative. Override when a cheap closed form exists
        (counters add, sets union); the default packs both operands into a
        length-prefixed list so no information is lost.
        """
        return _pack_operands(_unpack_operands(older) + _unpack_operands(newer))

    def fold(self, base: Optional[bytes], operands: Iterable[bytes]) -> bytes:
        """Apply operands oldest-to-newest over ``base`` via :meth:`apply`."""
        result = base
        for operand in operands:
            for part in _unpack_operands_maybe(operand):
                result = self.apply(result, part)
        if result is None:
            raise MergeError(f"operator {self.name!r} folded no operands")
        return result


_PACK_MAGIC = b"\x00ops"


def _pack_operands(parts: List[bytes]) -> bytes:
    out = bytearray(_PACK_MAGIC)
    for part in parts:
        out.extend(encode_varint(len(part)))
        out.extend(part)
    return bytes(out)


def _unpack_operands(blob: bytes) -> List[bytes]:
    if not blob.startswith(_PACK_MAGIC):
        return [blob]
    parts: List[bytes] = []
    pos = len(_PACK_MAGIC)
    while pos < len(blob):
        length, pos = decode_varint(blob, pos)
        parts.append(blob[pos : pos + length])
        pos += length
    return parts


def _unpack_operands_maybe(operand: bytes) -> List[bytes]:
    # Operands produced by the default combine() are packed lists; apply()
    # only ever sees the original user-supplied operands.
    return _unpack_operands(operand) if operand.startswith(_PACK_MAGIC) else [operand]


class Counter(MergeOperator):
    """A signed 64-bit-style counter: operands and values are ASCII ints."""

    name = "counter"

    def apply(self, base: Optional[bytes], operand: bytes) -> bytes:
        current = int(base) if base else 0
        return b"%d" % (current + int(operand))

    def combine(self, older: bytes, newer: bytes) -> bytes:
        return b"%d" % (int(older) + int(newer))


class AppendSet(MergeOperator):
    """A sorted set of byte strings; each operand adds comma-separated members.

    The stored value is the sorted, comma-joined member list, so folds are
    order-insensitive and ``combine`` (set union of the operands) is
    associative by construction. Members must not contain commas.
    """

    name = "append_set"

    @staticmethod
    def _members(blob: Optional[bytes]) -> "set[bytes]":
        if not blob:
            return set()
        return {part for part in blob.split(b",") if part}

    def apply(self, base: Optional[bytes], operand: bytes) -> bytes:
        return b",".join(sorted(self._members(base) | self._members(operand)))

    def combine(self, older: bytes, newer: bytes) -> bytes:
        return b",".join(sorted(self._members(older) | self._members(newer)))


#: Operators every tree knows without registration.
BUILTIN_OPERATORS = (Counter(), AppendSet())


class MergeOperatorRegistry:
    """Name → operator lookup owned by one tree (builtins pre-registered)."""

    def __init__(self, extra: Optional[Iterable[MergeOperator]] = None) -> None:
        self._operators: Dict[str, MergeOperator] = {
            op.name: op for op in BUILTIN_OPERATORS
        }
        for op in extra or ():
            self.register(op)

    def register(self, operator: MergeOperator) -> None:
        if not operator.name:
            raise MergeError("merge operator needs a non-empty name")
        self._operators[operator.name] = operator

    def get(self, name: str) -> MergeOperator:
        try:
            return self._operators[name]
        except KeyError:
            raise MergeError(f"no merge operator registered as {name!r}") from None

    def operator_for(self, operands) -> "tuple[MergeOperator, List[bytes]]":
        """Decode a key's operand entries (newest-first) for folding.

        Returns the chain's operator and the raw operands in the same order.

        Raises:
            MergeError: the chain mixes operators, or names an unknown one.
        """
        names: List[str] = []
        parts: List[bytes] = []
        for entry in operands:
            name, operand = decode_merge_value(entry.value)
            names.append(name)
            parts.append(operand)
        if any(name != names[0] for name in names):
            raise MergeError(
                f"key {operands[0].key!r} mixes merge operators {sorted(set(names))!r}"
            )
        return self.get(names[0]), parts

    def __contains__(self, name: str) -> bool:
        return name in self._operators
