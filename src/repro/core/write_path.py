"""Write staging: one write op → its WAL record and its memtable entry.

``put`` / ``merge`` / ``delete``, ``write_batch`` and WAL replay all go
through :func:`stage`, which validates *before* it returns either — so a
rejected write is never logged and never applied, whatever its route.
Durability policy stays with the caller (single op: ``append`` under the
sync interval; batch: one frame + sync; replay: re-log the record).
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

from repro.common.entry import (
    DELETE,
    MERGE,
    PUT_TTL,
    TTL_DEADLINE_SIZE,
    Entry,
    decode_merge_value,
    decode_ttl_value,
    encode_merge_value,
    encode_ttl_value,
    live_value,
)
from repro.errors import ConfigError, MergeError, ReproError
from repro.storage.sstable import ENTRY_OVERHEAD


def validate(kind: str, key: bytes, value, meta, operators, block_size: int, values=None) -> None:
    """Raise what :func:`stage` would raise for this write, without staging
    it: no seqno is taken and nothing reaches the value log. ``stage`` runs
    it first; a group commit runs it on every member, so one rejected op
    fails only its own submitter. The one check it leaves to ``stage`` is a
    value-log pointer's width, known only once the value is appended.

    Raises:
        MergeError: unknown merge operator.
        ReproError: a TTL that is NaN or infinite.
        ConfigError: the stored entry cannot fit one data block.
        ValueError: unknown ``kind``.
    """
    if kind == "delete":
        return
    if kind == "merge":
        operators.get(str(meta))
        return
    if kind not in ("put", "put_ttl"):
        raise ValueError(f"unknown write kind {kind!r}")
    if kind == "put_ttl" and not math.isfinite(float(meta)):
        # NaN never compares expired and inf never arrives: either would make
        # the key immortal, and the wire hands us the peer's raw f64.
        raise ReproError(f"ttl must be a finite number of seconds, got {meta!r}")
    stored = len(value) if values is None else values.inline_size(value)
    if stored is not None:
        _check_fits(kind, key, value, stored, block_size)


def stage(
    kind: str,
    key: bytes,
    value: Optional[bytes],
    meta,
    seqno: int,
    now: float,
    values,
    operators,
    block_size: int,
) -> "Tuple[Entry, Entry]":
    """Validate one write (:func:`validate`) and build ``(wal_record,
    memtable_entry)``.

    ``kind`` is ``'put'``, ``'put_ttl'`` (``meta``: TTL in simulated seconds
    relative to ``now``), ``'delete'`` or ``'merge'`` (``meta``: operator
    name). ``values`` is the tree's value codec (None without key-value
    separation), ``operators`` its merge-operator registry.

    The WAL record carries the *raw* value (behind the absolute deadline for
    TTL puts) so replay can re-encode against a fresh value log; the
    memtable entry carries the stored form. A MERGE entry is returned as
    logged — :func:`fold_operand` folds it at apply time, when earlier ops
    of the same batch are visible.

    Raises:
        what :func:`validate` raises.
    """
    validate(kind, key, value, meta, operators, block_size, values)
    if kind == "delete":
        record = Entry(key=key, seqno=seqno, kind=DELETE)
        return record, record
    if kind == "merge":
        record = Entry(
            key=key, seqno=seqno, kind=MERGE,
            value=encode_merge_value(str(meta), value),
        )
        return record, record
    deadline = now + float(meta) if kind == "put_ttl" else None
    record = entry = _put_entry(key, seqno, value, deadline)
    if values is not None:
        stored = values.encode(key, value)
        if stored[:1] == values.POINTER:  # a log pointer's width
            _check_fits(kind, key, value, len(stored), block_size)
        entry = _put_entry(key, seqno, stored, deadline)
    return record, entry


def _check_fits(kind: str, key: bytes, value: bytes, stored: int, block_size: int) -> None:
    """Raise ConfigError unless a put whose stored value (before a TTL
    deadline) takes ``stored`` bytes fits one ``block_size``-byte data block."""
    if kind == "put_ttl":
        stored += TTL_DEADLINE_SIZE
    if len(key) + stored + ENTRY_OVERHEAD > block_size:
        raise ConfigError(
            f"entry of {len(key) + len(value)} bytes cannot fit one "
            f"{block_size}-byte data block; raise block_size or enable "
            f"kv_separation (the value log spans blocks)"
        )


def _put_entry(key: bytes, seqno: int, payload: bytes, deadline: Optional[float]) -> Entry:
    if deadline is None:
        return Entry(key=key, seqno=seqno, value=payload)
    return Entry(
        key=key, seqno=seqno, kind=PUT_TTL, value=encode_ttl_value(deadline, payload)
    )


def fold_operand(existing: Optional[Entry], operand: Entry, now: float, values, operators) -> Entry:
    """What to buffer for a staged MERGE entry, given the active memtable's
    version of its key (``existing``).

    Folding eagerly keeps every memtable (and hence every flushed run) at one
    entry per key: the operand combines with a resident operand or applies
    onto a resident base. With no resident version it is buffered as-is and
    resolved lazily (read path / compaction fold).

    Raises:
        MergeError: the resident operand chain uses a different operator.
    """
    if existing is None:
        return operand
    name, part = decode_merge_value(operand.value)
    op = operators.get(name)
    if existing.is_merge:
        resident, older = decode_merge_value(existing.value)
        if resident != name:
            raise MergeError(
                f"key {operand.key!r} has pending {resident!r} operands; cannot mix "
                f"with {name!r}"
            )
        return Entry(
            key=operand.key, seqno=operand.seqno, kind=MERGE,
            value=encode_merge_value(name, op.combine(older, part)),
        )
    # A DELETE or expired-TTL base folds from absent. The folded result is a
    # plain PUT: merging onto a TTL'd value clears the TTL.
    result = op.apply(live_value(existing, now, values), part)
    if values is not None:
        result = values.encode(operand.key, result)
    return Entry(key=operand.key, seqno=operand.seqno, value=result)


def op_of(record: Entry) -> "Tuple[str, bytes, Optional[bytes], object]":
    """The op a WAL record replays as; feed it to :func:`stage` with
    ``now=0.0`` (a recorded deadline is a TTL relative to time zero, so the
    absolute deadline survives exactly)."""
    if record.kind is DELETE:
        return "delete", record.key, None, None
    if record.kind is MERGE:
        name, operand = decode_merge_value(record.value)
        return "merge", record.key, operand, name
    if record.kind is PUT_TTL:
        deadline, payload = decode_ttl_value(record.value)
        return "put_ttl", record.key, payload, deadline
    return "put", record.key, record.value, None
