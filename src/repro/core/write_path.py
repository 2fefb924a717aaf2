"""Write staging: one write op → its WAL record and its memtable entry.

Every write is checked by :func:`validate` *before* :func:`build` returns
either — so a rejected write is never logged and never applied, whatever its
route. WAL replay runs both as :func:`stage`; ``put`` / ``merge`` /
``delete`` check their op first, and ``write_batch`` / ``ingest_external``
check every op of the group before building any. Durability policy stays
with the caller (single op: ``append`` under the sync interval; batch: one
frame + sync; replay: re-log the record).
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
from repro.storage.block import WIDEST_SEQNO, entry_fits


def validate(
    kind: str, key: bytes, value, meta, operators, block_size: int, seqno: int, values=None
) -> None:
    """Raise what staging this write at ``seqno`` would raise, without
    staging it: no seqno is taken and nothing reaches the value log. A single
    op and a replayed record are checked at their own seqno; a group commit
    checks every member at the largest seqno the group can reach, so one
    rejected op fails only its own submitter.

    Every kind is checked as the one-entry block its memtable entry makes
    (:func:`~repro.storage.block.entry_fits`): a put by its stored value, a
    TTL put with its deadline, a merge by its encoded operand, a delete by
    its key. A log-bound value is checked at the widest pointer the value
    log can issue and at the widest seqno: value-log GC re-logs it under a
    later seqno, and replay checks that record again.

    Raises:
        MergeError: unknown merge operator.
        ReproError: a TTL that is NaN or infinite.
        ConfigError: the stored entry cannot fit one data block.
        ValueError: unknown ``kind``.
    """
    if kind == "put" or kind == "put_ttl":
        stored = len(value)
        if values is not None:
            if values.logs(value):
                stored, seqno = values.WIDEST_POINTER, WIDEST_SEQNO
            else:
                stored += len(values.INLINE)
        if kind == "put_ttl":
            if not math.isfinite(float(meta)):
                # NaN never compares expired and inf never arrives: either
                # would make the key immortal, and the wire hands us the
                # peer's raw f64.
                raise ReproError(f"ttl must be a finite number of seconds, got {meta!r}")
            stored += TTL_DEADLINE_SIZE
    elif kind == "delete":
        stored = 0
    elif kind == "merge":
        operators.get(str(meta))
        stored = len(encode_merge_value(str(meta), value))
    else:
        raise ValueError(f"unknown write kind {kind!r}")
    if not entry_fits(len(key), stored, seqno, block_size):
        raise ConfigError(_oversized(kind, key, value, block_size, values))


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
    """Validate one write (:func:`validate`) and :func:`build` it.

    Raises:
        what :func:`validate` raises.
    """
    validate(kind, key, value, meta, operators, block_size, seqno, values)
    return build(kind, key, value, meta, seqno, now, values)


def build(
    kind: str, key: bytes, value: Optional[bytes], meta, seqno: int, now: float, values
) -> "Tuple[Entry, Entry]":
    """``(wal_record, memtable_entry)`` of one write that :func:`validate`
    has passed.

    ``kind`` is ``'put'``, ``'put_ttl'`` (``meta``: TTL in simulated seconds
    relative to ``now``), ``'delete'`` or ``'merge'`` (``meta``: operator
    name). ``values`` is the tree's value codec (None without key-value
    separation).

    The WAL record carries the *raw* value (behind the absolute deadline for
    TTL puts) so replay can re-encode against a fresh value log; the
    memtable entry carries the stored form. A MERGE entry is returned as
    logged — :func:`fold_operand` folds it at apply time, when earlier ops
    of the same batch are visible.
    """
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
        entry = _put_entry(key, seqno, values.encode(key, value), deadline)
    return record, entry


def _oversized(kind: str, key: bytes, value, block_size: int, values) -> str:
    """Why an entry cannot fit one ``block_size``-byte data block, and the fix."""
    fit = f"cannot fit one {block_size}-byte data block"
    if kind == "delete":
        return f"key of {len(key)} bytes {fit}; raise block_size or shorten the key"
    if kind == "merge":
        return (
            f"merge of a {len(key)}-byte key and a {len(value)}-byte operand {fit}; "
            f"raise block_size (merge operands are stored inline)"
        )
    if values is None:
        return (
            f"entry of {len(key) + len(value)} bytes {fit}; raise block_size or "
            f"enable kv_separation (the value log spans blocks)"
        )
    if values.logs(value):
        return (
            f"key of {len(key)} bytes is too long to fit one {block_size}-byte data "
            f"block beside its value-log pointer; raise block_size or shorten the key"
        )
    return (
        f"entry of {len(key) + len(value)} bytes {fit} with its value inline; raise "
        f"block_size or lower kv_separation's value_threshold"
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
