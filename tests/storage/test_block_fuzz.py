"""Fuzz target for the two block decoders: table blocks and log blocks.

Hypothesis draws sorted entry lists, encodes them as a table block (raw or
zlib-framed) or as a log block (always raw), and damages the result:
truncations, bit flips, offset columns permuted or pointed out of range,
entry counts that disagree with the body, kinds 4-255 and tombstones that
carry a value. Every damage but truncation and ``rot`` recomputes the
checksum, so the structural checks behind it are reached; ``rot`` flips a
bit of the stored payload and leaves the checksum as it was.

``parse_block`` may refuse a table block only with ``CorruptionError``.
``parse_log_block`` refuses with ``CorruptionError`` or, for a body that
runs short, ``ValueError``: its truncation contract, which the value log's
jumbo scan extends on. (A flipped length cannot be told from a truncation
before the checksum; the WAL types both as ``CorruptionError``, see
``tests/faults/test_wal_checksum.py``.) Rot is always refused. A block a
decoder returns must then answer ``find``, indexing, slicing and iteration
without raising, and an undamaged payload must give back exactly the entries
it was built from.

CI runs this module under the ``block-fuzz`` profile (``tests/conftest.py``):
derandomized, with a fixed example count.
"""

import zlib

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.common.encoding import encode_varint
from repro.common.entry import Entry, EntryKind
from repro.errors import CorruptionError
from repro.storage.compression import FRAME_MAGIC, get_codec
from repro.storage.sstable import _encode_body, encode_block_v2, parse_block, parse_log_block

_KEYS = st.one_of(
    st.binary(min_size=1, max_size=12),
    st.binary(min_size=60, max_size=140),  # wide length varints / kk cells
)
_VALUES = st.one_of(
    st.just(b""),
    st.binary(max_size=24),
    st.binary(min_size=128, max_size=300),
)
_SEQNOS = st.one_of(st.integers(0, 127), st.integers(128, 1 << 21), st.integers(1 << 35, 1 << 62))
_MUTATIONS = (
    "none", "truncate", "rot", "truncate-body", "flip", "offsets-permuted",
    "offset-out-of-range", "count", "kind", "tombstone-value",
)
LOG, TABLE = "log", "table"


@st.composite
def entry_lists(draw):
    keys = sorted(draw(st.sets(_KEYS, min_size=1, max_size=40)))
    entries = []
    for key in keys:
        kind = draw(st.sampled_from(list(EntryKind)))
        value = b"" if kind is EntryKind.DELETE else draw(_VALUES)
        entries.append(Entry(key, draw(_SEQNOS), kind, value))
    return entries


def body_of(fmt, entries):
    if fmt == LOG:
        return bytes(_encode_body(entries))
    return encode_block_v2(entries)[0][:-4]


def frame(fmt, codec, body):
    """The payload around ``body``, with a checksum that matches it."""
    if codec == "zlib":
        head = bytes((FRAME_MAGIC, get_codec("zlib").codec_id)) + encode_varint(len(body))
        framed = head + zlib.compress(body)
        return framed + zlib.crc32(framed).to_bytes(4, "big")
    crc = zlib.crc32(body).to_bytes(4, "big")
    return crc + body if fmt == LOG else body + crc


def log_kind_at(entries, slot):
    """Where entry ``slot``'s kind byte sits in a log block's body."""
    pos = len(encode_varint(len(entries)))
    for entry in entries[:slot]:
        pos += len(encode_varint(len(entry.key))) + len(entry.key)
        pos += len(encode_varint(entry.seqno)) + 1
        pos += len(encode_varint(len(entry.value))) + len(entry.value)
    entry = entries[slot]
    return pos + len(encode_varint(len(entry.key))) + len(entry.key) + len(encode_varint(entry.seqno))


def v2_columns(body, count):
    """``(offset width, kk width, where the kk column starts)`` of a v2 body."""
    head = body[0]
    offset_width = 4 if head & 0x10 else 2
    kk_width = (1, 2, 4)[head >> 5 & 3]
    return offset_width, kk_width, 1 + count * offset_width


def mutate(fmt, entries, body, what, data):
    """A damaged copy of ``body`` (``truncate`` cuts the framed payload
    instead and never comes here)."""
    body = bytearray(body)
    count = len(entries)
    if what == "truncate-body":
        return body[: data.draw(st.integers(0, len(body) - 1))]
    if what == "flip":
        bit = data.draw(st.integers(0, 8 * len(body) - 1))
        body[bit // 8] ^= 1 << bit % 8
        return body
    if what == "kind" or what == "tombstone-value":
        candidates = range(count) if what == "kind" else [
            i for i, entry in enumerate(entries) if entry.value
        ]
        if not candidates:
            return body
        slot = data.draw(st.sampled_from(list(candidates)))
        if fmt == LOG:
            kind = data.draw(st.integers(4, 255)) if what == "kind" else EntryKind.DELETE
            body[log_kind_at(entries, slot)] = kind
        else:
            # A v2 kind is two bits of its kk cell: "kind 4-255" can only
            # land as another key length, so write a whole random cell.
            _, kk_width, kk_at = v2_columns(body, count)
            cell = kk_at + slot * kk_width
            if what == "kind":
                body[cell] = data.draw(st.integers(0, 255))
            else:
                body[cell] = body[cell] & 0xFC | EntryKind.DELETE
        return body
    if what == "count":
        delta = data.draw(st.sampled_from([-2, -1, 1, 2, 64]))
        if fmt == LOG:
            return bytearray(encode_varint(max(0, count + delta))) + body[len(encode_varint(count)):]
        offset_width, kk_width, _ = v2_columns(body, count)
        stride = offset_width + kk_width + (body[0] & 0x0F)
        start = int.from_bytes(body[1 : 1 + offset_width], "little") + delta * stride
        body[1 : 1 + offset_width] = (start % (1 << 8 * offset_width)).to_bytes(offset_width, "little")
        return body
    if fmt == LOG:  # the offset mutations are v2's; a log block gets a flip
        return mutate(fmt, entries, bytes(body), "flip", data)
    offset_width, _, kk_at = v2_columns(body, count)
    cells = [body[1 + i * offset_width : 1 + (i + 1) * offset_width] for i in range(count)]
    if what == "offsets-permuted":
        order = data.draw(st.permutations(range(count)))
        cells = [cells[i] for i in order]
    else:
        slot = data.draw(st.integers(0, count - 1))
        cells[slot] = data.draw(st.integers(0, (1 << 8 * offset_width) - 1)).to_bytes(
            offset_width, "little"
        )
    body[1:kk_at] = b"".join(cells)
    return body


def exercise(block, entries, keys):
    """Every read a caller may make of an opened block; none may raise."""
    for key in keys:
        block.find(key)  # the first: a raw-slice bisect on a fresh v2 block
        block.find(key)  # later ones: the key list
    size = len(block)
    for slot in range(size):
        block[slot]
    if size:
        block[-1], block[size // 2 :], block[::2]
    assert len(list(block)) == size
    assert len(block.entries) == size
    block.charge_bytes


@given(
    entries=entry_lists(),
    fmt=st.sampled_from([LOG, TABLE]),
    codec=st.sampled_from(["none", "zlib"]),
    what=st.sampled_from(_MUTATIONS),
    hash_index=st.booleans(),
    data=st.data(),
)
@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_a_damaged_block_is_refused_or_reads_without_raising(
    entries, fmt, codec, what, hash_index, data
):
    if fmt == LOG:
        codec = "none"  # log blocks are never framed

        def open_block(payload):
            return parse_log_block(payload)

        refused = (CorruptionError, ValueError)
    else:

        def open_block(payload):
            return parse_block(payload, hash_index)

        refused = (CorruptionError,)
    body = body_of(fmt, entries)
    payload = frame(fmt, codec, body)
    if what == "truncate":
        payload = payload[: data.draw(st.integers(0, len(payload) - 1))]
    elif what == "rot":
        bit = data.draw(st.integers(0, 8 * len(payload) - 1))
        payload = bytearray(payload)
        payload[bit // 8] ^= 1 << bit % 8
        payload = bytes(payload)
    elif what != "none":
        payload = frame(fmt, codec, bytes(mutate(fmt, entries, body, what, data)))
    probes = [entry.key for entry in entries] + [b"", b"\xff" * 13, entries[0].key + b"\x00"]
    try:
        block = open_block(payload)
    except refused:
        assert what != "none"
        return
    assert what not in ("truncate", "rot"), "a damaged stored payload opened"
    exercise(block, entries, probes)
    fresh = open_block(payload)
    fresh[len(fresh) // 3 :]  # a window decoded before any find
    exercise(fresh, entries, probes)
    if what == "none":
        assert list(open_block(payload)) == entries
        block = open_block(payload)
        assert [block.find(entry.key) for entry in entries] == entries
