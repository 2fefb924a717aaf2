"""The column build writes the tables the per-entry rule writes.

Tables are packed from :data:`~repro.storage.block.Columns` pieces: one
running budget and one bisect per block, a file cut by one bisect of the
running entry sizes, each block encoded from its columns. The reference
here is the rule as it reads entry by entry — an entry joins the pending
block while the block's budget stays within the block size, a block that
encodes past it hands its last entries on, a file ends at the entry whose
``approximate_size`` reaches ``file_bytes`` — with every block spelled out
from the v2 layout by a loop per entry. Both must agree on every block's
bytes, the fences, each key's block number, tombstone counts, the byte
counters and the file cuts.
"""

import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.encoding import encode_varint
from repro.common.entry import Entry, EntryKind
from repro.indexes.fence import FencePointers
from repro.storage.block import _FRAME_MAGIC, ENTRY_OVERHEAD, columns_of
from repro.storage.block_device import BlockDevice
from repro.storage.compression import get_codec
from repro.storage.sstable import SSTableBuilder, build_tables

KINDS = (EntryKind.PUT, EntryKind.DELETE, EntryKind.MERGE, EntryKind.PUT_TTL)


def reference_payload(entries, codec):
    """``(payload, uncompressed, stored)`` of a v2 block, one entry at a time."""
    count = len(entries)
    data = b"".join(entry.key + entry.value for entry in entries)
    longest = max(len(entry.key) for entry in entries)
    kk_width = 1 if longest < 64 else 2 if longest < 1 << 14 else 4
    seqno_width = (max(entry.seqno for entry in entries).bit_length() + 7) // 8
    offset_width = 2
    at = 1 + count * (offset_width + kk_width + seqno_width)
    if at + len(data) > 0xFFFF:
        offset_width, at = 4, at + 2 * count
    head = seqno_width | (0x10 if offset_width == 4 else 0) | (kk_width // 2) << 5
    offsets = kk = seqnos = b""
    for entry in entries:
        offsets += at.to_bytes(offset_width, "little")
        kk += (len(entry.key) << 2 | entry.kind).to_bytes(kk_width, "little")
        seqnos += entry.seqno.to_bytes(seqno_width, "little")
        at += len(entry.key) + len(entry.value)
    body = bytes([head]) + offsets + kk + seqnos + data
    raw = len(body) + 4
    if codec is not None:
        frame = bytes([_FRAME_MAGIC, codec.codec_id]) + encode_varint(len(body)) + codec.compress(body)
        if len(frame) + 4 < raw:
            return frame + zlib.crc32(frame).to_bytes(4, "big"), raw, len(frame) + 4
    return body + zlib.crc32(body).to_bytes(4, "big"), raw, raw


class ReferenceTable:
    """One table as the per-entry rule packs it."""

    def __init__(self, block_size, codec):
        self.block_size, self.codec = block_size, codec
        self.pending, self.pending_size = [], 1  # the head byte, budgeted once
        self.blocks, self.keys, self.block_of_key = [], [], []
        self.first_keys, self.last_keys = [], []
        self.tombstones = self.uncompressed = self.stored = self.carries = 0

    def add(self, entry):
        size = len(entry.key) + len(entry.value) + ENTRY_OVERHEAD
        while self.pending and self.pending_size + size > self.block_size:
            self.flush()
        self.pending.append(entry)
        self.pending_size += size

    def flush(self):
        pending, carried = self.pending, []
        payload, uncompressed, stored = reference_payload(pending, self.codec)
        while stored > self.block_size:
            if len(pending) == 1:
                raise ValueError("an entry encodes past the block size")
            carried.append(pending.pop())
            self.carries += 1
            payload, uncompressed, stored = reference_payload(pending, self.codec)
        self.blocks.append(payload)
        self.uncompressed += uncompressed
        self.stored += stored
        self.block_of_key += [len(self.first_keys)] * len(pending)
        self.keys += [entry.key for entry in pending]
        self.first_keys.append(pending[0].key)
        self.last_keys.append(pending[-1].key)
        self.tombstones += sum(entry.kind is EntryKind.DELETE for entry in pending)
        carried.reverse()
        self.pending = carried
        self.pending_size = 1 + sum(len(e.key) + len(e.value) + ENTRY_OVERHEAD for e in carried)

    def finish(self):
        while self.pending:
            self.flush()
        return self


def reference_build(entries, block_size, codec, file_bytes):
    tables, table, written = [], None, 0
    for entry in entries:
        if table is None:
            table, written = ReferenceTable(block_size, codec), 0
        table.add(entry)
        written += entry.approximate_size
        if file_bytes is not None and written >= file_bytes:
            tables.append(table.finish())
            table = None
    if table is not None:
        tables.append(table.finish())
    return tables


def column_build(entries, cuts, block_size, codec, file_bytes, by_entry):
    """Build through the table builder: from column pieces cut at ``cuts``,
    or (``by_entry``) through ``SSTableBuilder.add`` one entry at a time."""
    device = BlockDevice(block_size=block_size)
    block_numbers = {}

    def new_builder():
        def index(keys, block_of_key):
            block_numbers[builder._file_id] = list(block_of_key)
            return FencePointers(keys, block_of_key)

        builder = SSTableBuilder(device, block_size=block_size, codec=codec, index_factory=index)
        return builder

    if by_entry:
        tables, builder, written = [], None, 0
        for entry in entries:
            if builder is None:
                builder, written = new_builder(), 0
            builder.add(entry)
            written += entry.approximate_size
            if file_bytes is not None and written >= file_bytes:
                tables.append(builder.finish())
                builder = None
        if builder is not None:
            tables.append(builder.finish())
    else:
        bounds = [0, *cuts, len(entries)]
        pieces = (
            columns_of([entry.key for entry in entries[lo:hi]], entries[lo:hi])
            for lo, hi in zip(bounds, bounds[1:])
        )
        tables = build_tables(pieces, new_builder, file_bytes)
    return device, tables, block_numbers


@st.composite
def streams(draw):
    """Sorted unique-key entries of every kind, their lengths random or one
    stride, their seqnos narrow or wide enough to force the carry path."""
    count = draw(st.integers(1, 120))
    uniform = draw(st.booleans())
    if uniform:
        klen, vlen = draw(st.integers(4, 90)), draw(st.integers(0, 60))
        key_lengths, value_lengths = [klen] * count, [vlen] * count
    else:
        key_lengths = draw(st.lists(st.integers(4, 90), min_size=count, max_size=count))
        value_lengths = draw(st.lists(st.integers(0, 700), min_size=count, max_size=count))
    keys = [i.to_bytes(4, "big") + b"k" * (klen - 4) for i, klen in enumerate(key_lengths)]
    wide = draw(st.booleans())
    seqno = st.integers(0, (1 << 62) if wide else 1000)
    kinds = st.sampled_from(KINDS) if not uniform or draw(st.booleans()) else st.just(EntryKind.PUT)
    entries = []
    for key, vlen in zip(keys, value_lengths):
        kind = draw(kinds)
        fill = draw(st.sampled_from([b"\x00", b"ab", None]))
        value = b"" if kind is EntryKind.DELETE else (
            (fill * vlen)[:vlen] if fill else draw(st.binary(min_size=vlen, max_size=vlen))
        )
        entries.append(Entry(key, draw(seqno), kind, value))
    return entries


def table_facts(device, table, block_numbers):
    return {
        "blocks": [device.read_block(table.file_id, b) for b in range(table.num_data_blocks)],
        "first_keys": table.fence_keys,
        "last_keys": table._block_last_keys,
        "block_of_key": block_numbers[table.file_id],
        "entries": table.entry_count,
        "tombstones": table.tombstone_count,
        "uncompressed": table.uncompressed_data_bytes,
        "stored": table.compressed_data_bytes,
    }


def reference_facts(table):
    return {
        "blocks": table.blocks,
        "first_keys": table.first_keys,
        "last_keys": table.last_keys,
        "block_of_key": table.block_of_key,
        "entries": len(table.keys),
        "tombstones": table.tombstones,
        "uncompressed": table.uncompressed,
        "stored": table.stored,
    }


@settings(max_examples=250, deadline=None)
@given(
    entries=streams(),
    block_size=st.sampled_from([512, 4096]),
    codec=st.sampled_from(["none", "zlib", "rle"]),
    file_bytes=st.one_of(st.none(), st.integers(100, 6000)),
    cut_points=st.lists(st.integers(1, 119), max_size=6),
    by_entry=st.booleans(),
)
def test_the_column_build_writes_the_tables_of_the_per_entry_rule(
    entries, block_size, codec, file_bytes, cut_points, by_entry
):
    codec = None if codec == "none" else get_codec(codec)
    cuts = sorted({cut for cut in cut_points if cut < len(entries)})
    try:
        expected = reference_build(entries, block_size, codec, file_bytes)
    except ValueError:
        with pytest.raises(ValueError, match="over the .*-byte block size"):
            column_build(entries, cuts, block_size, codec, file_bytes, by_entry)
        return
    device, tables, block_numbers = column_build(entries, cuts, block_size, codec, file_bytes, by_entry)
    assert [table_facts(device, table, block_numbers) for table in tables] == [
        reference_facts(table) for table in expected
    ]
    assert [entry for table in tables for entry in table.iter_entries()] == entries


def test_wide_seqnos_and_keys_take_the_carry_path():
    # 70-byte keys (two-byte kk cells) and 8-byte seqnos cost 12 bytes of
    # columns per entry, the whole budget: four 115-byte entries budget 509
    # of 512 bytes, the CRC takes the block to 513, and its last entry is
    # handed to the next block.
    entries = [Entry(b"%070d" % i, (1 << 60) + i, EntryKind.PUT, b"v" * 45) for i in range(40)]
    expected = reference_build(entries, 512, None, None)
    assert expected[0].carries > 0
    device, tables, block_numbers = column_build(entries, [7, 19], 512, None, None, False)
    assert [table_facts(device, table, block_numbers) for table in tables] == [
        reference_facts(table) for table in expected
    ]


def test_an_entry_that_fits_no_block_goes_alone():
    # 600 zero bytes budget past a 512-byte block but compress into one.
    entries = [Entry(b"k%03d" % i, i, EntryKind.PUT, b"\x00" * (600 if i % 5 == 2 else 40)) for i in range(30)]
    zlib_codec = get_codec("zlib")
    expected = reference_build(entries, 512, zlib_codec, None)
    device, tables, block_numbers = column_build(entries, [2, 3, 11], 512, zlib_codec, None, False)
    facts = [table_facts(device, table, block_numbers) for table in tables]
    assert facts == [reference_facts(table) for table in expected]
    alone = [facts[0]["block_of_key"].count(block) for block in facts[0]["block_of_key"][2::5]]
    assert alone == [1] * 6


@pytest.mark.parametrize("file_bytes", [199, 200, 201])
def test_a_file_ends_at_the_entry_whose_size_reaches_file_bytes(file_bytes):
    # Each entry counts 8 + 16 + 16 = 40 bytes: 200 is reached exactly by
    # the fifth entry, 201 only by the sixth.
    entries = [Entry(b"key%05d" % i, i, EntryKind.PUT, b"v" * 16) for i in range(23)]
    expected = reference_build(entries, 512, None, file_bytes)
    device, tables, block_numbers = column_build(entries, [3, 9], 512, None, file_bytes, False)
    assert [table.entry_count for table in tables] == [len(table.keys) for table in expected]
    assert tables[0].entry_count == (6 if file_bytes == 201 else 5)
    assert [table_facts(device, table, block_numbers) for table in tables] == [
        reference_facts(table) for table in expected
    ]
