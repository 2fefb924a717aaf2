"""The v2 data-block format: its byte budget, its block boundaries, and the
defects its open rejects.

* **Budget.** At the benchmark's design point (8-byte keys, 64-byte values,
  4 KiB blocks) every v2 payload is at most 1.02 x the v1 payload of the
  same entries. Under the identity-golden configurations the bound holds
  for the bytes a whole stream writes: 1.02 x without a codec, 1.05 x with
  one. Single blocks of a few tiny entries can exceed it (a fixed-width
  seqno costs a byte where v1's varint did not, and a codec compresses the
  offset column less well than v1's one-byte value lengths); EXPERIMENTS.md
  lists the worst blocks.
* **Boundaries.** The split rule alone places entries: it budgets
  ``ENTRY_OVERHEAD`` bytes per entry whatever the block format, so
  a table has the blocks the rule makes of its stream, holding the same
  first and last keys a v1 table had.
* **Open.** Every defect v1's per-entry walk rejected is rejected when a v2
  block opens, as ``CorruptionError``.
* **Footer.** A table without an intact v2 footer is corrupt.
"""

import random
import zlib

import pytest

from repro import LSMConfig, LSMTree
from repro.common.encoding import encode_uint_key
from repro.common.entry import Entry, EntryKind
from repro.errors import CorruptionError
from repro.storage import block as block_module, sstable
from repro.storage.block_device import BlockDevice
from repro.storage.compression import get_codec
from repro.storage.block import encode_block_v2, parse_block
from repro.storage.sstable import SSTableBuilder

from tests.core.test_identity_goldens import CASES, _BASE
from tests.storage.v1_tables import encode_block_v1

BUDGET = 1.02


def design_point_entries(count=3000, seed=5):
    """Entries shaped like the benchmark's: 8-byte keys, 64-byte values,
    seqnos of a 60k-key preload, one in ten a tombstone."""
    rng = random.Random(seed)
    ids = sorted(rng.sample(range(120_000), count))
    entries = []
    for key_id in ids:
        seqno = rng.randrange(1, 60_000)
        if rng.random() < 0.1:
            entries.append(Entry(encode_uint_key(key_id), seqno, EntryKind.DELETE))
        else:
            entries.append(Entry(encode_uint_key(key_id), seqno, EntryKind.PUT, rng.randbytes(64)))
    return entries


def build(builder_class, entries, block_size, codec=None):
    builder = builder_class(BlockDevice(block_size=block_size), block_size=block_size, codec=codec)
    builder.add_all(entries)
    return builder.finish()


def boundaries(table):
    return table.num_data_blocks, table.fence_keys, table._block_last_keys


def rule_boundaries(entries, block_size):
    """``boundaries`` of the table the split rule alone makes of ``entries``:
    a block closes when the next entry's budgeted size would take it past
    ``block_size``. No encoded size enters it."""
    blocks, pending, used = [], [], 1  # 1: the block's head byte
    for entry in entries:
        cost = len(entry.key) + len(entry.value) + block_module.ENTRY_OVERHEAD
        if pending and used + cost > block_size:
            blocks.append(pending)
            pending, used = [], 1
        pending.append(entry)
        used += cost
    blocks.append(pending)
    return len(blocks), [block[0].key for block in blocks], [block[-1].key for block in blocks]


@pytest.mark.parametrize("codec", [None, "zlib"])
def test_design_point_budget_and_boundaries(codec):
    entries = design_point_entries()
    v2 = build(SSTableBuilder, entries, 4096, codec)
    assert boundaries(v2) == rule_boundaries(entries, 4096)
    codec = get_codec(codec) if codec else None
    for block_no in range(v2.num_data_blocks):
        block = list(v2._load_block(block_no, None, None))
        assert len(encode_block_v2(block, codec)[0]) <= BUDGET * len(encode_block_v1(block, codec)[0])


def written_entries(keys, kinds, values, seqnos, count):
    """The first ``count`` rows of a block's columns: the entries it holds."""
    rows = zip(keys, seqnos, map(EntryKind, kinds), values)
    return [Entry(*row) for row in rows][:count]


class BlockLedger:
    """Wraps ``SSTableBuilder`` to total each block it writes beside the v1
    encoding of the same entries, and to check each table it finishes
    against the blocks the split rule makes of the same stream."""

    def __init__(self, monkeypatch):
        self.blocks = 0
        self.tables = 0
        self.v1_bytes = self.v2_bytes = 0
        write, finish = SSTableBuilder._write_block, SSTableBuilder.finish
        ledger = self

        def checked_write(builder, keys, kinds, values, seqnos):
            count = write(builder, keys, kinds, values, seqnos)
            block = written_entries(keys, kinds, values, seqnos, count)
            builder.__dict__.setdefault("_stream", []).extend(block)
            v1 = len(encode_block_v1(block, builder._codec)[0])
            v2 = len(encode_block_v2(block, builder._codec)[0])
            ledger.blocks += 1
            ledger.v1_bytes += v1
            ledger.v2_bytes += v2
            return count

        def checked_finish(builder):
            table = finish(builder)
            assert boundaries(table) == rule_boundaries(builder._stream, builder._block_size)
            ledger.tables += 1
            return table

        monkeypatch.setattr(SSTableBuilder, "_write_block", checked_write)
        monkeypatch.setattr(SSTableBuilder, "finish", checked_finish)


def golden_stream(tree, ops=1800):
    """The identity goldens' op mix (puts, deletes, merges, TTL puts), shorter."""
    rng = random.Random(20230913)
    keys = [b"k%05d" % i for i in range(900)]
    counters = [b"c%03d" % i for i in range(40)]
    for _ in range(ops):
        roll = rng.random()
        key = rng.choice(keys)
        if roll < 0.55:
            tree.put(key, bytes([rng.randrange(97, 123)]) * rng.randrange(8, 140))
        elif roll < 0.68:
            tree.delete(key)
        elif roll < 0.76:
            tree.merge(rng.choice(counters), b"%d" % rng.randrange(1, 9))
        elif roll < 0.81:
            tree.put(key, b"ttl" * rng.randrange(1, 20), ttl=5e5)
        else:
            tree.get(key)
    tree.flush()


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_configs_budget_and_boundaries(case, monkeypatch):
    ledger = BlockLedger(monkeypatch)
    tree = LSMTree(LSMConfig(**_BASE, **CASES[case]))
    golden_stream(tree)
    tree.close()
    assert ledger.blocks > 0 and ledger.tables > 0
    compressed = CASES[case].get("compression", "none") != "none"
    assert ledger.v2_bytes <= (1.05 if compressed else BUDGET) * ledger.v1_bytes


def test_a_block_the_budget_overfills_closes_before_its_last_entry(monkeypatch):
    # With no budget at all the split rule packs every entry into one block;
    # each block still closes where its encoded size would pass the block
    # size, and every entry reads back.
    monkeypatch.setattr(block_module, "ENTRY_OVERHEAD", 0)
    device = BlockDevice(block_size=256)
    builder = SSTableBuilder(device, block_size=256)
    entries = [Entry(b"key%03d" % i, 1 << 40, EntryKind.PUT, b"v" * 20) for i in range(40)]
    builder.add_all(entries)
    table = builder.finish()
    assert table.num_data_blocks > 1
    for block_no in range(table.num_data_blocks):
        assert len(device.read_block(table.file_id, block_no)) <= 256
    assert list(table.iter_entries()) == entries


def test_wide_columns_round_trip():
    # Offsets past 64 KiB switch to four bytes; keys of 64 bytes and more
    # widen the kk cells to two, of 16 KiB and more to four.
    for entries in (
        [Entry(b"big", 7, EntryKind.PUT, b"x" * 70_000), Entry(b"tail", 8, EntryKind.DELETE)],
        [Entry(b"k" * 100, 1, EntryKind.MERGE, b"m"), Entry(b"l" * 20_000, 1 << 50, EntryKind.PUT, b"v")],
    ):
        payload = encode_block_v2(entries)[0]
        block = parse_block(payload)
        assert [block.find(entry.key) for entry in entries] == entries
        assert list(parse_block(payload)) == entries


def one_entry_block(entry):
    """The v2 block of ``entry`` alone, spelled out from the layout."""
    klen, vlen = len(entry.key), len(entry.value)
    seqno_width = (entry.seqno.bit_length() + 7) // 8
    kk_width = 1 if klen < 64 else 2 if klen < 1 << 14 else 4
    offset_width = 2 if 3 + kk_width + seqno_width + klen + vlen <= 0xFFFF else 4
    head = seqno_width | (0x10 if offset_width == 4 else 0) | (kk_width // 2) << 5
    body = b"".join((
        bytes([head]),
        (1 + offset_width + kk_width + seqno_width).to_bytes(offset_width, "little"),
        (klen << 2 | entry.kind).to_bytes(kk_width, "little"),
        entry.seqno.to_bytes(seqno_width, "little"),
        entry.key,
        entry.value,
    ))
    return body + zlib.crc32(body).to_bytes(4, "big")


@pytest.mark.parametrize("klen", [1, 63, 64, 16383, 16384])
@pytest.mark.parametrize("seqno", [0, 255, 256, 1 << 56])
def test_a_one_entry_block_is_the_layout_spelled_out(klen, seqno):
    # One entry skips the column passes; it must write what they would.
    columns = 3 + (1 if klen < 64 else 2 if klen < 1 << 14 else 4) + (seqno.bit_length() + 7) // 8
    for vlen in (0, 5, 0xFFFF - columns - klen, 0xFFFF - columns - klen + 1):
        for kind in (EntryKind.PUT, EntryKind.MERGE) if vlen else (EntryKind.DELETE,):
            entry = Entry(b"k" * klen, seqno, kind, b"v" * vlen)
            payload = encode_block_v2([entry])[0]
            assert payload == one_entry_block(entry)
            assert list(parse_block(payload)) == [entry]


# -- what open rejects -----------------------------------------------------------

ENTRIES = [
    Entry(b"apple", 3, EntryKind.PUT, b"red"),
    Entry(b"banana", 9, EntryKind.DELETE),
    Entry(b"cherry", 70_000, EntryKind.MERGE, b"\x03add7"),
    Entry(b"damson", 5, EntryKind.PUT_TTL, b"\x00" * 8 + b"plum"),
]
BODY = encode_block_v2(ENTRIES)[0][:-4]  # head | offsets (u16) | kk (1) | seqnos (3) | data


def sealed(body):
    return bytes(body) + zlib.crc32(bytes(body)).to_bytes(4, "big")


def with_offset(slot, value):
    body = bytearray(BODY)
    body[1 + 2 * slot : 3 + 2 * slot] = value.to_bytes(2, "little")
    return body


def with_kk(slot, cell):
    body = bytearray(BODY)
    body[9 + slot] = cell
    return body


def offset(slot):
    return int.from_bytes(BODY[1 + 2 * slot : 3 + 2 * slot], "little")


DEFECTS = {
    "checksum": sealed(BODY)[:-1] + b"\x00",
    "truncated": sealed(BODY)[:-9],
    "too short": b"\x00\x01",
    "head bit 7": sealed(bytes([BODY[0] | 0x80]) + BODY[1:]),
    "seqno width 9": sealed(bytes([BODY[0] & 0xF0 | 9]) + BODY[1:]),
    "kk width code 3": sealed(bytes([BODY[0] | 0x60]) + BODY[1:]),
    "count: one more entry": sealed(with_offset(0, offset(0) + 6)),
    "count: a stray byte": sealed(with_offset(0, offset(0) + 1)),
    "count: none": sealed(with_offset(0, 1)),
    "offsets out of order": sealed(with_offset(2, offset(1) - 1)),
    "offset past the end": sealed(with_offset(3, len(BODY) + 1)),
    "key past its entry": sealed(with_kk(0, 40 << 2)),
    "tombstone with a value": sealed(with_kk(0, 5 << 2 | EntryKind.DELETE)),
    "framed: unknown codec": sealed(b"\xc7\x7f\x10" + zlib.compress(BODY)),
    "framed: garbage": sealed(b"\xc7\x01\x10garbage"),
    "framed: bad body": sealed(b"\xc7\x01" + bytes([len(BODY)]) + zlib.compress(b"\x80" + BODY[1:])),
}


def test_the_intact_body_opens():
    assert list(parse_block(sealed(BODY))) == ENTRIES


@pytest.mark.parametrize("defect", sorted(DEFECTS))
def test_every_defect_is_refused_at_open_as_corruption(defect):
    with pytest.raises(CorruptionError):
        parse_block(DEFECTS[defect])


# -- the table footer ------------------------------------------------------------


def footer_table():
    table = build(SSTableBuilder, design_point_entries(count=200), 4096)
    return table._device, table.file_id, table.num_data_blocks + table.aux_blocks - 1


@pytest.mark.parametrize("byte", range(-sstable._FOOTER_SIZE, 0))
def test_a_damaged_footer_is_reported_as_such(byte):
    # Without its footer a table cannot be read at all; the error names it.
    device, file_id, last = footer_table()
    device.corrupt_block(file_id, last, byte)
    with pytest.raises(CorruptionError, match=f"file {file_id}: table footer damaged"):
        sstable.rebuild_sstable(device, file_id)


def test_rot_in_the_padding_before_the_footer_is_never_read():
    device, file_id, last = footer_table()
    intact = sstable.rebuild_sstable(device, file_id)
    device.corrupt_block(file_id, last, 0)
    rebuilt = sstable.rebuild_sstable(device, file_id)
    assert boundaries(rebuilt) == boundaries(intact)


def with_last_block(device, file_id, last, block):
    """A copy of table ``file_id`` whose last block is ``block``."""
    copy = device.create_file()
    for block_no in range(last):
        device.append_block(copy, device.read_block(file_id, block_no))
    device.append_block(copy, block)
    return copy


@pytest.mark.parametrize("version", [1, 3])
def test_a_footer_naming_another_block_format_is_refused(version):
    device, file_id, last = footer_table()
    tail = device.read_block(file_id, last)
    fields = sstable._FOOTER.pack(sstable._FOOTER_MAGIC, version, last)
    footer = fields + zlib.crc32(fields).to_bytes(4, "big")  # intact, but not v2
    copy = with_last_block(device, file_id, last, tail[: -len(footer)] + footer)
    with pytest.raises(CorruptionError, match=f"names block format {version}"):
        sstable.rebuild_sstable(device, copy)


def test_a_table_ending_in_zeros_has_no_footer():
    # What a table written before footers existed looked like: it is not
    # read as some other format, it is corrupt.
    device, file_id, last = footer_table()
    zeros = bytes(len(device.read_block(file_id, last)))
    copy = with_last_block(device, file_id, last, zeros)
    with pytest.raises(CorruptionError, match=f"file {copy}: table footer damaged"):
        sstable.rebuild_sstable(device, copy)
    empty = device.create_file()
    with pytest.raises(CorruptionError, match=f"file {empty}: table footer damaged"):
        sstable.rebuild_sstable(device, empty)
