"""Blocks searched in place: same answers, same errors, far fewer decodes.

``parse_block`` opens a block *in place* (offsets + columns; an entry is
decoded when asked for), whether it came from a table or from a log frame
(``read_frame``). A block must hold and charge what the eagerly decoded list
of its entries holds and charges, and refuse every defect — of the block or
of a log frame's length prefix — as ``CorruptionError``.
"""

import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.block_cache import BlockCache
from repro.common.entry import Entry, EntryKind
from repro.errors import CorruptionError
from repro.storage import block as block_module, sstable
from repro.storage.block_device import BlockDevice
from repro.storage.compression import get_codec
from repro.storage.sstable import DataBlock, SSTableBuilder, encode_block_v2, parse_block
from repro.storage.value_log import ValueLog
from repro.storage.wal import read_frame, write_frame

from tests.conftest import make_tree


def framed(entries, block_size=512):
    """``entries`` written as one log frame: ``(device, file, span)``."""
    device = BlockDevice(block_size=block_size)
    fid = device.create_file()
    return (device, fid) + write_frame(device, fid, entries)[1:]


def read_framed(written):
    device, fid, span = written
    return read_frame(device, fid, 0, span)[0]


def seed_charge(entries):
    """The cache charge every demand load has always carried."""
    return 56 + sum(len(e.key) + len(e.value) + 72 for e in entries)


# -- (i) equivalence ----------------------------------------------------------

_KINDS = st.sampled_from(list(EntryKind))
_KEYS = st.one_of(
    st.binary(min_size=1, max_size=12),
    st.binary(min_size=120, max_size=200),  # two-byte varint key length
)
_VALUES = st.one_of(
    st.just(b""),
    st.binary(max_size=24),
    st.binary(min_size=128, max_size=400),  # two-byte varint value length
    st.builds(lambda c, n: bytes([c]) * n, st.integers(0, 255), st.integers(130, 600)),
)
_SEQNOS = st.one_of(st.integers(0, 127), st.integers(128, 1 << 21), st.integers(1 << 35, 1 << 62))


@st.composite
def entry_lists(draw):
    keys = sorted(draw(st.sets(_KEYS, min_size=1, max_size=60)))
    entries = []
    for key in keys:
        kind = draw(_KINDS)
        value = b"" if kind is EntryKind.DELETE else draw(_VALUES)
        entries.append(Entry(key=key, seqno=draw(_SEQNOS), kind=kind, value=value))
    return entries


@given(
    entries=entry_lists(),
    codec=st.sampled_from(["log", "none", "zlib", "rle"]),
    hash_index=st.booleans(),
    data=st.data(),
)
@settings(max_examples=300, deadline=None)
def test_in_place_block_equals_the_eager_decode(entries, codec, hash_index, data):
    # ``log``: the block behind a log frame; otherwise a table block with
    # that codec. Either against the entries it was built from.
    oracle = list(entries)
    if codec == "log":
        written = framed(entries, block_size=1 << 12)

        def fresh():
            return read_framed(written)

    else:
        payload = encode_block_v2(entries, get_codec(codec))[0]

        def fresh():
            return parse_block(payload, hash_index=hash_index)

    n = len(entries)
    eager = DataBlock(oracle, hash_index)
    assert list(eager) == oracle and eager.charge_bytes == seed_charge(oracle)
    block = fresh()
    assert isinstance(block, DataBlock) and len(block) == n
    assert block.charge_bytes == seed_charge(oracle)
    assert block.keys_list() == [e.key for e in oracle]

    # Indexing and slicing, on blocks that have decoded nothing yet.
    i = data.draw(st.integers(-n, n - 1))
    assert fresh()[i] == oracle[i]
    with pytest.raises(IndexError):
        fresh()[n]
    lo = data.draw(st.integers(-n - 2, n + 2))
    hi = data.draw(st.integers(-n - 2, n + 2))
    step = data.draw(st.sampled_from([None, 1, 2, -1]))
    assert fresh()[lo:hi:step] == oracle[lo:hi:step]

    # find: every present key, plus neighbours that are absent.
    probe = fresh()
    for entry in oracle:
        assert probe.find(entry.key) == entry
        assert probe.find(entry.key) is probe.find(entry.key)  # memoised
    present = {e.key for e in oracle}
    for absent in (b"", oracle[0].key + b"\x00", oracle[-1].key + b"\xff"):
        if absent not in present:
            assert fresh().find(absent) is None
            assert eager.find(absent) is None

    # Iteration (which fully decodes) after a partial touch, and equality.
    touched = fresh()
    touched.find(oracle[n // 2].key)
    assert list(touched) == oracle
    assert touched == oracle and touched == eager and touched.entries == oracle
    assert touched.charge_bytes == seed_charge(oracle)


@given(
    values=st.lists(st.integers(0, 5000), min_size=1, max_size=300, unique=True),
    codec=st.sampled_from(["none", "zlib", "rle"]),
    hash_index=st.booleans(),
    cached=st.booleans(),
    readahead=st.sampled_from([1, 4]),
    data=st.data(),
)
@settings(max_examples=120, deadline=None)
def test_windowed_range_equals_filtering_the_entries(
    values, codec, hash_index, cached, readahead, data
):
    entries = [
        Entry(key=b"k%06d" % v, seqno=i + 1, value=b"v%d" % v * (1 + v % 9))
        for i, v in enumerate(sorted(values))
    ]
    builder = SSTableBuilder(
        BlockDevice(block_size=256), hash_index=hash_index, codec=get_codec(codec)
    )
    builder.add_all(entries)
    table = builder.finish()
    start = data.draw(st.one_of(st.none(), st.integers(0, 5001).map(lambda v: b"k%06d" % v)))
    end = data.draw(st.one_of(st.none(), st.integers(0, 5001).map(lambda v: b"k%06d" % v)))
    expected = [
        e for e in entries
        if (start is None or e.key >= start) and (end is None or e.key <= end)
    ]
    cache = BlockCache(1 << 20) if cached else None
    for _ in range(2):  # second pass reads whatever the first left cached
        got = list(table.iter_entries(start, end, cache=cache, readahead=readahead))
        assert got == expected
    for entry in entries[:: max(1, len(entries) // 7)]:
        assert table.get(entry.key, cache=cache) == entry


# -- (ii) every defect, one class ----------------------------------------------


def _mutations(payload):
    yield "intact", payload
    for cut in range(len(payload)):
        yield f"cut at {cut}", payload[:cut]
    for bit in range(len(payload) * 8):
        flipped = bytearray(payload)
        flipped[bit // 8] ^= 1 << (bit % 8)
        yield f"bit {bit % 8} of byte {bit // 8}", bytes(flipped)


def _sweep_entries():
    return [
        Entry(b"apple", 3, EntryKind.PUT, b"red" * 9),
        Entry(b"banana", 300, EntryKind.DELETE),
        Entry(b"cherry" * 25, 70_000, EntryKind.MERGE, b"\x03add" + b"7" * 130),
        Entry(b"damson", 5, EntryKind.PUT_TTL, b"\x00" * 8 + b"plum" * 6),
        Entry(b"elder", 6, EntryKind.PUT, b""),
    ]


@pytest.mark.parametrize("block", ["log", "table-none", "table-zlib"])
def test_every_truncation_and_bit_flip_raises_what_the_eager_decoder_raised(block):
    entries = _sweep_entries()
    if block == "log":
        # A log frame, read by its span: every defect of the length prefix
        # or of the block behind it.
        device, fid, span = framed(entries, block_size=1 << 12)
        payload = device.read_payload(fid, 0, span)

        def parse(mutated):
            target = BlockDevice(block_size=1 << 12)
            file_id = target.create_file()
            target.append_block(file_id, mutated)
            return read_frame(target, file_id, 0, 1)[0]

    else:
        payload = encode_block_v2(entries, get_codec(block[len("table-") :]))[0]
        parse = parse_block
    opened = 0
    for what, mutated in _mutations(payload):
        try:
            got = parse(mutated)
        except CorruptionError:
            assert mutated != payload, what
            continue
        assert mutated == payload, f"{what} opened"
        # A block that opened never raises afterwards.
        opened += 1
        assert list(got) == entries
        again = parse(mutated)
        for entry in entries:
            assert again.find(entry.key) == entry
    assert opened == 1  # nothing damaged opens: only the intact payload


def test_payloads_past_64k_switch_to_wide_offsets():
    # A jumbo value-log record: its offsets no longer fit two bytes.
    entries = [
        Entry(b"big", 7, EntryKind.PUT, b"x" * 70_000),
        Entry(b"tail", 8, EntryKind.PUT, b"y"),
    ]
    block = read_framed(framed(entries))
    assert block._offsets.typecode == "I"
    assert block[1] == entries[1] and list(block) == entries
    # One entry with seqno 0 starts at byte 4 of the body (head + 2-byte
    # offset + kk cell): a body ending at byte 65535 keeps narrow offsets,
    # one byte more needs wide ones.
    for value_size, typecode in ((0xFFFF - 5, "H"), (0xFFFF - 4, "I")):
        entries = [Entry(b"k", 0, EntryKind.PUT, b"v" * value_size)]
        block = read_framed(framed(entries))
        assert block._offsets.typecode == typecode and list(block) == entries


# -- (iii) decode counts ----------------------------------------------------------


@pytest.fixture
def entries_built(monkeypatch):
    """Counts the entries the block decoders construct from here on."""
    built = []

    def counting_entry(*args, **kwargs):
        entry = Entry(*args, **kwargs)
        built.append(entry)
        return entry

    monkeypatch.setattr(block_module, "Entry", counting_entry)
    return built


def _table(n=400, block_size=512, **builder_kwargs):
    device = BlockDevice(block_size=block_size)
    builder = SSTableBuilder(device, **builder_kwargs)
    for i in range(n):
        builder.add(Entry(key=b"k%06d" % (2 * i), seqno=i + 1, value=b"v" * 40))
    return device, builder.finish()


def test_a_cache_miss_point_get_decodes_one_entry(entries_built):
    device, table = _table()
    cache = BlockCache(1 << 20)
    reads = device.stats.blocks_read
    assert table.get(b"k%06d" % 200, cache=cache).seqno == 101
    assert device.stats.blocks_read == reads + 1
    assert len(entries_built) == 1
    table.get(b"k%06d" % 200, cache=cache)  # the hit returns the memoised entry
    assert len(entries_built) == 1


def test_a_filter_false_positive_decodes_nothing(entries_built):
    device, table = _table()  # no point filter: every in-range key reads a block
    reads = device.stats.blocks_read
    assert table.get(b"k%06d" % 201, cache=BlockCache(1 << 20)) is None
    assert device.stats.blocks_read == reads + 1
    assert entries_built == []


def test_a_value_log_dereference_decodes_one_record(entries_built):
    log = ValueLog(BlockDevice(block_size=512))
    pointers = [log.append(b"k%d" % i, b"value-%d" % i * 4) for i in range(30)]
    log.flush()
    assert pointers[7].block_no == pointers[8].block_no  # a shared, packed block
    assert log.get(pointers[7]) == b"value-7" * 4
    assert len(entries_built) == 1
    cache = BlockCache(1 << 20)
    assert log.get(pointers[8], cache=cache) == b"value-8" * 4
    assert log.get(pointers[8], cache=cache) == b"value-8" * 4
    assert len(entries_built) == 2
    assert log.key_of(pointers[9]) == b"k9"
    assert len(entries_built) == 3


@pytest.mark.parametrize("readahead", [1, 4])
def test_a_scan_decodes_only_its_window_of_the_boundary_blocks(entries_built, readahead):
    _, table = _table()
    start, end = b"k%06d" % 207, b"k%06d" % 306  # 50 keys, cutting two blocks
    got = list(table.iter_entries(start, end, cache=BlockCache(1 << 20), readahead=readahead))
    assert len(got) == 50 and got[0].key == b"k%06d" % 208
    assert len(entries_built) == 50


def _both_kinds(entries):
    """Fresh openers of the same entries as a log frame and a table block."""
    log, table = framed(entries), encode_block_v2(entries)[0]
    return (lambda: read_framed(log), lambda: parse_block(table))


def test_a_fully_decoded_block_drops_its_payload_and_offsets():
    entries = _sweep_entries()
    for fresh in _both_kinds(entries):
        block = fresh()
        block.find(b"banana")
        assert block._buf is not None and block._offsets is not None
        assert block[1:3] == entries[1:3]
        assert block._buf is not None  # a window is not the whole block
        assert list(block) == entries
        assert block._buf is None and block._offsets is None
        assert block.find(b"cherry" * 25) == entries[2] and block[-1] == entries[-1]


def test_the_last_slot_filled_drops_the_payload_whichever_path_fills_it():
    # A hot block filled key by key (or window by window) must not keep its
    # payload beside a full set of decoded entries: that is ~2x its charge.
    entries = _sweep_entries()
    for fresh in _both_kinds(entries):
        by_find = fresh()
        for entry in entries[:-1]:
            by_find.find(entry.key)
        assert by_find._buf is not None
        by_find.find(entries[-1].key)
        assert by_find._buf is None and by_find._offsets is None
        by_window = fresh()
        assert by_window[:2] == entries[:2] and by_window._buf is not None
        assert by_window[2:] == entries[2:]
        assert by_window._buf is None and by_window._offsets is None
        by_index = fresh()  # as the value log reads its records
        for slot in (4, 2, 0, 3, 1):
            assert by_index[slot] == entries[slot]
        assert by_index._buf is None and by_index == entries


# -- (iv) shared cached blocks need no lock -----------------------------------------


def test_threads_sharing_one_block_read_equal_entries():
    entries = [
        Entry(b"k%05d" % i, 1000 + i, EntryKind(i % 4), b"" if i % 4 == 1 else b"v%d" % i * 5)
        for i in range(64)
    ]
    log, table = framed(entries), encode_block_v2(entries)[0]
    failures = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for round_no in range(100):
            if round_no % 3 == 0:
                block = read_framed(log)
            else:
                block = parse_block(table, hash_index=bool(round_no % 3 - 1))
            start = threading.Barrier(3)

            def finder():
                start.wait(timeout=5.0)
                for entry in entries:
                    if block.find(entry.key) != entry:
                        failures.append(("find", entry.key))

            def slicer():
                start.wait(timeout=5.0)
                for lo in range(0, 64, 8):
                    if block[lo : lo + 8] != entries[lo : lo + 8]:
                        failures.append(("slice", lo))

            def iterator():
                start.wait(timeout=5.0)
                if list(block) != entries:
                    failures.append(("iter", round_no))

            threads = [threading.Thread(target=f) for f in (finder, slicer, iterator)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10.0)
                assert not thread.is_alive()
            assert block.entries == entries
    finally:
        sys.setswitchinterval(interval)
    assert failures == []


# -- (v) perf/tracing.py patches sstable.parse_block: the read path must look it up


@pytest.fixture
def parse_calls(monkeypatch):
    calls = []
    real = sstable.parse_block

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(sstable, "parse_block", counting)
    return calls


def test_a_cold_get_resolves_parse_block_through_the_module(parse_calls):
    tree = make_tree(cache_bytes=1 << 20)
    for i in range(2000):
        tree.put(b"k%06d" % i, b"v" * 20)
    tree.flush()
    del parse_calls[:]
    reads = tree.device.stats.blocks_read
    for i in range(0, 2000, 97):
        assert tree.get(b"k%06d" % i).found
    blocks = tree.device.stats.blocks_read - reads
    assert blocks > 0 and len(parse_calls) == blocks


@pytest.mark.parametrize("codec", ["none", "zlib"])
def test_a_cold_coalesced_load_resolves_parse_block_through_the_module(parse_calls, codec):
    device, table = _table(codec=get_codec(codec))
    cache = BlockCache(1 << 20, compressed_capacity_bytes=1 << 20)
    fences = table.fence_keys
    reads = device.stats.blocks_read
    assert len(table.get_many([fences[b] for b in (0, 1, 2, 5)], cache=cache, span=4)) == 4
    chunks = table.iter_chunks(fences[6], fences[13][:-1], cache=cache, readahead=4)
    assert len(list(chunks)) == 7
    blocks = device.stats.blocks_read - reads
    assert blocks == 11 and len(parse_calls) == blocks
    # A compressed-tier hit is opened through the same name.
    cache_only = BlockCache(0, compressed_capacity_bytes=1 << 20)
    first_four = lambda: list(
        table.iter_chunks(end=fences[4][:-1], cache=cache_only, readahead=4)
    )
    assert len(first_four()) == 4
    del parse_calls[:]
    reads = device.stats.blocks_read
    first_four()
    if codec == "zlib":
        assert device.stats.blocks_read == reads and len(parse_calls) == 4
    else:
        assert device.stats.blocks_read == reads + 4 and len(parse_calls) == 4


@settings(max_examples=150, deadline=None)
@given(
    count=st.integers(1, 300),
    key_width=st.integers(0, 9),
    value_widths=st.lists(st.integers(0, 20), min_size=1, max_size=3),
    top_seqno=st.sampled_from([0, 200, 60_000, 1 << 20, 1 << 35, 1 << 45, 1 << 53, (1 << 64) - 1]),
    data=st.data(),
)
def test_columns_are_the_entries_of_any_window(count, key_width, value_widths, top_seqno, data):
    """Every window of a block, as columns, is its entries: for blocks of one
    entry size (unpacked by struct, up to the widest cached window and
    past it) and of mixed sizes, at every seqno width, before and after the
    block is decoded."""
    entries = []
    for i in range(count):
        key = i.to_bytes(4, "big") + bytes(key_width)
        kind = EntryKind.DELETE if value_widths[i % len(value_widths)] == 0 else EntryKind.PUT
        value = b"" if kind is EntryKind.DELETE else bytes([i % 251]) * value_widths[i % len(value_widths)]
        entries.append(Entry(key, top_seqno - i if top_seqno >= i else i, kind, value))
    block = parse_block(encode_block_v2(entries)[0])
    lo = data.draw(st.integers(0, count - 1))
    hi = data.draw(st.integers(lo + 1, count))
    for _ in range(2):  # in place, then decoded
        keys, kinds, values, seqnos = block.columns(lo, hi)
        seqnos = seqnos() if callable(seqnos) else seqnos
        window = entries[lo:hi]
        assert list(keys) == [e.key for e in window]
        assert list(kinds) == [e.kind for e in window]
        assert list(values) == [e.value for e in window]
        assert list(seqnos) == [e.seqno for e in window]
        assert block.entries == entries
