"""Value-log frames: damage anywhere in a stored frame reads as
``CorruptionError``, and a jumbo value costs exactly its span.

Every byte of a packed value-log block, and of a jumbo record's first block,
is flipped in turn. Each read that reaches the damaged frame must end in
``CorruptionError``, the type the read guard retries and quarantines on:
``ValueLog.get`` (with and without a block cache), ``collect_garbage``'s scan
of the sealed segment, and a kv-separated ``LSMTree.get`` (cache on and off).

Records are packed at ``ENTRY_OVERHEAD`` bytes each, which fits one block only
in blocks under 64 KiB with keys under 16 KiB; elsewhere a record that fills
the budget exactly must still read back, packed or as a jumbo frame.
"""

import pytest

from repro.cache.block_cache import BlockCache
from repro.common.entry import Entry
from repro.errors import CorruptionError
from repro.storage.block_device import BlockDevice
from repro.storage.block import ENTRY_OVERHEAD
from repro.storage.value_log import ValueLog
from repro.storage.wal import frame_size, write_frame
from tests.conftest import make_tree

BLOCK = 512
SMALL = [(b"key-%d" % i, b"value-%d-" % i * 9) for i in range(5)]  # one block
JUMBO = [(b"jumbo", bytes(range(256)) * 8)]  # 2 048 bytes: a span of blocks


def sealed_log(items):
    """A value log whose first segment holds ``items`` and is sealed."""
    device = BlockDevice(block_size=BLOCK)
    log = ValueLog(device, segment_blocks=1)
    pointers = [log.append(key, value) for key, value in items]
    log.flush()  # writes what is pending and rolls the full segment
    assert device.is_sealed(pointers[0].file_id)
    assert len({(p.file_id, p.block_no) for p in pointers}) == 1
    return device, log, pointers


@pytest.mark.parametrize("items", [SMALL, JUMBO], ids=["packed", "jumbo"])
def test_every_flipped_byte_of_a_stored_frame_is_corruption(items):
    device, _, pointers = sealed_log(items)
    first = pointers[0]
    size = len(device.read_block(first.file_id, first.block_no))
    for offset in range(size):
        device, log, pointers = sealed_log(items)
        device.corrupt_block(first.file_id, first.block_no, offset)
        for pointer in pointers:
            with pytest.raises(CorruptionError):
                log.get(pointer)
            with pytest.raises(CorruptionError):
                log.get(pointer, cache=BlockCache(1 << 20))
        with pytest.raises(CorruptionError):
            log.collect_garbage(lambda key, pointer: True)


@pytest.mark.parametrize("cache_bytes", [0, 1 << 20], ids=["uncached", "cached"])
@pytest.mark.parametrize("items", [SMALL, JUMBO], ids=["packed", "jumbo"])
def test_a_kv_separated_get_of_a_damaged_value_is_corruption(items, cache_bytes):
    tree = make_tree(kv_separation=True, value_threshold=64, cache_bytes=cache_bytes)
    for key, value in items:
        tree.put(key, value)
    tree.flush()
    key, value = items[0]
    pointer = tree._values.pointer_of(tree._find_entry(key).value)
    assert pointer is not None
    size = len(tree.device.read_block(pointer.file_id, pointer.block_no))
    for offset in range(size):
        tree.device.corrupt_block(pointer.file_id, pointer.block_no, offset)
        with pytest.raises(CorruptionError):
            tree.get(key)
        # Flipping the byte back restores the frame; the damaged copy was
        # never cached, so the next get reads the intact one.
        tree.device.corrupt_block(pointer.file_id, pointer.block_no, offset)
        assert tree.get(key).value == value


def test_a_jumbo_value_with_nothing_pending_writes_only_its_span():
    device = BlockDevice(block_size=BLOCK)
    log = ValueLog(device)
    for n in range(3):
        before = device.stats.blocks_written
        pointer = log.append(b"jumbo-%d" % n, b"J" * 2000)
        assert pointer.span > 1
        assert device.stats.blocks_written - before == pointer.span
    assert device.num_blocks(log.current_file) == 3 * pointer.span


def test_a_jumbo_value_flushes_what_is_pending_first():
    device = BlockDevice(block_size=BLOCK)
    log = ValueLog(device)
    small = log.append(b"small", b"s" * 100)
    before = device.stats.blocks_written
    jumbo = log.append(b"jumbo", b"J" * 2000)
    assert device.stats.blocks_written - before == 1 + jumbo.span
    assert (small.block_no, jumbo.block_no) == (0, 1)
    assert log.get(small) == b"s" * 100
    assert log.get(jumbo) == b"J" * 2000



# block size -> (key length, value length) of records that fill the packing
# budget exactly and whose frame would still not fit one block.
OVER_BUDGET = {
    "wide-offsets": (1 << 17, [(1, (1 << 17) - ENTRY_OVERHEAD - 1)]),
    "wide-kk-cell": (1 << 15, [(1 << 14, (1 << 15) - ENTRY_OVERHEAD - (1 << 14))]),
    "wide-pair": (1 << 22, [(1 << 14, (1 << 21) - ENTRY_OVERHEAD - (1 << 14))] * 2),
}


@pytest.mark.parametrize("case", OVER_BUDGET)
def test_a_record_filling_the_budget_reads_back_where_its_frame_does_not_fit(case):
    block_size, shapes = OVER_BUDGET[case]
    items = [(b"%d" % i * klen, b"%d" % i * vlen) for i, (klen, vlen) in enumerate(shapes)]
    assert sum(len(k) + len(v) + ENTRY_OVERHEAD for k, v in items) == block_size
    assert frame_size(len(items), block_size - ENTRY_OVERHEAD * len(items), shapes[0][0]) > block_size
    device = BlockDevice(block_size=block_size)
    log = ValueLog(device, segment_blocks=1)
    pointers = [log.append(key, value) for key, value in items]
    log.flush()
    for pointer, (key, value) in zip(pointers, items):
        assert log.get(pointer) == value
        assert log.get(pointer, cache=BlockCache(1 << 24)) == value
        assert log.key_of(pointer) == key
    relocated, _ = log.collect_garbage(lambda key, pointer: True)
    assert [log.get(relocated[pointer]) for pointer in pointers] == [v for _, v in items]


@pytest.mark.parametrize("klen", [1, 63, 64, 16383, 16384])
@pytest.mark.parametrize("count", [1, 2, 7])
def test_frame_size_is_what_write_frame_stores(klen, count):
    """Around every width change: ``kk`` cells at 64 B and 16 KiB keys, the
    offsets at a 64 KiB body, the length prefix at 128 B and 16 KiB."""
    device = BlockDevice(block_size=1 << 12)
    kk_width = 1 if klen < 0x40 else 2 if klen < 0x4000 else 4
    columns = 1 + count * (2 + kk_width)
    widest = 0xFFFF - columns  # the most data a body with 2-byte offsets holds
    for data in {count * klen, count * klen + 120, count * klen + 16370, widest, widest + 1}:
        if data < count * klen:
            continue
        values = [b"v" * (data - count * klen)] + [b""] * (count - 1)
        entries = [Entry(key=b"k" * klen, seqno=0, value=value) for value in values]
        file_id = device.create_file()
        first, span = write_frame(device, file_id, entries)
        stored = len(device.read_payload(file_id, first, span))
        assert frame_size(count, data, klen) == stored, data
