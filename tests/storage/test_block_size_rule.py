"""One size rule: a write is checked against the exact block it will occupy.

Every oversized write of any kind is refused with ``ConfigError`` before the
WAL or the value log sees it, so no later flush (and no flush after a
recovery) can fail on it:

* a put whose entry fills the 12-byte packing budget exactly, but whose
  one-entry block is wider than the budget (a 16 KiB key, two-byte seqnos);
* a delete with a key longer than a block, and a merge whose operand is;
* (kv-separated) a key too long to sit beside its value-log pointer, whose
  error names that cause instead of asking for ``kv_separation``;
* (kv-separated) a log-bound put accepted below seqno 256 that value-log GC
  relocates past it: replay checks the relocation again, so a log-bound
  value is sized at the widest seqno and pointer it can ever be stored with.

The table builder fills blocks by the budget, and closes a block before its
last entry when the encoded block would pass the block size.

A stored value under ``kv_separation`` carries a one-byte tag; a store
written without a value log and reopened with one reads as corruption.
"""

import pytest

from repro import LSMConfig, LSMTree
from repro.common.entry import Entry, EntryKind
from repro.errors import ConfigError, CorruptionError
from repro.storage.block import block_bytes, encode_block_v2, entry_fits
from repro.storage.block_device import BlockDevice
from repro.storage.sstable import SSTableBuilder
from tests.conftest import make_config


def logged(tree):
    """What the WAL has been handed so far."""
    return tree._wal.records_logged


def assert_keeps_flushing_and_recovering(tree, expected):
    """``tree`` flushes, and so does its recovery; both read ``expected``."""
    tree.flush()
    for key, value in expected.items():
        assert tree.get(key).value == value
    tree.close()
    recovered = LSMTree.recover(tree.config, tree.device)
    recovered.flush()
    for key, value in expected.items():
        assert recovered.get(key).value == value
    recovered.close()


@pytest.mark.parametrize("klen, block", [
    (1, 512), (63, 512), (64, 512), (1, 32 << 10), (16383, 32 << 10),
    (16384, 32 << 10), (64, 128 << 10), (16383, 128 << 10), (16384, 128 << 10),
])
@pytest.mark.parametrize("seqno", [0, 255, 256, 1 << 24, 1 << 56])
def test_the_rule_is_the_encoder(klen, block, seqno):
    """``entry_fits`` and ``block_bytes`` agree with the bytes the encoder
    writes, on both sides of every block edge and column width."""
    edge = block - klen - (block_bytes(1, klen, klen, seqno) - klen)
    for vlen in range(max(0, edge - 30), edge + 30):
        entry = Entry(b"k" * klen, seqno, EntryKind.PUT, b"v" * vlen)
        size = len(encode_block_v2([entry])[0])
        assert block_bytes(1, klen + vlen, klen, seqno) == size
        assert entry_fits(klen, vlen, seqno, block) == (size <= block)


def test_a_put_wider_than_its_budget_is_refused_after_seqno_255():
    """A 16 KiB key in a 32 KiB block, its value filling the 12-byte budget
    exactly: at seqno 256 its one-entry block is 32 769 bytes."""
    block = 32 << 10
    config = LSMConfig(
        block_size=block, buffer_bytes=256 << 10, wal_enabled=True, wal_sync_interval=1, seed=3,
    )
    tree = LSMTree(config)
    expected = {}
    for i in range(255):
        key = b"k%03d" % i
        tree.put(key, b"v")
        expected[key] = b"v"
    key = b"K" * (16 << 10)
    value = b"x" * (block - 12 - len(key))
    before = logged(tree)
    with pytest.raises(ConfigError):
        tree.put(key, value)
    assert logged(tree) == before
    assert not tree.get(key).found
    tree.put(key, value[:-8])  # the exact block: 32 761 bytes
    expected[key] = value[:-8]
    assert_keeps_flushing_and_recovering(tree, expected)


@pytest.mark.parametrize("kind", ["delete", "merge"])
def test_a_delete_or_merge_longer_than_a_block_is_refused(kind):
    """``validate`` sizes every kind: a 600-byte delete key and a 600-byte
    ``append_set`` operand on 512-byte blocks are refused before they are
    logged; the store keeps flushing and recovering."""
    tree = LSMTree(make_config(wal_enabled=True, wal_sync_interval=1))
    tree.put(b"a", b"1")
    before = logged(tree)
    with pytest.raises(ConfigError):
        if kind == "delete":
            tree.delete(b"d" * 600)
        else:
            tree.merge(b"m", b"e" * 600, "append_set")
    assert logged(tree) == before
    with pytest.raises(ConfigError):
        tree.write_batch([("put", b"b", b"2"), ("delete", b"d" * 600, None)])
    assert logged(tree) == before
    tree.merge(b"m", b"e" * 400, "append_set")
    assert_keeps_flushing_and_recovering(tree, {b"a": b"1", b"m": b"e" * 400})


def test_the_builder_closes_a_block_its_budget_overfills():
    """Four 16 KiB-key entries at seqno 2**24 each fit a 128 KiB block alone;
    together they fill the budget but encode to 131 073 bytes. Every block
    the builder writes fits, and the table reads back whole."""
    block = 128 << 10
    device = BlockDevice(block_size=block)
    entries = [
        Entry(bytes([65 + i]) * (16 << 10), 1 << 24, EntryKind.PUT, bytes([97 + i]) * 16371)
        for i in range(4)
    ]
    builder = SSTableBuilder(device, block_size=block)
    builder.add_all(entries)
    table = builder.finish()
    assert table.num_data_blocks == 2
    for block_no in range(table.num_data_blocks):
        assert len(device.read_block(table.file_id, block_no)) <= block
    assert list(table.iter_entries()) == entries
    for entry in entries:
        assert table.get(entry.key) == entry


def kv_tree(**overrides):
    return LSMTree(make_config(
        kv_separation=True, value_threshold=64, wal_enabled=True, wal_sync_interval=1,
        **overrides,
    ))


def test_a_key_too_long_beside_its_pointer_names_that_cause():
    """Under kv-separation a log-bound value leaves a pointer in the entry;
    a key too long to sit beside it is refused before the value log is
    written, and the error says so instead of asking for kv_separation."""
    tree = kv_tree()
    log = tree._value_log
    blocks = tree.device.num_blocks(log.current_file)
    before = logged(tree)
    with pytest.raises(ConfigError, match="beside its value-log pointer") as refused:
        tree.put(b"k" * 500, b"v" * 700)
    assert "enable kv_separation" not in str(refused.value)
    assert tree.device.num_blocks(log.current_file) == blocks
    assert logged(tree) == before
    tree.put(b"k" * 300, b"v" * 700)
    assert_keeps_flushing_and_recovering(tree, {b"k" * 300: b"v" * 700})


def test_a_batch_or_ingest_with_one_oversized_op_reaches_no_log():
    """Every op of a batch (and every pair of an ingest) is checked before
    any is staged: the valid log-bound value ahead of the oversized op is
    not appended to the value log either."""
    tree = kv_tree()
    log = tree._value_log
    blocks = tree.device.num_blocks(log.current_file)
    before = logged(tree)
    with pytest.raises(ConfigError):
        tree.write_batch([("put", b"a", b"v" * 700), ("put", b"k" * 500, b"v" * 700)])
    with pytest.raises(ConfigError):
        tree.ingest_external([(b"a", b"v" * 700), (b"k" * 500, b"v" * 700)])
    assert tree.device.num_blocks(log.current_file) == blocks
    assert not log._pending
    assert logged(tree) == before
    assert not tree.get(b"a").found


def test_a_store_without_a_value_log_reopened_with_one_reads_as_corruption():
    """Values written raw have no value-log tag: reading them through a value
    codec is ``CorruptionError``, never a plain ``ValueError``."""
    config = make_config(wal_enabled=True)
    tree = LSMTree(config)
    for i in range(20):
        tree.put(b"k%02d" % i, b"value-%d" % i)
    tree.close()
    reopened = LSMTree.recover(make_config(wal_enabled=True, kv_separation=True), tree.device)
    for i in range(20):
        with pytest.raises(CorruptionError):
            reopened.get(b"k%02d" % i)


def test_a_value_gc_relocates_under_a_wider_seqno_still_recovers():
    """Value-log GC re-logs a live value under a fresh, larger seqno, and
    replay checks that record again. A log-bound put is sized at the widest
    seqno as well as the widest pointer, so the longest key accepted below
    seqno 256 survives a relocation past it and a crash before the next
    flush."""
    tree = kv_tree(vlog_segment_blocks=1)
    value = b"v" * 100
    for klen in range(430, 0, -1):  # the longest key accepted beside a pointer
        try:
            tree.put(b"K" * klen, value)
            break
        except ConfigError:
            continue
    key = b"K" * klen
    for i in range(300):  # one live value; the segments roll under it
        tree.put(b"f", b"%03d" % i + value)
    assert tree.collect_value_garbage() >= 1
    assert tree._seqno > 256
    recovered = LSMTree.recover(tree.config, tree.device)  # crash: no close
    assert recovered.get(key).value == value
    assert recovered.get(b"f").value == b"299" + value
    recovered.flush()
    assert recovered.get(key).value == value
    recovered.close()
