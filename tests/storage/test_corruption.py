"""Checksums, fault injection, and the integrity scrubber."""

import pytest

from repro import encode_uint_key
from repro.common.entry import Entry
from repro.errors import CorruptionError
from repro.storage.block_device import BlockDevice
from repro.storage.sstable import encode_block_v2, parse_block
from repro.storage.wal import read_frame, write_frame
from tests.conftest import make_tree


def block(entries):
    return encode_block_v2(entries)[0]


def frame(entries, device):
    """``entries`` written as a log frame; returns ``(file, span)``."""
    fid = device.create_file()
    return fid, write_frame(device, fid, entries)[1]


class TestBlockChecksums:
    def test_roundtrip_clean(self, device):
        entries = [Entry(key=b"k%d" % i, seqno=i + 1, value=b"v") for i in range(5)]
        assert parse_block(block(entries)) == entries
        fid, span = frame(entries, device)
        assert read_frame(device, fid, 0, span)[0] == entries

    def test_flipped_value_byte_detected(self, device):
        entries = [Entry(key=b"key", seqno=1, value=b"A" * 50)]
        payload = bytearray(block(entries))
        payload[-10] ^= 0xFF  # inside the value bytes
        with pytest.raises(CorruptionError):
            parse_block(bytes(payload))
        fid, span = frame(entries, device)
        device.corrupt_block(fid, 0, byte_offset=-10)
        with pytest.raises(CorruptionError):
            read_frame(device, fid, 0, span)

    def test_flipped_crc_byte_detected(self, device):
        entries = [Entry(key=b"k", seqno=1, value=b"v")]
        payload = bytearray(block(entries))
        payload[-1] ^= 0xFF
        with pytest.raises(CorruptionError):
            parse_block(bytes(payload))
        fid, span = frame(entries, device)
        device.corrupt_block(fid, 0, byte_offset=-1)
        with pytest.raises(CorruptionError):
            read_frame(device, fid, 0, span)

    def test_an_empty_list_is_not_a_block(self):
        # Every block holds at least one entry: the value log writes no
        # block for an empty pending list, the WAL no frame.
        with pytest.raises(ValueError):
            encode_block_v2([])

    def test_too_short_payload_rejected(self, device):
        for payload in (b"", b"ab"):
            with pytest.raises(CorruptionError):
                parse_block(payload)
            fid = device.create_file()
            device.append_block(fid, payload)
            with pytest.raises(CorruptionError):
                read_frame(device, fid, 0, 1)


class TestDeviceFaultInjection:
    def test_corrupt_block_flips_in_place(self):
        device = BlockDevice(block_size=64)
        fid = device.create_file()
        device.append_block(fid, b"hello world")
        device.corrupt_block(fid, 0, byte_offset=0)
        assert device.read_block(fid, 0) != b"hello world"

    def test_corrupt_missing_block_raises(self):
        device = BlockDevice(block_size=64)
        fid = device.create_file()
        from repro.errors import BlockNotFoundError

        with pytest.raises(BlockNotFoundError):
            device.corrupt_block(fid, 3)


class TestEngineCorruptionDetection:
    def loaded_tree(self):
        tree = make_tree(cache_bytes=0)
        for i in range(2000):
            tree.put(encode_uint_key((i * 733) % 700), b"x" * 30)
        tree.flush()
        return tree

    def first_data_block(self, tree):
        for runs in tree._levels:
            for run in runs:
                for table in run.tables:
                    if table.num_data_blocks:
                        return table
        raise AssertionError("no data")

    def test_get_raises_on_corrupt_block(self):
        tree = self.loaded_tree()
        table = self.first_data_block(tree)
        tree.device.corrupt_block(table.file_id, 0, byte_offset=10)
        victim_key = table._block_first_keys[0]
        with pytest.raises(CorruptionError):
            tree.get(victim_key)

    def test_scrub_clean_tree_reports_no_errors(self):
        tree = self.loaded_tree()
        report = tree.verify_integrity()
        assert report["errors"] == []
        assert report["files_checked"] > 0
        assert report["blocks_checked"] > 0

    def test_scrub_finds_injected_corruption(self):
        tree = self.loaded_tree()
        table = self.first_data_block(tree)
        tree.device.corrupt_block(table.file_id, 0, byte_offset=10)
        report = tree.verify_integrity()
        assert len(report["errors"]) == 1
        assert "checksum" in report["errors"][0] or "block 0" in report["errors"][0]

    def test_scrub_finds_multiple_corruptions(self):
        tree = self.loaded_tree()
        table = self.first_data_block(tree)
        for block_no in range(min(3, table.num_data_blocks)):
            tree.device.corrupt_block(table.file_id, block_no, byte_offset=7)
        report = tree.verify_integrity()
        assert len(report["errors"]) >= min(3, table.num_data_blocks)

    def test_wal_replay_detects_corruption(self):
        from repro import LSMConfig, LSMTree

        config = LSMConfig(
            buffer_bytes=1 << 20, block_size=512, wal_enabled=True,
            wal_sync_interval=1, seed=9,
        )
        tree = LSMTree(config)
        for i in range(50):
            tree.put(encode_uint_key(i), b"v%d" % i)
        wal_file = tree._wal.current_file
        tree.device.corrupt_block(wal_file, 0, byte_offset=20)
        with pytest.raises(CorruptionError):
            LSMTree.recover(config, tree.device)
