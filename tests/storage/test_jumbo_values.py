"""Values larger than a device block: spanning, jumbo pointers, WAL frames."""

import pytest

from repro import LSMTree, encode_uint_key
from repro.common.entry import Entry
from repro.errors import ConfigError
from repro.storage.value_log import ValueLog, ValuePointer
from repro.storage.wal import WriteAheadLog
from tests.conftest import make_config, make_tree


class TestDevicePayloads:
    def test_append_read_roundtrip(self, device):
        fid = device.create_file()
        payload = bytes(range(256)) * 10  # 2560B over 512B blocks
        first, span = device.append_payload(fid, payload)
        assert span == 5
        assert device.read_payload(fid, first, span) == payload

    def test_empty_payload(self, device):
        fid = device.create_file()
        first, span = device.append_payload(fid, b"")
        assert span == 1
        assert device.read_payload(fid, first, span) == b""

    def test_interleaved_payloads(self, device):
        fid = device.create_file()
        a = device.append_payload(fid, b"a" * 1000)
        b = device.append_payload(fid, b"b" * 100)
        assert device.read_payload(fid, *a) == b"a" * 1000
        assert device.read_payload(fid, *b) == b"b" * 100


class TestValueLogJumbo:
    def test_jumbo_roundtrip(self, device):
        log = ValueLog(device)
        big = b"J" * 4000
        pointer = log.append(b"k", big)
        assert pointer.span > 1
        log.flush()
        assert log.get(pointer) == big

    def test_mixed_small_and_jumbo(self, device):
        log = ValueLog(device)
        pointers = {}
        for i in range(20):
            value = b"v%d" % i if i % 2 else b"V" * 2000 + b"%d" % i
            pointers[i] = (log.append(b"k%d" % i, value), value)
        log.flush()
        for pointer, value in pointers.values():
            assert log.get(pointer) == value

    def test_gc_relocates_jumbo(self, device):
        log = ValueLog(device, segment_blocks=2)
        live = {}
        for i in range(10):
            live[b"k%d" % i] = log.append(b"k%d" % i, b"X" * 1500)
        log.flush()
        relocations, _ = log.collect_garbage(lambda key, p: live.get(key) == p)
        for key, old in live.items():
            new = relocations.get(old, old)
            assert log.get(new) == b"X" * 1500

    def test_pointer_span_encoding(self):
        pointer = ValuePointer(3, 7, 0, span=5)
        assert ValuePointer.decode(pointer.encode()) == pointer


class TestWALFrames:
    def test_huge_record_survives(self, device):
        wal = WriteAheadLog(device, sync_interval=1)
        big = Entry(key=b"k", seqno=1, value=b"H" * 5000)
        wal.append(big)
        assert list(wal.replay()) == [big]

    def test_mixed_frame_sizes(self, device):
        wal = WriteAheadLog(device, sync_interval=3)
        entries = []
        for i in range(10):
            value = b"x" * (3000 if i % 4 == 0 else 10)
            entries.append(Entry(key=b"k%02d" % i, seqno=i + 1, value=value))
            wal.append(entries[-1])
        wal.sync()
        assert list(wal.replay()) == entries


class TestEngineJumbo:
    def test_inline_oversize_rejected_with_guidance(self):
        tree = make_tree()
        with pytest.raises(ConfigError, match="kv_separation"):
            tree.put(b"k", b"x" * 2000)

    @pytest.mark.parametrize("kv_separation", [False, True], ids=["raw", "kv-separated"])
    def test_a_ttl_put_counts_its_deadline_against_the_block(self, kv_separation):
        """An entry of exactly one block fits; its TTL form is eight bytes
        more (the deadline) and is refused before it is logged or applied."""
        tree = make_tree(
            kv_separation=kv_separation, value_threshold=4096,  # values stay inline
            wal_enabled=True, wal_sync_interval=1,
        )
        key = b"k"
        inline_tag = 1 if kv_separation else 0
        edge = b"e" * (tree.config.block_size - len(key) - inline_tag - 12)
        tree.put(key, edge)  # exactly one block
        with pytest.raises(ConfigError, match="kv_separation"):
            tree.put(b"t", edge, ttl=100.0)
        tree.put(b"t", edge[:-8], ttl=100.0)  # deadline included: one block
        tree.flush()
        assert tree.get(key).value == edge
        assert tree.get(b"t").value == edge[:-8]
        recovered = LSMTree.recover(tree.config, tree.device)
        assert recovered.get(b"t").value == edge[:-8]

    def test_kv_separation_handles_any_size(self):
        tree = make_tree(kv_separation=True, value_threshold=64)
        sizes = [10, 500, 2000, 10_000]
        for i, size in enumerate(sizes):
            tree.put(encode_uint_key(i), bytes([65 + i]) * size)
        tree.compact_all()
        for i, size in enumerate(sizes):
            assert tree.get(encode_uint_key(i)).value == bytes([65 + i]) * size

    def test_jumbo_survives_crash_recovery(self):
        config = make_config(
            kv_separation=True, value_threshold=64,
            wal_enabled=True, wal_sync_interval=1,
        )
        tree = LSMTree(config)
        big = b"B" * 4000
        tree.put(b"jumbo", big)
        recovered = LSMTree.recover(config, tree.device)
        assert recovered.get(b"jumbo").value == big
