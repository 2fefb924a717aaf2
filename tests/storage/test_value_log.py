"""Value log: append/get round-trips, segment rolling, garbage collection."""

import pytest

from repro.storage.block_device import BlockDevice
from repro.storage.value_log import ValueLog, ValuePointer


@pytest.fixture
def log(device):
    return ValueLog(device, segment_blocks=4)


class TestPointer:
    def test_encode_decode(self):
        pointer = ValuePointer(3, 7, 2)
        assert ValuePointer.decode(pointer.encode()) == pointer


class TestAppendGet:
    def test_roundtrip_buffered(self, log):
        pointer = log.append(b"k", b"value")
        assert log.get(pointer) == b"value"

    def test_roundtrip_after_flush(self, log):
        pointer = log.append(b"k", b"value")
        log.flush()
        assert log.get(pointer) == b"value"

    def test_many_values_across_blocks(self, device):
        log = ValueLog(device, segment_blocks=128)
        pointers = [log.append(b"k%d" % i, b"v" * 100 + b"%d" % i) for i in range(50)]
        log.flush()
        for i, pointer in enumerate(pointers):
            assert log.get(pointer) == b"v" * 100 + b"%d" % i

    def test_get_costs_one_block_read(self, device):
        log = ValueLog(device)
        pointer = log.append(b"k", b"v" * 64)
        log.flush()
        before = device.stats.blocks_read
        log.get(pointer)
        assert device.stats.blocks_read - before == 1

    def test_segment_rolls_when_full(self, device):
        log = ValueLog(device, segment_blocks=2)
        first_file = log.current_file
        for i in range(100):
            log.append(b"k%d" % i, b"v" * 200)
        log.flush()
        assert log.current_file != first_file

    def test_invalid_segment_blocks(self, device):
        with pytest.raises(ValueError):
            ValueLog(device, segment_blocks=0)


class TestGarbageCollection:
    def test_gc_drops_dead_values(self, device):
        log = ValueLog(device, segment_blocks=2)
        live = {}
        for i in range(60):
            key = b"k%02d" % (i % 20)  # overwrite each key 3x
            live[key] = log.append(key, b"payload-%02d" % i)
        log.flush()
        used_before = device.used_bytes

        relocations, segments = log.collect_garbage(
            lambda key, pointer: live.get(key) == pointer
        )
        log.release(segments)  # the caller deletes what GC emptied
        for file_id in segments:
            device.delete_file(file_id)
        for key in live:
            if live[key] in relocations:
                live[key] = relocations[live[key]]
        assert device.used_bytes < used_before
        for key, pointer in live.items():
            assert log.get(pointer).startswith(b"payload-")

    def test_gc_resets_garbage_counter(self, device):
        log = ValueLog(device, segment_blocks=2)
        pointer = log.append(b"k", b"v" * 100)
        log.mark_dead(100)
        assert log.garbage_bytes == 100
        log.collect_garbage(lambda key, p: False)
        assert log.garbage_bytes == 0
        del pointer
