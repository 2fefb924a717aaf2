"""ReadGuard: retry, backoff, quarantine, and degraded-read behavior."""

import pytest

from repro import (
    CorruptionError,
    FaultConfig,
    LSMTree,
    QuarantinedFileError,
    ReadGuard,
    TransientIOError,
    encode_uint_key,
)
from repro.common.entry import Entry
from repro.storage.sstable import encode_block_v2, parse_block

from tests.faults.conftest import durable_config, faulty_device


def _raises(*args, **kwargs):
    from repro.errors import ReproError

    raise ReproError("simulated broken auxiliary structure")


BLOCK = [Entry(b"k", 1, value=b"v")]


def _one_block_device(**faults):
    """A device holding one table data block."""
    dev = faulty_device(**faults)
    fid = dev.create_file()
    dev.append_block(fid, encode_block_v2(BLOCK)[0])
    return dev, fid


class TestRetry:
    def test_transient_errors_are_retried_to_success(self):
        dev, fid = _one_block_device(seed=4, read_error_prob=0.6)
        guard = ReadGuard(max_read_retries=50)
        dev.guard = guard
        dev.arm()
        for _ in range(30):
            payload, parsed = guard.read_parsed(dev, fid, 0, parse_block)
            assert parsed == BLOCK
        assert guard.transient_errors > 0
        assert guard.retry_successes > 0
        assert guard.retry_exhausted == 0

    def test_retry_budget_exhaustion_propagates(self):
        dev, fid = _one_block_device(seed=4, read_error_prob=1.0)
        guard = ReadGuard(max_read_retries=3)
        dev.guard = guard
        dev.arm()
        with pytest.raises(TransientIOError):
            guard.read_parsed(dev, fid, 0, parse_block)
        assert guard.retry_exhausted == 1
        assert guard.retry_attempts == 3  # budget, not budget+1

    def test_backoff_charged_to_simulated_clock_capped(self):
        dev, fid = _one_block_device(seed=4, read_error_prob=1.0)
        guard = ReadGuard(max_read_retries=6, backoff_base=1.0, backoff_cap=4.0)
        dev.guard = guard
        dev.arm()
        before = dev.stats.simulated_time
        with pytest.raises(TransientIOError):
            guard.read_parsed(dev, fid, 0, parse_block)
        # 1 + 2 + 4 + 4 + 4 + 4: doubling, capped at 4.
        assert dev.stats.simulated_time - before == pytest.approx(19.0)


class TestQuarantine:
    def test_persistent_corruption_quarantines_file(self):
        dev, fid = _one_block_device(seed=4)
        guard = ReadGuard(quarantine_after=2)
        dev.guard = guard
        dev.corrupt_block(fid, 0)
        with pytest.raises(CorruptionError):
            guard.read_parsed(dev, fid, 0, parse_block)
        assert guard.is_quarantined(fid)
        assert guard.corruptions_detected == 2  # initial read + one re-read

    def test_quarantined_file_fails_fast(self):
        dev, fid = _one_block_device(seed=4)
        guard = ReadGuard()
        guard.quarantine(fid)
        reads_before = dev.stats.blocks_read
        with pytest.raises(QuarantinedFileError) as info:
            guard.read_parsed(dev, fid, 0, parse_block)
        assert info.value.file_id == fid
        assert dev.stats.blocks_read == reads_before  # no media touch
        assert guard.quarantine_blocked_reads == 1

    def test_release_lifts_quarantine(self):
        dev, fid = _one_block_device(seed=4)
        guard = ReadGuard()
        guard.quarantine(fid)
        guard.release(fid)
        payload, parsed = guard.read_parsed(dev, fid, 0, parse_block)
        assert parsed == BLOCK

    def test_quarantined_error_is_typed_corruption(self):
        # The contract: quarantine surfaces as a CorruptionError subclass,
        # so callers handling corruption handle quarantine too.
        assert issubclass(QuarantinedFileError, CorruptionError)


class TestGuardedTreeReads:
    def _flushed_tree(self, **fault_overrides):
        dev = faulty_device(**fault_overrides)
        config = durable_config(wal_enabled=False, filter_kind="bloom")
        tree = LSMTree(config, device=dev)
        tree.device.guard = ReadGuard.from_config(FaultConfig(**fault_overrides))
        expected = {}
        for i in range(600):
            key = encode_uint_key(i)
            value = b"v%05d" % i
            tree.put(key, value)
            expected[key] = value
        tree.flush()
        return tree, dev, expected

    def test_reads_correct_under_transient_errors(self):
        tree, dev, expected = self._flushed_tree(
            seed=6, read_error_prob=0.05, max_read_retries=64
        )
        dev.arm()
        for key, value in expected.items():
            result = tree.get(key)
            assert result.found and result.value == value
        assert tree.device.guard.transient_errors > 0
        snap = tree.metrics_snapshot()
        assert snap["fault_transient_errors"] == tree.device.guard.transient_errors
        assert snap["retry_attempts"] > 0

    def test_corrupt_data_block_never_wrong_answer(self):
        tree, dev, expected = self._flushed_tree(seed=6)
        guard = tree.device.guard
        table = tree._levels[-1][0].tables[0]
        dev.corrupt_block(table.file_id, 0)  # block 0 holds the smallest keys
        keys = sorted(expected)
        # Other blocks of the file are still readable before quarantine...
        for key in keys[-20:]:
            result = tree.get(key)
            assert result.found and result.value == expected[key]
        # ...a key on the rotten block surfaces a typed error, never a
        # silent wrong answer...
        with pytest.raises(CorruptionError):
            tree.get(keys[0])
        assert guard.corruptions_detected >= guard.quarantine_after
        assert guard.is_quarantined(table.file_id)
        # ...and once quarantined the whole file fails fast, media untouched.
        reads_before = dev.stats.blocks_read
        with pytest.raises(QuarantinedFileError):
            tree.get(keys[1])
        assert dev.stats.blocks_read == reads_before

    def test_degraded_read_when_filter_breaks(self):
        tree, dev, expected = self._flushed_tree(seed=6)
        guard = tree.device.guard
        # Break every filter/index object: reads must degrade to block scans,
        # not crash and not miss present keys.
        for runs in tree._levels:
            for run in runs:
                for table in run.tables:
                    if table.point_filter is not None:
                        table.point_filter.may_contain = _raises
                        if hasattr(table.point_filter, "may_contain_digest"):
                            table.point_filter.may_contain_digest = _raises
                    if table.search_index is not None:
                        table.search_index.locate = _raises
        sample = list(expected.items())[:40]
        for key, value in sample:
            result = tree.get(key)
            assert result.found and result.value == value
        assert guard.degraded_reads > 0
