"""Key-range subcompactions must be invisible: same entries, same answers."""

import pytest

from repro.common.encoding import encode_uint_key
from repro.common.entry import Entry, EntryKind
from repro.errors import SimulatedCrashError
from repro.parallel import (
    SubcompactionError,
    merge_range,
    run_subcompactions,
    split_key_ranges,
)
from repro.storage.block_device import BlockDevice
from repro.storage.run import Run
from repro.storage.sstable import SSTableBuilder

from tests.conftest import make_tree


def build_run(device, entries):
    builder = SSTableBuilder(device)
    builder.add_all(entries)
    return Run([builder.finish()])


def overlapping_runs(device, n_runs=3, keys_per_run=120):
    """Runs with interleaved, overlapping key ranges and seqno layering."""
    runs = []
    seq = 1
    for r in range(n_runs):
        entries = []
        for i in range(keys_per_run):
            key = encode_uint_key(i * n_runs + r)
            if (i + r) % 11 == 0:
                entries.append(Entry(key, seq, EntryKind.DELETE))
            else:
                entries.append(Entry(key, seq, value=b"run%d:%05d" % (r, i)))
            seq += 1
        runs.append(build_run(device, entries))
    return runs


def newest_wins(purge=False, keep=None, dropped=None):
    """A per-key fold: newest version, tombstones per ``purge``, then ``keep``."""

    def fold(group):
        entry = group[0]
        if entry.is_tombstone:
            return None if purge else entry
        if keep is not None and not keep(entry.key, entry.value):
            if dropped is not None:
                dropped.append(entry.key)
            return None
        return entry

    return fold


def entry_tuples(entries):
    return [(e.key, e.seqno, e.kind, e.value) for e in entries]


class TestSplitKeyRanges:
    def test_serial_when_disabled(self, device):
        runs = overlapping_runs(device)
        assert split_key_ranges(runs, max_subcompactions=1, min_blocks=1) == [
            (None, None)
        ]

    def test_serial_when_too_small(self, device):
        run = build_run(device, [Entry(encode_uint_key(i), i + 1) for i in range(5)])
        assert split_key_ranges([run], max_subcompactions=4, min_blocks=64) == [
            (None, None)
        ]

    def test_ranges_partition_key_space(self, device):
        runs = overlapping_runs(device)
        ranges = split_key_ranges(runs, max_subcompactions=4, min_blocks=2)
        assert len(ranges) > 1
        assert ranges[0][0] is None
        assert ranges[-1][1] is None
        for (lo_a, hi_a), (lo_b, hi_b) in zip(ranges, ranges[1:]):
            assert hi_a == lo_b  # contiguous half-open pieces
        boundaries = [hi for _, hi in ranges[:-1]]
        assert boundaries == sorted(set(boundaries))  # strictly increasing

    def test_range_count_capped(self, device):
        runs = overlapping_runs(device)
        ranges = split_key_ranges(runs, max_subcompactions=3, min_blocks=2)
        assert 1 < len(ranges) <= 3


class TestMergeRange:
    def test_ranges_cover_exactly_the_serial_merge(self, device):
        runs = overlapping_runs(device)
        serial = list(merge_range(runs, None, None, newest_wins()))
        ranges = split_key_ranges(runs, max_subcompactions=4, min_blocks=2)
        pieces = []
        for lo, hi in ranges:
            pieces.extend(merge_range(runs, lo, hi, newest_wins()))
        assert entry_tuples(pieces) == entry_tuples(serial)

    def test_boundary_key_belongs_to_next_range(self, device):
        runs = overlapping_runs(device)
        ranges = split_key_ranges(runs, max_subcompactions=4, min_blocks=2)
        boundary = ranges[0][1]
        left = list(merge_range(runs, None, boundary, newest_wins()))
        right = list(merge_range(runs, boundary, None, newest_wins()))
        assert all(e.key < boundary for e in left)
        assert right[0].key == boundary


class TestRunSubcompactions:
    @pytest.mark.parametrize("purge", [False, True])
    def test_identical_to_serial_merge(self, device, purge):
        runs = overlapping_runs(device)
        serial = list(merge_range(runs, None, None, newest_wins(purge)))
        ranges = split_key_ranges(runs, max_subcompactions=4, min_blocks=2)
        assert len(ranges) > 1
        tables = run_subcompactions(
            runs, ranges, newest_wins(purge), lambda: SSTableBuilder(device),
            file_limit=2048,
        )
        merged = []
        for table in tables:
            merged.extend(table.iter_entries())
        assert entry_tuples(merged) == entry_tuples(serial)
        # Output tables are a valid run: sorted and non-overlapping.
        for a, b in zip(tables, tables[1:]):
            assert a.max_key < b.min_key

    def test_filtering_fold_agrees_across_ranges(self, device):
        runs = overlapping_runs(device)
        ranges = split_key_ranges(runs, max_subcompactions=4, min_blocks=2)
        keep = lambda key, value: not value.endswith(b"3")
        serial_dropped, parallel_dropped = [], []
        serial = list(
            merge_range(runs, None, None, newest_wins(True, keep, serial_dropped))
        )
        tables = run_subcompactions(
            runs, ranges, newest_wins(True, keep, parallel_dropped),
            lambda: SSTableBuilder(device), file_limit=2048,
        )
        assert sorted(parallel_dropped) == serial_dropped and serial_dropped
        merged = []
        for table in tables:
            merged.extend(table.iter_entries())
        assert entry_tuples(merged) == entry_tuples(serial)

    def test_worker_failure_deletes_every_output(self, device):
        runs = overlapping_runs(device)
        ranges = split_key_ranges(runs, max_subcompactions=4, min_blocks=2)
        boundary = ranges[-1][0]

        def keep(key, value):
            if key >= boundary:  # fail only the last range's worker
                raise RuntimeError("boom")
            return True

        files_before = device.stats.files_created - device.stats.files_deleted
        with pytest.raises(SubcompactionError):
            run_subcompactions(
                runs, ranges, newest_wins(keep=keep), lambda: SSTableBuilder(device),
                file_limit=2048,
            )
        files_after = device.stats.files_created - device.stats.files_deleted
        assert files_after == files_before  # no torn output set left behind

    def test_serial_failure_deletes_its_outputs_too(self, device):
        """One range runs the same build loop on the caller's thread: a
        failure mid-merge leaves no finished or partial file behind."""
        runs = overlapping_runs(device)
        late = split_key_ranges(runs, max_subcompactions=4, min_blocks=2)[-1][0]

        def keep(key, value):
            if key >= late:  # fail late: earlier output files are finished
                raise RuntimeError("boom")
            return True

        files_before = device.stats.files_created - device.stats.files_deleted
        with pytest.raises(RuntimeError):
            run_subcompactions(
                runs, [(None, None)], newest_wins(keep=keep),
                lambda: SSTableBuilder(device), file_limit=2048,
            )
        assert device.stats.files_created - device.stats.files_deleted == files_before

    def test_simulated_crash_passes_through_unwrapped(self, device):
        runs = overlapping_runs(device)
        ranges = split_key_ranges(runs, max_subcompactions=4, min_blocks=2)

        def keep(key, value):
            raise SimulatedCrashError("injected")

        with pytest.raises(SimulatedCrashError):
            run_subcompactions(
                runs, ranges, newest_wins(keep=keep), lambda: SSTableBuilder(device),
                file_limit=2048,
            )


class TestTreeLevelParallelism:
    def workload(self, tree, n=4000, keyspace=700):
        for i in range(n):
            key = encode_uint_key((i * 37) % keyspace)
            if i % 13 == 0:
                tree.delete(key)
            else:
                tree.put(key, b"v%07d" % i)
        tree.flush()
        tree.compact_all()

    def test_parallel_tree_answers_match_serial(self):
        from repro.parallel import ParallelConfig

        serial = make_tree()
        parallel = make_tree(
            parallel=ParallelConfig(max_subcompactions=4, min_subcompaction_blocks=2)
        )
        self.workload(serial)
        self.workload(parallel)
        assert parallel.stats.parallel_compactions > 0
        assert parallel.stats.subcompactions >= 2 * parallel.stats.parallel_compactions
        assert list(parallel.scan()) == list(serial.scan())
        for i in range(700):
            key = encode_uint_key(i)
            a, b = serial.get(key), parallel.get(key)
            assert (a.found, a.value) == (b.found, b.value)

    def test_parallel_tree_shape_matches_serial(self):
        from repro.parallel import ParallelConfig

        serial = make_tree()
        parallel = make_tree(
            parallel=ParallelConfig(max_subcompactions=4, min_subcompaction_blocks=2)
        )
        self.workload(serial)
        self.workload(parallel)
        shape = lambda t: [
            (lvl["level"], lvl["entries"]) for lvl in t.level_summary()
        ]
        assert shape(parallel) == shape(serial)
