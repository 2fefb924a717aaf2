"""Runs: partitioned sorted units, routing, replacement surgery."""

import pytest

from repro.common.entry import Entry
from repro.storage.run import Run
from repro.storage.sstable import SSTableBuilder


def build_table(device, keys):
    builder = SSTableBuilder(device)
    for i, key in enumerate(keys):
        builder.add(Entry(key=key, seqno=i + 1, value=b"v"))
    return builder.finish()


@pytest.fixture
def partitioned_run(device):
    tables = [
        build_table(device, [b"a", b"b"]),
        build_table(device, [b"m", b"n"]),
        build_table(device, [b"x", b"y"]),
    ]
    return Run(tables)


class TestConstruction:
    def test_requires_tables(self):
        with pytest.raises(ValueError):
            Run([])

    def test_rejects_overlapping_tables(self, device):
        a = build_table(device, [b"a", b"m"])
        b = build_table(device, [b"c", b"z"])
        with pytest.raises(ValueError):
            Run([a, b])

    def test_rejects_unsorted_tables(self, device):
        a = build_table(device, [b"a", b"b"])
        b = build_table(device, [b"x", b"y"])
        with pytest.raises(ValueError):
            Run([b, a])

    def test_metadata_aggregates(self, partitioned_run):
        assert partitioned_run.min_key == b"a"
        assert partitioned_run.max_key == b"y"
        assert partitioned_run.entry_count == 6


class TestRouting:
    def test_get_routes_to_right_table(self, partitioned_run):
        assert partitioned_run.get(b"m").key == b"m"
        assert partitioned_run.get(b"y").key == b"y"

    def test_get_in_gap_between_tables(self, partitioned_run):
        assert partitioned_run.get(b"c") is None  # between table 0 and 1

    def test_get_outside_range(self, partitioned_run):
        assert partitioned_run.get(b"0") is None
        assert partitioned_run.get(b"zz") is None

    def test_get_bumps_table_hotness(self, partitioned_run):
        partitioned_run.get(b"a")
        partitioned_run.get(b"b")
        assert partitioned_run.tables[0].hotness == 2

    def test_iter_spans_all_tables(self, partitioned_run):
        keys = [e.key for e in partitioned_run.iter_entries()]
        assert keys == [b"a", b"b", b"m", b"n", b"x", b"y"]

    def test_iter_bounded_skips_tables(self, partitioned_run):
        keys = [e.key for e in partitioned_run.iter_entries(start=b"m", end=b"n")]
        assert keys == [b"m", b"n"]

    def test_tables_overlapping(self, partitioned_run):
        hits = partitioned_run.tables_overlapping(b"n", b"x")
        assert [t.min_key for t in hits] == [b"m", b"x"]


class TestSurgery:
    def test_replace_tables_removes_and_adds(self, device, partitioned_run):
        new_table = build_table(device, [b"c", b"d"])
        victim = partitioned_run.tables[0]
        updated = partitioned_run.replace_tables([victim], [new_table])
        assert [t.min_key for t in updated.tables] == [b"c", b"m", b"x"]
        # original run is untouched (immutability)
        assert [t.min_key for t in partitioned_run.tables] == [b"a", b"m", b"x"]

    def test_replace_validates_result(self, device, partitioned_run):
        overlapping = build_table(device, [b"a", b"z"])
        with pytest.raises(ValueError):
            partitioned_run.replace_tables([], [overlapping])

    def test_overlaps(self, partitioned_run):
        assert partitioned_run.overlaps(b"b", b"c")
        assert not partitioned_run.overlaps(b"z", b"zz")

    def test_may_contain_range_without_filters_falls_back(self, partitioned_run):
        assert partitioned_run.may_contain_range(b"a", b"b")
        # no table spans [c, d]: key-range metadata alone proves emptiness
        assert not partitioned_run.may_contain_range(b"c", b"d")
        # a range overlapping an unfiltered table must answer "maybe"
        assert partitioned_run.may_contain_range(b"n", b"q")


class TestBoundedReadsBisect:
    """A bounded scan of a partitioned run inspects O(log files) tables
    beyond the ones it reads: the first by bisection, the walk stopped at
    the first table past the range."""

    @pytest.fixture
    def wide_run(self, device):
        tables = [
            build_table(device, [b"%06d" % (2 * i), b"%06d" % (2 * i + 1)]) for i in range(256)
        ]
        return Run(tables)

    def count_inspected(self, monkeypatch, wide_run, read):
        """Run ``read(run)`` and return the tables whose key range it read."""
        from repro.storage.sstable import SSTable

        inspected = set()
        for name in ("min_key", "max_key"):
            prop = getattr(SSTable, name)

            def counted(table, _get=prop.fget):
                inspected.add(table.file_id)
                return _get(table)

            monkeypatch.setattr(SSTable, name, property(counted))
        result = read(wide_run)
        monkeypatch.undo()
        return inspected, result

    def test_a_bounded_scan_inspects_few_tables(self, monkeypatch, wide_run):
        lo, hi = b"%06d" % 301, b"%06d" % 306  # tables 150..153
        inspected, keys = self.count_inspected(
            monkeypatch, wide_run,
            lambda run: [key for chunk in run.iter_chunks(lo, hi) for key in chunk[0]],
        )
        assert keys == [b"%06d" % i for i in range(301, 307)]
        assert len(inspected) <= 4 + 1  # the four it reads and the one past it

    def test_range_checks_inspect_few_tables(self, monkeypatch, wide_run):
        lo, hi = b"%06d" % 400, b"%06d" % 403
        inspected, overlapping = self.count_inspected(
            monkeypatch, wide_run, lambda run: run.tables_overlapping(lo, hi)
        )
        assert [table.min_key for table in overlapping] == [b"%06d" % 400, b"%06d" % 402]
        assert len(inspected) <= 2 + 1
        inspected, maybe = self.count_inspected(
            monkeypatch, wide_run, lambda run: run.may_contain_range(lo, hi)
        )
        assert maybe and len(inspected) <= 2 + 1

    def test_bounds_outside_and_between_tables(self, wide_run):
        assert wide_run.tables_overlapping(b"9", b"99") == []
        assert wide_run.tables_overlapping(b"", b"0") == []
        between = wide_run.tables_overlapping(b"%06d" % 1 + b"x", b"%06d" % 2)
        assert [table.min_key for table in between] == [b"%06d" % 2]
        assert list(wide_run.iter_entries(b"%06d" % 511, None))[0].key == b"%06d" % 511
