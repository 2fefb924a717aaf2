"""Compaction primitives: layouts, triggers, pickers."""

import pytest

from repro.common.entry import Entry
from repro.compaction.layout import LayoutPolicy
from repro.compaction.picker import make_picker
from repro.compaction.trigger import (
    CompositeTrigger,
    LevelState,
    RunCountTrigger,
    SaturationTrigger,
)
from repro.core.design_space import DESIGN_SPACE
from repro.errors import ConfigError
from repro.storage.sstable import SSTableBuilder


class TestLayouts:
    def test_leveling_bounds(self):
        layout = LayoutPolicy.leveling()
        assert layout.max_runs(1, is_last=False) == 1
        assert layout.max_runs(5, is_last=True) == 1

    def test_tiering_bounds(self):
        layout = LayoutPolicy.tiering(size_ratio=5)
        assert layout.max_runs(1, is_last=False) == 4
        assert layout.max_runs(3, is_last=True) == 4

    def test_lazy_leveling_bounds(self):
        layout = LayoutPolicy.lazy_leveling(size_ratio=5)
        assert layout.max_runs(1, is_last=False) == 4
        assert layout.max_runs(3, is_last=True) == 1

    def test_hybrid(self):
        layout = LayoutPolicy.hybrid(inner_runs=3, last_runs=2)
        assert layout.max_runs(1, is_last=False) == 3
        assert layout.max_runs(2, is_last=True) == 2

    def test_bush_shrinks_with_depth(self):
        layout = LayoutPolicy.bush(size_ratio=4, depth=3)
        l1 = layout.max_runs(1, is_last=False)
        l2 = layout.max_runs(2, is_last=False)
        l3 = layout.max_runs(3, is_last=False)
        assert l1 > l2 > l3
        assert layout.max_runs(9, is_last=True) == 1

    def test_by_name(self):
        assert LayoutPolicy.by_name("leveling", 4).name == "leveling"
        with pytest.raises(ConfigError):
            LayoutPolicy.by_name("cosmic", 4)

    def test_validation(self):
        with pytest.raises(ConfigError):
            LayoutPolicy("bad", inner_runs=0, last_runs=1)
        with pytest.raises(ConfigError):
            LayoutPolicy.tiering(size_ratio=1)


def state(num_runs=1, size=100, capacity=1000, max_runs=1):
    return LevelState(
        level=1, num_runs=num_runs, size_bytes=size,
        capacity_bytes=capacity, max_runs=max_runs, is_last=False,
    )


class TestTriggers:
    def test_run_count(self):
        trigger = RunCountTrigger()
        assert trigger.should_compact(state(num_runs=3, max_runs=2))
        assert not trigger.should_compact(state(num_runs=2, max_runs=2))

    def test_saturation(self):
        trigger = SaturationTrigger()
        assert trigger.should_compact(state(size=1001))
        assert not trigger.should_compact(state(size=1000))

    def test_saturation_threshold(self):
        trigger = SaturationTrigger(threshold=0.5)
        assert trigger.should_compact(state(size=501))
        with pytest.raises(ValueError):
            SaturationTrigger(threshold=0)

    def test_composite_any(self):
        trigger = CompositeTrigger(RunCountTrigger(), SaturationTrigger())
        assert trigger.should_compact(state(num_runs=5, max_runs=1))
        assert trigger.should_compact(state(size=2000))
        assert not trigger.should_compact(state())
        with pytest.raises(ValueError):
            CompositeTrigger()


def build_table(device, lo, hi, tombstones=0, value=b"v" * 30):
    builder = SSTableBuilder(device)
    from repro.common.entry import EntryKind

    for i, v in enumerate(range(lo, hi)):
        kind = EntryKind.DELETE if i < tombstones else EntryKind.PUT
        builder.add(Entry(key=b"k%06d" % v, seqno=i + 1, kind=kind,
                          value=b"" if kind is EntryKind.DELETE else value))
    return builder.finish()


class TestPickers:
    def test_registry_complete(self):
        assert set(DESIGN_SPACE["picker"].choices) == {
            "round_robin", "least_overlap", "coldest", "most_tombstones", "oldest"
        }
        with pytest.raises(ConfigError):
            make_picker("bogus")

    def test_least_overlap_prefers_gap_file(self, device):
        level = [build_table(device, 0, 50), build_table(device, 100, 150)]
        below = [build_table(device, 0, 60)]  # overlaps only the first file
        picker = make_picker("least_overlap")
        assert picker.pick(level, below) is level[1]

    def test_round_robin_cycles(self, device):
        level = [build_table(device, 0, 10), build_table(device, 20, 30)]
        picker = make_picker("round_robin")
        first = picker.pick(level, [])
        second = picker.pick(level, [])
        third = picker.pick(level, [])
        assert first is level[0] and second is level[1] and third is level[0]

    def test_coldest_picks_least_accessed(self, device):
        level = [build_table(device, 0, 10), build_table(device, 20, 30)]
        level[0].hotness = 10
        picker = make_picker("coldest")
        assert picker.pick(level, []) is level[1]

    def test_most_tombstones_picks_delete_heavy(self, device):
        level = [
            build_table(device, 0, 20, tombstones=0),
            build_table(device, 30, 50, tombstones=15),
        ]
        picker = make_picker("most_tombstones")
        assert picker.pick(level, []) is level[1]

    def test_oldest_picks_smallest_file_id(self, device):
        older = build_table(device, 0, 10)
        newer = build_table(device, 20, 30)
        picker = make_picker("oldest")
        assert picker.pick([newer, older], []) is older
