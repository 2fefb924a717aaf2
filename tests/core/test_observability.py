"""Compaction history (Compactionary-style) and the prefix-scan API."""

import pytest

from repro import encode_uint_key
from repro.core.stats import CompactionEvent
from repro.tuning import SkewAwareCostModel
from repro.tuning.cost_model import CostModel, Workload
from repro.tuning.navigator import DesignNavigator
from tests.conftest import make_tree


class TestCompactionHistory:
    def test_events_recorded_in_order(self):
        tree = make_tree()
        for i in range(3000):
            tree.put(encode_uint_key((i * 733) % 1000), b"x" * 30)
        tree.flush()
        history = tree.stats.history
        assert history, "ingestion must record events"
        kinds = {event.kind for event in history}
        assert "flush" in kinds and ("full" in kinds or "partial" in kinds)
        ticks = [event.tick for event in history]
        assert ticks == sorted(ticks)

    def test_full_events_carry_byte_accounting(self):
        tree = make_tree()
        for i in range(3000):
            tree.put(encode_uint_key((i * 733) % 1000), b"x" * 30)
        tree.flush()
        merges = [e for e in tree.stats.history if e.kind == "full"]
        assert merges
        assert all(e.bytes_in > 0 and e.bytes_out > 0 for e in merges)
        total_in = sum(e.bytes_in for e in merges)
        assert total_in == tree.stats.compaction_bytes_in

    def test_trivial_moves_logged_with_zero_bytes(self):
        tree = make_tree(partial_compaction=True, file_bytes=1 << 10,
                         buffer_bytes=2 << 10)
        for i in range(3000):  # sequential: trivial moves guaranteed
            tree.put(encode_uint_key(i), b"x" * 30)
        tree.flush()
        moves = [e for e in tree.stats.history if e.kind == "trivial_move"]
        assert len(moves) == tree.stats.trivial_moves
        assert all(e.bytes_in == 0 and e.bytes_out == 0 for e in moves)

    def test_history_bounded(self):
        tree = make_tree(buffer_bytes=1 << 9)
        for i in range(6000):
            tree.put(encode_uint_key(i % 300), b"y" * 20)
        assert len(tree.stats.history) <= 1024

    def test_history_cap_keeps_newest_events(self):
        tree = make_tree(buffer_bytes=1 << 9)
        for i in range(6000):
            tree.put(encode_uint_key(i % 300), b"y" * 20)
        history = tree.stats.history
        assert len(history) <= 1024
        # The cap evicts from the front: the newest event is always retained.
        assert history[-1].tick == max(e.tick for e in history)

    def test_event_dataclass(self):
        event = CompactionEvent("full", 1, 2, 100, 80, 7)
        assert event.dest == 2 and event.bytes_out == 80


class TestPrefixScan:
    def fill(self, tree):
        for user in (b"alice", b"bob", b"bobby"):
            for i in range(5):
                tree.put(user + b":%d" % i, b"v")

    def test_exact_prefix_group(self):
        tree = make_tree()
        self.fill(tree)
        tree.flush()
        got = [k for k, _ in tree.scan_prefix(b"bob:")]
        assert got == [b"bob:%d" % i for i in range(5)]

    def test_prefix_is_not_a_substring_match(self):
        tree = make_tree()
        self.fill(tree)
        got = [k for k, _ in tree.scan_prefix(b"bob")]
        assert len(got) == 10  # bob:* and bobby:* both start with 'bob'

    def test_prefix_with_high_bytes(self):
        tree = make_tree()
        tree.put(b"\xff\xfe-a", b"1")
        tree.put(b"\xff\xfe-b", b"2")
        tree.put(b"\xff\xff-c", b"3")
        got = dict(tree.scan_prefix(b"\xff\xfe"))
        assert got == {b"\xff\xfe-a": b"1", b"\xff\xfe-b": b"2"}

    def test_all_ff_prefix(self):
        tree = make_tree()
        tree.put(b"\xff\xffz", b"1")
        tree.put(b"\xfeq", b"2")
        assert dict(tree.scan_prefix(b"\xff\xff")) == {b"\xff\xffz": b"1"}

    def test_empty_prefix_rejected(self):
        tree = make_tree()
        with pytest.raises(ValueError):
            list(tree.scan_prefix(b""))

    def test_prefix_bloom_prunes_runs(self):
        tree = make_tree(
            layout="tiering",
            range_filter="prefix_bloom",
            range_filter_params={"prefix_length": 4},
            buffer_bytes=1 << 10,
        )
        for i in range(600):
            tree.put(b"usr%03d:%03d" % (i % 40, i), b"v")
        tree.flush()
        before = tree.device.stats.blocks_read
        assert list(tree.scan_prefix(b"zzz:")) == []
        assert tree.device.stats.blocks_read == before  # filtered: no I/O


class TestSkewAwareNavigation:
    def test_navigator_accepts_skew_model(self):
        base = CostModel(num_entries=10_000_000, buffer_bytes=8 << 20)
        aware = SkewAwareCostModel(base, cache_bytes=256 << 20, theta=0.99)
        nav_worst = DesignNavigator(base)
        nav_aware = DesignNavigator(aware)
        workload = Workload(zero_lookups=0.05, lookups=0.75, writes=0.2)
        worst_best = nav_worst.best(workload)
        aware_best = nav_aware.best(workload)
        # With reads largely absorbed by the cache, the aware model tolerates
        # a more write-friendly design (>= runs tolerance of the worst-case pick).
        assert aware_best.point.inner_runs >= worst_best.point.inner_runs
