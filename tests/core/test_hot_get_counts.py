"""Every count a hot read stream leaves behind, pinned to literals.

A seeded 20 000-op 95/5 zipfian get/put stream over a small two-level tree,
once through ``LSMTree`` and once through ``DBService``. The point-read walk
may get shorter; what it counts may not move: the literals below were
recorded before the walk was leaned out and must never be re-pinned by a
change that only claims speed.
"""

import hashlib
import random
from dataclasses import astuple

import pytest

from repro import DBService, LSMConfig, LSMTree
from repro.common.encoding import encode_uint_key
from repro.common.entry import GetResult
from repro.workloads.distributions import ZipfianKeys

KEYS = 6_000
WRITE_SET = 150
OPS = 20_000


def digest_of(items) -> str:
    return hashlib.sha256(repr(items).encode()).hexdigest()[:16]


def build_tree() -> LSMTree:
    """6 000 keys in two levels; the cache holds about half the data blocks."""
    tree = LSMTree(
        LSMConfig(
            buffer_bytes=32 << 10, block_size=1024, size_ratio=4,
            cache_bytes=192 << 10, seed=7,
        )
    )
    order = list(range(KEYS))
    random.Random(3).shuffle(order)
    for i in order:
        tree.put(encode_uint_key(i), b"v%07d" % i + b"." * 40)
    tree.flush()
    return tree


def run_stream(store) -> "list[GetResult]":
    rng = random.Random(11)
    reads = ZipfianKeys(KEYS + 600, seed=5)  # the top 600 ids were never written
    results = []
    for op in range(OPS):
        if rng.random() < 0.05:
            key = encode_uint_key(rng.randrange(WRITE_SET) * 37)
            store.put(key, b"w%07d" % op + b"." * 40)
        else:
            results.append(store.get(encode_uint_key(reads.sample())))
    return results


def observe(kind: str) -> dict:
    tree = build_tree()
    assert len([level for level in tree._levels if level]) == 2
    store = DBService(tree) if kind == "service" else tree
    try:
        results = run_stream(store)
        tables = [table for level in tree._levels for run in level for table in run.tables]
        stats = {
            name: value
            for name, value in tree.stats.as_dict().items()
            if "wall" not in name
        }
        assert tree.stats.probe.cache_hits == tree.cache.stats.hits
        return {
            "stats": stats,
            "probe": astuple(tree.stats.probe),
            "cache": astuple(tree.cache.stats),
            "access_counts": (
                len(tree.cache.access_counts),
                sum(tree.cache.access_counts.values()),
                digest_of(sorted(tree.cache.access_counts.items())),
            ),
            "lru_order": (
                len(tree.cache._policy._order),
                digest_of(list(tree.cache._policy._order)),
            ),
            "hotness": [table.hotness for table in tables],
            "filters": [astuple(table.point_filter.stats) for table in tables],
            "results": (
                len(results),
                sum(r.found for r in results),
                sum(r.runs_probed for r in results),
                sum(r.blocks_read for r in results),
                sum(r.filter_negatives for r in results),
                sum(r.false_positives for r in results),
                sum(r.source_level is None for r in results),
                digest_of([tuple(getattr(r, f) for f in GetResult.__slots__) for r in results]),
            ),
        }
    finally:
        store.close()


_STATS = {
    "batched_records": 0, "batches_committed": 0,
    "block_bytes_stored": 1519163, "block_bytes_uncompressed": 1519163,
    "blocks_per_get": 0.90376634973998, "blocks_written": 1663, "bulk_ingested": 0,
    "compaction_bytes_in": 1204935, "compaction_bytes_out": 1204708,
    "compaction_jobs": 0, "compactions": 11, "compression_ratio": 1.0, "deletes": 0,
    "entries_per_scan": 0.0, "false_positives": 49,
    "filter_fpr_observed": 0.0037984496124031006, "filter_negatives": 12851,
    "filter_probes": 30056, "filtered_by_compaction": 0, "flush_jobs": 0, "flushes": 14,
    "get_hash_evaluations": 30056, "gets": 19037, "last_recovery_sim": 0.0, "merges": 0,
    "multi_get_keys": 0, "multi_gets": 0, "parallel_compactions": 0, "puts": 6963,
    "recoveries": 0, "scan_entries": 0, "scans": 0, "stall_slowdowns": 0,
    "stall_stops": 0, "stall_time": 0.0, "subcompactions": 0, "tombstones_purged": 0,
    "trivial_moves": 0, "ttl_expired_dropped": 0, "ttl_puts": 0, "txn_commits": 0,
    "txn_conflicts": 0, "user_bytes": 389928, "value_log_fetches": 0,
    "wal_replayed_records": 0, "wal_torn_frames": 0, "write_stalls": 0,
}
_TREE = {
    "stats": _STATS,
    # filter_probes, filter_negatives, false_positives, index_probes, blocks_read, cache_hits
    "probe": (30056, 12851, 49, 17205, 17205, 10130),
    # hits, misses, insertions, evictions, invalidations, single_flight_waits
    "cache": (10130, 7075, 7075, 6976, 0, 0),
    "access_counts": (399, 17205, "1e95ac76f6455ea3"),
    "lru_order": (99, "b34ef36456ab4dbb"),
    "hotness": [4239, 12917],
    # per table: probes, negatives, hash_evaluations, cache_line_touches
    "filters": [(17139, 12851, 17139, 57711), (12917, 0, 12917, 89170)],
    "results": (19037, 17639, 32869, 17205, 12851, 49, 1881, "9d7e1559e3b5d14d"),
}
# The service commits each put of a single caller as its own batch; every
# other count is the tree's.
EXPECTED = {
    "tree": _TREE,
    "service": {**_TREE, "stats": {**_STATS, "batched_records": 963, "batches_committed": 963}},
}


@pytest.mark.parametrize("kind", ["tree", "service"])
def test_counts_equal_the_recorded_literals(kind):
    seen = observe(kind)
    expected = EXPECTED[kind]
    for name in expected:
        assert seen[name] == expected[name], name
    assert seen.keys() == expected.keys()


if __name__ == "__main__":  # prints the literals (run at the recording commit only)
    import pprint

    pprint.pprint({kind: observe(kind) for kind in ("tree", "service")}, width=100)
