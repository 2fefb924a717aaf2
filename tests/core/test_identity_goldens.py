"""Behavioural-identity goldens for the compaction and write pipelines.

One fixed seeded workload (puts, overwrites, deletes, merge operands, TTL
puts, point reads) runs under every compaction shape the engine offers —
layouts, partial granularity with each picker, staleness triggers, serial
and parallel subcompactions per codec, key-value separation, the WAL — and
the device's exact I/O counts, the compaction counters and a digest of the
final contents are pinned. The numbers were captured at the commit before
the read/write/compaction paths were unified; a refactor of those paths must
reproduce every one of them.
"""

import hashlib
import random

import pytest

from repro import LSMConfig, LSMTree
from repro.parallel import ParallelConfig

_BASE = dict(
    buffer_bytes=2 << 10,
    block_size=512,
    size_ratio=3,
    bits_per_key=8.0,
    cache_bytes=8 << 10,
    seed=99,
)
_PARTIAL = dict(partial_compaction=True, file_bytes=1024)


def _parallel(workers: int) -> ParallelConfig:
    return ParallelConfig(
        max_subcompactions=workers, min_subcompaction_blocks=2,
        merge_readahead_blocks=4, write_buffer_blocks=4,
    )


CASES = {
    "leveling": dict(layout="leveling"),
    "tiering": dict(layout="tiering"),
    "lazy_leveling": dict(layout="lazy_leveling"),
    "leveling_files": dict(layout="leveling", file_bytes=1024),
    "leveling_staleness": dict(layout="leveling", staleness_flushes=4),
    "leveling_lazy_pacing": dict(layout="leveling", lazy_compaction=True),
    "leveling_wal": dict(layout="leveling", wal_enabled=True, wal_sync_interval=8),
    "partial_round_robin": dict(picker="round_robin", **_PARTIAL),
    "partial_least_overlap": dict(picker="least_overlap", **_PARTIAL),
    "partial_coldest": dict(picker="coldest", **_PARTIAL),
    "partial_most_tombstones": dict(picker="most_tombstones", **_PARTIAL),
    "partial_oldest": dict(picker="oldest", **_PARTIAL),
    "partial_staleness": dict(picker="least_overlap", staleness_flushes=3, **_PARTIAL),
    "kv_separation": dict(layout="leveling", kv_separation=True, value_threshold=64),
    "kv_separation_partial": dict(kv_separation=True, value_threshold=64, **_PARTIAL),
}
for _codec in ("none", "zlib", "rle"):
    for _workers in (1, 4):
        CASES[f"{_codec}_sub{_workers}"] = dict(
            layout="leveling", compression=_codec, parallel=_parallel(_workers)
        )


def run_workload(overrides: dict) -> dict:
    """Drive the fixed stream against one configuration; return the counts."""
    rng = random.Random(20230913)
    # Subcompaction workers interleave their device requests, so the simulated
    # clock a TTL deadline is stamped from is schedule-dependent: those cases
    # write the TTL payloads as plain puts.
    clock_is_exact = "parallel" not in overrides
    tree = LSMTree(LSMConfig(**_BASE, **overrides))
    keys = [b"k%05d" % i for i in range(900)]
    counters = [b"c%03d" % i for i in range(40)]
    for _ in range(7000):
        roll = rng.random()
        key = rng.choice(keys)
        if roll < 0.55:
            tree.put(key, bytes([rng.randrange(97, 123)]) * rng.randrange(8, 140))
        elif roll < 0.68:
            tree.delete(key)
        elif roll < 0.76:
            tree.merge(rng.choice(counters), b"%d" % rng.randrange(1, 9))
        elif roll < 0.81:
            ttl = rng.choice((50.0, 5e3, 5e5))
            tree.put(key, b"ttl" * rng.randrange(1, 20), ttl=ttl if clock_is_exact else None)
        else:
            tree.get(key)
    tree.flush()
    digest = hashlib.sha256()
    for key, value in tree.scan():
        digest.update(b"%d:%s%d:%s" % (len(key), key, len(value), value))
    device, stats = tree.device.stats, tree.stats
    counts = {
        "blocks_read": device.blocks_read,
        "blocks_written": device.blocks_written,
        "seeks": device.seeks,
        "compactions": stats.compactions,
        "trivial_moves": stats.trivial_moves,
        "compaction_bytes_in": stats.compaction_bytes_in,
        "compaction_bytes_out": stats.compaction_bytes_out,
        "tombstones_purged": stats.tombstones_purged,
        "scan_sha256": digest.hexdigest()[:16],
    }
    assert tree.verify_integrity()["errors"] == []
    tree.close()
    return counts


_FIELDS = (
    "blocks_read",
    "blocks_written",
    "seeks",
    "compactions",
    "trivial_moves",
    "compaction_bytes_in",
    "compaction_bytes_out",
    "tombstones_purged",
    "scan_sha256",
)
# Re-pinned once, for a reason outside these pipelines: kv_separation_partial
# read one block and one seek fewer when value-log blocks became v2 frames.
# The cache charges a value-log block its stored size, which v2 shortens, so
# one more block stays cached; charging the v1 size reproduces 4110 / 3741.
# fmt: off
_ROWS = {
    "kv_separation": (3703, 2804, 3245, 84, 1, 762252, 634203, 765, '9635cb4896495fd1'),
    "kv_separation_partial": (4109, 4124, 3740, 136, 6, 882199, 751925, 768, '9635cb4896495fd1'),
    "lazy_leveling": (4916, 4377, 3810, 120, 2, 1630884, 1324291, 868, '9635cb4896495fd1'),
    "leveling": (6010, 5548, 4472, 166, 4, 2059389, 1800605, 744, 'aec0cfe3fceafe8c'),
    "leveling_files": (7275, 8695, 5975, 167, 4, 2199415, 1890796, 871, 'df3b1b44e1bfdf4a'),
    "leveling_lazy_pacing": (6000, 5537, 4469, 165, 4, 2054951, 1796382, 744, '9635cb4896495fd1'),
    "leveling_staleness": (6416, 6018, 4276, 167, 11, 2312680, 2005121, 872, 'aec0cfe3fceafe8c'),
    "leveling_wal": (6008, 7094, 4474, 166, 4, 2058481, 1799564, 746, 'aec0cfe3fceafe8c'),
    "none_sub1": (6212, 5726, 2066, 166, 4, 2185037, 1879548, 824, '1ff5864923d7086c'),
    "none_sub4": (7384, 6338, 3281, 166, 4, 2189582, 1884193, 824, '1ff5864923d7086c'),
    "partial_coldest": (11644, 14751, 8558, 405, 4, 3792100, 3472119, 834, '089b898e53a8a243'),
    "partial_least_overlap": (8069, 9839, 6474, 451, 55, 2418976, 2162790, 729, '41b50a67384df46c'),
    "partial_most_tombstones": (9185, 11388, 7207, 450, 6, 2863229, 2568432, 761, 'e862a0931c05ba47'),
    "partial_oldest": (11644, 14751, 8558, 405, 4, 3792100, 3472119, 834, '089b898e53a8a243'),
    "partial_round_robin": (8279, 10110, 6572, 433, 23, 2507524, 2222697, 723, '41b50a67384df46c'),
    "partial_staleness": (8975, 11086, 6980, 405, 237, 2787966, 2489117, 825, 'e862a0931c05ba47'),
    "rle_sub1": (8376, 8083, 1836, 186, 0, 917065, 819405, 824, '1ff5864923d7086c'),
    "rle_sub4": (9608, 8642, 3274, 186, 0, 922178, 825103, 818, '1ff5864923d7086c'),
    "tiering": (4918, 4329, 4197, 124, 0, 1589107, 1302427, 824, 'aec0cfe3fceafe8c'),
    "zlib_sub1": (9016, 8753, 1844, 189, 0, 868112, 780807, 816, '1ff5864923d7086c'),
    "zlib_sub4": (10269, 9296, 4212, 189, 0, 870345, 783806, 811, '1ff5864923d7086c'),
}
# fmt: on
GOLDENS = {name: dict(zip(_FIELDS, row)) for name, row in _ROWS.items()}


@pytest.mark.parametrize("case", sorted(CASES))
def test_counts_match_the_pre_unification_engine(case):
    observed = run_workload(CASES[case])
    expected = GOLDENS[case]
    if CASES[case].get("parallel") is not None and (
        CASES[case]["parallel"].max_subcompactions > 1
    ):
        # Worker threads interleave their device requests, so which reads
        # count as sequential is schedule-dependent; everything else is exact.
        observed.pop("seeks")
        expected = {k: v for k, v in expected.items() if k != "seeks"}
    assert observed == expected
