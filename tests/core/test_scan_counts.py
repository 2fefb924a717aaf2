"""Every count a scan stream leaves behind, pinned to literals.

One seeded stream of writes (puts, deletes, merge operands, TTL puts),
memtable seals without a flush, flushes, bounded scans, unbounded scans abandoned
after a few keys and prefix scans, over a two-level tree under leveling and
tiering, without a codec and with zlib plus a compressed cache tier. After
every op the stream records the op's result, the device's ``blocks_read`` /
``bytes_read`` / ``seeks``, both cache tiers' ``CacheStats``, the LRU order,
``access_counts`` and the probe counters the op moved.

The literals below were recorded before scans merged a block at a time; a
change to how a scan merges or pins may make it faster, never make it read,
cache or answer anything else. Never re-pin them for a speed change.
"""

import dataclasses
import hashlib
import itertools
import random

import pytest

from repro.common.encoding import encode_uint_key

from tests.conftest import make_tree

KEYSPACE = 900
OPS = 700
CODECS = {
    "none": {},
    "zlib": {"compression": "zlib", "compressed_cache_bytes": 8 << 10},
}


def digest_of(items) -> str:
    return hashlib.sha256(repr(items).encode()).hexdigest()[:16]


def key_of(i: int) -> bytes:
    return encode_uint_key(i)


def build(layout: str, codec: str):
    """Two or more levels holding puts, deletes, merge chains and TTL puts."""
    tree = make_tree(layout=layout, cache_bytes=12 << 10, **CODECS[codec])
    rng = random.Random(41)
    for i in range(2600):
        key = key_of(rng.randrange(KEYSPACE))
        roll = rng.random()
        if roll < 0.12:
            tree.merge(key, b"%d" % rng.randrange(1, 9))
        elif roll < 0.18:
            tree.put(key, b"%d" % i, ttl=rng.choice([150.0, 900.0, 5000.0]))
        elif roll < 0.23:
            tree.delete(key)
        else:
            tree.put(key, b"%0*d" % (8 + i % 23, i))  # counter operands fold onto it
    tree.flush()
    assert tree.num_levels >= 2
    return tree


def stream(seed: int = 17):
    rng = random.Random(seed)
    for op in range(OPS):
        roll = rng.random()
        key = key_of(rng.randrange(KEYSPACE))
        if roll < 0.30:
            yield "put", (key, b"%06d" % op)
        elif roll < 0.36:
            yield "delete", key
        elif roll < 0.45:
            yield "merge", (key, b"%d" % rng.randrange(1, 9))
        elif roll < 0.50:
            yield "put_ttl", (key, b"%d" % op, rng.choice([40.0, 400.0]))
        elif roll < 0.53:
            yield "seal", None
        elif roll < 0.55:
            yield "flush", None
        elif roll < 0.75:
            start = rng.randrange(KEYSPACE)
            yield "scan", (key_of(start), key_of(start + rng.choice([0, 1, 20, 50, 120])))
        elif roll < 0.88:
            yield "scan-abandoned", (key_of(rng.randrange(KEYSPACE)), rng.choice([1, 7, 25, 60]))
        else:
            # 8-byte keys: a 6- or 7-byte prefix covers 65 536 or 256 ids.
            yield "scan_prefix", key[: rng.choice([6, 7])]


def run_op(tree, kind, arg):
    if kind == "put":
        tree.put(*arg)
    elif kind == "delete":
        tree.delete(arg)
    elif kind == "merge":
        tree.merge(*arg)
    elif kind == "put_ttl":
        tree.put(arg[0], arg[1], ttl=arg[2])
    elif kind == "seal":
        return tree.seal_memtable() is not None
    elif kind == "flush":
        tree.flush()
    elif kind == "scan":
        return list(tree.scan(*arg))
    elif kind == "scan-abandoned":
        start, limit = arg
        scan = tree.scan(start)
        try:
            return list(itertools.islice(scan, limit))
        finally:
            scan.close()
    else:
        return list(tree.scan_prefix(arg))
    return None


def state(tree):
    cache = tree.cache
    return (
        cache.stats.as_dict(),
        cache.compressed_stats.as_dict(),
        digest_of(list(cache._policy._order)),
        digest_of(list(cache._compressed_policy._order)),
        digest_of(sorted(cache.access_counts.items())),
    )


def observe(layout: str, codec: str) -> dict:
    tree = build(layout, codec)
    try:
        steps = []
        totals = dict(blocks_read=0, bytes_read=0, seeks=0, keys=0, scans=0)
        for kind, arg in stream():
            device0 = tree.device.stats.snapshot()
            probe0 = dataclasses.astuple(tree.stats.probe)
            result = run_op(tree, kind, arg)
            device = tree.device.stats.delta(device0)
            probe = tuple(
                now - then for now, then in zip(dataclasses.astuple(tree.stats.probe), probe0)
            )
            steps.append(
                (kind, result, device.blocks_read, device.bytes_read, device.seeks, probe)
                + state(tree)
            )
            if kind.startswith("scan"):
                totals["scans"] += 1
                totals["keys"] += len(result)
                totals["blocks_read"] += device.blocks_read
                totals["bytes_read"] += device.bytes_read
                totals["seeks"] += device.seeks
        return {
            "totals": totals,
            "probe": dataclasses.astuple(tree.stats.probe),
            "cache": (
                dataclasses.astuple(tree.cache.stats),
                dataclasses.astuple(tree.cache.compressed_stats),
            ),
            "results": digest_of([step[:2] for step in steps]),
            "steps": digest_of(steps),
        }
    finally:
        tree.close()


# cache tuples: hits, misses, insertions, evictions, invalidations, single_flight_waits
# probe: filter_probes, filter_negatives, false_positives, index_probes, blocks_read, cache_hits
EXPECTED = {
    ("leveling", "none"): {
        "cache": ((134, 4753, 4753, 4716, 29, 0), (0, 0, 0, 0, 0, 0)),
        "probe": (0, 0, 0, 0, 4887, 134),
        "totals": {
            "blocks_read": 4753, "bytes_read": 1881570, "keys": 46163,
            "scans": 301, "seeks": 2090,
        },
        "results": "ea56e948af4a3202", "steps": "a11e1ae367bd6ca9",
    },
    ("leveling", "zlib"): {
        "cache": ((113, 6338, 6338, 6262, 68, 0), (1092, 5246, 5246, 4862, 342, 0)),
        "probe": (0, 0, 0, 0, 6451, 113),
        "totals": {
            "blocks_read": 5246, "bytes_read": 967008, "keys": 45891,
            "scans": 301, "seeks": 4606,
        },
        "results": "ff3793f10576b7e7", "steps": "d8e182cef5e31378",
    },
    ("tiering", "none"): {
        "cache": ((148, 8308, 8308, 8286, 14, 0), (0, 0, 0, 0, 0, 0)),
        "probe": (0, 0, 0, 0, 8456, 148),
        "totals": {
            "blocks_read": 8308, "bytes_read": 3269250, "keys": 45908,
            "scans": 301, "seeks": 7627,
        },
        "results": "758cd59483d6f185", "steps": "379e5fe0988a39b5",
    },
    ("tiering", "zlib"): {
        "cache": ((165, 8029, 8029, 7991, 30, 0), (984, 7045, 7007, 6826, 139, 0)),
        "probe": (0, 0, 0, 0, 8194, 165),
        "totals": {
            "blocks_read": 7045, "bytes_read": 1308439, "keys": 45896,
            "scans": 301, "seeks": 6837,
        },
        "results": "d45159457f156664", "steps": "df0fb47e02be1af6",
    },
}


@pytest.mark.parametrize("codec", sorted(CODECS))
@pytest.mark.parametrize("layout", ["leveling", "tiering"])
def test_counts_equal_the_recorded_literals(layout, codec):
    seen = observe(layout, codec)
    expected = EXPECTED[layout, codec]
    for name in expected:
        assert seen[name] == expected[name], name
    assert seen.keys() == expected.keys()


if __name__ == "__main__":  # prints the literals (run at the recording commit only)
    import pprint

    pprint.pprint(
        {(layout, codec): observe(layout, codec)
         for layout in ("leveling", "tiering") for codec in sorted(CODECS)},
        width=100,
    )
