"""Coalescing changes device request shapes and nothing else.

One seeded stream of gets, 50-key scans (run to their end, and abandoned
half way) and ``multi_get`` batches over two identically built trees —
``parallel=None`` and ``ParallelConfig(max_subcompactions=1)`` — must give
equal results and leave the block cache and the probe counters in the same
state: every field of both tiers' ``CacheStats``, ``access_counts``, the
eviction order, ``ProbeStats``. Only the device may tell them apart: same
bytes for every scan run to its end, strictly fewer seeks when coalesced.

A batch is the public ``multi_get`` on both trees: one level-by-level walk,
whose cache misses read one block per device request on the serial tree and
up to 8 adjacent candidate blocks on the coalesced one.
"""

import dataclasses
import itertools
import random

import pytest

from repro.common.encoding import encode_uint_key
from repro.parallel import ParallelConfig

from tests.conftest import make_tree

KEYSPACE = 1500
CODECS = {
    "none": {},
    "zlib": {"compression": "zlib", "compressed_cache_bytes": 16 << 10},
}
CACHES = [64 << 10, 8 << 10, 0]
COALESCED = ParallelConfig(max_subcompactions=1)


def build(parallel, cache_bytes, codec):
    tree = make_tree(
        layout="tiering", cache_bytes=cache_bytes, parallel=parallel, **CODECS[codec]
    )
    rng = random.Random(7)
    for i in range(6000):
        tree.put(encode_uint_key(rng.randrange(KEYSPACE)), b"value-%07d" % (i % 40))
    tree.flush()
    return tree


def layout(tree):
    return [
        [[(t.file_id, t.num_data_blocks, t.size_bytes) for t in run.tables] for run in runs]
        for runs in tree._levels
    ]


def stream(seed, ops=260):
    rng = random.Random(seed)
    for _ in range(ops):
        roll = rng.random()
        start = rng.randrange(KEYSPACE)
        if roll < 0.55:
            yield "get", encode_uint_key(rng.randrange(KEYSPACE + 50))
        elif roll < 0.70:
            yield "scan", (encode_uint_key(start), encode_uint_key(start + 49))
        elif roll < 0.80:
            yield "scan-abandoned", encode_uint_key(start)
        else:
            yield "batch", [encode_uint_key(start + rng.randrange(120)) for _ in range(30)]


def answer(result):
    return (result.found, result.value, result.seqno, result.source_level, result.runs_probed)


def run_op(tree, kind, arg):
    if kind == "get":
        return answer(tree.get(arg))
    if kind == "scan":
        return list(tree.scan(*arg))
    if kind == "scan-abandoned":
        scan = tree.scan(arg)
        try:
            return list(itertools.islice(scan, 25))
        finally:
            scan.close()
    return {key: answer(result) for key, result in tree.multi_get(arg).items()}


def cache_state(tree):
    cache = tree.cache
    return {
        "stats": cache.stats.as_dict(),
        "compressed_stats": cache.compressed_stats.as_dict(),
        "access_counts": dict(cache.access_counts),
        "eviction_order": list(cache._policy._order),
        "compressed_eviction_order": list(cache._compressed_policy._order),
        "used": (cache.used_bytes, cache.compressed_used_bytes),
        "probe": dataclasses.asdict(tree.stats.probe),
    }


@pytest.mark.parametrize("cache_bytes", CACHES)
@pytest.mark.parametrize("codec", sorted(CODECS))
def test_coalescing_changes_device_request_shapes_and_nothing_else(codec, cache_bytes):
    serial = build(None, cache_bytes, codec)
    coalesced = build(COALESCED, cache_bytes, codec)
    assert layout(coalesced) == layout(serial)
    assert sum(len(runs) for runs in serial._levels) >= 3  # scans interleave runs

    seeks = {"serial": 0, "coalesced": 0}
    for step, (kind, arg) in enumerate(stream(seed=23)):
        before_s = serial.device.stats.snapshot()
        before_c = coalesced.device.stats.snapshot()
        expected = run_op(serial, kind, arg)
        assert run_op(coalesced, kind, arg) == expected, (step, kind)
        assert cache_state(coalesced) == cache_state(serial), (step, kind)
        delta_s = serial.device.stats.delta(before_s)
        delta_c = coalesced.device.stats.delta(before_c)
        seeks["serial"] += delta_s.seeks
        seeks["coalesced"] += delta_c.seeks
        if kind == "scan-abandoned":  # the one case allowed to read ahead in vain
            assert delta_c.bytes_read >= delta_s.bytes_read, (step, kind)
        else:
            assert delta_c.bytes_read == delta_s.bytes_read, (step, kind)
            assert delta_c.blocks_read == delta_s.blocks_read, (step, kind)
    assert seeks["coalesced"] < seeks["serial"]

    for tree in (serial, coalesced):
        cache, probe = tree.cache, tree.stats.probe
        assert cache.stats.lookups == probe.blocks_read > 0
        assert probe.cache_hits == cache.stats.hits
        assert (cache.stats.hits > 0) == (cache_bytes > 0)
        if cache_bytes:
            assert cache.stats.evictions > 0  # the order of loads mattered
        if codec == "zlib":
            assert cache.compressed_stats.hits > 0


@pytest.mark.parametrize("codec", sorted(CODECS))
def test_public_multi_get_agrees_across_the_two_walks(codec):
    """The one batch walk at its two spans — 1 block per cache miss on the
    serial tree, up to 8 on the coalesced one — batch by batch, with no
    decoded cache: equal answers, equal admission counts, each block loaded
    once per batch on both trees, the same frames fetched, and coalesced
    device requests only where the ParallelConfig allows them."""
    serial = build(None, 0, codec)
    coalesced = build(COALESCED, 0, codec)
    for kind, arg in stream(seed=5, ops=120):
        if kind != "batch":
            continue
        before = {"serial": serial.device.stats.snapshot(),
                  "coalesced": coalesced.device.stats.snapshot()}
        loads_before = {"serial": dict(serial.cache.access_counts),
                        "coalesced": dict(coalesced.cache.access_counts)}
        tier_before = {"serial": serial.cache.compressed_stats.hits,
                       "coalesced": coalesced.cache.compressed_stats.hits}
        expected = {key: answer(r) for key, r in serial.multi_get(arg).items()}
        assert {key: answer(r) for key, r in coalesced.multi_get(arg).items()} == expected
        blocks = {}
        for name, tree in (("serial", serial), ("coalesced", coalesced)):
            loads = tree.cache.access_counts
            loaded = {b: n - loads_before[name].get(b, 0) for b, n in loads.items()}
            assert all(n <= 1 for n in loaded.values()), name  # once per batch
            blocks[name] = {b for b, n in loaded.items() if n}
            # No decoded tier: each load is a device read or a compressed-tier hit.
            fetched = (tree.device.stats.delta(before[name]).blocks_read
                       + tree.cache.compressed_stats.hits - tier_before[name])
            assert fetched == len(blocks[name]), name
        assert blocks["coalesced"] == blocks["serial"]
    assert serial.device.stats.coalesced_reads == 0 < coalesced.device.stats.coalesced_reads
    for tree in (serial, coalesced):
        assert tree.cache.stats.lookups == tree.stats.probe.blocks_read > 0
        assert tree.stats.probe.cache_hits == tree.cache.stats.hits == 0
    assert dataclasses.asdict(coalesced.stats.probe) == dataclasses.asdict(serial.stats.probe)
