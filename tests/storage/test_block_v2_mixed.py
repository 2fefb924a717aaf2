"""Mixed-version devices: v1 tables written by the earlier encoder beside v2.

The first half of a seeded stream is flushed through :class:`V1TableBuilder`
(``tests/storage/v1_tables.py``), the rest through ``SSTableBuilder``, so one
device holds tables of both formats. Every read path must answer as a plain
dict does, the integrity checks must pass, ``rebuild_sstable`` and
``LSMTree.recover`` must read each table back in its own format, and a full
compaction must leave only v2 tables with the scan digest unchanged.
"""

import hashlib
import random

import pytest

from repro import LSMConfig, LSMTree
from repro.common.encoding import encode_uint_key
from repro.compaction.granularity import CompactionPlan
from repro.core import factories
from repro.storage.sstable import BLOCK_FORMAT_V1, BLOCK_FORMAT_V2, rebuild_sstable

from tests.storage.v1_tables import V1TableBuilder

KEYSPACE = 1200
CODECS = {
    "none": {},
    "zlib": {"compression": "zlib", "compressed_cache_bytes": 16 << 10},
}


def make_config(codec):
    return LSMConfig(
        buffer_bytes=4 << 10, block_size=512, layout="tiering", size_ratio=8,
        cache_bytes=4 << 10, wal_enabled=True, wal_sync_interval=1, seed=3,
        **CODECS[codec],
    )


def write(tree, shadow, rng, ops):
    for i in range(ops):
        key = encode_uint_key(rng.randrange(KEYSPACE))
        if rng.random() < 0.15:
            tree.delete(key)
            shadow.pop(key, None)
        else:
            value = bytes([97 + i % 26]) * rng.randrange(1, 90)
            tree.put(key, value)
            shadow[key] = value


def tables(tree):
    return [table for runs in tree._levels for run in runs for table in run.tables]


def compact_fully(tree):
    """Merge every run into one at the bottom level: a full compaction."""
    tree.flush()
    levels = tree._level_set.levels
    runs = [run for level in levels for run in level]
    assert len(runs) > 1, "a lone run would slide down unrewritten"
    plan = CompactionPlan("full", 1, len(levels), inputs=runs, purge=True)
    tree._level_set.pin(plan.tables)
    tree.install_compaction(plan, tree.execute_compaction(plan))


def scan_digest(tree):
    digest = hashlib.sha256()
    for key, value in tree.scan():
        digest.update(b"%d:%s%d:%s" % (len(key), key, len(value), value))
    return digest.hexdigest()


def assert_answers(tree, shadow):
    probes = [encode_uint_key(i) for i in range(0, KEYSPACE + 40, 3)]
    for key in probes:
        result = tree.get(key)
        assert (result.value if result.found else None) == shadow.get(key), key
    batch = tree.multi_get(probes)
    assert {k: r.value for k, r in batch.items() if r.found} == {
        k: shadow[k] for k in probes if k in shadow
    }
    assert list(tree.scan()) == sorted(shadow.items())
    lo, hi = encode_uint_key(300), encode_uint_key(360)
    assert list(tree.scan(lo, hi)) == sorted(
        (k, v) for k, v in shadow.items() if lo <= k <= hi
    )
    report = tree.verify_integrity()
    assert report["errors"] == [] and report["files_checked"] > 0


@pytest.fixture
def mixed(monkeypatch, request):
    """A tree over a device holding v1 and v2 tables, and its reference dict."""
    codec = request.param
    config = make_config(codec)
    tree = LSMTree(config)
    shadow = {}
    rng = random.Random(11)
    with monkeypatch.context() as patch:
        patch.setattr(factories, "SSTableBuilder", V1TableBuilder)
        write(tree, shadow, rng, 2500)
        tree.flush()
    write(tree, shadow, rng, 120)
    tree.flush()
    yield codec, config, tree, shadow
    tree.close()


@pytest.mark.parametrize("mixed", sorted(CODECS), indirect=True)
def test_both_formats_answer_like_a_dict(mixed):
    codec, _, tree, shadow = mixed
    assert {table.block_format for table in tables(tree)} == {BLOCK_FORMAT_V1, BLOCK_FORMAT_V2}
    assert_answers(tree, shadow)
    for table in tables(tree):
        assert table.scrub() == (table.num_data_blocks, [])
        rebuilt = rebuild_sstable(tree.device, table.file_id)
        assert rebuilt.block_format == table.block_format
        assert (rebuilt.num_data_blocks, rebuilt.aux_blocks) == (table.num_data_blocks, table.aux_blocks)
        assert rebuilt.fence_keys == table.fence_keys and rebuilt.max_key == table.max_key
        assert (rebuilt.entry_count, rebuilt.tombstone_count) == (table.entry_count, table.tombstone_count)
        assert (rebuilt.uncompressed_data_bytes, rebuilt.compressed_data_bytes) == (
            table.uncompressed_data_bytes, table.compressed_data_bytes,
        )
        assert list(rebuilt.iter_entries()) == list(table.iter_entries())


@pytest.mark.parametrize("mixed", sorted(CODECS), indirect=True)
def test_recovery_reads_each_table_in_its_own_format(mixed):
    _, config, tree, shadow = mixed
    formats = {table.file_id: table.block_format for table in tables(tree)}
    digest = scan_digest(tree)
    tree.close()
    recovered = LSMTree.recover(config, tree.device)
    try:
        assert {table.file_id: table.block_format for table in tables(recovered)} == formats
        assert scan_digest(recovered) == digest
        assert_answers(recovered, shadow)
    finally:
        recovered.close()


@pytest.mark.parametrize("mixed", sorted(CODECS), indirect=True)
def test_full_compaction_rewrites_every_table_as_v2(mixed):
    codec, _, tree, shadow = mixed
    digest = scan_digest(tree)
    compact_fully(tree)
    assert {table.block_format for table in tables(tree)} == {BLOCK_FORMAT_V2}
    assert scan_digest(tree) == digest
    assert_answers(tree, shadow)
    if codec == "zlib":
        # v2 frames are retained by the compressed tier and served from it.
        before = tree.cache.compressed_stats.hits
        for _ in range(2):
            for i in range(0, KEYSPACE, 7):
                tree.get(encode_uint_key(i))
        assert tree.cache.compressed_stats.hits > before
