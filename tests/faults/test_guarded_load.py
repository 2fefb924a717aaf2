"""A read guard changes what happens on a fault and nothing else.

The guard sits in the one function that turns a block number into a frame
(``SSTable._read_frames``), under the cache's one two-tier load — so a
guarded read feeds and hits both cache tiers like any other, one verified
block per device request.
"""

import collections
import random

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
from repro.errors import ReproError
from repro.parallel import ParallelConfig

from tests.conftest import make_config
from tests.faults.conftest import faulty_device
from tests.parallel.test_read_parity import cache_state

KEYSPACE = 1200


def build(guard, device=None, **overrides):
    config = make_config(
        layout="tiering", parallel=ParallelConfig(max_subcompactions=1), **overrides
    )
    tree = LSMTree(config, device=device)
    tree.device.guard = guard
    rng = random.Random(11)
    for i in range(5000):
        tree.put(encode_uint_key(rng.randrange(KEYSPACE)), b"value-%07d" % (i % 40))
    tree.flush()
    return tree


def reads(tree, seed, ops=300):
    """Gets, bounded scans and batches; typed read errors are part of the answer."""
    rng = random.Random(seed)
    out = []
    for _ in range(ops):
        roll, start = rng.random(), rng.randrange(KEYSPACE)
        try:
            if roll < 0.6:
                out.append(tree.get(encode_uint_key(start)).value)
            elif roll < 0.85:
                out.append(list(tree.scan(encode_uint_key(start), encode_uint_key(start + 49))))
            else:
                keys = [encode_uint_key(start + rng.randrange(100)) for _ in range(20)]
                out.append({k: r.value for k, r in tree.multi_get(keys).items()})
        except ReproError as exc:
            out.append(type(exc).__name__)
    return out


@pytest.mark.parametrize("cache_bytes", [32 << 10, 4 << 10])
def test_a_guard_that_sees_no_fault_reads_what_the_unguarded_tree_reads(cache_bytes):
    two_tier = dict(
        cache_bytes=cache_bytes, compression="zlib", compressed_cache_bytes=16 << 10
    )
    plain = build(None, **two_tier)
    guarded = build(ReadGuard(), **two_tier)
    before_p = plain.device.stats.snapshot()
    before_g = guarded.device.stats.snapshot()
    assert reads(guarded, seed=3) == reads(plain, seed=3)
    assert cache_state(guarded) == cache_state(plain)
    assert guarded.cache.compressed_stats.hits > 0
    assert guarded.cache.compressed_stats.insertions > 0
    delta_p = plain.device.stats.delta(before_p)
    delta_g = guarded.device.stats.delta(before_g)
    assert (delta_g.blocks_read, delta_g.bytes_read) == (delta_p.blocks_read, delta_p.bytes_read)
    # Retry and quarantine are per block: a guarded device is never asked
    # for a span, the unguarded one was.
    assert delta_g.coalesced_reads == 0 < delta_p.coalesced_reads
    assert all(count == 0 for count in guarded.device.guard.as_dict().values())


def test_fault_counters_and_typed_errors_on_a_seeded_stream():
    """Transient errors, one rotten block and one broken filter under gets
    and scans of a coalescing tree. The literals are the parent commit's (its
    guarded reads went around the coalescing reader and the two-tier load):
    moving the guard under them moved no decision."""
    faults = dict(seed=9, read_error_prob=0.08, max_read_retries=2, quarantine_after=2)
    device = faulty_device(**faults)
    tree = build(ReadGuard.from_config(FaultConfig(**faults)), device, cache_bytes=8 << 10)
    guard = device.guard
    tables = [table for runs in tree._levels for run in runs for table in run.tables]
    rotten, broken = tables[-1], tables[0]
    device.corrupt_block(rotten.file_id, rotten.num_data_blocks // 2)

    def _raises(*args):
        raise ReproError("simulated broken filter")

    broken.point_filter.may_contain = _raises
    device.arm()
    rng = random.Random(21)
    errors = collections.Counter()
    for _ in range(400):
        start = rng.randrange(KEYSPACE)
        try:
            if rng.random() < 0.7:
                tree.get(encode_uint_key(start))
            else:
                list(tree.scan(encode_uint_key(start), encode_uint_key(start + 49)))
        except ReproError as exc:
            errors[type(exc)] += 1
    assert guard.is_quarantined(rotten.file_id)
    assert errors == {QuarantinedFileError: 108, CorruptionError: 1, TransientIOError: 1}
    assert guard.as_dict() == {
        "fault_transient_errors": 121, "fault_corruptions_detected": 2,
        "fault_degraded_reads": 261, "retry_attempts": 121, "retry_successes": 109,
        "retry_exhausted": 1, "quarantine_files": 1, "quarantine_blocked_reads": 108,
    }
    assert device.stats.blocks_read == 1825
    assert (tree.cache.stats.hits, tree.cache.stats.misses) == (300, 1234)
    assert device.stats.coalesced_reads == 0  # guarded: one verified block per request
