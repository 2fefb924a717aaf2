"""Read-path stats must not lose increments under concurrent callers."""

import threading

from repro.common.encoding import encode_uint_key
from repro.parallel import ParallelConfig

from tests.conftest import make_tree


def build_static_tree(**overrides):
    tree = make_tree(**overrides)
    for i in range(3000):
        tree.put(encode_uint_key(i % 600), b"v%07d" % i)
    tree.flush()
    tree.compact_all()
    return tree


def hammer(target, threads=8):
    errors = []

    def run():
        try:
            target()
        except BaseException as exc:  # pragma: no cover - surfaced below
            errors.append(exc)

    workers = [threading.Thread(target=run) for _ in range(threads)]
    for w in workers:
        w.start()
    for w in workers:
        w.join(timeout=30.0)
    assert not errors, errors


def test_concurrent_gets_lose_no_counts():
    tree = build_static_tree()
    per_thread, threads = 400, 8
    base_gets = tree.stats.gets
    base_blocks = tree.stats.probe.blocks_read

    def reader():
        for i in range(per_thread):
            got = tree.get(encode_uint_key(i % 600))
            assert got.found

    hammer(reader, threads)
    assert tree.stats.gets - base_gets == per_thread * threads
    # Every get touches at least one block on this filterless-miss-free
    # workload; a lost probe merge would undercount.
    assert tree.stats.probe.blocks_read > base_blocks


def test_concurrent_scans_lose_no_counts():
    tree = build_static_tree()
    threads, scans_each = 6, 5
    base = tree.stats.scans
    base_entries = tree.stats.scan_entries
    expected_len = len(list(tree.scan()))
    base_after_probe = tree.stats.scans  # the warm-up scan counted too

    def scanner():
        for _ in range(scans_each):
            assert len(list(tree.scan())) == expected_len

    hammer(scanner, threads)
    assert tree.stats.scans == base_after_probe + threads * scans_each
    assert (
        tree.stats.scan_entries - base_entries
        == (threads * scans_each + 1) * expected_len
    )


def test_concurrent_multi_gets_lose_no_counts():
    tree = build_static_tree(
        parallel=ParallelConfig(max_subcompactions=1)
    )
    threads, batches_each, batch = 6, 10, 25
    base_gets = tree.stats.gets

    def batcher():
        for b in range(batches_each):
            keys = [encode_uint_key((b * batch + i) % 600) for i in range(batch)]
            results = tree.multi_get(keys)
            assert all(r.found for r in results.values())

    hammer(batcher, threads)
    assert tree.stats.multi_gets == threads * batches_each
    assert tree.stats.multi_get_keys == threads * batches_each * batch
    assert tree.stats.gets - base_gets == threads * batches_each * batch
