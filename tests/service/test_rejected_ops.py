"""A rejected op fails only its own submitter.

Staging rejects an entry too big for a data block, a NaN TTL and an unknown
kind. In a group commit, each member is checked on its own before the group
is flattened into one WAL frame: a member that fails gets its own error, the
way a transaction that loses validation gets its ``ConflictError``, and the
rest of the group commits.
"""

import threading

import pytest

from repro import DBService, LSMConfig, LSMTree, ServiceConfig
from repro.errors import ConfigError, ReproError
from repro.service import WriteOp

BIG = b"x" * 4000  # on 512-byte blocks: cannot fit one data block
# As a plain put this entry fills a 512-byte block exactly; as a TTL put its
# 8-byte deadline does not fit.
TTL_EDGE = b"y" * (512 - len(b"ttl-edge") - 12)


def service(**service_overrides):
    config = LSMConfig(buffer_bytes=2 << 10, block_size=512, size_ratio=3, seed=3)
    return DBService(LSMTree(config), ServiceConfig(num_workers=1, **service_overrides))


@pytest.mark.parametrize("bad, error", [
    (WriteOp("put", b"big", BIG), ConfigError),
    (WriteOp("put_ttl", b"nan", b"v", float("nan")), ReproError),
    (WriteOp("put_ttl", b"ttl-edge", TTL_EDGE, 100.0), ConfigError),
    (WriteOp("write", b"", None, [("put", b"w1", b"1"), ("frobnicate", b"w2", b"2")]),
     ValueError),
    (WriteOp("txn", b"", None, ({}, [("put", b"t1", b"1"), ("put", b"t2", BIG)])),
     ConfigError),
], ids=["oversized", "nan-ttl", "ttl-deadline-overflow", "unknown-kind-in-batch",
        "oversized-in-txn"])
def test_apply_batch_fails_only_the_rejected_member(bad, error):
    db = service()
    try:
        tree = db.tree
        puts = tree.stats.puts
        errors = db._apply_batch([
            WriteOp("put", b"good-1", b"1"), bad, WriteOp("put", b"good-2", b"2"),
        ])
        assert errors[0] is None and errors[2] is None
        assert isinstance(errors[1], error)
        assert tree.get(b"good-1").value == b"1"
        assert tree.get(b"good-2").value == b"2"
        # Nothing of the rejected member landed, not even its valid ops.
        for key in (b"big", b"nan", b"ttl-edge", b"w1", b"w2", b"t1", b"t2"):
            assert not tree.get(key).found
        assert tree.stats.puts == puts + 2
    finally:
        db.close()


def test_a_kv_separated_ttl_put_over_the_block_fails_only_itself():
    """With a value log, an inline value's TTL deadline is counted before the
    group is flattened: the over-sized member fails alone."""
    config = LSMConfig(
        buffer_bytes=2 << 10, block_size=512, size_ratio=3, seed=3,
        kv_separation=True, value_threshold=4096,  # values stay inline
    )
    db = DBService(LSMTree(config), ServiceConfig(num_workers=1))
    try:
        edge = TTL_EDGE[:-1]  # the inline tag takes the byte back
        errors = db._apply_batch([
            WriteOp("put", b"good-1", b"1"),
            WriteOp("put_ttl", b"ttl-edge", edge, 100.0),
            WriteOp("put", b"good-2", b"2"),
        ])
        assert errors[0] is None and errors[2] is None
        assert isinstance(errors[1], ConfigError)
        assert db.get(b"good-1").value == b"1"
        assert db.get(b"good-2").value == b"2"
        assert not db.get(b"ttl-edge").found
    finally:
        db.close()


def test_a_kv_separated_key_too_long_beside_its_pointer_fails_only_itself():
    """A log-bound value leaves a pointer beside its key; a key too long for
    that is refused by the member's own check, before its value reaches the
    value log, and the rest of the group commits."""
    config = LSMConfig(
        buffer_bytes=2 << 10, block_size=512, size_ratio=3, seed=3,
        kv_separation=True, value_threshold=64,
    )
    db = DBService(LSMTree(config), ServiceConfig(num_workers=1))
    try:
        tree = db.tree
        log = tree._value_log
        blocks = tree.device.num_blocks(log.current_file)
        errors = db._apply_batch([
            WriteOp("put", b"good-1", b"1"),
            WriteOp("put", b"k" * 500, b"v" * 700),
            WriteOp("put", b"good-2", b"2"),
        ])
        assert errors[0] is None and errors[2] is None
        assert isinstance(errors[1], ConfigError)
        assert tree.device.num_blocks(log.current_file) == blocks
        assert db.get(b"good-1").value == b"1"
        assert db.get(b"good-2").value == b"2"
        assert not db.get(b"k" * 500).found
    finally:
        db.close()


def test_grouped_submitters_keep_their_own_outcome():
    """Three threads meet at a barrier and commit as one group: the two
    valid puts are acknowledged and applied, the oversized one alone fails."""
    db = service(max_batch=3, max_batch_wait_s=5.0)
    barrier = threading.Barrier(3)
    outcome = {}

    def submit(key, value):
        barrier.wait(timeout=10)
        try:
            db.put(key, value)
            outcome[key] = None
        except ReproError as exc:
            outcome[key] = exc

    threads = [
        threading.Thread(target=submit, args=args)
        for args in ((b"good-1", b"1"), (b"big", BIG), (b"good-2", b"2"))
    ]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=20)
        assert not any(thread.is_alive() for thread in threads)
        assert outcome[b"good-1"] is None and outcome[b"good-2"] is None
        assert isinstance(outcome[b"big"], ConfigError)
        assert db._batcher.stats.batches == 1  # the three really were one group
        assert db.get(b"good-1").value == b"1"
        assert db.get(b"good-2").value == b"2"
        assert not db.get(b"big").found
    finally:
        db.close()
