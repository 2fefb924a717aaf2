"""One behavioural contract, four handles.

Every public handle — embedded tree, concurrent service, range-sharded
store, and the wire client — claims to satisfy :class:`repro.api.KVStore`.
This suite runs the same scenarios against each of them so the protocol
stays a real contract rather than a type annotation: a handle that drifts
on ``multi_get`` dedup, batch atomicity, seqno fingerprints, or TTL
masking fails here by name.
"""

import pytest

import repro
from repro import LSMConfig
from repro.api import KVStore
from repro.core.lsm_tree import LSMTree
from repro.errors import ClosedError, SnapshotError
from repro.server import LSMClient, LSMServer
from repro.service import DBService
from repro.sharding import ShardedStore
from repro.txn import WriteBatch

from tests.conftest import make_config

HANDLES = ["tree", "service", "sharded", "client"]


@pytest.fixture(params=HANDLES)
def store(request):
    """Yield each handle type in turn, torn down completely after the test."""
    kind = request.param
    if kind == "tree":
        handle = LSMTree(make_config())
        yield handle
        handle.close()
    elif kind == "service":
        handle = DBService(LSMTree(make_config()), close_tree=True)
        yield handle
        handle.close()
    elif kind == "sharded":
        handle = ShardedStore(make_config(), [b"m"])
        yield handle
        handle.close()
    else:
        server = repro.open(
            config=LSMConfig(
                buffer_bytes=4 << 10, block_size=512, wal_enabled=True
            ),
            server=True,
        )
        client = LSMClient(*server.address, tenant="conformance")
        yield client
        client.close()
        server.shutdown()


def test_handle_satisfies_protocol(store):
    assert isinstance(store, KVStore)


def test_put_get_delete_round_trip(store):
    store.put(b"k", b"v")
    got = store.get(b"k")
    assert got.found and got.value == b"v"
    store.delete(b"k")
    assert not store.get(b"k").found


def test_get_missing_key(store):
    got = store.get(b"never-written")
    assert not got.found
    assert got.value is None


def test_get_seqno_fingerprints_versions(store):
    """Absent keys read seqno 0; each overwrite strictly raises the seqno.

    This is the token optimistic transactions validate against, so every
    handle — including the wire client — must report it faithfully.
    """
    assert store.get(b"fp").seqno == 0
    store.put(b"fp", b"v1")
    first = store.get(b"fp").seqno
    assert first > 0
    store.put(b"fp", b"v2")
    assert store.get(b"fp").seqno > first


def test_multi_get_dedups_and_reports_misses(store):
    store.put(b"a", b"1")
    store.put(b"c", b"3")
    results = store.multi_get([b"c", b"a", b"missing", b"a"])
    assert set(results) == {b"a", b"c", b"missing"}
    assert results[b"a"].value == b"1"
    assert results[b"c"].value == b"3"
    assert not results[b"missing"].found


def test_scan_ordered_range(store):
    """Range scans are key-ordered with inclusive bounds on both ends."""
    for i in range(6):
        store.put(b"s%d" % i, b"v%d" % i)
    items = list(store.scan(b"s1", b"s4"))
    assert items == [
        (b"s1", b"v1"), (b"s2", b"v2"), (b"s3", b"v3"), (b"s4", b"v4")
    ]


def test_scan_sees_the_store_as_of_the_call(store):
    """Writes made after ``scan()`` returns are invisible to that scan, before
    its first ``next()`` and mid-iteration, on both sides of the sharded
    handle's split key (the wire client's scan arrives whole)."""
    for key in (b"a", b"f", b"r", b"x"):
        store.put(key, b"1")
    pending = iter(store.scan())
    store.put(b"b", b"new")
    store.delete(b"f")
    first = next(pending)
    store.put(b"y", b"new")
    store.delete(b"x")
    store.merge(b"r", b"5")
    store.put(b"s", b"new", ttl=1e9)
    assert [first] + list(pending) == [(b"a", b"1"), (b"f", b"1"), (b"r", b"1"), (b"x", b"1")]
    assert list(store.scan()) == [
        (b"a", b"1"), (b"b", b"new"), (b"r", b"6"), (b"s", b"new"), (b"y", b"new")
    ]


def test_write_batch_applies_atomically_in_order(store):
    batch = WriteBatch()
    batch.put(b"b1", b"old")
    batch.put(b"b1", b"new")  # later op in the same batch wins
    batch.put(b"b2", b"x")
    batch.delete(b"b2")
    store.write(batch)
    assert store.get(b"b1").value == b"new"
    assert not store.get(b"b2").found


def test_merge_counter_folds(store):
    store.merge(b"ctr", b"2")
    store.merge(b"ctr", b"3")
    assert store.get(b"ctr").value == b"5"


def test_put_with_ttl_expires(store):
    store.put(b"ephemeral", b"v", ttl=1e9)
    assert store.get(b"ephemeral").found


def test_snapshot_or_explicit_refusal(store, request):
    """In-process handles pin a consistent view; the wire client refuses
    loudly (the stateless protocol has no snapshot leases) instead of
    silently returning live reads."""
    store.put(b"snap", b"v1")
    if isinstance(store, LSMClient):
        with pytest.raises(NotImplementedError):
            store.snapshot()
        return
    snap = store.snapshot()
    try:
        store.put(b"snap", b"v2")
        assert snap.get(b"snap").value == b"v1"
        assert store.get(b"snap").value == b"v2"
    finally:
        snap.close()


@pytest.mark.parametrize("store", ["service"], indirect=True)
def test_multi_get_reads_one_view(store):
    """A transfer committed while a batch loads its first block is invisible
    to the whole batch: the total it reads is one that existed. (Of the
    concurrent handles only the service's fixture exposes a tree to hook.)"""
    from tests.service.test_batch_reads import ACCOUNTS, transfer_during_first_load

    for account in ACCOUNTS:
        store.put(account, b"100")
    store.flush()
    fired = transfer_during_first_load(store)
    results = store.multi_get(ACCOUNTS)
    assert fired
    assert sum(int(results[account].value) for account in ACCOUNTS) == 800


@pytest.mark.parametrize("store", ["tree", "service", "sharded"], indirect=True)
def test_a_closed_handle_refuses_every_batch(store):
    """Empty or not, a batch on a closed handle raises, as a get does."""
    store.close()
    for keys in ([], [b"k"]):
        with pytest.raises(ClosedError):
            store.multi_get(keys)


@pytest.mark.parametrize("store", ["tree", "service", "sharded"], indirect=True)
def test_a_released_snapshot_refuses_every_batch(store):
    snapshot = store.snapshot()
    snapshot.close()
    for keys in ([], [b"k"]):
        with pytest.raises(SnapshotError):
            snapshot.multi_get(keys)
