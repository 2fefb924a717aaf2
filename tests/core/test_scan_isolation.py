"""A scan sees the store as of its ``scan()`` call.

Every write kind (put, delete, merge operand, TTL put) issued after
``scan()`` returns — before the first ``next()`` or mid-iteration — at the
range's first key, its last key, a key inside it and a new key between
two, with or without the active buffer sealed (or flushed) in between, is
invisible to that scan on the tree, the service and the sharded store. The
range crosses the sharded store's split key, so its second shard is pinned
by the call too, not when iteration reaches it.
"""

import itertools

import pytest

from repro.core.lsm_tree import LSMTree
from repro.service import DBService
from repro.sharding import ShardedStore

from tests.conftest import make_config

KEYS = [b"%s%02d" % (prefix, i) for prefix in (b"a", b"n") for i in range(10)]
START, END = b"a05", b"n04"
#: The range's first and last keys, one inside it on each side of the split
#: key, and new keys between two of them.
TARGETS = [START, END, b"a07", b"n01", b"a055", b"n015"]
WRITES = ["put", "delete", "merge", "put_ttl"]


def open_store(kind):
    if kind == "tree":
        return LSMTree(make_config())
    if kind == "service":
        return DBService(LSMTree(make_config()), close_tree=True)
    return ShardedStore(make_config(), [b"m"])


def trees(store):
    if isinstance(store, ShardedStore):
        return store.shards
    if isinstance(store, DBService):
        return [store.tree]
    return [store]


def write(store, kind, key):
    if kind == "put":
        store.put(key, b"40")
    elif kind == "delete":
        store.delete(key)
    elif kind == "merge":
        store.merge(key, b"2")
    else:
        store.put(key, b"50", ttl=1e9)


def between(store, step):
    """What happens to the buffers between the call and the writes."""
    for tree in trees(store):
        if step == "seal":
            tree.seal_memtable()
        elif step == "flush":
            tree.flush()


@pytest.fixture(params=["tree", "service", "sharded"])
def kind(request):
    return request.param


def loaded(kind):
    store = open_store(kind)
    for i, key in enumerate(KEYS):
        store.put(key, b"%d" % i)
    for tree in trees(store):
        tree.flush()  # half of the versions on storage, half buffered
    for i, key in enumerate(KEYS[::2]):
        store.merge(key, b"%d" % (100 + i))
    return store


@pytest.mark.parametrize("step", ["none", "seal", "flush"])
@pytest.mark.parametrize("consumed", [0, 3])
def test_writes_after_the_call_are_invisible(kind, step, consumed):
    store = loaded(kind)
    try:
        expected = list(store.scan(START, END))
        assert len(expected) == 10 and expected[0][0] == START and expected[-1][0] == END
        for write_kind in WRITES:
            scan = store.scan(START, END)
            seen = list(itertools.islice(scan, consumed))
            between(store, step)
            for key in TARGETS:
                write(store, write_kind, key)
            seen += list(scan)
            assert seen == expected, write_kind
            expected = list(store.scan(START, END))  # the next round's view
    finally:
        store.close()


def test_a_scan_pins_before_its_first_next(kind):
    """Writes and a seal between two scans' calls: each sees its own call."""
    store = loaded(kind)
    try:
        before = store.scan()
        store.delete(KEYS[0])
        store.put(b"z", b"1")
        between(store, "seal")
        after = store.scan()
        store.delete(KEYS[-1])
        old, new = list(before), list(after)
        assert [key for key, _ in old] == KEYS
        assert [key for key, _ in new] == KEYS[1:] + [b"z"]
    finally:
        store.close()


def test_an_unstarted_scan_releases_its_pins(kind):
    """Closing or dropping a scan that never ran gives its runs back (a
    leaked pin would keep obsolete files alive for good)."""
    store = loaded(kind)
    try:
        tables = [
            table for tree in trees(store)
            for runs in tree._levels for run in runs for table in run.tables
        ]
        assert tables
        refs = [table.refs for table in tables]
        scans = [store.scan(), store.scan(START, END)]
        assert [table.refs for table in tables] == [count + 2 for count in refs]
        scans[0].close()
        assert [table.refs for table in tables] == [count + 1 for count in refs]
        del scans
        assert [table.refs for table in tables] == refs
    finally:
        store.close()


def test_a_snapshot_scan_folds_a_chain_spread_over_buffers():
    """A key's operand in the active buffer and its base in a sealed one are
    two windows of a snapshot's scan: it must still yield the key once,
    folded, with no run to merge them with."""
    tree = LSMTree(make_config())
    tree.put(b"a", b"1")
    tree.put(b"b", b"10")
    tree.seal_memtable()
    tree.merge(b"b", b"5")
    tree.merge(b"c", b"2")
    with tree.snapshot() as snapshot:
        assert [entry.key for entry in snapshot.memtable_entries] == [b"a", b"b", b"b", b"c"]
        tree.delete(b"b")
        assert list(snapshot.scan()) == [(b"a", b"1"), (b"b", b"15"), (b"c", b"2")]
        assert list(snapshot.scan(b"b", b"b")) == [(b"b", b"15")]
    assert list(tree.scan()) == [(b"a", b"1"), (b"c", b"2")]
    tree.close()
