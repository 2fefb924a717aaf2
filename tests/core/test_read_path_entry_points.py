"""A point read enters each layer through its public entry point, looked up
on the class at call time.

``perf/tracing.py`` times the read path by replacing these attributes on
their classes *after* the store is built and preloaded. A walk that skips one
of them, or calls it through a bound method captured at construction, would
leave its span empty without failing anything else.
"""

from unittest import mock

import pytest

from repro import DBService, LSMConfig, LSMTree
from repro.cache import BlockCache
from repro.common.encoding import encode_uint_key
from repro.filters.bloom import BloomFilter
from repro.indexes.fence import FencePointers
from repro.memtable.skiplist import SkipListMemtable

ENTRY_POINTS = [
    (LSMTree, "get"),
    (SkipListMemtable, "get"),
    (BloomFilter, "may_contain"),
    (FencePointers, "locate"),
    (BlockCache, "get_or_load_block"),
]


@pytest.mark.parametrize("through_service", [False, True])
def test_every_entry_point_is_entered_by_a_get_patched_after_preload(through_service):
    tree = LSMTree(LSMConfig(buffer_bytes=8 << 10, block_size=512, cache_bytes=1 << 20))
    store = DBService(tree) if through_service else tree
    for i in range(2000):
        store.put(encode_uint_key(i), b"v%05d" % i)
    tree.flush()
    assert store.get(encode_uint_key(7)).found  # warm: the next read is a cache hit
    calls = []

    def counted(owner, name):
        original = owner.__dict__[name]

        def wrapper(*args, **kwargs):
            calls.append((owner, name))
            return original(*args, **kwargs)

        return mock.patch.object(owner, name, wrapper)

    patches = [counted(owner, name) for owner, name in ENTRY_POINTS]
    try:
        for patch in patches:
            patch.start()
        assert store.get(encode_uint_key(7)).found
    finally:
        for patch in patches:
            patch.stop()
        store.close()
    expected = ENTRY_POINTS[1:] if through_service else ENTRY_POINTS  # the service walks the tree's read path itself
    for entry_point in expected:
        assert entry_point in calls, f"{entry_point[0].__name__}.{entry_point[1]} was not called"
