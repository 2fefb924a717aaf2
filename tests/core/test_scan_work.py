"""How much Python one drained scan runs, per key it returns.

Wall-clock gains on the scan path drown in timing noise; a count
of calls does not. A fixed tree of three runs (plus a buffer) is scanned
over 50 keys with ``sys.setprofile``: the scan builds no ``Entry`` when its
range holds no merge operand — versions are merged as columns cut from the
blocks — and its Python calls per returned key are pinned. Comprehension
calls are not counted (Python 3.12 inlines them), nor are calls into C.
A count that rises is a regression; one that falls is re-pinned here with
the change that made it.
"""

import sys

import pytest

from repro.common.encoding import encode_uint_key
from repro.common.entry import Entry

from tests.conftest import make_tree

#: Steady-state Python calls per key a drained 50-key scan returns.
CALLS_PER_KEY = 3.9

_COMPREHENSIONS = {"<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>"}
_ENTRY_INIT = Entry.__init__.__code__


def profile_calls(fn, *args):
    """``(Python calls, Entry constructions)`` made while ``fn(*args)`` runs."""
    counts = [0, 0]

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if code is _ENTRY_INIT:
                counts[1] += 1
            if code.co_name not in _COMPREHENSIONS and code.co_filename != __file__:
                counts[0] += 1

    sys.setprofile(profile)
    try:
        result = fn(*args)
    finally:
        sys.setprofile(None)
    return counts[0], counts[1], result


@pytest.fixture(scope="module")
def tree():
    """Three runs of overlapping puts, deletes and TTL puts, then a buffer."""
    tree = make_tree(layout="tiering", size_ratio=4, buffer_bytes=64 << 10, cache_bytes=1 << 20)
    for run in range(3):
        for i in range(run, 400, run + 1):
            key = encode_uint_key(i)
            if (i + run) % 17 == 0:
                tree.delete(key)
            elif (i + run) % 13 == 0:
                tree.put(key, b"t%04d-%d" % (i, run), ttl=1e9)
            else:
                tree.put(key, b"v%04d-%d" % (i, run))
        tree.flush()
    for i in range(0, 400, 7):
        tree.put(encode_uint_key(i), b"b%04d" % i)
    assert [len(runs) for runs in tree.level_set.levels] == [3]
    yield tree
    tree.close()


def drained(tree, start, end):
    return list(tree.scan(encode_uint_key(start), encode_uint_key(end)))


def test_a_scan_without_merge_operands_builds_no_entry(tree):
    calls, entries, cold = profile_calls(drained, tree, 100, 160)
    assert entries == 0
    calls, entries, warm = profile_calls(drained, tree, 100, 160)
    assert entries == 0 and warm == cold


def test_calls_per_returned_key(tree):
    drained(tree, 200, 260)  # warm: every block the range needs is cached
    calls, entries, result = profile_calls(drained, tree, 200, 260)
    assert entries == 0
    assert len(result) >= 50
    assert round(calls / len(result), 2) == CALLS_PER_KEY


def test_a_merge_operand_builds_entries_for_its_chain_only():
    tree = make_tree(buffer_bytes=64 << 10)
    try:
        for i in range(40):
            tree.put(encode_uint_key(i), b"%d" % i)
        tree.flush()
        key = encode_uint_key(20)
        tree.merge(key, b"5")  # pending: no version of its key is buffered
        calls, entries, result = profile_calls(drained, tree, 0, 39)
        assert dict(result)[key] == b"25" and len(result) == 40
        assert entries == 2  # the operand and the base it folds onto
    finally:
        tree.close()
