"""How much Python a compaction's build runs, per key it writes.

As with scans (``test_scan_work.py``), a count of calls resolves what a
wall clock cannot. Two runs of puts are merged by one compaction under
``sys.setprofile``: a merge piece of PUTs with no compaction filter and no
merge chain goes from the merge to encoded blocks as columns, so the
compaction builds no ``Entry`` and calls the per-key fold for no key; its
Python calls per output key are pinned. A piece holding a tombstone that
the compaction purges goes through the per-key rules, one ``Entry`` per key
of that piece. Comprehension calls are not counted (Python 3.12 inlines
them), nor are calls into C or into numpy's own Python functions (which
differ between numpy versions). A count that rises is a regression; one
that falls is re-pinned here with the change that made it.
"""

import os
import sys
import types

import numpy

from repro.common.encoding import encode_uint_key
from repro.common.entry import Entry
from repro.compaction.executor import CompactionExecutor

from tests.conftest import make_tree

#: Python calls per output key of a compaction of two PUT-only runs.
CALLS_PER_KEY = 2.79

_COMPREHENSIONS = {"<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>"}
_NUMPY = os.path.dirname(numpy.__file__) + os.sep
_ENTRY_INIT = Entry.__init__.__code__
#: The per-key fold ``CompactionExecutor.fold`` defines and returns.
(_PER_KEY_FOLD,) = [
    const for const in CompactionExecutor.fold.__code__.co_consts
    if isinstance(const, types.CodeType) and const.co_name == "fold"
]


def profile_compaction(tree, plan):
    """``(Python calls, Entry constructions, per-key fold calls, output run)``
    of executing ``plan``."""
    counts = [0, 0, 0]

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if code is _ENTRY_INIT:
                counts[1] += 1
            elif code is _PER_KEY_FOLD:
                counts[2] += 1
            if (
                code.co_name not in _COMPREHENSIONS
                and code.co_filename != __file__
                and not code.co_filename.startswith(_NUMPY)
            ):
                counts[0] += 1

    sys.setprofile(profile)
    try:
        run = tree.execute_compaction(plan)
    finally:
        sys.setprofile(None)
    return counts[0], counts[1], counts[2], run


def two_runs(delete=None):
    """A tree holding two flushed runs of puts over 0..1199 (and, given
    ``delete``, one tombstone for that key in the newer run), its next
    compaction planned but not run."""
    tree = make_tree(layout="tiering", size_ratio=2, buffer_bytes=256 << 10)
    tree.set_maintenance_callback(lambda: None)  # compactions wait for the plan below
    for step in (2, 3):
        for i in range(0, 1200, step):
            tree.put(encode_uint_key(i), b"v%05d-%d" % (i, step))
        if delete is not None and step == 3:
            tree.delete(encode_uint_key(delete))
        tree.flush()
    plan = tree.plan_compaction()
    assert plan is not None and len(plan.inputs) == 2 and not plan.trivial
    return tree, plan


def test_merging_put_only_runs_builds_no_entry_and_folds_no_key():
    tree, plan = two_runs()
    try:
        calls, entries, folds, run = profile_compaction(tree, plan)
        tree.install_compaction(plan, run)
        keys = run.entry_count
        assert keys == len(set(range(0, 1200, 2)) | set(range(0, 1200, 3)))
        assert entries == 0 and folds == 0
        assert round(calls / keys, 2) == CALLS_PER_KEY
    finally:
        tree.close()


def test_a_piece_with_a_purged_tombstone_goes_key_by_key():
    tree, plan = two_runs(delete=600)
    try:
        assert plan.purge
        calls, entries, folds, run = profile_compaction(tree, plan)
        tree.install_compaction(plan, run)
        assert tree.get(encode_uint_key(600)).found is False
        assert run.tombstone_count == 0
        assert run.entry_count == len(set(range(0, 1200, 2)) | set(range(0, 1200, 3))) - 1
        # Only the piece around the tombstone is folded, each of its keys once.
        assert 0 < folds == entries < run.entry_count // 4
    finally:
        tree.close()
