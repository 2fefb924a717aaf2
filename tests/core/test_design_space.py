"""Every declared design choice, built once, behaves like a dict.

Parametrized from ``DESIGN_SPACE``, so a choice added to the table is
exercised here without an edit: each case builds a small tree with that one
choice (plus the knob without which it is never consulted), runs puts,
deletes, flushes and compactions, then checks gets and scans against a dict
and that the tree built what the table declares.
"""

import pytest

from repro import LSMTree, encode_uint_key
from repro.core.design_space import DESIGN_SPACE
from tests.conftest import make_config

# A picker runs only under partial compaction; an eviction policy only with a cache.
_ENABLERS = {
    "picker": dict(partial_compaction=True, file_bytes=1 << 10),
    "cache_policy": dict(cache_bytes=16 << 10),
}

# What the tree built for a dimension, where it keeps one object per run file.
_BUILT = {
    "filter_kind": lambda table: table.point_filter,
    "range_filter": lambda table: table.range_filter,
    "index": lambda table: table.search_index,
}

CASES = [(field, choice) for field, row in DESIGN_SPACE.items() for choice in row.choices]


@pytest.mark.parametrize("field,choice", CASES, ids=[f"{f}={c}" for f, c in CASES])
def test_every_declared_choice_matches_a_dict(field, choice):
    tree = LSMTree(make_config(**{field: choice}, **_ENABLERS.get(field, {})))
    model = {}
    for i in range(1500):
        key = encode_uint_key((i * 733) % 400)
        if i % 7 == 3:
            tree.delete(key)
            model.pop(key, None)
        else:
            tree.put(key, b"v%06d" % i + b"x" * 24)
            model[key] = b"v%06d" % i + b"x" * 24
    tree.flush()

    for raw in range(0, 420):
        key = encode_uint_key(raw)
        result = tree.get(key)
        assert result.found == (key in model), (field, choice, raw)
        if result.found:
            assert result.value == model[key]
    assert dict(tree.scan()) == model
    lo, hi = encode_uint_key(100), encode_uint_key(199)
    assert list(tree.scan(lo, hi)) == sorted((k, v) for k, v in model.items() if lo <= k <= hi)

    tables = [table for level in tree._levels for run in level for table in run.tables]
    assert tables, "the workload must reach the device"
    build = DESIGN_SPACE[field].choices[choice]
    if field == "memtable":
        assert type(tree._memtable) is build
    if field in _BUILT:
        for table in tables:
            built = _BUILT[field](table)
            assert built is None if build is None else type(built) is build
