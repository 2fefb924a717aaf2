"""Property tests: parallelism and batching are pure optimizations.

Two invariants, checked over Hypothesis-generated workloads:

* a tree compacted with key-range subcompactions holds exactly the entries
  a serially compacted twin holds (same scan, same per-key answers, same
  level shape); and
* ``multi_get`` answers exactly what per-key ``get`` answers.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro import LSMConfig, LSMTree, encode_uint_key
from repro.parallel import ParallelConfig

# Small keyspace + overwrites + deletes: maximal merge reconciliation per op.
OPS = st.lists(
    st.tuples(
        st.integers(0, 120),
        st.one_of(st.none(), st.binary(min_size=1, max_size=20)),
    ),
    min_size=50,
    max_size=300,
)


def build_tree(seed, parallel):
    return LSMTree(
        LSMConfig(
            buffer_bytes=1 << 10,
            block_size=256,
            size_ratio=3,
            bits_per_key=8.0,
            seed=seed,
            parallel=parallel,
        )
    )


def apply_ops(tree, ops):
    for key_no, value in ops:
        key = encode_uint_key(key_no)
        if value is None:
            tree.delete(key)
        else:
            tree.put(key, value)
    tree.flush()
    tree.compact_all()


@settings(max_examples=25, deadline=None)
@given(ops=OPS, seed=st.integers(0, 2**16))
def test_parallel_compaction_equivalent_to_serial(ops, seed):
    serial = build_tree(seed, None)
    parallel = build_tree(
        seed, ParallelConfig(max_subcompactions=4, min_subcompaction_blocks=2)
    )
    apply_ops(serial, ops)
    apply_ops(parallel, ops)
    assert list(parallel.scan()) == list(serial.scan())
    shape = lambda t: [(lvl["level"], lvl["entries"]) for lvl in t.level_summary()]
    assert shape(parallel) == shape(serial)
    for key_no in range(121):
        key = encode_uint_key(key_no)
        a, b = serial.get(key), parallel.get(key)
        assert (a.found, a.value, a.source_level) == (b.found, b.value, b.source_level)


@settings(max_examples=25, deadline=None)
@given(ops=OPS, seed=st.integers(0, 2**16))
def test_multi_get_equivalent_to_gets(ops, seed):
    tree = build_tree(seed, ParallelConfig())
    apply_ops(tree, ops)
    keys = [encode_uint_key(n) for n in range(121)]
    batched = tree.multi_get(keys)
    assert set(batched) == set(keys)
    for key in keys:
        got = tree.get(key)
        assert batched[key].found == got.found
        assert batched[key].value == got.value
        assert batched[key].source_level == got.source_level
