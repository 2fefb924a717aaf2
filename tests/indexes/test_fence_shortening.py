"""Fence separator shortening: exactness preserved, memory reduced."""

import bisect

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.indexes.fence import FencePointers, _shortest_separator


class TestShortestSeparator:
    def test_single_diverging_byte(self):
        assert _shortest_separator(b"apple", b"banana") == b"b"

    def test_shared_prefix(self):
        assert _shortest_separator(b"user:0199", b"user:0200") == b"user:02"

    def test_lower_is_prefix_of_upper(self):
        sep = _shortest_separator(b"ab", b"abc")
        assert b"ab" < sep <= b"abc"

    def test_adjacent_keys(self):
        sep = _shortest_separator(b"a", b"b")
        assert sep == b"b"

    @given(st.binary(min_size=1, max_size=16), st.binary(min_size=1, max_size=16))
    def test_property_valid_separator(self, a, b):
        lower, upper = sorted((a, b))
        if lower == upper:
            return
        sep = _shortest_separator(lower, upper)
        assert lower < sep <= upper
        assert upper.startswith(sep)


class TestShortenedFences:
    KEYS = [b"user:%06d" % i for i in range(500)]
    BLOCKS = [i // 25 for i in range(500)]

    def test_locate_identical_to_full_fences(self):
        full = FencePointers(self.KEYS, self.BLOCKS)
        short = FencePointers(self.KEYS, self.BLOCKS, shorten=True)
        probes = self.KEYS + [key + b"x" for key in self.KEYS[::7]] + [b"a", b"z"]
        for key in probes:
            assert full.locate(key) == short.locate(key), key

    def test_memory_reduced_on_long_shared_prefixes(self):
        full = FencePointers(self.KEYS, self.BLOCKS)
        short = FencePointers(self.KEYS, self.BLOCKS, shorten=True)
        assert short.size_bytes < full.size_bytes

    def test_single_block_unchanged(self):
        fences = FencePointers([b"a", b"b"], [0, 0], shorten=True)
        assert fences.locate(b"a") == (0, 0)

    @settings(max_examples=30, deadline=None)
    @given(
        values=st.lists(st.integers(0, 10**9), min_size=2, max_size=200, unique=True),
        per_block=st.integers(1, 16),
    )
    def test_property_exactness(self, values, per_block):
        keys = [b"%012d" % v for v in sorted(values)]
        blocks = [i // per_block for i in range(len(keys))]
        short = FencePointers(keys, blocks, shorten=True)
        for key, block in zip(keys, blocks):
            assert short.locate(key) == (block, block)


def test_engine_with_shortened_fences():
    from repro import encode_uint_key
    from tests.conftest import make_tree

    tree = make_tree(index="fence", index_params={"shorten": True})
    for i in range(1500):
        tree.put(encode_uint_key((i * 733) % 500), b"v%d" % i)
    tree.flush()
    for i in range(0, 500, 11):
        assert tree.get(encode_uint_key(i)).found


def per_key_fences(keys, block_of_key, shorten):
    """The fences as first built, by a walk over every key: a reference for
    the construction from block starts."""
    if len(keys) != len(block_of_key):
        raise ValueError("keys and block_of_key must have equal length")
    first_keys, prev_last = [], []
    last_block = -1
    for key, block in zip(keys, block_of_key):
        if block != last_block:
            if block != last_block + 1:
                raise ValueError("block numbers must be contiguous and sorted")
            first_keys.append(key)
            prev_last.append(key)
            last_block = block
        prev_last[-1] = key
    if shorten and first_keys:
        first_keys = [first_keys[0]] + [
            _shortest_separator(prev_last[i - 1], first_keys[i]) for i in range(1, len(first_keys))
        ]
    return first_keys, last_block + 1


@settings(max_examples=200, deadline=None)
@given(
    keys=st.lists(st.binary(max_size=6), max_size=60, unique=True).map(sorted),
    steps=st.lists(st.sampled_from([0, 0, 1]), max_size=60),
    shorten=st.booleans(),
)
def test_fences_from_block_starts_match_the_per_key_walk(keys, steps, shorten):
    blocks = [0] * len(keys)
    for i in range(1, len(keys)):
        blocks[i] = blocks[i - 1] + (steps[i] if i < len(steps) else 0)
    fences = FencePointers(keys, blocks, shorten=shorten)
    first_keys, num_blocks = per_key_fences(keys, blocks, shorten)
    assert fences._first_keys == first_keys
    assert fences.num_blocks == num_blocks
    assert fences.size_bytes == sum(map(len, first_keys)) + 8 * len(first_keys)
    for key in keys + [key + b"\x00" for key in keys] + [b"", b"\xff" * 7]:
        block = bisect.bisect_right(first_keys, key) - 1
        expected = (0, -1) if not first_keys or key < first_keys[0] else (block, block)
        assert fences.locate(key) == expected


@settings(max_examples=100, deadline=None)
@given(blocks=st.lists(st.integers(0, 4), min_size=1, max_size=12))
def test_block_numbers_refused_as_the_per_key_walk_refuses_them(blocks):
    keys = [b"%03d" % i for i in range(len(blocks))]
    try:
        per_key_fences(keys, blocks, False)
    except ValueError:
        with pytest.raises(ValueError, match="contiguous and sorted"):
            FencePointers(keys, blocks)
    else:
        assert FencePointers(keys, blocks).num_blocks == blocks[-1] + 1
