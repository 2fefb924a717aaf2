"""Search indexes: the locate() contract for fence, hash, and learned kinds.

The universal invariant: for every trained key, the true block must lie in
the returned interval (a learned index may widen it, never miss it).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.encoding import encode_uint_key
from repro.core.design_space import DESIGN_SPACE
from repro.errors import ConfigError
from repro.indexes import make_index_factory
from repro.indexes.fence import FencePointers
from repro.indexes.hash_index import HashIndex
from repro.indexes.learned.pgm import PGMIndex
from repro.indexes.learned.radix_spline import RadixSplineIndex
from repro.indexes.learned.rmi import RMIIndex

ALL_KINDS = sorted(kind for kind, build in DESIGN_SPACE["index"].choices.items() if build)


def keyset(n, entries_per_block=10, skew=False):
    """Sorted keys + their block numbers."""
    if skew:
        values = [i * i for i in range(n)]  # quadratic: hard for linear models
    else:
        values = [i * 7 for i in range(n)]
    keys = [encode_uint_key(v) for v in values]
    blocks = [i // entries_per_block for i in range(n)]
    return keys, blocks


@pytest.mark.parametrize("kind", ALL_KINDS)
class TestLocateContract:
    def test_every_key_within_interval(self, kind):
        keys, blocks = keyset(500)
        index = make_index_factory(kind)(keys, blocks)
        for key, true_block in zip(keys, blocks):
            lo, hi = index.locate(key)
            assert lo <= true_block <= hi, f"{kind}: {true_block} not in [{lo},{hi}]"

    def test_skewed_distribution(self, kind):
        keys, blocks = keyset(500, skew=True)
        index = make_index_factory(kind)(keys, blocks)
        for key, true_block in zip(keys, blocks):
            lo, hi = index.locate(key)
            assert lo <= true_block <= hi

    def test_reports_size(self, kind):
        keys, blocks = keyset(300)
        index = make_index_factory(kind)(keys, blocks)
        assert index.size_bytes > 0

    def test_single_block_file(self, kind):
        keys = [encode_uint_key(i) for i in range(5)]
        index = make_index_factory(kind)(keys, [0] * 5)
        lo, hi = index.locate(keys[2])
        assert lo <= 0 <= hi


def test_unknown_kind():
    with pytest.raises(ConfigError):
        make_index_factory("btree")


class TestFencePointers:
    def test_exact_single_block(self):
        keys, blocks = keyset(200, entries_per_block=20)
        fences = FencePointers(keys, blocks)
        for key, block in zip(keys, blocks):
            assert fences.locate(key) == (block, block)

    def test_below_first_key_is_definitely_absent(self):
        keys, blocks = keyset(100)
        fences = FencePointers(keys, blocks)
        lo, hi = fences.locate(encode_uint_key(0)[:-1])  # shorter sorts lower
        assert lo > hi

    def test_key_between_fences_maps_to_left_block(self):
        keys = [encode_uint_key(v) for v in (10, 20, 30, 40)]
        fences = FencePointers(keys, [0, 0, 1, 1])
        lo, hi = fences.locate(encode_uint_key(25))
        assert (lo, hi) == (0, 0)

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            FencePointers([b"a"], [0, 1])

    def test_non_contiguous_blocks_rejected(self):
        with pytest.raises(ValueError):
            FencePointers([b"a", b"b"], [0, 2])

    def test_size_counts_keys_and_offsets(self):
        keys, blocks = keyset(100, entries_per_block=10)
        fences = FencePointers(keys, blocks)
        assert fences.size_bytes == 10 * (8 + 8)  # 10 fences x (8B key + 8B off)


class TestHashIndex:
    def test_absent_key_is_definitely_absent(self):
        keys, blocks = keyset(100)
        index = HashIndex(keys, blocks)
        lo, hi = index.locate(encode_uint_key(3))  # 3 not divisible by 7
        assert lo > hi

    def test_size_is_per_key(self):
        keys, blocks = keyset(100)
        assert HashIndex(keys, blocks).size_bytes == 600


class TestLearnedErrorBounds:
    def test_rmi_max_error_reported(self):
        keys, blocks = keyset(1000, skew=True)
        index = RMIIndex(keys, blocks, num_leaves=32)
        assert index.max_error >= 0

    def test_rmi_more_leaves_tighter(self):
        keys, blocks = keyset(2000, skew=True)
        coarse = RMIIndex(keys, blocks, num_leaves=4)
        fine = RMIIndex(keys, blocks, num_leaves=128)
        assert fine.max_error <= coarse.max_error

    def test_pgm_segment_count_grows_with_curvature(self):
        linear_keys, blocks = keyset(1000)
        skew_keys, _ = keyset(1000, skew=True)
        linear = PGMIndex(linear_keys, blocks, epsilon=8)
        curved = PGMIndex(skew_keys, blocks, epsilon=8)
        assert linear.num_segments <= curved.num_segments

    def test_pgm_epsilon_tradeoff(self):
        keys, blocks = keyset(2000, skew=True)
        tight = PGMIndex(keys, blocks, epsilon=4)
        loose = PGMIndex(keys, blocks, epsilon=64)
        assert loose.num_segments <= tight.num_segments
        assert loose.size_bytes <= tight.size_bytes

    def test_pgm_handles_duplicate_numeric_keys(self):
        # Distinct byte keys sharing the first 8 bytes collapse numerically.
        keys = sorted(encode_uint_key(5) + bytes([i]) for i in range(50))
        index = PGMIndex(keys, [i // 10 for i in range(50)], epsilon=4)
        for i, key in enumerate(keys):
            lo, hi = index.locate(key)
            assert lo <= i // 10 <= hi

    def test_radix_spline_knots_bounded_by_keys(self):
        keys, blocks = keyset(1000)
        index = RadixSplineIndex(keys, blocks, epsilon=16)
        assert index.num_knots <= 1002

    def test_radix_spline_certified_bound(self):
        keys, blocks = keyset(1000, skew=True)
        index = RadixSplineIndex(keys, blocks, epsilon=8)
        assert index.certified_bound >= 8

    def test_learned_smaller_than_fences_on_smooth_keys(self):
        keys, blocks = keyset(20_000, entries_per_block=10)
        fences = FencePointers(keys, blocks)
        for cls, kwargs in (
            (PGMIndex, dict(epsilon=32)),
            (RadixSplineIndex, dict(epsilon=32, radix_bits=8)),
            (RMIIndex, dict(num_leaves=64)),
        ):
            learned = cls(keys, blocks, **kwargs)
            assert learned.size_bytes < fences.size_bytes, cls.__name__

    def test_validation(self):
        keys, blocks = keyset(10)
        with pytest.raises(ValueError):
            PGMIndex(keys, blocks, epsilon=0)
        with pytest.raises(ValueError):
            RMIIndex(keys, blocks, num_leaves=0)
        with pytest.raises(ValueError):
            RadixSplineIndex(keys, blocks, radix_bits=0)
        with pytest.raises(ValueError):
            PGMIndex([], [], epsilon=4)


@settings(max_examples=20, deadline=None)
@given(
    values=st.lists(st.integers(0, 2**40), min_size=1, max_size=300, unique=True),
    entries_per_block=st.integers(1, 32),
    kind=st.sampled_from(ALL_KINDS),
)
def test_property_locate_never_misses(values, entries_per_block, kind):
    values.sort()
    keys = [encode_uint_key(v) for v in values]
    blocks = [i // entries_per_block for i in range(len(keys))]
    index = make_index_factory(kind)(keys, blocks)
    for key, block in zip(keys, blocks):
        lo, hi = index.locate(key)
        assert lo <= block <= hi
