"""The vectorised filter build is the scalar one, bit for bit.

``hash64`` is the definition; ``hash64_many`` and the filters built through
it are held to it here, with the scalar build loop kept as the reference.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.filters.blocked_bloom import BlockedBloomFilter
from repro.filters.bloom import BloomFilter
from repro.filters.hashing import HashCounter, hash64, hash64_many

keys_strategy = st.lists(st.binary(min_size=0, max_size=40), max_size=60)
seeds = st.integers(min_value=0, max_value=2**63)


def mixed_keys(n):
    """``n`` distinct keys whose lengths cycle through 1..27 bytes."""
    return [b"%0*d" % (1 + i % 27, i) + b"\xff" * (i % 3) for i in range(n)]


def scalar_bloom_bits(keys, bits_per_key, num_hashes, seed):
    """The build loop ``BloomFilter.__init__`` ran before it was vectorised."""
    nbits = max(8, int(bits_per_key * len(keys)))
    data = bytearray((nbits + 7) // 8)
    for key in keys:
        digest = hash64(key, seed)
        h1 = digest & 0xFFFFFFFF
        h2 = (digest >> 32) | 1
        for i in range(num_hashes):
            pos = (h1 + i * h2) % nbits
            data[pos >> 3] |= 1 << (pos & 7)
    return data


def scalar_blocked_bits(keys, bits_per_key, num_hashes, seed):
    """Likewise for ``BlockedBloomFilter``: all k bits inside one 512-bit block."""
    num_blocks = (max(512, int(bits_per_key * len(keys))) + 511) // 512
    data = bytearray(num_blocks * 64)
    for key in keys:
        digest = hash64(key, seed)
        block = (digest % num_blocks) * 64
        h1 = (digest >> 20) & 0x1FF
        h2 = ((digest >> 40) & 0x1FF) | 1
        for i in range(num_hashes):
            pos = (h1 + i * h2) % 512
            data[block + (pos >> 3)] |= 1 << (pos & 7)
    return data


class TestHashMany:
    @settings(max_examples=200, deadline=None)
    @given(keys=keys_strategy, seed=seeds)
    def test_equals_scalar_hash(self, keys, seed):
        digests = hash64_many(keys, seed)
        assert digests.dtype.kind == "u" and digests.dtype.itemsize == 8
        assert digests.tolist() == [hash64(key, seed) for key in keys]

    def test_empty_list_and_empty_key(self):
        assert hash64_many([], 7).tolist() == []
        assert hash64_many([b""], 7).tolist() == [hash64(b"", 7)]
        assert hash64_many([b"", b"a", b""], 0).tolist() == [
            hash64(b"", 0), hash64(b"a", 0), hash64(b"", 0)
        ]

    @pytest.mark.parametrize("width", [1, 7, 8, 9, 15, 16, 17, 40])
    def test_every_lane_and_tail_shape(self, width):
        keys = [bytes((i * 31 + j) & 0xFF for j in range(width)) for i in range(50)]
        assert hash64_many(keys, 2**63).tolist() == [hash64(key, 2**63) for key in keys]

    def test_default_seed_is_zero(self):
        keys = mixed_keys(10)
        assert hash64_many(keys).tolist() == [hash64(key) for key in keys]


class TestVectorisedBuilds:
    @pytest.mark.parametrize("num_hashes", [1, 7])
    @pytest.mark.parametrize("n", [1, 47, 2048, 2049, 5000])
    def test_bloom_bytes_equal_the_scalar_build(self, n, num_hashes):
        keys = mixed_keys(n)
        filt = BloomFilter(keys, 10, num_hashes, 9)
        assert filt._bits.data == scalar_bloom_bits(keys, 10, num_hashes, 9)
        assert isinstance(filt._bits.data, bytearray)
        assert all(filt.may_contain(key) for key in keys[:200])

    @pytest.mark.parametrize("num_hashes", [1, 7])
    @pytest.mark.parametrize("n", [1, 47, 2048, 2049, 5000])
    def test_blocked_bloom_bytes_equal_the_scalar_build(self, n, num_hashes):
        keys = mixed_keys(n)
        filt = BlockedBloomFilter(keys, 10, num_hashes, 9)
        assert filt._blocks == scalar_blocked_bits(keys, 10, num_hashes, 9)
        assert all(filt.may_contain(key) for key in keys[:200])

    @settings(max_examples=50, deadline=None)
    @given(
        keys=st.lists(st.binary(max_size=20), min_size=1, max_size=80, unique=True),
        bits_per_key=st.sampled_from([0.5, 3.0, 10.0, 16.5]),
        seed=seeds,
    )
    def test_bloom_bytes_for_any_geometry(self, keys, bits_per_key, seed):
        filt = BloomFilter(keys, bits_per_key, seed=seed)
        assert filt._bits.data == scalar_bloom_bits(keys, bits_per_key, filt.num_hashes, seed)

    @pytest.mark.parametrize("n", [1, 47, 2049])
    def test_hash_counter_is_credited_one_digest_per_key(self, n):
        counter = HashCounter()
        counter.digest(b"before", 0)
        filt = BloomFilter(mixed_keys(n), 10, seed=3, hash_counter=counter)
        assert counter.evaluations == 1 + n
        filt.may_contain(b"probe")  # probes keep going through the counter
        assert counter.evaluations == 2 + n

    def test_degenerate_filters_hash_nothing(self):
        counter = HashCounter()
        assert BloomFilter([], 10, hash_counter=counter).size_bytes == 0
        assert BloomFilter([b"k"], 0, hash_counter=counter).size_bytes == 0
        assert counter.evaluations == 0
