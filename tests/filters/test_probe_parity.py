"""A filter probe answers and counts exactly as the reference loop does.

The probe loop and the scalar ``hash64`` as they stood before the point-read
path was leaned out are kept here verbatim as the references. Every filter
that probes through ``BloomFilter`` (partitioned, elastic, prefix) is built
twice — once over the shipped class, once over the reference subclass — and
the two must give the same answer and the same four ``FilterStats`` counters
after every single probe.
"""

import random
from dataclasses import astuple
from functools import lru_cache
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.filters import elastic, partitioned, prefix_bloom
from repro.filters.blocked_bloom import BlockedBloomFilter
from repro.filters.bloom import BloomFilter
from repro.filters.elastic import ElasticBloomFilter
from repro.filters.hashing import HashCounter, hash64
from repro.filters.partitioned import PartitionedBloomFilter
from repro.filters.prefix_bloom import PrefixBloomFilter

MASK64 = (1 << 64) - 1
_PRIME1 = 0x9E3779B185EBCA87
_PRIME2 = 0xC2B2AE3D27D4EB4F
_PRIME3 = 0x165667B19E3779F9


def ref_hash64(key: bytes, seed: int = 0) -> int:
    """``hash64`` before its redundant masks were dropped."""
    acc = (seed * _PRIME1 + len(key) * _PRIME2) & MASK64
    for offset in range(0, len(key) - 7, 8):
        lane = int.from_bytes(key[offset : offset + 8], "little")
        acc = (acc ^ (lane * _PRIME2 & MASK64)) & MASK64
        acc = ((acc << 31 | acc >> 33) & MASK64) * _PRIME1 & MASK64
    tail = len(key) & 7
    if tail:
        lane = int.from_bytes(key[-tail:], "little")
        acc = (acc ^ (lane * _PRIME3 & MASK64)) & MASK64
        acc = ((acc << 17 | acc >> 47) & MASK64) * _PRIME2 & MASK64
    acc ^= acc >> 29
    acc = acc * _PRIME3 & MASK64
    acc ^= acc >> 32
    return acc


class RefHashCounter:
    """``HashCounter`` over the reference hash."""

    def __init__(self) -> None:
        self.evaluations = 0

    def digest(self, key: bytes, seed: int = 0) -> int:
        self.evaluations += 1
        return ref_hash64(key, seed)


def _ref_test(bits, pos: int) -> bool:
    return bool(bits.data[pos >> 3] & (1 << (pos & 7)))


class RefBloom(BloomFilter):
    """``BloomFilter`` probing with the loop it had before the lean probe."""

    def may_contain(self, key: bytes) -> bool:
        self.stats.probes += 1
        if self._bits is None:
            self.stats.cache_line_touches += 0
            return True
        h1, h2 = self._ref_probe_pair(key)
        lines = set()
        for i in range(self._k):
            pos = (h1 + i * h2) % self._bits.nbits
            lines.add(pos >> 9)  # 512 bits per 64-byte cache line
            if not _ref_test(self._bits, pos):
                self.stats.negatives += 1
                self.stats.cache_line_touches += len(lines)
                return False
        self.stats.cache_line_touches += len(lines)
        return True

    def may_contain_digest(self, digest: int) -> bool:
        self.stats.probes += 1
        if self._bits is None:
            return True
        h1 = digest & 0xFFFFFFFF
        h2 = (digest >> 32) | 1
        lines = set()
        for i in range(self._k):
            pos = (h1 + i * h2) % self._bits.nbits
            lines.add(pos >> 9)
            if not _ref_test(self._bits, pos):
                self.stats.negatives += 1
                self.stats.cache_line_touches += len(lines)
                return False
        self.stats.cache_line_touches += len(lines)
        return True

    def _ref_probe_pair(self, key: bytes) -> "tuple[int, int]":
        if self._hash_counter is not None:
            digest = self._hash_counter.digest(key, self._seed)
        else:
            digest = ref_hash64(key, self._seed)
        self.stats.hash_evaluations += 1
        return digest & 0xFFFFFFFF, (digest >> 32) | 1


class RefBlocked(BlockedBloomFilter):
    """``BlockedBloomFilter`` probing with its earlier loop."""

    def may_contain(self, key: bytes) -> bool:
        self.stats.probes += 1
        if self._blocks is None:
            return True
        digest = ref_hash64(key, self._seed)
        self.stats.hash_evaluations += 1
        self.stats.cache_line_touches += 1  # the whole point of blocking
        block = (digest % self._num_blocks) * (512 // 8)
        h1 = (digest >> 20) & 0x1FF
        h2 = ((digest >> 40) & 0x1FF) | 1
        for i in range(self._k):
            pos = (h1 + i * h2) % 512
            if not self._blocks[block + (pos >> 3)] & (1 << (pos & 7)):
                self.stats.negatives += 1
                return False
        return True


def build_over_reference(module, factory):
    """``factory()`` with ``module``'s ``BloomFilter`` swapped for the reference."""
    with mock.patch.object(module, "BloomFilter", RefBloom):
        return factory()


@lru_cache(maxsize=None)
def member_keys(n: int) -> "tuple[bytes, ...]":
    """``n`` distinct sorted keys of every length from 0 to 40 bytes."""
    rng = random.Random(n)
    keys = {b""} if n > 1 else set()
    while len(keys) < n:
        keys.add(rng.randbytes(rng.randrange(41)))
    return tuple(sorted(keys))


def all_stats(filter_) -> list:
    """The filter's counters and those of every Bloom filter inside it."""
    inner = (
        getattr(filter_, "_units", None)
        or getattr(filter_, "_partitions", None)
        or [f for f in (getattr(filter_, "_bloom", None),) if f is not None]
    )
    return [astuple(filter_.stats)] + [astuple(part.stats) for part in inner]


def assert_same_walk(real, ref, probes, members, method="may_contain"):
    """Probe both filters key by key; members first so positives are covered."""
    for key in list(members[:: max(1, len(members) // 16)]) + list(probes):
        answer = getattr(real, method)(key)
        assert answer == getattr(ref, method)(key), key
        assert all_stats(real) == all_stats(ref), key
        if key in members and method == "may_contain":
            assert answer, "false negative"


probe_keys = st.lists(st.binary(min_size=0, max_size=40), max_size=40)
seeds = st.integers(min_value=0, max_value=2**63)
GEOMETRIES = [(k, n) for k in (1, 7) for n in (1, 47, 5_000)]


def examples(n: int) -> int:
    return 12 if n >= 5_000 else 60


class TestHash:
    @settings(max_examples=300, deadline=None)
    @given(key=st.binary(min_size=0, max_size=40), seed=seeds)
    def test_scalar_hash_keeps_its_digests(self, key, seed):
        assert hash64(key, seed) == ref_hash64(key, seed)

    def test_every_length_and_lane_boundary(self):
        for length in range(0, 41):
            key = bytes(range(1, length + 1))
            for seed in (0, 1, 1234, 2**63):
                assert hash64(key, seed) == ref_hash64(key, seed)


class TestBloom:
    @pytest.mark.parametrize("k,n", GEOMETRIES)
    def test_key_probe(self, k, n):
        members = member_keys(n)

        @settings(max_examples=examples(n), deadline=None)
        @given(probes=probe_keys, seed=seeds)
        def run(probes, seed):
            real = BloomFilter(members, num_hashes=k, seed=seed)
            ref = RefBloom(members, num_hashes=k, seed=seed)
            assert real._bits.data == ref._bits.data
            assert_same_walk(real, ref, probes, members)

        run()

    @pytest.mark.parametrize("k,n", GEOMETRIES)
    def test_digest_probe(self, k, n):
        members = member_keys(n)

        @settings(max_examples=examples(n), deadline=None)
        @given(digests=st.lists(st.integers(0, MASK64), max_size=40), seed=seeds)
        def run(digests, seed):
            real = BloomFilter(members, num_hashes=k, seed=seed)
            ref = RefBloom(members, num_hashes=k, seed=seed)
            owned = [ref_hash64(key, seed) for key in members[:: max(1, n // 16)]]
            for digest in owned + digests:
                answer = real.may_contain_digest(digest)
                assert answer == ref.may_contain_digest(digest)
                assert astuple(real.stats) == astuple(ref.stats)
            assert all(real.may_contain_digest(digest) for digest in owned)

        run()

    @pytest.mark.parametrize("k,n", GEOMETRIES)
    def test_hash_counter_probe(self, k, n):
        members = member_keys(n)

        @settings(max_examples=examples(n), deadline=None)
        @given(probes=probe_keys, seed=seeds)
        def run(probes, seed):
            counter, ref_counter = HashCounter(), RefHashCounter()
            real = BloomFilter(members, num_hashes=k, seed=seed, hash_counter=counter)
            ref = RefBloom(members, num_hashes=k, seed=seed, hash_counter=ref_counter)
            for key in list(members[:: max(1, n // 16)]) + probes:
                assert real.may_contain(key) == ref.may_contain(key)
                assert astuple(real.stats) == astuple(ref.stats)
                assert counter.evaluations == ref_counter.evaluations

        run()

    @settings(max_examples=60, deadline=None)
    @given(probes=probe_keys, digests=st.lists(st.integers(0, MASK64), max_size=10))
    def test_zero_bit_filter_admits_everything(self, probes, digests):
        for members, bits in ((member_keys(47), 0), ((), 10.0)):
            real = BloomFilter(members, bits_per_key=bits)
            ref = RefBloom(members, bits_per_key=bits)
            assert_same_walk(real, ref, probes, members)
            assert_same_walk(real, ref, digests, (), method="may_contain_digest")
            assert real.stats.negatives == 0


class TestBlockedBloom:
    @pytest.mark.parametrize("k,n", GEOMETRIES)
    def test_key_probe(self, k, n):
        members = member_keys(n)

        @settings(max_examples=examples(n), deadline=None)
        @given(probes=probe_keys, seed=seeds)
        def run(probes, seed):
            real = BlockedBloomFilter(members, num_hashes=k, seed=seed)
            ref = RefBlocked(members, num_hashes=k, seed=seed)
            assert_same_walk(real, ref, probes, members)

        run()

    @settings(max_examples=30, deadline=None)
    @given(probes=probe_keys)
    def test_zero_bit_filter_admits_everything(self, probes):
        real = BlockedBloomFilter(member_keys(47), bits_per_key=0)
        ref = RefBlocked(member_keys(47), bits_per_key=0)
        assert_same_walk(real, ref, probes, member_keys(47))
        assert real.stats.negatives == 0


class TestFiltersBuiltOnBloom:
    @pytest.mark.parametrize("n", [1, 47, 5_000])
    def test_partitioned(self, n):
        members = member_keys(n)

        @settings(max_examples=examples(n), deadline=None)
        @given(probes=probe_keys, seed=seeds, budget=st.sampled_from([None, 64, 4096]))
        def run(probes, seed, budget):
            def build():
                return PartitionedBloomFilter(
                    members, keys_per_partition=16 if n < 5_000 else 1024,
                    resident_budget_bytes=budget, seed=seed,
                )

            real, ref = build(), build_over_reference(partitioned, build)
            assert isinstance(ref._partitions[0], RefBloom)
            assert_same_walk(real, ref, probes, members)
            assert real.partition_loads == ref.partition_loads

        run()

    @pytest.mark.parametrize("n", [1, 47, 5_000])
    def test_elastic(self, n):
        members = member_keys(n)

        @settings(max_examples=examples(n), deadline=None)
        @given(probes=probe_keys, seed=seeds, enabled=st.integers(0, 4))
        def run(probes, seed, enabled):
            def build():
                return ElasticBloomFilter(members, units=4, enabled_units=enabled, seed=seed)

            real, ref = build(), build_over_reference(elastic, build)
            assert isinstance(ref._units[0], RefBloom)
            assert_same_walk(real, ref, probes, members)
            assert real.accesses == ref.accesses

        run()

    @pytest.mark.parametrize("n", [1, 47, 5_000])
    def test_prefix_bloom(self, n):
        members = member_keys(n)

        @settings(max_examples=examples(n), deadline=None)
        @given(probes=probe_keys, seed=seeds, prefix=st.sampled_from([1, 6]))
        def run(probes, seed, prefix):
            def build():
                return PrefixBloomFilter(members, prefix_length=prefix, seed=seed)

            real, ref = build(), build_over_reference(prefix_bloom, build)
            assert isinstance(ref._bloom, RefBloom)
            assert_same_walk(real, ref, probes, members)
            for key in probes:  # the range form, inside one prefix group
                hi = key + b"\xff"
                assert real.may_intersect(key, hi) == ref.may_intersect(key, hi)
                assert all_stats(real) == all_stats(ref)

        run()
