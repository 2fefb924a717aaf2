"""The standard Bloom filter, the workhorse point filter of LSM engines.

Bit positions come from Kirsch-Mitzenmacher double hashing (one 64-bit digest
per probe), with the number of hash functions k chosen as ``ln 2 * bits/key``
rounded to the nearest positive integer — the FPR-optimal choice the tutorial
and Monkey assume.
"""

from __future__ import annotations

import math
from itertools import repeat
from typing import Iterable, Optional, Sequence

import numpy as np

from repro.filters.base import PointFilter
from repro.filters.hashing import hash64, hash64_many

#: Keys hashed per vectorised build step: bounds the ``slice x k`` position
#: matrix (~115 KiB at k = 7) so a large table's build does not move peak RSS.
_BUILD_SLICE = 2048


def build_bits(keys: Sequence[bytes], seed: int, nbits: int, positions) -> bytearray:
    """An ``nbits`` bit array (bit ``pos`` is bit ``pos & 7`` of byte
    ``pos >> 3``) with every position ``positions(digests)`` names set, where
    ``digests`` is :func:`hash64_many` over a slice of ``keys``."""
    flags = np.zeros(nbits, dtype=bool)
    for start in range(0, len(keys), _BUILD_SLICE):
        flags[positions(hash64_many(keys[start : start + _BUILD_SLICE], seed))] = True
    return bytearray(np.packbits(flags, bitorder="little").tobytes())


def optimal_num_hashes(bits_per_key: float) -> int:
    """FPR-minimizing hash count for a given space budget."""
    return max(1, round(bits_per_key * math.log(2)))


def theoretical_fpr(bits_per_key: float, num_hashes: Optional[int] = None) -> float:
    """Asymptotic false-positive rate e^{-k ln(2)} at the optimal k.

    With the optimal k this collapses to ``0.6185 ** bits_per_key``, the
    formula the Monkey cost model relies on.
    """
    if bits_per_key <= 0:
        return 1.0
    k = num_hashes if num_hashes is not None else optimal_num_hashes(bits_per_key)
    return (1.0 - math.exp(-k / bits_per_key)) ** k


class _BitArray:
    """A plain bit array over a bytearray, filled once at build."""

    __slots__ = ("data", "nbits")

    def __init__(self, nbits: int, data: bytearray) -> None:
        self.nbits = nbits
        self.data = data

    @property
    def size_bytes(self) -> int:
        return len(self.data)


class BloomFilter(PointFilter):
    """Standard Bloom filter over a run's key set.

    Args:
        keys: the run's keys (an iterable; consumed once).
        bits_per_key: space budget; 0 builds a degenerate always-maybe filter
            (useful to represent "no filter at this level" in Monkey sweeps).
        num_hashes: override k; defaults to the optimal ``bits_per_key * ln2``.
        seed: hash seed (vary per run to decorrelate false positives).
        hash_counter: optional shared counter for E10's shared-hashing study.
    """

    def __init__(
        self,
        keys: Iterable[bytes],
        bits_per_key: float = 10.0,
        num_hashes: Optional[int] = None,
        seed: int = 0,
        hash_counter=None,
    ) -> None:
        super().__init__()
        if bits_per_key < 0:
            raise ValueError("bits_per_key must be non-negative")
        keys = list(keys)
        self._n = len(keys)
        self._seed = seed
        self._hash_counter = hash_counter
        self._bits_per_key = bits_per_key
        if bits_per_key == 0 or not keys:
            self._bits = None
            self._k = 0
            return
        self._k = num_hashes if num_hashes is not None else optimal_num_hashes(bits_per_key)
        if self._k <= 0:
            raise ValueError("num_hashes must be positive")
        nbits = max(8, int(bits_per_key * self._n))
        steps = np.arange(self._k, dtype=np.uint64)
        u64 = np.uint64

        def positions(digests: np.ndarray) -> np.ndarray:
            h1 = digests & u64(0xFFFFFFFF)
            h2 = digests >> u64(32) | u64(1)
            return (h1[:, None] + steps * h2[:, None]) % u64(nbits)

        self._bits = _BitArray(nbits, build_bits(keys, seed, nbits, positions))
        if hash_counter is not None:
            hash_counter.evaluations += self._n

    def may_contain(self, key: bytes) -> bool:
        if self._bits is None:
            # Degenerate 0-bit filter: never filters anything out, never hashes.
            self.stats.probes += 1
            return True
        counter = self._hash_counter
        if counter is None:
            digest = hash64(key, self._seed)
        else:
            digest = counter.digest(key, self._seed)
        self.stats.hash_evaluations += 1
        return self.may_contain_digest(digest)

    def may_contain_digest(self, digest: int) -> bool:
        """Probe with a precomputed digest (shared hashing hands one in;
        :meth:`may_contain` computes its own) — the one probe loop."""
        stats = self.stats
        stats.probes += 1
        bits = self._bits
        if bits is None:
            return True
        data = bits.data
        nbits = bits.nbits
        # Bit i sits at (h1 + i * h2) % nbits: stepping by h2 % nbits with a
        # conditional subtract visits the same positions without a 64-bit
        # multiply and modulo per bit.
        pos = (digest & 0xFFFFFFFF) % nbits
        if not data[pos >> 3] >> (pos & 7) & 1:
            # Half of all negatives end on the first bit: one line touched.
            stats.negatives += 1
            stats.cache_line_touches += 1
            return False
        step = (digest >> 32 | 1) % nbits
        lines = {pos >> 9}  # 512 bits per 64-byte cache line
        for _ in repeat(None, self._k - 1):
            pos += step
            if pos >= nbits:
                pos -= nbits
            lines.add(pos >> 9)
            if not data[pos >> 3] >> (pos & 7) & 1:
                stats.negatives += 1
                stats.cache_line_touches += len(lines)
                return False
        stats.cache_line_touches += len(lines)
        return True

    @property
    def size_bytes(self) -> int:
        return self._bits.size_bytes if self._bits is not None else 0

    @property
    def key_count(self) -> int:
        return self._n

    @property
    def num_hashes(self) -> int:
        return self._k

    @property
    def expected_fpr(self) -> float:
        """Theoretical FPR for this filter's actual geometry."""
        if self._bits is None:
            return 1.0
        return theoretical_fpr(self._bits.nbits / self._n, self._k)
