"""Block-based (cache-local) Bloom filter (Putze, Sanders, Singler 2009).

All k bits of a key live inside one 512-bit block (one 64-byte cache line),
so a probe touches exactly one cache line instead of up to k. The price is a
slightly higher false-positive rate at equal space because keys are unevenly
distributed over blocks — both effects are measured by experiment E10.
"""

from __future__ import annotations

from itertools import repeat
from typing import Iterable, Optional

import numpy as np

from repro.filters.base import PointFilter
from repro.filters.bloom import build_bits, optimal_num_hashes
from repro.filters.hashing import hash64

_BLOCK_BITS = 512  # one 64-byte cache line


class BlockedBloomFilter(PointFilter):
    """Bloom filter whose probes are confined to a single cache-line block.

    Args:
        keys: the run's keys.
        bits_per_key: space budget across the whole filter.
        num_hashes: override k (defaults to the standard optimum).
        seed: hash seed.
    """

    def __init__(
        self,
        keys: Iterable[bytes],
        bits_per_key: float = 10.0,
        num_hashes: Optional[int] = None,
        seed: int = 0,
    ) -> None:
        super().__init__()
        if bits_per_key < 0:
            raise ValueError("bits_per_key must be non-negative")
        keys = list(keys)
        self._n = len(keys)
        self._seed = seed
        if bits_per_key == 0 or not keys:
            self._blocks = None
            self._k = 0
            self._num_blocks = 0
            return
        self._k = num_hashes if num_hashes is not None else optimal_num_hashes(bits_per_key)
        total_bits = max(_BLOCK_BITS, int(bits_per_key * self._n))
        self._num_blocks = (total_bits + _BLOCK_BITS - 1) // _BLOCK_BITS
        steps = np.arange(self._k, dtype=np.uint64)
        u64 = np.uint64
        num_blocks, block_bits, in_block = u64(self._num_blocks), u64(_BLOCK_BITS), u64(0x1FF)

        def positions(digests: np.ndarray) -> np.ndarray:
            first_bit = digests % num_blocks * block_bits
            h1 = digests >> u64(20) & in_block
            h2 = digests >> u64(40) & in_block | u64(1)
            return first_bit[:, None] + (h1[:, None] + steps * h2[:, None]) % block_bits

        self._blocks = build_bits(keys, seed, self._num_blocks * _BLOCK_BITS, positions)

    def may_contain(self, key: bytes) -> bool:
        stats = self.stats
        stats.probes += 1
        blocks = self._blocks
        if blocks is None:
            return True
        digest = hash64(key, self._seed)
        stats.hash_evaluations += 1
        stats.cache_line_touches += 1  # the whole point of blocking
        block = (digest % self._num_blocks) * (_BLOCK_BITS // 8)
        # Bit i sits at (h1 + i * h2) % 512 inside the block: step, don't multiply.
        pos = (digest >> 20) & 0x1FF
        step = ((digest >> 40) & 0x1FF) | 1
        for _ in repeat(None, self._k):
            if not blocks[block + (pos >> 3)] >> (pos & 7) & 1:
                stats.negatives += 1
                return False
            pos = (pos + step) & 0x1FF
        return True

    @property
    def size_bytes(self) -> int:
        return len(self._blocks) if self._blocks is not None else 0

    @property
    def key_count(self) -> int:
        return self._n

    @property
    def num_hashes(self) -> int:
        return self._k
