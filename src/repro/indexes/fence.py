"""Fence pointers: the classic per-block min-key index.

One key per data block (a special form of Zonemap); a binary search pins any
lookup to exactly one candidate block, so each run costs at most one data-block
I/O per point lookup — the baseline every other index is compared against.
"""

from __future__ import annotations

import bisect
from functools import partial
from itertools import islice
from operator import sub
from typing import Sequence


class FencePointers:
    """Exact block index: one separator key per block.

    Args:
        keys: all keys of the run in sorted order.
        block_of_key: each key's data-block number (non-decreasing).
        shorten: store the *shortest separator* between adjacent blocks
            instead of the full first key (RocksDB's separator truncation):
            for previous-block last key ``a`` and first key ``b``, the
            shortest prefix of ``b`` strictly greater than ``a``. Exactness
            is preserved; long shared-prefix keys shrink dramatically.
    """

    def __init__(
        self, keys: Sequence[bytes], block_of_key: Sequence[int], shorten: bool = False
    ) -> None:
        if len(keys) != len(block_of_key):
            raise ValueError("keys and block_of_key must have equal length")
        blocks = block_of_key[-1] + 1 if block_of_key else 0
        # Block numbers start at 0 and step by 0 or 1: the block starts are
        # then one bisect per block, and no key is visited.
        if block_of_key and (
            block_of_key[0] != 0
            or not set(map(sub, islice(block_of_key, 1, None), block_of_key)) <= {0, 1}
        ):
            raise ValueError("block numbers must be contiguous and sorted")
        starts = list(map(partial(bisect.bisect_left, block_of_key), range(blocks)))
        first_keys = list(map(keys.__getitem__, starts))
        self._num_blocks = blocks
        if shorten and first_keys:
            # The last key of each block but the last: the key before the next start.
            prev_last = map(keys.__getitem__, map((-1).__add__, starts[1:]))
            self._first_keys = [first_keys[0], *map(_shortest_separator, prev_last, first_keys[1:])]
        else:
            self._first_keys = first_keys

    def locate(self, key: bytes) -> "tuple[int, int]":
        """Binary search the fences; always a single candidate block."""
        if not self._first_keys or key < self._first_keys[0]:
            return (0, -1)  # definitely absent: below the first block
        block = bisect.bisect_right(self._first_keys, key) - 1
        return (block, block)

    @property
    def size_bytes(self) -> int:
        """Key bytes plus an 8-byte offset per fence."""
        return sum(len(key) for key in self._first_keys) + 8 * len(self._first_keys)

    @property
    def num_blocks(self) -> int:
        return self._num_blocks


def _shortest_separator(lower: bytes, upper: bytes) -> bytes:
    """Shortest prefix of ``upper`` strictly greater than ``lower``.

    Requires ``lower < upper`` (guaranteed: they come from adjacent sorted
    blocks). The result ``s`` satisfies ``lower < s <= upper``, so it is a
    valid exact separator.
    """
    for length in range(1, len(upper)):
        candidate = upper[:length]
        if candidate > lower:
            return candidate
    return upper
