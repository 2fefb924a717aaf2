"""Deterministic 64-bit hashing for filters.

Uses a from-scratch xxHash-inspired mixer over 8-byte chunks: deterministic
across processes (unlike built-in ``hash``) and seedable. :func:`hash64` is
the definition, one key at a time in pure Python, which probes use;
:func:`hash64_many` computes the same digests for a whole key list with
numpy, which filter builds use (a build hashes every key of a table, on every
flush and every rewrite). Filters derive all their bit positions from one
64-bit digest via the Kirsch-Mitzenmacher double-hashing scheme, so a "hash
evaluation" in the experiment counters corresponds to one digest.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

MASK64 = (1 << 64) - 1
_PRIME1 = 0x9E3779B185EBCA87
_PRIME2 = 0xC2B2AE3D27D4EB4F
_PRIME3 = 0x165667B19E3779F9
_from_bytes = int.from_bytes


def hash64(key: bytes, seed: int = 0) -> int:
    """One 64-bit digest of ``key`` under ``seed``."""
    n = len(key)
    acc = (seed * _PRIME1 + n * _PRIME2) & MASK64
    offset = 0
    while offset + 8 <= n:
        acc ^= _from_bytes(key[offset : offset + 8], "little") * _PRIME2 & MASK64
        # The rotation's high bits need no mask of their own: the product is
        # cut to 64 bits, and its low 64 bits only depend on the factors' low 64.
        acc = (acc << 31 | acc >> 33) * _PRIME1 & MASK64
        offset += 8
    if offset < n:
        acc ^= _from_bytes(key[offset:], "little") * _PRIME3 & MASK64
        acc = (acc << 17 | acc >> 47) * _PRIME2 & MASK64
    acc ^= acc >> 29
    acc = acc * _PRIME3 & MASK64
    return acc ^ acc >> 32


_U64 = np.dtype("<u8")
_NP_PRIME1, _NP_PRIME2, _NP_PRIME3 = (np.uint64(p) for p in (_PRIME1, _PRIME2, _PRIME3))


def _rotl(acc: np.ndarray, r: int) -> np.ndarray:
    return acc << np.uint64(r) | acc >> np.uint64(64 - r)


def _hash_equal_length(keys: Sequence[bytes], width: int, seed: int) -> np.ndarray:
    """:func:`hash64` of ``keys``, all ``width`` bytes long, one lane at a time."""
    n = len(keys)
    lanes_per_key = (width + 7) // 8
    # Zero-padding the tail lane reproduces int.from_bytes(key[-tail:], "little").
    padded = np.zeros((n, lanes_per_key * 8), dtype=np.uint8)
    padded[:, :width] = np.frombuffer(b"".join(keys), dtype=np.uint8).reshape(n, width)
    lanes = padded.view(_U64)
    acc = np.full(n, (seed * _PRIME1 + width * _PRIME2) & MASK64, dtype=np.uint64)
    for lane in range(width // 8):
        acc ^= lanes[:, lane] * _NP_PRIME2  # uint64 products wrap, as `& MASK64` does
        acc = _rotl(acc, 31) * _NP_PRIME1
    if width & 7:
        acc ^= lanes[:, -1] * _NP_PRIME3
        acc = _rotl(acc, 17) * _NP_PRIME2
    acc ^= acc >> np.uint64(29)
    acc *= _NP_PRIME3
    acc ^= acc >> np.uint64(32)
    return acc


def hash64_many(keys: Sequence[bytes], seed: int = 0) -> np.ndarray:
    """:func:`hash64` of every key, as one ``uint64`` array in input order.

    The filter builds' batch form: keys are grouped by length and each group
    is mixed lane by lane across all its keys at once. :func:`hash64` stays
    the definition (probes use it; the tests hold this to it bit for bit).
    """
    n = len(keys)
    if not n:
        return np.empty(0, dtype=np.uint64)
    lengths = np.fromiter(map(len, keys), dtype=np.intp, count=n)
    width = int(lengths[0])
    if (lengths == width).all():
        return _hash_equal_length(keys, width, seed)
    digests = np.empty(n, dtype=np.uint64)
    for width in np.unique(lengths).tolist():
        members = np.flatnonzero(lengths == width)
        group = [keys[i] for i in members.tolist()]
        digests[members] = _hash_equal_length(group, width, seed)
    return digests


def hash_pair(key: bytes, seed: int = 0) -> "tuple[int, int]":
    """Split one digest into the (h1, h2) pair for double hashing.

    h2 is forced odd so the probe sequence h1 + i*h2 cycles through any
    power-of-two table without degenerate strides.
    """
    digest = hash64(key, seed)
    h1 = digest & 0xFFFFFFFF
    h2 = (digest >> 32) | 1
    return h1, h2


class HashCounter:
    """Shared hash-evaluation budget counter (experiment E10).

    Filters accept an optional ``HashCounter`` so a :class:`SharedHashProber`
    can demonstrate the saving from computing the digest once per lookup key
    instead of once per (key, filter) pair.
    """

    def __init__(self) -> None:
        self.evaluations = 0

    def digest(self, key: bytes, seed: int = 0) -> int:
        self.evaluations += 1
        return hash64(key, seed)
