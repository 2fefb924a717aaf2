"""Eviction policies for the block cache: LRU, LFU, and CLOCK.

A policy orders cache keys for eviction; the cache owns the payloads and byte
accounting. Policies only see opaque keys, so they are reusable for block
caches, filter-partition caches, or anything else.
"""

from __future__ import annotations

import abc
from collections import OrderedDict
from typing import Dict, Hashable, Optional


class EvictionPolicy(abc.ABC):
    """Tracks access recency/frequency and nominates eviction victims."""

    @abc.abstractmethod
    def on_insert(self, key: Hashable) -> None:
        """A new key entered the cache."""

    @abc.abstractmethod
    def on_access(self, key: Hashable) -> None:
        """An existing key was read (cache hit)."""

    @abc.abstractmethod
    def on_remove(self, key: Hashable) -> None:
        """A key left the cache (eviction or invalidation)."""

    @abc.abstractmethod
    def victim(self) -> Optional[Hashable]:
        """The key to evict next, or None when empty."""


class LRUPolicy(EvictionPolicy):
    """Least recently used: evict the key touched longest ago."""

    def __init__(self) -> None:
        self._order: "OrderedDict[Hashable, None]" = OrderedDict()

    def on_insert(self, key: Hashable) -> None:
        self._order[key] = None

    def on_access(self, key: Hashable) -> None:
        self._order.move_to_end(key)

    def on_remove(self, key: Hashable) -> None:
        self._order.pop(key, None)

    def victim(self) -> Optional[Hashable]:
        return next(iter(self._order), None)


class LFUPolicy(EvictionPolicy):
    """Least frequently used, with FIFO tie-breaking among equal counts."""

    def __init__(self) -> None:
        self._counts: Dict[Hashable, int] = {}
        self._arrival: Dict[Hashable, int] = {}
        self._clock = 0

    def on_insert(self, key: Hashable) -> None:
        self._clock += 1
        self._counts[key] = 1
        self._arrival[key] = self._clock

    def on_access(self, key: Hashable) -> None:
        if key in self._counts:
            self._counts[key] += 1

    def on_remove(self, key: Hashable) -> None:
        self._counts.pop(key, None)
        self._arrival.pop(key, None)

    def victim(self) -> Optional[Hashable]:
        if not self._counts:
            return None
        return min(self._counts, key=lambda k: (self._counts[k], self._arrival[k]))


class ClockPolicy(EvictionPolicy):
    """CLOCK (second chance): approximate LRU with one reference bit."""

    def __init__(self) -> None:
        self._ref: "OrderedDict[Hashable, bool]" = OrderedDict()

    def on_insert(self, key: Hashable) -> None:
        self._ref[key] = False

    def on_access(self, key: Hashable) -> None:
        if key in self._ref:
            self._ref[key] = True

    def on_remove(self, key: Hashable) -> None:
        self._ref.pop(key, None)

    def victim(self) -> Optional[Hashable]:
        while self._ref:
            key, referenced = next(iter(self._ref.items()))
            if not referenced:
                return key
            # Second chance: clear the bit and move the hand past it.
            self._ref.move_to_end(key)
            self._ref[key] = False
        return None


def make_policy(name: str) -> EvictionPolicy:
    """Instantiate a ``DESIGN_SPACE["cache_policy"]`` choice (ConfigError if unknown)."""
    from repro.core.design_space import DESIGN_SPACE  # the table imports this module

    return DESIGN_SPACE["cache_policy"].resolve(name)()
