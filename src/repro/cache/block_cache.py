"""The block cache: byte-budgeted, policy-pluggable, invalidation-aware.

Keys are ``(file_id, block_no)`` pairs (plus tagged variants like value-log
blocks). ``get_or_load_block`` is the one load every SSTable data block goes
through — the only code that knows the tier order, single-flight, admission
and hit / miss accounting — ``get_or_load`` the single-tier form for opaque
objects (value-log blocks), and ``invalidate_file`` lets compactions drop
blocks of deleted files — the event the Leaper prefetcher reacts to.

With block compression enabled the cache is **two-tier**, RocksDB-style: the
uncompressed tier holds decoded :class:`~repro.storage.sstable.DataBlock`
objects charged at their *decoded* size, and an optional compressed tier
holds raw on-device frames charged at their on-disk size. A read drains
uncompressed hit → compressed hit (decode, CPU only — no device I/O) →
device read (which feeds both tiers). Each tier has its own byte budget,
eviction policy, and :class:`CacheStats`.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Dict, Hashable, List, Optional, Tuple

from repro.cache.policies import EvictionPolicy, LRUPolicy, make_policy


@dataclass
class CacheStats:
    """Hit/miss accounting, readable mid-experiment."""

    hits: int = 0
    misses: int = 0
    insertions: int = 0
    evictions: int = 0
    invalidations: int = 0
    single_flight_waits: int = 0  # lookups that waited on another thread's load

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def snapshot(self) -> "CacheStats":
        return CacheStats(**self.__dict__)

    def delta(self, since: "CacheStats") -> "CacheStats":
        return CacheStats(
            **{name: getattr(self, name) - getattr(since, name) for name in self.__dict__}
        )

    def as_dict(self) -> dict:
        """Flat snapshot including the derived rates (for engine exports)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "insertions": self.insertions,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "single_flight_waits": self.single_flight_waits,
            "lookups": self.lookups,
            "hit_rate": self.hit_rate,
        }


_LEAD = object()  # _hit_or_lead's "you load it" answer
_UNCONTENDED = object()  # parked in _loading by a leader nobody is waiting on


class BlockCache:
    """A byte-budgeted object cache for parsed blocks.

    Args:
        capacity_bytes: uncompressed-tier charge budget; 0 disables that
            tier entirely (every lookup is a miss and nothing is retained).
        policy: eviction policy instance or a ``DESIGN_SPACE["cache_policy"]``
            choice; defaults to LRU like RocksDB's default block cache.
        compressed_capacity_bytes: compressed-tier budget; 0 (the default)
            disables the tier, reducing the cache to the classic single-tier
            behavior.
        compressed_policy: eviction policy for the compressed tier (name or
            instance); defaults to LRU. Must be a distinct instance from the
            uncompressed tier's (policies are stateful).
    """

    def __init__(
        self,
        capacity_bytes: int,
        policy=None,
        compressed_capacity_bytes: int = 0,
        compressed_policy=None,
    ) -> None:
        if capacity_bytes < 0:
            raise ValueError("capacity_bytes must be non-negative")
        if compressed_capacity_bytes < 0:
            raise ValueError("compressed_capacity_bytes must be non-negative")
        self.capacity_bytes = capacity_bytes
        self.compressed_capacity_bytes = compressed_capacity_bytes
        self._policy = _resolve_policy(policy)
        self._compressed_policy = _resolve_policy(compressed_policy)
        self._entries: Dict[Hashable, Tuple[object, int]] = {}
        self._compressed: Dict[Hashable, Tuple[object, int]] = {}
        # key -> the Event its waiters sleep on, or _UNCONTENDED while the
        # leader is alone (the common case: no Event is ever built).
        self._loading: Dict[Hashable, object] = {}
        self._used = 0
        self._compressed_used = 0
        self.stats = CacheStats()
        self.compressed_stats = CacheStats()
        self.access_counts: Dict[Hashable, int] = {}
        # Concurrent readers share the cache (repro.service); policy state
        # (LRU order, clock hands) is not safe to mutate concurrently.
        self._lock = threading.RLock()

    # -- the read-path contract ----------------------------------------------

    def get_or_load(
        self, key: Hashable, loader: Callable[[], Tuple[object, int]], stats=None
    ):
        """Return the cached object or load, insert, and return it.

        ``loader`` returns ``(object, charge_bytes)`` and runs outside the
        lock, so its cost (a device block read) is paid exactly when a real
        engine would pay it. Loads are **single-flight** per key: concurrent
        misses on the same key elect one leader to run ``loader`` while the
        rest wait for it to finish and then re-check the cache, so a hot
        block is read from the device once rather than once per thread. A
        waiter that finds the leader failed (or the value uncacheable)
        becomes the new leader and loads for itself. ``stats`` (the
        caller's own ``ProbeStats``) is credited a ``cache_hits`` when the
        object was served from the cache — decided here, under the lock
        that served it.
        """
        cached = self._hit_or_lead(key, stats)
        if cached is not _LEAD:
            return cached
        try:
            value, charge = loader()
        except BaseException:
            self._end_load(key)
            raise
        with self._lock:
            if key not in self._entries:
                self._insert(key, value, charge)
        self._end_load(key)
        return value

    def get_or_load_block(
        self,
        key: Hashable,
        load_frame: Callable[[Hashable], bytes],
        decode: Callable[[bytes], Tuple[object, int, bool]],
        stats=None,
    ):
        """The two-tier read: uncompressed hit → compressed hit → device.

        An uncompressed-tier hit — the common case — is one locked lookup
        before any loader machinery, credited to ``stats`` as in
        :meth:`get_or_load`, and touches neither callback. Otherwise
        ``load_frame(key)`` reads the raw on-device payload (the expensive
        step: one device block read) and ``decode`` opens a payload as
        ``(block, decoded_charge, compressed)`` (pure CPU); both take what
        they work on as an argument, so a caller passes plain methods instead
        of building two closures per lookup. A compressed-tier hit pays only
        the decode; a full miss pays both and feeds both tiers — the raw
        frame is retained only when ``decode`` reports it compressed
        (caching a raw payload buys nothing over the opened block). Loads
        are single-flight per key, sharing the leader/waiter protocol of
        :meth:`get_or_load`.
        """
        cached = self._hit_or_lead(key, stats)
        if cached is not _LEAD:
            return cached
        try:
            frame = self._compressed_frame(key) if self.compressed_capacity_bytes else None
            from_device = frame is None
            if from_device:
                frame = load_frame(key)
            value, charge, compressed = decode(frame)
        except BaseException:
            self._end_load(key)
            raise
        with self._lock:
            if from_device and compressed and self.compressed_capacity_bytes:
                self._insert_compressed(key, frame, len(frame))
            if key not in self._entries:
                self._insert(key, value, charge)
        self._end_load(key)
        return value

    def _hit_or_lead(self, key: Hashable, stats=None):
        """The single-flight front half: the cached object (credited to
        ``stats``), or ``_LEAD`` once the caller has been elected to load
        ``key`` (it must then call :meth:`_end_load`, whatever happens).
        Waits out any load in flight."""
        first_touch = True
        while True:
            with self._lock:
                if first_touch:
                    self.access_counts[key] = self.access_counts.get(key, 0) + 1
                    first_touch = False
                cached = self._entries.get(key)
                if cached is not None:
                    self.stats.hits += 1
                    self._policy.on_access(key)
                    if stats is not None:
                        stats.cache_hits += 1
                    return cached[0]
                leader = self._loading.get(key)
                if leader is None:
                    self.stats.misses += 1
                    self._loading[key] = _UNCONTENDED
                    return _LEAD
                if leader is _UNCONTENDED:
                    # First thread to queue behind this load: only now is
                    # there anyone for an Event to wake.
                    leader = self._loading[key] = threading.Event()
                self.stats.single_flight_waits += 1
            leader.wait()

    def _end_load(self, key: Hashable) -> None:
        """The leader is done with ``key`` (loaded or failed): wake its waiters."""
        with self._lock:
            waiters = self._loading.pop(key)
        if waiters is not _UNCONTENDED:
            waiters.set()

    def contains(self, key: Hashable) -> bool:
        """True when a load of ``key`` would be served from memory — either
        tier holds it. Touches no count and no policy state."""
        return key in self._entries or key in self._compressed

    def put(self, key: Hashable, value: object, charge: int) -> None:
        """Insert without a lookup (prefetch path)."""
        with self._lock:
            if key in self._entries:
                return
            self._insert(key, value, charge)

    def _compressed_frame(self, key: Hashable):
        """The compressed tier's lookup: the raw frame or None, counted."""
        with self._lock:
            cached = self._compressed.get(key)
            if cached is not None:
                self.compressed_stats.hits += 1
                self._compressed_policy.on_access(key)
                return cached[0]
            self.compressed_stats.misses += 1
            return None

    # -- invalidation ----------------------------------------------------------

    def invalidate_block(self, file_id: int, block_no: int) -> None:
        """Drop any cached copies of one device block.

        Called when a stored block is corrupted in place
        (``BlockDevice.corrupt_block`` / injected bit rot): a warm clean copy
        would otherwise mask the damage and the checksum would never be
        re-verified. Both the plain and value-log-tagged keys are dropped.
        """
        with self._lock:
            for key in ((file_id, block_no), ("vlog", file_id, block_no)):
                if key in self._entries:
                    self._remove(key)
                    self.stats.invalidations += 1
                if key in self._compressed:
                    self._remove_compressed(key)
                    self.compressed_stats.invalidations += 1

    def subscribe_to_device(self, device) -> None:
        """Register this cache's block invalidation on a device's corruption events."""
        device.add_corruption_listener(self.invalidate_block)

    def invalidate_file(self, file_id: int) -> List[Hashable]:
        """Drop every cached block of ``file_id``; returns the dropped keys.

        Compactions call this for each input file they delete, *after* the
        Leaper prefetcher has read the file's heat (``hot_keys``): the
        file's access counts go with it — file ids are never reused, so
        nothing could read them again and they would only accumulate.
        """
        with self._lock:
            victims = [key for key in self._entries if _file_of(key) == file_id]
            for key in victims:
                self._remove(key)
                self.stats.invalidations += 1
            for key in [k for k in self._compressed if _file_of(k) == file_id]:
                self._remove_compressed(key)
                self.compressed_stats.invalidations += 1
            for key in [k for k in self.access_counts if _file_of(k) == file_id]:
                del self.access_counts[key]
            return victims

    # -- introspection -----------------------------------------------------------

    @property
    def used_bytes(self) -> int:
        return self._used

    @property
    def compressed_used_bytes(self) -> int:
        return self._compressed_used

    def __len__(self) -> int:
        return len(self._entries)

    def hot_keys(self, min_accesses: int) -> List[Hashable]:
        """Currently cached keys with at least ``min_accesses`` touches."""
        return [
            key
            for key in self._entries
            if self.access_counts.get(key, 0) >= min_accesses
        ]

    # -- internals -----------------------------------------------------------------

    def _insert(self, key: Hashable, value: object, charge: int) -> None:
        if self.capacity_bytes == 0 or charge > self.capacity_bytes:
            return  # uncacheable: larger than the whole cache (or caching off)
        while self._used + charge > self.capacity_bytes:
            victim = self._policy.victim()
            if victim is None:
                break
            self._remove(victim)
            self.stats.evictions += 1
        self._entries[key] = (value, charge)
        self._used += charge
        self._policy.on_insert(key)
        self.stats.insertions += 1

    def _remove(self, key: Hashable) -> None:
        value_charge = self._entries.pop(key, None)
        if value_charge is not None:
            self._used -= value_charge[1]
            self._policy.on_remove(key)

    def _insert_compressed(self, key: Hashable, payload, charge: int) -> None:
        if charge > self.compressed_capacity_bytes:
            return  # uncacheable: larger than the whole tier
        while self._compressed_used + charge > self.compressed_capacity_bytes:
            victim = self._compressed_policy.victim()
            if victim is None:
                break
            self._remove_compressed(victim)
            self.compressed_stats.evictions += 1
        self._compressed[key] = (payload, charge)
        self._compressed_used += charge
        self._compressed_policy.on_insert(key)
        self.compressed_stats.insertions += 1

    def _remove_compressed(self, key: Hashable) -> None:
        value_charge = self._compressed.pop(key, None)
        if value_charge is not None:
            self._compressed_used -= value_charge[1]
            self._compressed_policy.on_remove(key)


def _resolve_policy(policy) -> EvictionPolicy:
    if policy is None:
        return LRUPolicy()
    if isinstance(policy, str):
        return make_policy(policy)
    return policy


def _file_of(key: Hashable) -> Optional[int]:
    """Extract the file id from a cache key; supports tagged tuples."""
    if isinstance(key, tuple):
        if len(key) == 2 and isinstance(key[0], int):
            return key[0]
        if len(key) == 3 and key[0] == "vlog":
            return key[1]
    return None
