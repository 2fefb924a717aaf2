"""Single-flight loading: one miss per key, however many threads race it."""

import threading
import time

import pytest

from repro.cache import block_cache
from repro.cache.block_cache import BlockCache


class SlowLoader:
    """A loader that blocks until released, counting invocations."""

    def __init__(self, value=b"payload"):
        self.calls = 0
        self.entered = threading.Event()
        self.release = threading.Event()
        self._value = value
        self._lock = threading.Lock()

    def __call__(self):
        with self._lock:
            self.calls += 1
        self.entered.set()
        self.release.wait(timeout=5.0)
        return self._value, len(self._value)


def test_concurrent_misses_load_once():
    cache = BlockCache(1 << 16)
    loader = SlowLoader()
    results = []

    def worker():
        results.append(cache.get_or_load("k", loader))

    threads = [threading.Thread(target=worker) for _ in range(8)]
    threads[0].start()
    assert loader.entered.wait(timeout=5.0)  # leader is inside the loader
    for t in threads[1:]:
        t.start()
    loader.release.set()
    for t in threads:
        t.join(timeout=5.0)
    assert loader.calls == 1
    assert results == [b"payload"] * 8
    stats = cache.stats
    assert stats.misses == 1
    assert stats.hits >= 0
    assert stats.single_flight_waits >= 1  # at least one follower parked


def test_leader_failure_releases_followers_and_allows_retry():
    cache = BlockCache(1 << 16)

    fail = {"on": True}

    def loader():
        if fail["on"]:
            raise RuntimeError("device error")
        return b"ok", 2

    with pytest.raises(RuntimeError):
        cache.get_or_load("k", loader)
    fail["on"] = False
    assert cache.get_or_load("k", loader) == b"ok"  # key not poisoned


def test_an_uncontended_miss_builds_no_event(monkeypatch):
    # Nobody waits on a lone leader, so there is nothing for an Event to wake.
    monkeypatch.setattr(
        block_cache.threading, "Event",
        lambda: pytest.fail("an uncontended miss constructed an Event"),
    )
    cache = BlockCache(1 << 16, compressed_capacity_bytes=1 << 16)
    assert cache.get_or_load("a", lambda: (b"one", 3)) == b"one"
    assert cache.get_or_load_block(
        "b", lambda key: b"raw", lambda frame: (frame + b"!", 4, True)
    ) == b"raw!"
    with pytest.raises(RuntimeError):
        cache.get_or_load("c", lambda: (_ for _ in ()).throw(RuntimeError("device error")))
    assert cache.get_or_load("a", lambda: pytest.fail("a hit ran its loader")) == b"one"
    assert cache.stats.misses == 3 and cache.stats.hits == 1
    assert cache._loading == {}


@pytest.mark.parametrize("two_tier", [False, True])
def test_a_second_thread_waits_for_the_first_threads_load(two_tier):
    cache = BlockCache(1 << 16)
    loader = SlowLoader()
    results = []

    def read():
        if two_tier:
            return cache.get_or_load_block("k", lambda key: b"frame", lambda frame: (*loader(), False))
        return cache.get_or_load("k", loader)

    threads = [threading.Thread(target=lambda: results.append(read())) for _ in range(2)]
    threads[0].start()
    assert loader.entered.wait(timeout=5.0)  # the leader is inside the loader
    threads[1].start()
    deadline = time.monotonic() + 5.0
    while cache.stats.single_flight_waits < 1 and time.monotonic() < deadline:
        time.sleep(0.001)  # until the follower has parked behind the leader
    assert cache.stats.single_flight_waits == 1
    loader.release.set()
    for t in threads:
        t.join(timeout=5.0)
        assert not t.is_alive()
    assert loader.calls == 1  # one load ...
    assert cache.stats.single_flight_waits == 1  # ... one wait
    assert results == [b"payload"] * 2
    assert cache.stats.misses == 1 and cache.stats.hits == 1
    assert cache._loading == {}


def test_single_flight_counter_exported():
    cache = BlockCache(1 << 16)
    assert "single_flight_waits" in cache.stats.as_dict()
