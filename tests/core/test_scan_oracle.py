"""Scans against a dict oracle.

Puts, deletes, merge operands and TTL puts are spread over two flushed runs,
a sealed buffer and the active buffer, with the simulated clock moved past
TTL deadlines between writes and before the scan; then a bounded or open
scan, stopped early at a random key or drained, must return exactly what
the oracle says — with and without key-value separation, with and without
block compression.

The oracle follows the engine's documented semantics: a merge operand whose
key already has a version in the *active* buffer folds into it at write time
(onto a live value or from absent; the folded value is a plain put, so a TTL
it lands on is cleared), any other operand stays pending and folds at read
time onto the newest older version live at the scan's clock. Every TTL is
far longer than the clock moves by I/O and far shorter than one tick, so a
TTL value is live exactly until the next tick.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.encoding import encode_uint_key
from repro.errors import MergeError
from repro.txn.merge import MergeOperator

from tests.conftest import make_tree

TTL = 1e7
TICK = 2e7
KEYS = 24

op = st.one_of(
    st.tuples(st.just("put"), st.integers(0, KEYS - 1), st.integers(0, 999), st.booleans()),
    st.tuples(st.just("put_ttl"), st.integers(0, KEYS - 1), st.integers(0, 999), st.booleans()),
    st.tuples(st.just("delete"), st.integers(0, KEYS - 1)),
    st.tuples(st.just("merge"), st.integers(0, KEYS - 1), st.integers(1, 9)),
    st.tuples(st.just("tick")),
)


def stored(number, wide):
    """A numeric value (counters fold onto it); a wide one passes the
    key-value separation threshold."""
    return b"%020d" % number if wide else b"%d" % number


class Oracle:
    """One dict per buffer generation (a seal or flush starts the next),
    newest last; each maps a key to the one version its buffer holds."""

    def __init__(self) -> None:
        self.generations = [{}]
        self.epoch = 0  # ticks so far

    def live(self, version):
        """A base version's value at the current clock, else None."""
        if version[0] == "put":
            _, value, epoch = version
            return value if epoch is None or epoch == self.epoch else None
        return None

    def apply(self, operation) -> None:
        kind, *args = operation
        active = self.generations[-1]
        if kind == "tick":
            self.epoch += 1
        elif kind in ("put", "put_ttl"):
            key, number, wide = args
            active[key] = ("put", stored(number, wide), self.epoch if kind == "put_ttl" else None)
        elif kind == "delete":
            active[args[0]] = ("delete",)
        else:
            key, operand = args
            resident = active.get(key)
            if resident is None:
                active[key] = ("merge", operand)
            elif resident[0] == "merge":
                active[key] = ("merge", resident[1] + operand)
            else:
                base = self.live(resident)
                active[key] = ("put", b"%d" % ((int(base) if base else 0) + operand), None)

    def seal(self) -> None:
        self.generations.append({})

    def value(self, key):
        pending = 0
        merged = False
        base = None
        for generation in reversed(self.generations):
            version = generation.get(key)
            if version is None:
                continue
            if version[0] == "merge":
                pending += version[1]
                merged = True
                continue
            base = self.live(version)
            break
        if merged:
            return b"%d" % ((int(base) if base else 0) + pending)
        return base

    def scan(self, start, end):
        found = []
        for key in range(KEYS):
            if start <= key <= end:
                value = self.value(key)
                if value is not None:
                    found.append((encode_uint_key(key), value))
        return found


def run(tree, oracle, operation) -> None:
    kind, *args = operation
    if kind == "tick":
        tree.device.stats.simulated_time += TICK
    elif kind == "put":
        tree.put(encode_uint_key(args[0]), stored(args[1], args[2]))
    elif kind == "put_ttl":
        tree.put(encode_uint_key(args[0]), stored(args[1], args[2]), ttl=TTL)
    elif kind == "delete":
        tree.delete(encode_uint_key(args[0]))
    else:
        tree.merge(encode_uint_key(args[0]), b"%d" % args[1])
    oracle.apply(operation)


@settings(max_examples=120, deadline=None)
@given(
    phases=st.lists(st.lists(op, max_size=30), min_size=4, max_size=4),
    kv_separation=st.booleans(),
    compression=st.sampled_from(["none", "zlib"]),
    bounds=st.tuples(st.integers(0, KEYS - 1), st.integers(0, KEYS - 1)),
    open_ended=st.booleans(),
    data=st.data(),
)
def test_scan_matches_the_oracle(phases, kv_separation, compression, bounds, open_ended, data):
    tree = make_tree(
        layout="tiering", size_ratio=4, buffer_bytes=64 << 10, cache_bytes=16 << 10,
        kv_separation=kv_separation, value_threshold=16, compression=compression,
    )
    oracle = Oracle()
    try:
        for number, phase in enumerate(phases):
            # A fresh key first, so no buffer is ever empty.
            for operation in [("put", number % KEYS, number, True)] + phase:
                run(tree, oracle, operation)
            if number < 2:
                tree.flush()
                oracle.seal()
            elif number == 2:
                assert tree.seal_memtable() is not None
                oracle.seal()
        assert sum(len(runs) for runs in tree.level_set.levels) >= 2
        assert tree.stats.compactions == 0  # the oracle folds nothing a compaction would
        assert len(tree._immutables) == 1 and len(tree._memtable) > 0
        if data.draw(st.booleans()):
            run(tree, oracle, ("tick",))
        start, end = sorted(bounds)
        if open_ended:
            expected = oracle.scan(start, KEYS)
            scan = tree.scan(encode_uint_key(start))
        else:
            expected = oracle.scan(start, end)
            scan = tree.scan(encode_uint_key(start), encode_uint_key(end))
        stop = data.draw(st.integers(0, len(expected)))
        assert list(itertools.islice(scan, stop)) == expected[:stop]
        scan.close()
        assert list(tree.scan(encode_uint_key(start), encode_uint_key(KEYS))) == oracle.scan(start, KEYS)
    finally:
        tree.close()


class _Vanish(MergeOperator):
    """Breaks the ``fold -> bytes`` contract: every chain folds to nothing."""

    name = "vanish"

    def fold(self, base, operands):
        return None

    def combine(self, older, newer):
        return newer


@pytest.mark.parametrize("kv_separation", [False, True])
def test_a_chain_folded_to_nothing(kv_separation):
    """Without key-value separation the key reads as absent, as a point read
    says; with it, the key is handed out before its chain folds, so the
    broken contract is a typed error, never a None value."""
    tree = make_tree(kv_separation=kv_separation, value_threshold=16,
                     merge_operators=(_Vanish(),))
    try:
        tree.put(encode_uint_key(1), stored(1, True))
        tree.put(encode_uint_key(2), stored(2, True))
        tree.flush()
        tree.merge(encode_uint_key(2), b"x", operator="vanish")
        assert not tree.get(encode_uint_key(2)).found
        if kv_separation:
            with pytest.raises(MergeError):
                list(tree.scan())
        else:
            assert list(tree.scan()) == [(encode_uint_key(1), stored(1, True))]
    finally:
        tree.close()
