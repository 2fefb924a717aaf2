"""The four benchmark workloads: frozen sizes, seeded op streams, shadow answers.

A workload is a store configuration, a preload and a closed-loop stream of
operations drawn from ``repro.workloads`` key distributions. ``--seed`` seeds
the stream only; the engine's own ``LSMConfig.seed`` stays at its default, so
two runs with one seed drive bit-identical inputs into a bit-identical engine.

Every operation's expected answer is computed here, from a shadow dict that
follows the stream, before the operation is ever issued: one closed-loop
client makes the answers deterministic, over the wire too.
"""

from __future__ import annotations

import random
import struct
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro import encode_uint_key
from repro.workloads import UniformKeys, ZipfianKeys

GET, PUT, SCAN = 0, 1, 2

SEGMENTS = 20  # measured segments per untraced run
BLOCK_OPS = 100  # every run of this many operations holds the exact read/put mix
VALUE_BYTES = 64
SCAN_KEYS = 50

# Shared by every workload (the ISSUE's fixed design point).
BASE_CONFIG = dict(
    block_size=4096,
    size_ratio=4,
    layout="leveling",
    filter_kind="bloom",
    bits_per_key=10.0,
    index="fence",
    memtable="skiplist",
    compression="none",
)

_PAD = bytes(range(VALUE_BYTES - 16))


@dataclass(frozen=True)
class Workload:
    """One row of the workload table (sizes frozen; see README.md).

    ``ops_per_second`` is the op budget per second of ``--seconds``: it was
    measured once on the 2-core reference box so that the measured phase
    lasts about ``--seconds`` there, and is frozen so op counts — and with
    them every I/O count — repeat exactly.
    """

    name: str
    why: str
    handle: str  # "tree" or "wire"
    preload_keys: int
    present: Tuple[int, int]  # (n, d): ids with id % d < n are preloaded, the rest absent
    read_distribution: str  # "zipfian" or "uniform", over the whole id space
    put_distribution: str
    put_ids: int  # puts draw from this many ids spread evenly over the id space (0 = all)
    read_kind: int  # GET or SCAN
    read_share: float
    ops_per_second: int
    config: Dict = field(default_factory=dict)


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="point-hot",
            why="zipfian gets over data that fits the cache: the pure CPU read path, device idle",
            handle="tree",
            preload_keys=50_000,
            present=(1, 1),
            read_distribution="zipfian",
            put_distribution="uniform",
            put_ids=2_000,
            read_kind=GET,
            read_share=0.95,
            ops_per_second=47_000,
            config=dict(buffer_bytes=256 << 10, cache_bytes=32 << 20),
        ),
        Workload(
            name="point-cold",
            why="uniform gets, half of them absent keys, cache ~5% of data: filters, fences, device reads",
            handle="tree",
            preload_keys=60_000,
            present=(3, 5),
            read_distribution="uniform",
            put_distribution="uniform",
            put_ids=0,
            read_kind=GET,
            read_share=0.95,
            ops_per_second=9_300,
            config=dict(buffer_bytes=256 << 10, cache_bytes=256 << 10),
        ),
        Workload(
            name="ingest-scan",
            why="70% zipfian puts with WAL plus 50-key scans over a churning tree: flush, merge, range reads",
            handle="tree",
            preload_keys=12_000,
            present=(1, 1),
            read_distribution="uniform",
            put_distribution="zipfian",
            put_ids=0,
            read_kind=SCAN,
            read_share=0.30,
            ops_per_second=5_800,
            config=dict(
                buffer_bytes=16 << 10,
                cache_bytes=256 << 10,
                wal_enabled=True,
                wal_sync_interval=32,
            ),
        ),
        Workload(
            name="wire-hot",
            why="the head of point-hot's stream through client, loopback TCP, server and service: the wire cost",
            handle="wire",
            preload_keys=50_000,
            present=(1, 1),
            read_distribution="zipfian",
            put_distribution="uniform",
            put_ids=2_000,
            read_kind=GET,
            read_share=0.95,
            ops_per_second=4_500,
            config=dict(buffer_bytes=256 << 10, cache_bytes=32 << 20),
        ),
    )
}


@dataclass
class Segment:
    """One segment's operations and the answers the store must give.

    ``ops[i]`` is ``(kind, key, arg)``: ``arg`` is the value for a put and the
    inclusive end key for a scan. ``expected[i]`` is the value a get must
    return (None = not found), the ``(key, value)`` list a scan must return,
    and None for a put.
    """

    ops: List[Tuple[int, bytes, Optional[bytes]]]
    expected: List[object]
    gen_seconds: float


class Stream:
    """A seeded generator of preload pairs and measured segments."""

    def __init__(self, workload: Workload, seed: int, scale: float = 1.0) -> None:
        self.workload = workload
        self.preload_keys = max(200, int(workload.preload_keys * scale))
        present, modulus = workload.present
        self.keyspace = self.preload_keys * modulus // present
        self._keys = [encode_uint_key(i) for i in range(self.keyspace)]
        self._rng = random.Random(seed)
        # Distinct seeds per distribution, or reads and puts would walk in step.
        self._read_ids = self._distribution(
            workload.read_distribution, self.keyspace, seed * 2 + 1
        )
        # A bounded write set keeps the memtable at a steady size that never
        # flushes, so every segment of a hot workload does the same work.
        put_ids = max(1, int(workload.put_ids * scale)) if workload.put_ids else self.keyspace
        self._put_stride = self.keyspace // put_ids
        self._put_ids = self._distribution(workload.put_distribution, put_ids, seed * 2 + 2)
        self._shadow: Dict[int, bytes] = {}
        self._writes = 0

    @staticmethod
    def _distribution(kind: str, ids: int, seed: int):
        if kind == "zipfian":
            return ZipfianKeys(ids, seed=seed, theta=0.99)
        return UniformKeys(ids, seed=seed)

    def _value(self, key_id: int) -> bytes:
        self._writes += 1
        return struct.pack(">QQ", key_id, self._writes) + _PAD

    def preload(self) -> List[Tuple[bytes, bytes]]:
        """The preload pairs in seeded random order (call once, first)."""
        present, modulus = self.workload.present
        ids = [i for i in range(self.keyspace) if i % modulus < present]
        self._rng.shuffle(ids)
        pairs = []
        for key_id in ids:
            value = self._value(key_id)
            self._shadow[key_id] = value
            pairs.append((self._keys[key_id], value))
        return pairs

    def segment(self, num_ops: int) -> Segment:
        """Materialise the next ``num_ops`` operations and their answers."""
        t0 = time.perf_counter()
        workload = self.workload
        read_kind, read_share = workload.read_kind, workload.read_share
        shuffle, randrange = self._rng.shuffle, self._rng.randrange
        read_id, put_id = self._read_ids.sample, self._put_ids.sample
        keys, shadow, put_stride = self._keys, self._shadow, self._put_stride
        scan_starts = self.keyspace - SCAN_KEYS + 1
        # The mix is exact in every block, not drawn per operation: a wire put
        # costs 25 gets and a scan 100 puts, so a segment that merely happened
        # to draw more of them would read as a slower segment (a binomial
        # count moved wire-hot's per-segment ops/s by 6 %).
        mix = [read_kind] * round(BLOCK_OPS * read_share)
        mix += [PUT] * (BLOCK_OPS - len(mix))
        kinds: List[int] = []
        for _ in range(num_ops // BLOCK_OPS):
            block = list(mix)  # from the same order each time: the stream must not
            shuffle(block)  # depend on where one segment ends and the next begins
            kinds += block
        ops: List[Tuple[int, bytes, Optional[bytes]]] = []
        expected: List[object] = []
        for kind in kinds:
            if kind == PUT:
                key_id = put_id() * put_stride
                value = self._value(key_id)
                shadow[key_id] = value
                ops.append((PUT, keys[key_id], value))
                expected.append(None)
            elif kind == GET:
                key_id = read_id()
                ops.append((GET, keys[key_id], None))
                expected.append(shadow.get(key_id))
            else:
                start = randrange(scan_starts)
                ids = range(start, start + SCAN_KEYS)
                ops.append((SCAN, keys[start], keys[ids[-1]]))
                expected.append([(keys[i], shadow[i]) for i in ids if i in shadow])
        return Segment(ops, expected, time.perf_counter() - t0)


def segment_ops(workload: Workload, seconds: float, scale: float = 1.0) -> int:
    """Ops in one measured segment: the frozen per-second budget, split evenly
    and rounded down to whole blocks."""
    blocks = int(workload.ops_per_second * seconds * scale / SEGMENTS) // BLOCK_OPS
    return max(1, blocks) * BLOCK_OPS
