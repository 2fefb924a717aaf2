"""Crash harness: randomized kill/recover cycles asserting durability.

The harness drives a deterministic workload against an engine on a
:class:`~repro.faults.device.FaultyBlockDevice`, schedules a randomized
named crash point each cycle, lets the injected :class:`SimulatedCrashError`
kill the engine mid-operation, reopens from the surviving device (manifest +
WAL replay), and checks the durability contract:

* **zero loss of acknowledged writes** — every ``put``/``delete`` that
  returned to the caller before the crash reads back exactly;
* **no resurrected deletes** — an acknowledged tombstone never reappears,
  not even with its pre-delete value;
* **old-or-new for in-flight writes** — the operation (or group-commit
  batch) that was racing the crash may land fully or not at all, but each
  affected key must read as either its previous acknowledged state or the
  in-flight one — never garbage, never a third value.

Four modes exercise the deployment shapes: ``tree`` (single-threaded
:class:`~repro.core.lsm_tree.LSMTree`), ``service`` (concurrent
:class:`~repro.service.DBService` with group commit and background
maintenance), ``sharded`` (:class:`~repro.sharding.ShardedStore` over a
shared device), and ``txn`` (bank transfers through optimistic
:class:`~repro.txn.Transaction` commits against a service — checking, on
top of the durability contract, that no transaction is ever torn: a
transfer's two account writes land together or not at all, and the total
balance is conserved across every crash). Tree mode runs value-log GC
every 50th op under ``kv_separation``. Run it from the command line for
the CI crash matrix::

    PYTHONPATH=src python -m repro.faults.harness --cycles 50 --seed 1

Fail-stop caveat (service mode): when the crash fires on a background
worker, in-flight jobs on *other* workers are allowed to complete before
recovery. That only ever makes more acknowledged data durable — it is
equivalent to the crash having struck a moment later — so the contract
checked here is unchanged.
"""

from __future__ import annotations

import itertools
import random
from typing import Dict, List, Optional, Tuple

from repro.common.encoding import encode_uint_key
from repro.core.config import LSMConfig
from repro.core.design_space import DESIGN_SPACE
from repro.core.lsm_tree import LSMTree
from repro.errors import SimulatedCrashError
from repro.faults.config import CRASH_POINTS, FaultConfig
from repro.faults.device import FaultyBlockDevice
from repro.faults.guard import ReadGuard
from repro.faults.kernel import (
    CycleResult,
    HarnessReport,
    finish_matrix,
    matrix_parser,
    run_grid,
)
from repro.storage.block_device import LatencyModel

#: How many times each hook may fire before the scheduled crash triggers.
#: Frequent hooks get a wide window so the crash lands at a varied depth;
#: rare hooks get a narrow one so they actually fire within a cycle.
_POINT_BUDGET = {
    "wal_sync": 24,
    "device_append": 48,
    "wal_roll": 3,
    "flush_build": 3,
    "flush_install": 3,
    "wal_retire": 2,
    "compaction_install": 2,
    "manifest_install": 6,
}

_TOMBSTONE = None  # sentinel in the model: key was deleted (and acked)


class CrashHarness:
    """Drive workload → crash → recover → verify cycles on one device.

    State accumulates across cycles: each cycle continues the workload on
    the device that survived the previous crash, so late cycles exercise
    recovery over multi-level trees with real compaction history.

    Args:
        config: tree configuration (``wal_enabled`` is forced on).
        faults: fault probabilities; the harness drives ``crash_points``
            itself, so any passed in are ignored.
        mode: ``tree``, ``service``, ``sharded``, or ``txn``.
        seed: master seed; every random choice in the harness derives from
            it, so a failing run replays exactly.
        ops_per_cycle: workload operations attempted per cycle.
        keyspace: distinct keys (collisions create overwrite/delete churn).
        value_bytes: payload size per put.
        delete_fraction: fraction of operations that are deletes.
        crash_points: the crash-point vocabulary to draw from.
        num_shards: shard count in ``sharded`` mode.
        parallel: run compactions as key-range subcompactions (a small
            :class:`~repro.parallel.ParallelConfig` tuned so the harness's
            tiny trees actually split), so crashes land inside parallel
            merges and during multi-file installs.
    """

    def __init__(
        self,
        config: Optional[LSMConfig] = None,
        faults: Optional[FaultConfig] = None,
        mode: str = "tree",
        seed: int = 0,
        ops_per_cycle: int = 300,
        keyspace: int = 400,
        value_bytes: int = 48,
        delete_fraction: float = 0.1,
        crash_points: Tuple[str, ...] = CRASH_POINTS,
        num_shards: int = 3,
        parallel: bool = False,
    ) -> None:
        if mode not in ("tree", "service", "sharded", "txn"):
            raise ValueError(f"unknown harness mode {mode!r}")
        if config is None:
            config = LSMConfig(
                buffer_bytes=4 << 10, block_size=512, size_ratio=3, seed=seed
            )
        if not config.wal_enabled or config.wal_sync_interval != 1:
            config = config.replace(wal_enabled=True, wal_sync_interval=1)
        if parallel and config.parallel is None:
            from repro.parallel import ParallelConfig

            config = config.replace(
                parallel=ParallelConfig(
                    max_subcompactions=3, min_subcompaction_blocks=2
                )
            )
        self.config = config
        self.faults = faults or FaultConfig(seed=seed)
        self.mode = mode
        self.rng = random.Random(seed)
        self.ops_per_cycle = ops_per_cycle
        self.keyspace = keyspace
        self.value_bytes = value_bytes
        self.delete_fraction = delete_fraction
        self.crash_points = tuple(crash_points)
        self.num_shards = num_shards
        self._value_gc = mode == "tree" and config.kv_separation
        self._boundaries = self._shard_boundaries() if mode == "sharded" else None
        self.device = FaultyBlockDevice(
            block_size=config.block_size,
            latency=None,
            faults=self.faults.replace(crash_points={}),
            armed=False,
        )
        self.device.guard = ReadGuard.from_config(self.faults)
        # The model: acknowledged state per key (None = acked tombstone),
        # plus the keys whose last write was in flight when the crash hit.
        self.acked: Dict[bytes, Optional[bytes]] = {}
        self._op_counter = 0
        # txn mode: committed balance per account, and the invariant total.
        self.balances: Dict[bytes, int] = {}
        self._txn_accounts = min(self.keyspace, 128)
        self._txn_initial = 1_000
        self._txn_total = self._txn_accounts * self._txn_initial

    # -- engine lifecycle ----------------------------------------------------

    def _shard_boundaries(self) -> List[bytes]:
        from repro.sharding import even_boundaries

        return even_boundaries(self.keyspace, self.num_shards)

    def _open(self, first: bool):
        """Open (first cycle) or recover (after a crash) the engine."""
        if self.mode == "sharded":
            from repro.sharding import ShardedStore

            if first:
                return ShardedStore(self.config, self._boundaries, device=self.device)
            return ShardedStore.recover(self.config, self._boundaries, self.device)
        if first:
            tree = LSMTree(self.config, device=self.device)
        else:
            tree = LSMTree.recover(self.config, self.device)
        if self.mode in ("service", "txn"):
            from repro.service import DBService

            return DBService(tree, close_tree=True)
        return tree

    def _abandon(self, engine) -> None:
        """Fail-stop: drop the engine without any orderly shutdown."""
        if self.mode in ("service", "txn"):
            # Stop the worker pool so no background job races recovery on
            # the shared device; in-flight jobs may finish (see module doc).
            engine.scheduler.close(drain=False)
            engine.tree.set_maintenance_callback(None)

    # -- workload ------------------------------------------------------------

    def _next_op(self) -> Tuple[bytes, Optional[bytes]]:
        self._op_counter += 1
        key = encode_uint_key(self.rng.randrange(self.keyspace))
        if self.rng.random() < self.delete_fraction:
            return key, _TOMBSTONE
        value = (b"op%08d:" % self._op_counter) + b"x" * self.value_bytes
        return key, value

    def _apply(self, engine, key: bytes, value: Optional[bytes]) -> None:
        if value is _TOMBSTONE:
            engine.delete(key)
        else:
            engine.put(key, value)

    def _crashed_in_background(self, engine) -> bool:
        return self.mode in ("service", "txn") and isinstance(
            engine.scheduler.last_job_error, SimulatedCrashError
        )

    # -- verification --------------------------------------------------------

    def _verify(self, engine, pending: Dict[bytes, Optional[bytes]], result: CycleResult) -> None:
        for key, expected in sorted(self.acked.items()):
            result.keys_checked += 1
            got = engine.get(key)
            if key in pending:
                new = pending[key]
                old_ok = (got.found and got.value == expected) if expected is not None else not got.found
                new_ok = (got.found and got.value == new) if new is not None else not got.found
                if not (old_ok or new_ok):
                    result.violations.append(
                        f"key {key.hex()}: in-flight write read back as neither "
                        f"old nor new state (found={got.found})"
                    )
                continue
            if expected is _TOMBSTONE:
                if got.found:
                    result.violations.append(
                        f"key {key.hex()}: acknowledged delete resurrected "
                        f"(value {got.value[:16]!r}...)"
                    )
            elif not got.found:
                result.violations.append(f"key {key.hex()}: acknowledged write lost")
            elif got.value != expected:
                result.violations.append(
                    f"key {key.hex()}: acknowledged write read back wrong "
                    f"({got.value[:16]!r}... != {expected[:16]!r}...)"
                )
        for key, new in pending.items():
            if key in self.acked:
                continue  # checked above against old state
            result.keys_checked += 1
            got = engine.get(key)
            new_ok = (got.found and got.value == new) if new is not None else not got.found
            if got.found and not new_ok:
                result.violations.append(
                    f"key {key.hex()}: never-acked key read back garbage"
                )

    # -- transactional workload (txn mode) -----------------------------------

    def _txn_key(self, index: int) -> bytes:
        return b"acct:" + encode_uint_key(index)

    def _txn_init(self, engine) -> None:
        """Fund every account in one atomic batch (before any crash arms)."""
        ops = []
        for i in range(self._txn_accounts):
            key = self._txn_key(i)
            self.balances[key] = self._txn_initial
            ops.append(("put", key, b"%d" % self._txn_initial))
        engine.write(ops)

    def _txn_cycle(self, engine, result: CycleResult) -> Dict[bytes, Tuple[int, int]]:
        """Run transfers until the cycle ends or the crash fires.

        Returns the in-flight transfer as ``{key: (old, new)}`` (empty when
        the crash hit between commits or on a background worker).
        """
        from repro.errors import ConflictError
        from repro.txn import Transaction

        pending: Dict[bytes, Tuple[int, int]] = {}
        try:
            for _ in range(self.ops_per_cycle):
                i = self.rng.randrange(self._txn_accounts)
                j = self.rng.randrange(self._txn_accounts - 1)
                if j >= i:
                    j += 1
                a, b = self._txn_key(i), self._txn_key(j)
                amount = self.rng.randint(1, 25)
                old_a, old_b = self.balances[a], self.balances[b]
                new_a, new_b = old_a - amount, old_b + amount
                pending = {a: (old_a, new_a), b: (old_b, new_b)}
                txn = Transaction(engine)
                try:
                    read_a, read_b = txn.get(a), txn.get(b)
                    if int(read_a.value) != old_a or int(read_b.value) != old_b:
                        result.violations.append(
                            f"txn read drift: {a.hex()}={read_a.value!r} "
                            f"{b.hex()}={read_b.value!r} disagree with the "
                            f"committed model"
                        )
                    txn.put(a, b"%d" % new_a)
                    txn.put(b, b"%d" % new_b)
                    txn.commit()
                except ConflictError:
                    # Benign under this single-writer harness (e.g. a purge
                    # erased a fingerprinted tombstone); nothing applied.
                    pending = {}
                    continue
                self.balances[a], self.balances[b] = new_a, new_b
                pending = {}
                result.ops_acked += 1
                if self._crashed_in_background(engine):
                    result.fired = True
                    break
        except SimulatedCrashError:
            result.fired = True
        return pending

    def _verify_txn(
        self,
        engine,
        pending: Dict[bytes, Tuple[int, int]],
        result: CycleResult,
    ) -> None:
        """No lost commits, no torn transfers, total balance conserved."""
        survived: Dict[bytes, int] = {}
        for key in sorted(self.balances):
            result.keys_checked += 1
            got = engine.get(key)
            if not got.found:
                result.violations.append(
                    f"account {key.hex()}: balance lost after recovery"
                )
                continue
            survived[key] = int(got.value)
        states = []
        for key, (old, new) in sorted(pending.items()):
            balance = survived.get(key)
            if balance == old:
                states.append("old")
            elif balance == new:
                states.append("new")
            else:
                states.append("garbage")
                result.violations.append(
                    f"account {key.hex()}: {balance!r} is neither the pre- "
                    f"({old}) nor post-transfer ({new}) balance"
                )
        if "old" in states and "new" in states:
            result.violations.append(
                "torn transaction: one account of the in-flight transfer "
                "committed without the other"
            )
        for key, balance in survived.items():
            if key in pending:
                continue
            if balance != self.balances[key]:
                result.violations.append(
                    f"account {key.hex()}: committed balance "
                    f"{self.balances[key]} read back as {balance}"
                )
        if survived and sum(survived.values()) != self._txn_total:
            result.violations.append(
                f"conservation violated: total {sum(survived.values())} != "
                f"{self._txn_total}"
            )
        for key, (_, _) in pending.items():
            if key in survived:
                self.balances[key] = survived[key]

    # -- the cycle -----------------------------------------------------------

    def run_cycle(self, cycle_no: int, first: bool) -> CycleResult:
        point = self.crash_points[self.rng.randrange(len(self.crash_points))]
        countdown = self.rng.randint(1, _POINT_BUDGET.get(point, 4))
        result = CycleResult(
            cycle=cycle_no, crash_point=point, countdown=countdown,
            fired=False, ops_acked=0, keys_checked=0,
        )

        engine = self._open(first)
        if self.mode == "txn" and first:
            self._txn_init(engine)
        self.device.schedule_crash(point, countdown)
        self.device.arm()

        pending: Dict[bytes, Optional[bytes]] = {}
        txn_pending: Dict[bytes, Tuple[int, int]] = {}
        batch: Dict[bytes, Optional[bytes]] = {}
        try:
            if self.mode == "txn":
                txn_pending = self._txn_cycle(engine, result)
            else:
                for _ in range(self.ops_per_cycle):
                    key, value = self._next_op()
                    batch = {key: value}
                    self._apply(engine, key, value)
                    self.acked[key] = value
                    result.ops_acked += 1
                    if self._crashed_in_background(engine):
                        result.fired = True
                        break
                    if self._value_gc and self._op_counter % 50 == 0:
                        batch = {}
                        engine.collect_value_garbage()
        except SimulatedCrashError:
            result.fired = True
            pending = dict(batch)
        finally:
            self.device.disarm()
            self._abandon(engine)

        recovered = self._open(first=False)
        if self.mode == "txn":
            self._verify_txn(recovered, txn_pending, result)
        else:
            self._verify(recovered, pending, result)
            # Resolve in-flight keys to what actually survived, so the next
            # cycle's model matches the device.
            for key in pending:
                got = recovered.get(key)
                self.acked[key] = got.value if got.found else _TOMBSTONE
        if self.mode in ("service", "sharded", "txn"):
            recovered.close()
        # tree mode: leave the tree's durable state; the object is dropped
        # and the next cycle recovers from the device again.
        return result

    def run(self, cycles: int) -> HarnessReport:
        return HarnessReport([self.run_cycle(n, first=(n == 0)) for n in range(cycles)])


# -- crash-matrix CLI --------------------------------------------------------

_LATENCY_MODELS = {
    "flat": None,  # device default
    "skewed": dict(sequential_read=1.0, random_read=8.0,
                   sequential_write=2.0, random_write=12.0),
}


def run_matrix(
    seeds: List[int],
    cycles: int,
    modes: List[str],
    layouts: List[str],
    latencies: List[str],
    crash_points: Optional[List[str]] = None,
    parallel: bool = False,
    compression: str = "none",
    verbose: bool = False,
) -> Tuple[bool, List[dict]]:
    """The CI crash matrix: seed × mode × layout × latency model.

    Returns:
        ``(ok, failures)`` where each failure dict pins the exact
        configuration and seed needed to replay it.
    """
    points = tuple(crash_points) if crash_points else CRASH_POINTS

    def make_harness(seed, mode, layout, latency, parallel, compression):
        config = LSMConfig(
            buffer_bytes=4 << 10,
            block_size=512,
            size_ratio=3,
            layout=layout,
            wal_enabled=True,
            wal_sync_interval=1,
            compression=compression,
            seed=seed,
        )
        harness = CrashHarness(
            config=config,
            faults=FaultConfig(seed=seed, torn_write_prob=0.5),
            mode=mode,
            seed=seed,
            crash_points=points,
            parallel=parallel,
        )
        if _LATENCY_MODELS[latency]:
            harness.device.latency = LatencyModel(**_LATENCY_MODELS[latency])
        return harness

    grid = (
        dict(seed=seed, mode=mode, layout=layout, latency=latency,
             parallel=parallel, compression=compression)
        for seed, mode, layout, latency in itertools.product(seeds, modes, layouts, latencies)
    )
    return run_grid(grid, make_harness, cycles, verbose)


def main(argv: Optional[List[str]] = None) -> int:
    parser = matrix_parser(__doc__, default_cycles=25)
    parser.add_argument("--mode", action="append", default=None,
                        choices=["tree", "service", "sharded", "txn"])
    parser.add_argument("--layout", action="append", default=None,
                        choices=list(DESIGN_SPACE["layout"].choices))
    parser.add_argument("--latency", action="append", default=None,
                        choices=sorted(_LATENCY_MODELS))
    parser.add_argument("--crash-point", action="append", default=None,
                        choices=list(CRASH_POINTS))
    parser.add_argument("--parallel", action="store_true",
                        help="run compactions as key-range subcompactions")
    parser.add_argument("--compression", default="none",
                        choices=list(DESIGN_SPACE["compression"].choices),
                        help="block codec the matrix builds tables with")
    args = parser.parse_args(argv)

    _, failures = run_matrix(
        seeds=args.seed or [1, 2],
        cycles=args.cycles,
        modes=args.mode or ["tree"],
        layouts=args.layout or ["leveling"],
        latencies=args.latency or ["flat"],
        crash_points=args.crash_point,
        parallel=args.parallel,
        compression=args.compression,
        verbose=not args.quiet,
    )
    return finish_matrix(
        failures, args.failures_file, "durability",
        lambda f: (
            f"--seed {f['seed']} --mode {f['mode']} --layout {f['layout']} "
            f"--latency {f['latency']} --compression {f['compression']}"
        ),
    )


if __name__ == "__main__":
    raise SystemExit(main())
