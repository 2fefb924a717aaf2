"""Chaos harness: randomized network-fault cycles asserting exactly-once.

The network analogue of :class:`repro.faults.harness.CrashHarness`, and
composable with it: a real :class:`~repro.server.LSMServer` (over a
:class:`~repro.faults.FaultyBlockDevice`, so storage crash points can fire
*simultaneously*) serves a retrying :class:`~repro.server.LSMClient` whose
every connection runs through an armed
:class:`~repro.chaos.FaultyTransport`. Each cycle schedules one named
network crash point plus the profile's background fault noise, drives a
randomized workload of puts, deletes, counter merges, and atomic
bank-transfer batches, then verifies over a *clean* connection:

* **exactly-once application** — counter merges are not idempotent (a
  replayed increment is visible), so every acked merge must read back as
  applied exactly once; a retried-and-deduped transfer batch that applied
  twice would push an account outside its {old, new} envelope.
* **zero acked-write loss** — every operation the retrying client saw
  succeed reads back exactly; a failed operation is *ambiguous* (the loss
  may have struck before or after execution) and must read back as either
  its old or its new state — never garbage, never twice.
* **no torn batches** — a transfer batch's two legs land together or not
  at all, and the total balance across accounts is conserved.
* **no hangs past deadline** — every operation returns (success or typed
  error) within its deadline plus the final backoff step and a scheduling
  slack; a blocked client is a violation even if the data is right.

With ``storage_crash=True`` each cycle also schedules a storage crash
point; when it fires the harness fail-stops the engine (the crashed
process), recovers from the surviving device, and restarts the server on
the same port — the full kill-and-recover path under network chaos. Run
it from the command line for the CI chaos matrix::

    PYTHONPATH=src python -m repro.chaos.harness --cycles 25 --seed 1
"""

from __future__ import annotations

import functools
import itertools
import random
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.chaos.config import NETWORK_CRASH_POINTS, NetworkFaultConfig
from repro.chaos.transport import FaultyTransport
from repro.core.config import LSMConfig
from repro.core.lsm_tree import LSMTree
from repro.errors import (
    ConnectionLostError,
    DeadlineExceededError,
    SimulatedCrashError,
)
from repro.faults.config import FaultConfig
from repro.faults.device import FaultyBlockDevice
from repro.faults.kernel import CycleResult as _CycleResult
from repro.faults.kernel import HarnessReport, finish_matrix, matrix_parser, run_grid
from repro.server import LSMClient, LSMServer, RemoteError, RetryPolicy, ServerConfig

#: Crossings each network point gets before its scheduled countdown is
#: considered un-fireable this cycle. ``connect`` only crosses on dials
#: (reconnects), so it gets a narrow window.
_NET_POINT_BUDGET = {
    "connect": 2,
    "before_send": 12,
    "mid_send": 12,
    "after_send_before_reply": 12,
    "duplicate_send": 12,
    "mid_reply": 12,
}

#: Storage crash points the combined tier draws from (a subset of
#: :data:`repro.faults.config.CRASH_POINTS` that the harness's small
#: write-heavy workload actually reaches) with their countdown budgets.
_STORAGE_POINT_BUDGET = {
    "wal_sync": 20,
    "device_append": 30,
    "flush_install": 2,
    "manifest_install": 3,
}

#: Background fault noise per profile, layered under the per-cycle named
#: crash point. ``points`` is deterministic-only; ``mixed`` ≈ a 5% lossy
#: network; ``storm`` ≈ a 15% one.
PROFILES: Dict[str, dict] = {
    "points": {},
    "mixed": dict(
        reset_prob=0.01, send_truncate_prob=0.01, drop_reply_prob=0.015,
        duplicate_prob=0.015, recv_truncate_prob=0.01,
        delay_prob=0.02, delay_s=0.002,
    ),
    "storm": dict(
        reset_prob=0.03, send_truncate_prob=0.03, drop_reply_prob=0.04,
        duplicate_prob=0.04, recv_truncate_prob=0.03,
        delay_prob=0.05, delay_s=0.002,
    ),
}


@dataclass
class CycleResult(_CycleResult):
    """Outcome of one chaos cycle (``fired``: the scheduled *network* crash)."""

    storage_crashes: int = 0
    ops_failed: int = 0
    retries: int = 0
    max_overshoot_s: float = 0.0


#: What a chaos report's ``summary()`` totals (see :class:`HarnessReport`).
_TOTALS = {
    "fired": "network crashes",
    "storage_crashes": "storage crashes",
    "ops_acked": "acked ops",
    "retries": "retries",
}


class CrashFuseService:
    """Fail-stop fuse around a DBService: after the first
    :class:`SimulatedCrashError` every further call refuses, so a crashed
    engine cannot keep serving from possibly-inconsistent in-memory state
    (the server maps the error to an ``engine`` refusal; the harness then
    recovers from the device and restarts, like a process respawn)."""

    _GUARDED = frozenset({
        "get", "put", "merge", "delete", "multi_get", "scan", "write",
        "commit_transaction",
    })

    def __init__(self, service) -> None:
        self.service = service
        self.crashed = threading.Event()

    def __getattr__(self, name):
        attr = getattr(self.service, name)
        if name not in self._GUARDED:
            return attr

        def guarded(*args, **kwargs):
            if self.crashed.is_set():
                raise SimulatedCrashError("engine is down (fail-stop fuse)")
            try:
                return attr(*args, **kwargs)
            except SimulatedCrashError:
                self.crashed.set()
                raise

        return guarded


class ChaosHarness:
    """Drive workload → network faults → drain → verify cycles.

    State accumulates across cycles on one device and one long-lived
    retrying client, so late cycles exercise reconnects and dedup against
    a server with real history.

    Args:
        seed: master seed; every random choice derives from it.
        ops_per_cycle: workload operations attempted per cycle.
        profile: background fault noise (see :data:`PROFILES`).
        storage_crash: also schedule storage crash points each cycle and
            exercise the fail-stop → recover → restart path.
        deadline_s: per-operation client deadline.
        keyspace / counters / accounts: sizes of the three key families
            (blind puts+deletes, free counters, transfer accounts).
        config: tree configuration (``wal_enabled`` forced on).
    """

    def __init__(
        self,
        seed: int = 0,
        ops_per_cycle: int = 40,
        profile: str = "mixed",
        storage_crash: bool = False,
        deadline_s: float = 4.0,
        keyspace: int = 64,
        counters: int = 16,
        accounts: int = 8,
        config: Optional[LSMConfig] = None,
    ) -> None:
        if profile not in PROFILES:
            raise ValueError(
                f"unknown profile {profile!r}; valid: {', '.join(sorted(PROFILES))}"
            )
        self.seed = seed
        self.rng = random.Random(seed)
        self.ops_per_cycle = ops_per_cycle
        self.profile = profile
        self.storage_crash = storage_crash
        self.deadline_s = deadline_s
        self.keyspace = keyspace
        self.counters = counters
        self.accounts = accounts
        self.initial_balance = 1_000

        if config is None:
            config = LSMConfig(
                buffer_bytes=4 << 10, block_size=512, size_ratio=3, seed=seed
            )
        if not config.wal_enabled or config.wal_sync_interval != 1:
            config = config.replace(wal_enabled=True, wal_sync_interval=1)
        self.config = config
        self.device = FaultyBlockDevice(
            block_size=config.block_size,
            faults=FaultConfig(seed=seed),
            armed=False,
        )
        self.transport = FaultyTransport(
            NetworkFaultConfig(seed=seed + 1, **PROFILES[profile])
        )

        # The model: acknowledged state per kv key (None = acked absent),
        # committed int per counter/account key, and the per-key ambiguity
        # envelope for operations that failed mid-flight.
        self.kv: Dict[bytes, Optional[bytes]] = {}
        self.ints: Dict[bytes, int] = {}
        self.pending_kv: Dict[bytes, Tuple[Optional[bytes], Optional[bytes]]] = {}
        self.pending_int: Dict[bytes, Tuple[int, int]] = {}
        self.pending_batches: List[Tuple[bytes, bytes]] = []
        self._op_counter = 0
        self._port: Optional[int] = None
        self.server: Optional[LSMServer] = None
        self.fuse: Optional[CrashFuseService] = None
        self.client: Optional[LSMClient] = None
        self.clean: Optional[LSMClient] = None
        self._start_server(first=True)
        self._open_clients()
        self._init_accounts()

    # -- lifecycle -------------------------------------------------------------

    def _server_config(self) -> ServerConfig:
        return ServerConfig(
            port=self._port or 0,
            drain_timeout_s=1.0,
            idle_poll_s=0.01,
            stats_interval_s=0.0,
            slow_op_threshold_s=None,
            dedup_capacity=2048,
        )

    def _start_server(self, first: bool) -> None:
        from repro.service import DBService

        if first:
            tree = LSMTree(self.config, device=self.device)
        else:
            tree = LSMTree.recover(self.config, self.device)
        service = DBService(tree, close_tree=True)
        self.fuse = CrashFuseService(service)
        self.server = LSMServer(self.fuse, self._server_config())
        host, port = self.server.start()
        # Pin the port on first start so a post-crash restart reuses it and
        # the long-lived clients' reconnects find the new server.
        self._port = port
        self._address = (host, port)

    def _open_clients(self) -> None:
        host, port = self._address
        self.client = LSMClient(
            host, port,
            timeout_s=1.0,
            retry=RetryPolicy(
                max_attempts=6, backoff_base_s=0.01, backoff_cap_s=0.08,
                jitter=0.5, deadline_s=self.deadline_s, seed=self.seed + 2,
            ),
            transport=self.transport,
        )
        self.clean = LSMClient(
            host, port,
            timeout_s=2.0,
            retry=RetryPolicy(
                max_attempts=8, backoff_base_s=0.01, backoff_cap_s=0.1,
                deadline_s=8.0, seed=self.seed + 3,
            ),
        )

    def _restart_server(self) -> None:
        """Fail-stop the crashed engine, recover from the device, restart."""
        self.device.disarm()
        self.server.shutdown(drain_timeout_s=0.5)
        inner = self.fuse.service
        inner.scheduler.close(drain=False)
        inner.tree.set_maintenance_callback(None)
        self._start_server(first=False)
        # Both clients hold sockets into the dead server; drop them so the
        # next operation re-dials the restarted one.
        self.client.disconnect()
        self.clean.disconnect()

    def close(self) -> None:
        for client in (self.client, self.clean):
            if client is not None:
                client.close()
        if self.server is not None:
            self.server.shutdown(drain_timeout_s=0.5)
        if self.fuse is not None:
            self.fuse.service.close()

    # -- workload --------------------------------------------------------------

    def _kv_key(self, index: int) -> bytes:
        return b"kv:%04d" % index

    def _ctr_key(self, index: int) -> bytes:
        return b"ctr:%03d" % index

    def _acct_key(self, index: int) -> bytes:
        return b"acct:%02d" % index

    def _init_accounts(self) -> None:
        ops = []
        for i in range(self.accounts):
            key = self._acct_key(i)
            self.ints[key] = self.initial_balance
            ops.append(("put", key, b"%d" % self.initial_balance))
        self.clean.batch(ops)

    def _pick_free(self, keys: List[bytes]) -> Optional[bytes]:
        """A key from ``keys`` with no unresolved ambiguity, or None."""
        for _ in range(8):
            key = keys[self.rng.randrange(len(keys))]
            if key not in self.pending_kv and key not in self.pending_int:
                return key
        return None

    def _run_one_op(self, result: CycleResult) -> None:
        self._op_counter += 1
        roll = self.rng.random()
        wall0 = time.monotonic()
        try:
            if roll < 0.45:  # put
                key = self._pick_free(
                    [self._kv_key(i) for i in range(self.keyspace)]
                )
                if key is None:
                    return
                value = b"v%08d" % self._op_counter
                old, new = self.kv.get(key), value
                self.client.put(key, value)
                self.kv[key] = value
            elif roll < 0.55:  # delete
                key = self._pick_free(
                    [self._kv_key(i) for i in range(self.keyspace)]
                )
                if key is None:
                    return
                old, new = self.kv.get(key), None
                self.client.delete(key)
                self.kv[key] = None
            elif roll < 0.80:  # counter merge — the non-idempotent detector
                key = self._pick_free(
                    [self._ctr_key(i) for i in range(self.counters)]
                )
                if key is None:
                    return
                delta = self.rng.randint(1, 9)
                old = self.ints.get(key, 0)
                new = old + delta
                self.client.merge(key, b"%d" % delta)
                self.ints[key] = new
            else:  # transfer batch: two counter merges, atomic, zero-sum
                i = self.rng.randrange(self.accounts)
                j = self.rng.randrange(self.accounts - 1)
                if j >= i:
                    j += 1
                a, b = self._acct_key(i), self._acct_key(j)
                if (
                    a in self.pending_int or b in self.pending_int
                    or a in self.pending_kv or b in self.pending_kv
                ):
                    return
                amount = self.rng.randint(1, 25)
                old_a, old_b = self.ints[a], self.ints[b]
                try:
                    self.client.batch([
                        ("merge", a, b"-%d" % amount, "counter"),
                        ("merge", b, b"%d" % amount, "counter"),
                    ])
                    self.ints[a], self.ints[b] = old_a - amount, old_b + amount
                except self._OP_ERRORS as exc:
                    self.pending_int[a] = (old_a, old_a - amount)
                    self.pending_int[b] = (old_b, old_b + amount)
                    self.pending_batches.append((a, b))
                    self._after_failure(exc, result)
                    return
                finally:
                    self._check_deadline(wall0, result)
                result.ops_acked += 1
                self._maybe_detect_storage_crash(result)
                return
        except self._OP_ERRORS as exc:
            # Ambiguous: the op may or may not have been applied. Freeze the
            # key in its {old, new} envelope until the cycle-end verify.
            if roll < 0.55:
                self.pending_kv[key] = (old, new)
                self.kv[key] = old  # model keeps the pre-op state for now
            else:
                self.pending_int[key] = (old, new)
                self.ints[key] = old
            self._after_failure(exc, result)
            return
        finally:
            self._check_deadline(wall0, result)
        result.ops_acked += 1
        self._maybe_detect_storage_crash(result)

    _OP_ERRORS = (ConnectionLostError, DeadlineExceededError, RemoteError)

    def _check_deadline(self, wall0: float, result: CycleResult) -> None:
        wall = time.monotonic() - wall0
        budget = (
            self.deadline_s
            + self.client.retry.backoff_cap_s
            + 0.75  # scheduling slack: threads, drains, CI noise
        )
        overshoot = wall - budget
        if overshoot > result.max_overshoot_s:
            result.max_overshoot_s = overshoot
        if overshoot > 0:
            result.violations.append(
                f"client op blocked {wall:.3f}s, past the {budget:.3f}s "
                f"deadline+backoff budget"
            )

    def _after_failure(self, exc: Exception, result: CycleResult) -> None:
        result.ops_failed += 1
        if isinstance(exc, RemoteError) and "SimulatedCrash" in str(exc):
            result.storage_crashes += 1
            self._restart_server()
        else:
            self._maybe_detect_storage_crash(result)

    def _maybe_detect_storage_crash(self, result: CycleResult) -> None:
        if not self.storage_crash:
            return
        inner = self.fuse.service
        crashed_bg = isinstance(
            getattr(inner.scheduler, "last_job_error", None), SimulatedCrashError
        )
        if crashed_bg or self.fuse.crashed.is_set():
            result.storage_crashes += 1
            self._restart_server()

    # -- drain + verification --------------------------------------------------

    def _drain(self) -> None:
        """Quiesce the server so no buffered duplicate can land *after* the
        verification reads (which would fake a lost/doubled write)."""
        self.transport.disarm()
        self.client.disconnect()
        self.clean.disconnect()
        deadline = time.monotonic() + 3.0
        while time.monotonic() < deadline:
            snap = self.server.stats_snapshot()["server"]
            if snap["connections_active"] == 0:
                return
            time.sleep(0.01)

    def _verify(self, result: CycleResult) -> None:
        # kv family: exact for committed, {old, new} for ambiguous.
        for key in sorted(self.kv):
            result.keys_checked += 1
            got = self.clean.get(key)
            observed = got.value if got.found else None
            if key in self.pending_kv:
                old, new = self.pending_kv[key]
                if observed != old and observed != new:
                    result.violations.append(
                        f"key {key!r}: {observed!r} is neither the pre-op "
                        f"({old!r}) nor post-op ({new!r}) state"
                    )
                self.kv[key] = observed
            elif observed != self.kv[key]:
                result.violations.append(
                    f"key {key!r}: acked state {self.kv[key]!r} read back "
                    f"as {observed!r}"
                )
        # int families: a doubled merge/batch leaves the {old, new} envelope.
        observed_ints: Dict[bytes, Optional[int]] = {}
        for key in sorted(self.ints):
            result.keys_checked += 1
            got = self.clean.get(key)
            observed = int(got.value) if got.found else None
            observed_ints[key] = observed
            if key in self.pending_int:
                old, new = self.pending_int[key]
                if observed != old and observed != new:
                    result.violations.append(
                        f"counter {key!r}: {observed} is neither {old} (not "
                        f"applied) nor {new} (applied once) — lost or "
                        f"double-applied"
                    )
                self.ints[key] = observed if observed is not None else 0
            elif observed != self.ints[key]:
                result.violations.append(
                    f"counter {key!r}: committed {self.ints[key]} read back "
                    f"as {observed}"
                )
        # Ambiguous transfers: atomic batches must not tear.
        for a, b in self.pending_batches:
            old_a, new_a = (
                self.pending_int[a] if a in self.pending_int else (None, None)
            )
            if old_a is None:
                continue
            old_b, new_b = self.pending_int[b]
            applied_a = observed_ints.get(a) == new_a and new_a != old_a
            applied_b = observed_ints.get(b) == new_b and new_b != old_b
            if applied_a != applied_b:
                result.violations.append(
                    f"torn batch: transfer {a!r}->{b!r} applied one leg "
                    f"without the other"
                )
        # Conservation: transfers are zero-sum and atomic, so the account
        # total never moves — not even under retries, crashes, or dedup.
        total = sum(
            observed_ints.get(self._acct_key(i)) or 0
            for i in range(self.accounts)
        )
        expected_total = self.accounts * self.initial_balance
        if total != expected_total:
            result.violations.append(
                f"conservation violated: account total {total} != "
                f"{expected_total}"
            )
        self.pending_kv.clear()
        self.pending_int.clear()
        self.pending_batches.clear()

    # -- the cycle -------------------------------------------------------------

    def run_cycle(self, cycle_no: int) -> CycleResult:
        point = NETWORK_CRASH_POINTS[
            self.rng.randrange(len(NETWORK_CRASH_POINTS))
        ]
        countdown = self.rng.randint(1, _NET_POINT_BUDGET.get(point, 8))
        result = CycleResult(
            cycle=cycle_no, crash_point=point, countdown=countdown, fired=False
        )
        fired_before = self.transport.stats().get(f"crash:{point}", 0)
        retries_before = self.client.stats_retries
        self.transport.schedule_crash(point, countdown)
        self.transport.arm()
        if self.storage_crash and cycle_no % 2 == 1:
            # Every other cycle also arms a storage crash, so the matrix
            # covers pure-network and combined tiers in one run.
            storage_point = self.rng.choice(sorted(_STORAGE_POINT_BUDGET))
            self.device.schedule_crash(
                storage_point,
                self.rng.randint(1, _STORAGE_POINT_BUDGET[storage_point]),
            )
            self.device.arm()
        try:
            for _ in range(self.ops_per_cycle):
                self._run_one_op(result)
        finally:
            self.device.disarm()
            self._drain()
        result.fired = (
            self.transport.stats().get(f"crash:{point}", 0) > fired_before
        )
        result.retries = self.client.stats_retries - retries_before
        self._verify(result)
        return result

    def run(self, cycles: int) -> HarnessReport:
        return HarnessReport([self.run_cycle(n) for n in range(cycles)], totals=_TOTALS)


# -- chaos-matrix CLI ---------------------------------------------------------


def run_matrix(
    seeds: List[int],
    cycles: int,
    profiles: List[str],
    storage_crash: bool = False,
    ops_per_cycle: int = 40,
    verbose: bool = False,
) -> Tuple[bool, List[dict]]:
    """The CI chaos matrix: seed × fault profile (× storage-crash tier).

    Returns:
        ``(ok, failures)`` where each failure dict pins the exact
        configuration and seed needed to replay it.
    """
    grid = (
        dict(seed=seed, profile=profile, storage_crash=storage_crash)
        for seed, profile in itertools.product(seeds, profiles)
    )
    make_harness = functools.partial(ChaosHarness, ops_per_cycle=ops_per_cycle)
    return run_grid(grid, make_harness, cycles, verbose)


def main(argv: Optional[List[str]] = None) -> int:
    parser = matrix_parser(__doc__, default_cycles=10)
    parser.add_argument("--profile", action="append", default=None,
                        choices=sorted(PROFILES))
    parser.add_argument("--storage-crash", action="store_true",
                        help="also fire storage crash points (combined tier)")
    parser.add_argument("--ops", type=int, default=40,
                        help="operations per cycle")
    args = parser.parse_args(argv)

    _, failures = run_matrix(
        seeds=args.seed or [1, 2],
        cycles=args.cycles,
        profiles=args.profile or ["mixed"],
        storage_crash=args.storage_crash,
        ops_per_cycle=args.ops,
        verbose=not args.quiet,
    )
    return finish_matrix(
        failures, args.failures_file, "exactly-once",
        lambda f: (
            f"--seed {f['seed']} --profile {f['profile']}"
            + (" --storage-crash" if f["storage_crash"] else "")
        ),
    )


if __name__ == "__main__":
    raise SystemExit(main())
