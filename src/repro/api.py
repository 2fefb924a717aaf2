"""repro.open(): the one-call front door to a ready-to-use engine.

The engine has grown layers — core tree, concurrent service, observability,
fault injection — each with its own constructor dance. ``repro.open()``
assembles them coherently in one call and returns a handle that is already
a context manager::

    import repro

    with repro.open(config=repro.LSMConfig(wal_enabled=True)) as db:
        db.put(b"k", b"v")

    # Concurrent service with metrics and fault injection:
    faults = repro.FaultConfig(read_error_prob=0.01, seed=7)
    with repro.open(config=cfg, service=True, observe=True, faults=faults) as db:
        ...

A durable handle always opens through recovery (manifest + WAL replay;
a fresh device opens empty), so ``open → crash → open`` is the whole
recovery story.
"""

from __future__ import annotations

from typing import (
    Dict,
    Iterator,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    Union,
    runtime_checkable,
)

from repro.common.entry import GetResult
from repro.core.config import LSMConfig
from repro.core.lsm_tree import LSMTree
from repro.errors import ConfigError
from repro.faults import FaultConfig, FaultyBlockDevice, ReadGuard
from repro.service import DBService, ServiceConfig
from repro.storage.block_device import BlockDevice


@runtime_checkable
class KVStore(Protocol):
    """The one store surface every handle speaks.

    :class:`~repro.core.lsm_tree.LSMTree` (embedded),
    :class:`~repro.service.service.DBService` (concurrent service),
    :class:`~repro.sharding.ShardedStore` (range-sharded), and
    :class:`~repro.server.client.LSMClient` (over the wire) all satisfy
    this protocol, so application code — and :class:`repro.txn.Transaction`
    — runs unchanged against any of them. Structural (PEP 544): no handle
    inherits from this class; ``isinstance(handle, KVStore)`` checks method
    presence at runtime.

    Semantics that the conformance suite
    (``tests/api/test_kvstore_conformance.py``) pins across handles:

    * ``get`` returns a :class:`~repro.common.entry.GetResult` whose
      ``seqno`` fingerprints the newest observed version (0 when absent) —
      the token optimistic transactions validate against;
    * ``multi_get`` returns ``{key: GetResult}`` over the *distinct*
      requested keys, iterating in sorted key order; a closed handle (or a
      released snapshot) refuses every batch, the empty one included;
    * ``write`` applies a :class:`repro.txn.WriteBatch` (or op-tuple
      iterable) atomically — one WAL frame (per shard, when sharded);
    * ``merge`` enqueues an operand for a registered merge operator;
    * ``put`` with ``ttl=`` stamps an expiry deadline in simulated seconds;
    * ``snapshot`` returns a consistent read view with ``get`` /
      ``multi_get`` / ``scan`` / ``close`` (context-manager capable).
    """

    def get(self, key: bytes) -> GetResult: ...

    def put(self, key: bytes, value: bytes, ttl: Optional[float] = None) -> None: ...

    def delete(self, key: bytes) -> None: ...

    def multi_get(self, keys: Sequence[bytes]) -> Dict[bytes, GetResult]: ...

    def scan(
        self, start: Optional[bytes] = None, end: Optional[bytes] = None
    ) -> Iterator[Tuple[bytes, bytes]]: ...

    def write(self, batch) -> None: ...

    def merge(self, key: bytes, operand: bytes, operator: str = "counter") -> None: ...

    def snapshot(self): ...


def open(
    config: Optional[LSMConfig] = None,
    *,
    device: Optional[BlockDevice] = None,
    service: Union[bool, ServiceConfig] = False,
    server: object = False,
    sharding: Optional[Sequence[bytes]] = None,
    observe: bool = False,
    faults: Optional[FaultConfig] = None,
    sampling: float = 0.0,
    arm_faults: bool = True,
):
    """Open (or recover) an engine, wiring the requested layers together.

    Args:
        config: tree configuration; defaults to ``LSMConfig(wal_enabled=True)``
            so the handle is durable out of the box.
        device: an existing block device to open against — pass the device
            that survived a (simulated) crash to recover from it. A fresh
            one is created when omitted: a :class:`FaultyBlockDevice` when
            ``faults`` is given, a plain :class:`BlockDevice` otherwise.
        service: ``True`` (or a :class:`ServiceConfig`) fronts the tree with
            a concurrent :class:`DBService` — group commit, background
            maintenance, backpressure. The returned service owns the tree:
            closing it also closes the tree.
        server: ``True`` (or a :class:`repro.server.ServerConfig`) starts a
            framed-protocol :class:`~repro.server.LSMServer` over the handle
            and returns the *server* (its ``address`` is ready; connect with
            :class:`~repro.server.LSMClient`). An unsharded backend is
            automatically fronted by a :class:`DBService` (the wire needs a
            thread-safe backend); shutting the server down closes the whole
            stack.
        sharding: split keys for a range-sharded deployment — returns (or
            serves, with ``server=``) a :class:`~repro.sharding.ShardedStore`
            of ``len(sharding) + 1`` trees over one shared device instead of
            a single tree. Mutually exclusive with ``service=`` (shards run
            their own maintenance).
        observe: attach a metrics registry (and a trace recorder); read it
            back via the handle's ``observer.registry``. Fault, retry,
            quarantine, and recovery series are included when a read guard
            is present.
        faults: a :class:`FaultConfig` enabling fault injection (fresh
            devices only) and hardened reads: a :class:`ReadGuard` is
            attached to the device — transient read errors are retried with
            capped exponential backoff, checksum failures re-read and then
            quarantine the file, broken filters/indexes degrade to scans.
        sampling: read-path trace sampling fraction in [0, 1] (with
            ``observe=True``).
        arm_faults: arm a freshly created :class:`FaultyBlockDevice` so
            injection is live immediately; pass ``False`` to schedule crash
            points or probabilities first and call ``device.arm()`` yourself.

    Returns:
        A started :class:`~repro.server.LSMServer` when ``server`` is
        requested; else a :class:`~repro.sharding.ShardedStore` when
        ``sharding`` is given; else a ready :class:`DBService` when
        ``service`` is requested; else a ready :class:`LSMTree`. All are
        context managers whose exit flushes, seals WALs, and stops
        background work.

    Raises:
        ConfigError: on contradictory wiring (e.g. ``faults`` together with
            an existing non-fault device).
        CorruptionError: a durable open of a device whose data no valid
            manifest lists.
    """
    if config is None:
        config = LSMConfig(wal_enabled=True)

    if device is None:
        if faults is not None:
            device = FaultyBlockDevice(
                block_size=config.block_size,
                latency=None,
                faults=faults,
                armed=arm_faults,
            )
        else:
            device = BlockDevice(block_size=config.block_size)
    elif faults is not None and not isinstance(device, FaultyBlockDevice):
        raise ConfigError(
            "faults= requires a fresh device or a FaultyBlockDevice; "
            "got an existing plain BlockDevice"
        )
    if device.block_size != config.block_size:
        raise ConfigError(
            f"device block size {device.block_size} != config.block_size "
            f"{config.block_size}"
        )

    if faults is not None and device.guard is None:
        device.guard = ReadGuard.from_config(faults)

    if sharding is not None:
        if service:
            raise ConfigError(
                "service= and sharding= are mutually exclusive; shards run "
                "their own maintenance (front them with server= if needed)"
            )
        from repro.sharding import ShardedStore

        boundaries = list(sharding)
        if config.wal_enabled:
            handle = ShardedStore.recover(config, boundaries, device)
        else:
            handle = ShardedStore(config, boundaries, device=device)
        if observe:
            handle.attach_observability(sampling=sampling)
    else:
        if config.wal_enabled:
            tree = LSMTree.recover(config, device)
        else:
            tree = LSMTree(config, device=device)

        if not service and not server:
            if observe:
                from repro.observe import observe_tree

                observe_tree(tree, sampling=sampling)
            return tree

        service_config = service if isinstance(service, ServiceConfig) else None
        handle = DBService(tree, config=service_config, close_tree=True)
        if observe:
            handle.attach_observability(sampling=sampling)

    if not server:
        return handle

    from repro.server import LSMServer, ServerConfig

    server_config = server if isinstance(server, ServerConfig) else None
    lsm_server = LSMServer(handle, config=server_config, close_service=True)
    lsm_server.start()
    return lsm_server
