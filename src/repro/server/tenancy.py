"""Multi-tenant namespaces and fair-share admission control.

Two concerns production stores layer above the engine (Luo & Carey's LSM
survey, §server-side concerns):

* **Namespacing** — each tenant sees a private keyspace. Keys are stored
  as ``<tenant-bytes> 0x00 <user-key>`` over a shared tree; the fixed
  prefix preserves byte order inside a tenant, and tenant ids are
  restricted to ``[A-Za-z0-9._-]`` so no id is a prefix of another's
  range. The same prefixes double as split keys for a tree-per-tenant
  deployment over :class:`repro.sharding.ShardedStore`
  (:func:`tenant_boundaries`).

* **Fair-share admission** — every tenant gets its own deficit token
  bucket (reusing :class:`repro.service.scheduler.RateLimiter`, the same
  primitive metering compaction I/O) sized at the tenant's weighted share
  of the server's per-tenant budget. A request is charged its operation
  count *before* it touches the engine, so a tenant driving 4x its share
  waits in its own bucket — on its own connection threads — while
  compliant tenants' buckets stay positive and admit instantly. The
  result: one hot tenant cannot stall the rest, and the throttling is
  *measured* (per-tenant admitted/throttled counters, wait histogram).
"""

from __future__ import annotations

import functools
import re
import threading
import time
from typing import Callable, Dict, Optional, Tuple

from repro.errors import ConfigError
from repro.server.protocol import ProtocolError
from repro.service.scheduler import RateLimiter

#: Separator between the tenant id and the user key in a namespaced key.
#: Tenant ids cannot contain it (see _TENANT_RE), so ranges never overlap.
TENANT_SEP = b"\x00"
#: One past the separator: the exclusive upper bound of a tenant's range.
_TENANT_END = b"\x01"

_TENANT_RE = re.compile(r"^[A-Za-z0-9._-]{1,64}$")


def validate_tenant(tenant: str) -> bytes:
    """Check a tenant id and return its key-prefix bytes (without separator).

    Raises:
        ProtocolError: for ids that are empty, too long, or hold characters
            outside ``[A-Za-z0-9._-]`` (the wire carries attacker-controlled
            ids; a malformed one is a protocol-level bad request).
    """
    if not _TENANT_RE.match(tenant):
        raise ProtocolError(
            f"invalid tenant id {tenant!r}: need 1-64 chars of [A-Za-z0-9._-]"
        )
    return tenant.encode("ascii")


@functools.lru_cache(maxsize=1024)
def tenant_prefix(tenant: str) -> bytes:
    """The storage prefix every key of ``tenant`` carries. Remembered for
    the most recent ids, so a server validates a tenant once rather than per
    request; an invalid id raises and is never remembered."""
    return validate_tenant(tenant) + TENANT_SEP


def namespaced_key(tenant: str, key: bytes) -> bytes:
    """Map a tenant's user key into the shared keyspace."""
    return tenant_prefix(tenant) + key


def strip_namespace(tenant: str, stored_key: bytes) -> bytes:
    """Inverse of :func:`namespaced_key` (the prefix must match)."""
    prefix = tenant_prefix(tenant)
    if not stored_key.startswith(prefix):
        raise ValueError(f"key {stored_key!r} is not in tenant {tenant!r}")
    return stored_key[len(prefix):]


def tenant_range(
    tenant: str, start: Optional[bytes], end: Optional[bytes]
) -> Tuple[bytes, bytes]:
    """Translate a tenant-relative inclusive scan range into storage keys.

    An unbounded ``end`` maps to ``<tenant> 0x01`` — greater than every
    namespaced key of this tenant (they all continue with ``0x00``) and
    never equal to a stored key, so it is safe as an inclusive bound.
    """
    return prefix_range(tenant_prefix(tenant), start, end)


def prefix_range(
    prefix: bytes, start: Optional[bytes], end: Optional[bytes]
) -> Tuple[bytes, bytes]:
    """:func:`tenant_range` for a tenant whose :func:`tenant_prefix` is
    already known, so a request validates its tenant once. Every key in
    the range starts with ``prefix``."""
    lo = prefix + (start or b"")
    hi = prefix + end if end is not None else prefix[:-1] + _TENANT_END
    return lo, hi


def tenant_boundaries(tenants) -> "list[bytes]":
    """Split keys giving each tenant its own shard (tree-per-tenant).

    Feed these to :class:`repro.sharding.ShardedStore`: with boundaries at
    every tenant's prefix, each tenant's namespaced range lands in exactly
    one shard (plus one leading shard for keys below the first tenant).
    """
    return sorted(tenant_prefix(t) for t in tenants)


class FairShareAdmission:
    """Per-tenant weighted token buckets over one ops/second budget.

    Args:
        ops_per_second: the fair share — operations per second each
            weight-1.0 tenant may sustain.
        burst_ops: bucket capacity (defaults to one second of refill); the
            slack a compliant tenant may burst through without waiting.
        weights: optional ``{tenant: weight}`` scaling individual shares.
        clock, sleep: injectable for deterministic tests (passed through to
            each tenant's :class:`RateLimiter`).
    """

    def __init__(
        self,
        ops_per_second: float,
        burst_ops: Optional[float] = None,
        weights: Optional[Dict[str, float]] = None,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        if ops_per_second <= 0:
            raise ConfigError("ops_per_second must be positive")
        if burst_ops is not None and burst_ops <= 0:
            raise ConfigError("burst_ops must be positive")
        for tenant, weight in (weights or {}).items():
            if weight <= 0:
                raise ConfigError(f"tenant {tenant!r} weight must be positive")
        self.ops_per_second = float(ops_per_second)
        self.burst_ops = burst_ops
        self.weights = dict(weights or {})
        self._clock = clock
        self._sleep = sleep
        self._limiters: Dict[str, RateLimiter] = {}
        self._lock = threading.Lock()

    def _limiter(self, tenant: str) -> RateLimiter:
        with self._lock:
            limiter = self._limiters.get(tenant)
            if limiter is None:
                weight = self.weights.get(tenant, 1.0)
                rate = self.ops_per_second * weight
                burst = self.burst_ops * weight if self.burst_ops is not None else rate
                limiter = RateLimiter(
                    rate, burst, clock=self._clock, sleep=self._sleep
                )
                self._limiters[tenant] = limiter
            return limiter

    def admit(self, tenant: str, cost: int = 1) -> float:
        """Charge ``cost`` operations to ``tenant``; block until admitted.

        The wait happens on the caller's (connection-handler) thread, so a
        throttled tenant delays only itself. Returns seconds waited.
        """
        return self._limiter(tenant).request(max(1, cost))

    def tokens(self, tenant: str) -> float:
        """The tenant's current bucket level (diagnostics)."""
        return self._limiter(tenant).tokens

    def snapshot(self) -> Dict[str, dict]:
        """Per-tenant admission accounting for the stats frame."""
        with self._lock:
            limiters = dict(self._limiters)
        return {
            tenant: {
                "ops_admitted": limiter.bytes_admitted,
                "throttle_waits": limiter.waits,
                "throttle_wait_seconds": round(limiter.total_wait_s, 6),
                "share_ops_per_second": self.ops_per_second
                * self.weights.get(tenant, 1.0),
            }
            for tenant, limiter in limiters.items()
        }
