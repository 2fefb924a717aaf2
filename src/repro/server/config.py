"""Server-side knobs: transport limits, tenancy, admission, drain.

Separate from :class:`~repro.service.config.ServiceConfig` for the same
reason that is separate from :class:`~repro.core.config.LSMConfig`: the
tree's knobs shape the structure, the service's shape threading, and the
server's shape the *wire* — connection limits, frame limits, and the
per-tenant QoS contract.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Annotated, Dict, Optional

from repro.common.config_base import (
    NON_EMPTY, NON_NEGATIVE, POSITIVE, UNIT_INTERVAL, at_least, check_fields, in_range,
    kwonly_dataclass,
)
from repro.errors import ConfigError
from repro.server.protocol import DEFAULT_MAX_PAYLOAD


@kwonly_dataclass
@dataclass
class ServerConfig:
    """Every knob of the network front end.

    Attributes:
        host: bind address (loopback by default; this is a simulator).
        port: bind port; 0 asks the OS for an ephemeral port (read the
            actual one back from ``LSMServer.address`` after ``start()``).
        max_connections: concurrent client connections admitted; further
            accepts are answered with a ``busy`` error frame and closed.
        max_payload_bytes: per-frame payload ceiling enforced on decode.
        recv_bytes: socket recv chunk size.
        idle_poll_s: how often blocked accepts/recvs wake to check for
            shutdown (bounds drain latency; not a request timeout).
        drain_timeout_s: graceful-shutdown budget — in-flight requests get
            this long to finish before their sockets are force-closed.
        default_tenant: namespace applied when a request carries an empty
            tenant id.
        tenant_ops_per_second: fair-share admission budget per weight-1.0
            tenant (ops/second); None disables admission control.
        tenant_burst_ops: admission bucket capacity (defaults to one
            second of refill).
        tenant_weights: optional per-tenant share multipliers.
        scan_limit_max: server-side clamp on one scan reply's entry count
            (a client asking for more gets ``truncated=True`` replies).
        trace_sampling: root sampling fraction for requests that arrive
            *without* a client trace context; None leaves the attached
            recorder's own rate untouched. A request carrying a context
            inherits the client's decision instead.
        trace_capacity: spans retained when the server creates its own
            recorder (a service-attached recorder is reused as-is).
        slow_op_threshold_s: requests slower than this land in the slow-op
            log with their full stage breakdown, sampled or not; None
            disables the log.
        slow_op_capacity: slow-op records retained.
        stats_interval_s: background time-series scrape interval; 0
            disables the sampler thread (``stats_history`` then serves
            whatever on-demand scrapes produced).
        history_capacity: ring capacity (points per series) of the
            time-series sampler.
        dedup_capacity: completed idempotency-token entries retained by the
            request-dedup table (LRU); 0 disables dedup entirely — retried
            mutations then re-execute, so only idempotent workloads are
            safe to retry.
        overload_in_flight: in-flight request count at which data-plane
            requests are refused with ``overloaded``; None disables
            shedding (health/stats requests are always served).
        brownout_in_flight: in-flight count at which the server enters
            brownout — trace sampling is suppressed and scan limits are
            clamped — before it starts refusing work; None disables.
        brownout_scan_limit: per-scan entry clamp applied during brownout.
        shed_on_backpressure_stop: refuse mutating requests with
            ``overloaded`` while the engine's backpressure controller
            reports ``stop``, instead of blocking handler threads on the
            write gate past client deadlines.
    """

    host: str = "127.0.0.1"
    port: Annotated[int, in_range(0, 65535)] = 0
    max_connections: Annotated[int, at_least(1)] = 64
    max_payload_bytes: Annotated[int, at_least(1 << 10)] = DEFAULT_MAX_PAYLOAD
    recv_bytes: Annotated[int, POSITIVE] = 64 << 10
    idle_poll_s: Annotated[float, POSITIVE] = 0.05
    drain_timeout_s: Annotated[float, POSITIVE] = 5.0
    default_tenant: Annotated[str, NON_EMPTY] = "default"
    tenant_ops_per_second: Annotated[Optional[float], POSITIVE] = None
    tenant_burst_ops: Annotated[Optional[float], POSITIVE] = None
    tenant_weights: Annotated[Optional[Dict[str, float]], POSITIVE] = None
    scan_limit_max: Annotated[int, at_least(1)] = 10_000
    trace_sampling: Annotated[Optional[float], UNIT_INTERVAL] = None
    trace_capacity: Annotated[int, at_least(1)] = 512
    slow_op_threshold_s: Annotated[Optional[float], NON_NEGATIVE] = 0.25
    slow_op_capacity: Annotated[int, at_least(1)] = 128
    stats_interval_s: Annotated[float, NON_NEGATIVE] = 1.0
    history_capacity: Annotated[int, at_least(1)] = 240
    dedup_capacity: Annotated[int, NON_NEGATIVE] = 4096
    overload_in_flight: Annotated[Optional[int], at_least(1)] = None
    brownout_in_flight: Annotated[Optional[int], at_least(1)] = None
    brownout_scan_limit: Annotated[int, at_least(1)] = 256
    shed_on_backpressure_stop: bool = True

    def validate(self) -> None:
        """Check every field, then the brownout/overload order; raises ConfigError."""
        check_fields(self)
        if (
            self.overload_in_flight is not None
            and self.brownout_in_flight is not None
            and self.brownout_in_flight > self.overload_in_flight
        ):
            raise ConfigError(
                "brownout_in_flight must not exceed overload_in_flight"
            )
