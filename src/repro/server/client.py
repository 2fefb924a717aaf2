"""LSMClient: a blocking, fault-tolerant client for the framed protocol.

One socket, one request in flight at a time (responses carry no ids; the
protocol is strictly request/response per connection — open more clients
for parallelism, which is exactly what the load generator does). The
client mirrors the :class:`~repro.service.service.DBService` surface so
code can swap an in-process handle for a network one.

Failure handling is layered:

* Every transport failure under a request — reset, half-close, a frame cut
  short, a socket timeout, a short-read decode error — surfaces as one
  typed :class:`~repro.errors.ConnectionLostError`, and the connection is
  dropped (a desynchronized request/response stream must never be reused).
* With a :class:`RetryPolicy`, the client retries transport losses and
  explicitly-retryable server refusals (``overloaded``/``busy``/
  ``shutting_down``) with capped exponential backoff + jitter, reconnecting
  as needed, all under one per-request deadline. When the budget runs out
  it raises :class:`~repro.errors.DeadlineExceededError` rather than
  sleeping past the deadline.
* Mutating requests (put/delete/merge/batch/txn-commit) carry an
  idempotency pair ``(client_id, token)``; the server's dedup table replays
  the original reply for a retried token instead of re-executing, so a
  retry after an ambiguous loss ("did my write land before the connection
  died?") is applied at most once.

Pass a :class:`~repro.observe.MetricsRegistry` to record client-observed
latency — the full round trip including admission delay and every retry,
which is the number a tenant actually experiences — into
``client_op_wall_seconds`` histograms labelled by op and tenant, plus
``client_retries_total`` / ``client_reconnects_total`` counters.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import os
import random
import socket
import time
from dataclasses import dataclass
from typing import Annotated, Dict, List, Optional, Sequence, Tuple

from repro.common.config_base import (
    NON_NEGATIVE, POSITIVE, UNIT_INTERVAL, at_least, kwonly_dataclass,
)
from repro.common.entry import GetResult
from repro.errors import (
    ConflictError,
    ConnectionLostError,
    DeadlineExceededError,
    ReproError,
)
from repro.observe import TraceRecorder
from repro.server.protocol import (
    TIMED_OUT,
    BatchRequest,
    DeleteRequest,
    ErrorResponse,
    FrameDecoder,
    GetRequest,
    GetResponse,
    MergeRequest,
    Message,
    MultiGetRequest,
    MultiGetResponse,
    OkResponse,
    PingRequest,
    PongResponse,
    ProtocolError,
    PutRequest,
    RemoteError,
    ScanRequest,
    ScanResponse,
    StatsHistoryRequest,
    StatsHistoryResponse,
    StatsRequest,
    StatsResponse,
    TxnCommitRequest,
    encode_frame,
    recv_message,
    set_kernel_timeout,
)

#: Error codes the server sends when retrying (after backoff) is the right
#: response: the request was refused *before* execution, nothing was applied.
RETRYABLE_CODES = ("overloaded", "busy", "shutting_down", "throttled")


@kwonly_dataclass
@dataclass(frozen=True)
class RetryPolicy:
    """How hard an :class:`LSMClient` fights for each request (keyword-only;
    each field's bound is declared with it, so a NaN, a fraction of an
    attempt or a wrong type is a :class:`~repro.errors.ConfigError`).

    Attributes:
        max_attempts: total tries per operation (1 = no retries).
        backoff_base_s: first retry delay; attempt ``k`` waits up to
            ``min(backoff_cap_s, backoff_base_s * 2**k)``.
        backoff_cap_s: ceiling on a single backoff sleep. This is also the
            worst-case overshoot past the deadline a caller can observe:
            the client never *sleeps* past the deadline, but the attempt in
            flight when it expires is bounded by the per-attempt timeout.
        jitter: fraction of each sleep randomized away (0 = deterministic
            full backoff, 1 = anywhere in ``(0, step]``). Jitter only ever
            *shortens* the sleep, keeping the deadline arithmetic honest.
        deadline_s: per-operation wall budget across all attempts, sleeps
            included. Exhausting it raises
            :class:`~repro.errors.DeadlineExceededError`.
        retry_codes: server refusal codes worth retrying (refused before
            execution). ``conflict`` is deliberately not here: it reports
            a *validation outcome* the caller must handle.
        reconnect: re-dial after a lost connection (off = a lost
            connection fails all remaining attempts).
        seed: seeds the jitter RNG for reproducible schedules (chaos
            harness); None draws from the process RNG.
    """

    max_attempts: Annotated[int, at_least(1)] = 4
    backoff_base_s: Annotated[float, NON_NEGATIVE] = 0.02
    backoff_cap_s: Annotated[float, NON_NEGATIVE] = 0.5
    jitter: Annotated[float, UNIT_INTERVAL] = 0.5
    deadline_s: Annotated[float, POSITIVE] = 5.0
    retry_codes: Sequence[str] = RETRYABLE_CODES
    reconnect: bool = True
    seed: Optional[int] = None

    def backoff_s(self, attempt: int, rng: random.Random) -> float:
        """Sleep before retry number ``attempt`` (1-based)."""
        step = min(self.backoff_cap_s, self.backoff_base_s * (2 ** (attempt - 1)))
        return step * (1.0 - self.jitter * rng.random())


class LSMClient:
    """A blocking connection to an :class:`~repro.server.server.LSMServer`.

    Args:
        host, port: the server's address (from ``server.address``).
        tenant: namespace every request is issued under.
        timeout_s: socket timeout for connect/send/recv (per attempt; a
            retry policy further clamps it to the remaining deadline).
        registry: optional metrics registry for client-observed latency.
        max_payload_bytes: frame decode limit (mirror the server's).
        trace_sampling: fraction of requests to trace end to end. A sampled
            request opens a ``client:<op>`` root span and sends its context
            on the wire, so the server's and engine's spans join it under
            one trace id.
        trace_recorder: record spans here instead of a private recorder
            (share one across clients to read the whole fleet's traces).
        retry: a :class:`RetryPolicy`; None keeps the zero-retry behavior
            (one attempt, typed errors, no idempotency tokens).
        client_id: stable identity for idempotency keys; defaults to a
            random id per client object. Reuse one id across reconnects of
            the same logical client — never across concurrent clients.
        transport: optional socket wrapper (e.g.
            :class:`repro.chaos.FaultyTransport`) applied to every dialed
            connection — the client-side injection point for network chaos.
    """

    def __init__(
        self,
        host: str,
        port: int,
        tenant: str = "",
        timeout_s: float = 10.0,
        registry=None,
        max_payload_bytes: Optional[int] = None,
        trace_sampling: float = 0.0,
        trace_recorder: Optional[TraceRecorder] = None,
        retry: Optional[RetryPolicy] = None,
        client_id: Optional[str] = None,
        transport=None,
    ) -> None:
        # Every attribute is set before the first connect so close() (and
        # __exit__ after a failed construction) can never AttributeError.
        self.tenant = tenant
        self.host = host
        self.port = port
        self.timeout_s = timeout_s
        self.retry = retry
        self.transport = transport
        self.client_id = client_id or os.urandom(8).hex()
        self._token_counter = itertools.count(1)
        self._max_payload_bytes = max_payload_bytes
        self._registry = registry
        self._rng = random.Random(retry.seed if retry is not None else None)
        self._sock: Optional[socket.socket] = None
        #: The per-call limit the live socket has, so an attempt sets it only
        #: when it changes (a retry deadline clamps it); each connect resets it.
        self._sock_timeout: Optional[float] = None
        self._decoder: Optional[FrameDecoder] = None
        self._closed = False
        self.stats_retries = 0
        self.stats_reconnects = 0
        self.stats_attempts = 0
        self.recorder = trace_recorder
        if self.recorder is None and trace_sampling > 0.0:
            self.recorder = TraceRecorder(sampling=trace_sampling)
        elif self.recorder is not None and trace_sampling > 0.0:
            self.recorder.sampling = trace_sampling
        self._connect()

    # -- connection plumbing ---------------------------------------------------

    def _connect(self) -> None:
        sock = socket.create_connection((self.host, self.port), timeout=self.timeout_s)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        set_kernel_timeout(sock, self.timeout_s)
        if self.transport is not None:
            sock = self.transport.wrap(sock)
        kwargs = {}
        if self._max_payload_bytes is not None:
            kwargs["max_payload"] = self._max_payload_bytes
        # A fresh decoder per connection: buffered bytes from a dead
        # connection must never leak into the new stream.
        self._decoder = FrameDecoder(**kwargs)
        self._sock = sock
        self._sock_timeout = self.timeout_s

    def _drop_connection(self) -> None:
        sock, self._sock, self._decoder = self._sock, None, None
        if sock is not None:
            try:
                sock.close()
            except OSError:
                pass

    def disconnect(self) -> None:
        """Drop the current connection without closing the client.

        The next call re-dials automatically (when a retry policy with
        ``reconnect`` is set, any call does; otherwise the reconnect
        happens eagerly inside the next ``_attempt``). Chaos harnesses use
        this to force a clean re-dial after a fault cycle."""
        self._drop_connection()

    def _counter(self, name: str, help_text: str):
        if self._registry is None:
            return None
        return self._registry.counter(name, help_text)

    # -- request plumbing ------------------------------------------------------

    def _call(self, request: Message, expect: type) -> Message:
        if self._closed:
            raise ReproError("operation on a closed LSMClient")
        op = request.OP
        policy = self.retry
        if policy is not None and request.MUTATING:
            # One token for the whole operation: every retry re-sends the
            # same pair, which is what lets the server dedup them.
            request = dataclasses.replace(
                request, idem=(self.client_id, next(self._token_counter))
            )
        recorder = self.recorder
        span = None
        if recorder is not None and recorder.should_sample():
            # The client is the outermost span: its root decision rides the
            # wire inside the request, and the server span it spawns links
            # back here via parent_id.
            span = recorder.start(f"client:{op}")
            request = dataclasses.replace(request, trace=span.context())
        if policy is None:
            deadline, max_attempts = None, 1
        else:
            deadline, max_attempts = time.monotonic() + policy.deadline_s, policy.max_attempts
        wall0 = time.perf_counter()
        attempts = 0
        last_error: Optional[Exception] = None
        try:
            while True:
                attempts += 1
                self.stats_attempts += 1
                try:
                    response = self._attempt(request, deadline, span)
                except ConnectionLostError as exc:
                    last_error = exc
                    if (
                        policy is None
                        or not policy.reconnect
                        or attempts >= max_attempts
                    ):
                        raise
                else:
                    if isinstance(response, expect):
                        return response
                    if isinstance(response, ErrorResponse):
                        if response.code == "conflict":
                            # Surface optimistic-concurrency losses as the
                            # same typed error every in-process handle
                            # raises, so retry loops are transport-agnostic.
                            raise ConflictError(response.message)
                        remote = RemoteError(response.code, response.message)
                        if (
                            policy is None
                            or response.code not in policy.retry_codes
                            or attempts >= max_attempts
                        ):
                            raise remote
                        last_error = remote
                    else:
                        raise ProtocolError(
                            f"expected {expect.__name__}, "
                            f"got {type(response).__name__}"
                        )
                # A retry is due: back off (never past the deadline).
                self.stats_retries += 1
                counter = self._counter(
                    "client_retries_total", "client-side retried attempts"
                )
                if counter is not None:
                    counter.inc()
                sleep_s = policy.backoff_s(attempts, self._rng)
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise DeadlineExceededError(
                        f"{op} deadline exhausted after {attempts} attempt(s)"
                    ) from last_error
                if sleep_s > 0:
                    time.sleep(min(sleep_s, remaining))
        finally:
            registry = self._registry
            if registry is not None:
                total = time.perf_counter() - wall0
            if span is not None:
                recorder.finish(span, op=op, tenant=self.tenant or "default")
            if registry is not None:
                registry.histogram(
                    "client_op_wall_seconds",
                    "client-observed round-trip latency (includes retries)",
                    min_value=1e-6,
                    labels={"op": op, "tenant": self.tenant or "default"},
                ).record(total)

    def _attempt(
        self, request: Message, deadline: Optional[float], span=None
    ) -> Message:
        """One send/recv round trip; every transport symptom becomes a
        :class:`ConnectionLostError` and drops the connection."""
        if self._sock is None:
            if deadline is not None and time.monotonic() >= deadline:
                raise DeadlineExceededError("deadline exhausted before reconnect")
            try:
                self._connect()
            except OSError as exc:
                raise ConnectionLostError(f"reconnect failed: {exc}") from None
            self.stats_reconnects += 1
            counter = self._counter(
                "client_reconnects_total", "connections re-dialed after a loss"
            )
            if counter is not None:
                counter.inc()
        timeout = self.timeout_s
        if deadline is not None:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise DeadlineExceededError("deadline exhausted before send")
            timeout = min(timeout, remaining)
        sock, decoder = self._sock, self._decoder
        try:
            if timeout != self._sock_timeout:
                set_kernel_timeout(sock, timeout)
                self._sock_timeout = timeout
            send0 = time.perf_counter()
            sock.sendall(encode_frame(request))
            sent = time.perf_counter()
            if span is not None:
                span.add_stage("send", sent - send0)
            response = recv_message(sock, decoder)
            if span is not None:
                span.add_stage("await_reply", time.perf_counter() - sent)
        except TIMED_OUT:
            # The reply may still arrive later and desynchronize the
            # request/response pairing — the connection is unusable.
            self._drop_connection()
            raise ConnectionLostError("request timed out awaiting reply") from None
        except ProtocolError as exc:
            self._drop_connection()
            raise ConnectionLostError(f"reply stream corrupted: {exc}") from None
        except OSError as exc:
            self._drop_connection()
            raise ConnectionLostError(f"connection failed: {exc}") from None
        if response is None:
            self._drop_connection()
            raise ConnectionLostError("server closed the connection")
        if decoder.next_message() is not None:
            # A stray extra frame (e.g. duplicated delivery) would pair the
            # wrong reply with the next request on this strictly
            # request/response stream. The reply in hand is still the right
            # one for *this* request; the connection is not reusable.
            self._drop_connection()
        return response

    # -- the API ---------------------------------------------------------------

    def ping(self) -> dict:
        """Liveness: server and engine uptime, as reported by the server."""
        pong = self._call(PingRequest(tenant=self.tenant), PongResponse)
        return {
            "ok": True,
            "server_uptime_seconds": pong.server_uptime_s,
            "engine_uptime_seconds": pong.engine_uptime_s,
        }

    def stats(self) -> dict:
        """The server's full stats snapshot (parsed JSON)."""
        reply = self._call(StatsRequest(tenant=self.tenant), StatsResponse)
        return json.loads(reply.payload_json)

    def stats_history(self, last_n: int = 0) -> dict:
        """The server's time-series history (parsed JSON).

        ``last_n`` limits each series to its newest ``n`` points; 0 returns
        everything the server retains. The shape is
        ``{"samples", "capacity", "series": {name: {kind, t, v, ...}}}``.
        """
        reply = self._call(
            StatsHistoryRequest(tenant=self.tenant, last_n=last_n),
            StatsHistoryResponse,
        )
        return json.loads(reply.payload_json)

    def get(self, key: bytes) -> GetResult:
        reply = self._call(GetRequest._CODEC.build(self.tenant, key), GetResponse)
        result = GetResult()
        result.seqno = reply.seqno
        if reply.found:
            result.found = True
            result.value = reply.value
        return result

    def put(self, key: bytes, value: bytes, ttl: Optional[float] = None) -> None:
        self._call(PutRequest(tenant=self.tenant, key=key, value=value, ttl=ttl), OkResponse)

    def merge(self, key: bytes, operand: bytes, operator: str = "counter") -> None:
        """Queue a merge operand for a server-registered operator."""
        self._call(
            MergeRequest(
                tenant=self.tenant, key=key, operand=operand, operator=operator
            ),
            OkResponse,
        )

    def delete(self, key: bytes) -> None:
        self._call(DeleteRequest(tenant=self.tenant, key=key), OkResponse)

    def multi_get(self, keys: Sequence[bytes]) -> Dict[bytes, GetResult]:
        """Batched lookup over the distinct keys, in sorted key order (the
        request is normalized client-side so every handle agrees)."""
        reply = self._call(
            MultiGetRequest(tenant=self.tenant, keys=tuple(sorted(set(keys)))),
            MultiGetResponse,
        )
        out: Dict[bytes, GetResult] = {}
        for key, found, value in reply.entries:
            result = GetResult()
            if found:
                result.found = True
                result.value = value
            out[key] = result
        return out

    def scan(
        self,
        start: Optional[bytes] = None,
        end: Optional[bytes] = None,
        limit: int = 1000,
    ) -> List[Tuple[bytes, bytes]]:
        """Up to ``limit`` (key, value) pairs from the inclusive range.

        Use :attr:`last_scan_truncated` to detect a limit-cut range (and
        re-issue from past the last key to page through).
        """
        reply = self._call(
            ScanRequest(tenant=self.tenant, start=start, end=end, limit=limit),
            ScanResponse,
        )
        self.last_scan_truncated = reply.truncated
        return list(reply.items)

    def batch(self, ops: Sequence[tuple]) -> int:
        """Apply ``(kind, key, value[, extra])`` writes atomically in order
        (one group-commit WAL frame server-side); returns the count."""
        reply = self._call(BatchRequest(tenant=self.tenant, ops=tuple(ops)), OkResponse)
        return reply.count

    def write(self, batch) -> None:
        """Apply a :class:`repro.txn.WriteBatch` (or op-tuple iterable)
        atomically — the KVStore-surface spelling of :meth:`batch`."""
        ops = list(batch)
        if ops:
            self.batch(ops)

    def commit_transaction(self, read_set: Dict[bytes, int], ops) -> int:
        """Commit an optimistic transaction over the wire.

        ``read_set`` maps keys to the ``GetResult.seqno`` fingerprints this
        client observed. Raises :class:`~repro.errors.ConflictError` when
        server-side validation fails (nothing applied).
        """
        reply = self._call(
            TxnCommitRequest(
                tenant=self.tenant,
                read_set=tuple(dict(read_set).items()),
                ops=tuple(ops),
            ),
            OkResponse,
        )
        return reply.count

    def snapshot(self):
        """Not supported over the wire.

        A snapshot pins server-side state; the stateless request/response
        protocol has no snapshot leases. Remote transactions therefore run
        with ``snapshot_reads=False`` (see :meth:`transaction`).
        """
        raise NotImplementedError(
            "LSMClient cannot pin a server-side snapshot; use transaction() "
            "(live reads + commit validation) or an in-process handle"
        )

    def transaction(self) -> "Transaction":
        """Begin an optimistic transaction over this connection.

        Remote transactions read *live committed state* rather than a pinned
        snapshot (``snapshot_reads=False``): each read records the
        server-reported seqno, so commit validation still catches every
        concurrent writer, but two reads inside one transaction may observe
        different commit points — weaker than the snapshot isolation the
        in-process handles provide.
        """
        from repro.txn import Transaction

        return Transaction(self, snapshot_reads=False)

    # -- lifecycle -------------------------------------------------------------

    def retry_stats(self) -> Dict[str, int]:
        """Cumulative attempt/retry/reconnect counts for this client."""
        return {
            "attempts": self.stats_attempts,
            "retries": self.stats_retries,
            "reconnects": self.stats_reconnects,
        }

    def close(self) -> None:
        """Idempotent: safe to call twice, from ``__exit__`` after an error,
        and even when construction failed before the socket existed."""
        if self._closed:
            return
        self._closed = True
        self._drop_connection()

    def __enter__(self) -> "LSMClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
