"""LSMServer: a threaded socket front end over the concurrent service layer.

One accept loop plus one handler thread per connection — the classic
thread-per-connection shape, which maps cleanly onto the engine's own
concurrency model: :class:`~repro.service.service.DBService` is thread-safe,
writes group-commit across connections, and every read runs against a
pinned :class:`~repro.core.version.Version` snapshot, so a compaction
installing mid-request never invalidates an in-flight lookup or scan.

QoS before the engine: each request is charged to its tenant's fair-share
token bucket (:class:`~repro.server.tenancy.FairShareAdmission`) *before*
it executes, on its own connection thread — a hot tenant queues in its own
bucket while everyone else's requests flow. Every stage is measured into a
:class:`~repro.observe.MetricsRegistry` (``server_*`` series), so the
Prometheus/JSON exporters show connections, in-flight requests, per-op
latency, and per-tenant throttling with no extra wiring.

Shutdown is a graceful drain: stop accepting, let every handler finish its
in-flight request, then close sockets — bounded by ``drain_timeout_s``.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from typing import Optional, Set, Tuple

from repro.common.entry import GetResult
from repro.errors import ConflictError, ReproError
from repro.observe import (
    EngineView,
    EventJournal,
    MetricsRegistry,
    SlowOpLog,
    TimeSeriesSampler,
    TraceRecorder,
    engine_section,
)
from repro.observe.tracing import TraceContext
from repro.server.config import ServerConfig
from repro.server.dedup import DedupTable
from repro.server.overload import STATE_OK, STATE_SHED, OverloadGuard
from repro.server.protocol import (
    REQUEST_TYPES,
    TIMED_OUT,
    ErrorResponse,
    FrameDecoder,
    GetResponse,
    Message,
    MultiGetResponse,
    OkResponse,
    PongResponse,
    ProtocolError,
    ScanResponse,
    StatsHistoryResponse,
    StatsResponse,
    encode_frame,
    send_message,
    set_kernel_timeout,
)
from repro.server.tenancy import FairShareAdmission, prefix_range, tenant_prefix


#: The negative sampling decision, activated around every untraced request so
#: the service and engine below inherit it instead of rolling their own dice.
_UNSAMPLED = TraceContext("", "", False)


class LSMServer:
    """Serves the framed protocol over TCP, fronting a DBService (or any
    backend with ``get``/``put``/``delete``/``multi_get``/``scan``).

    Args:
        service: the engine front door — typically a
            :class:`~repro.service.service.DBService`; a
            :class:`~repro.sharding.ShardedStore` works too (pair it with
            :func:`~repro.server.tenancy.tenant_boundaries` for a
            tree-per-tenant deployment).
        config: transport + tenancy knobs.
        registry: report ``server_*`` metrics here (a fresh registry by
            default; pass the service's registry for one merged export).
        close_service: also close the backend on :meth:`shutdown`.
        transport: optional socket wrapper (e.g.
            :class:`repro.chaos.FaultyTransport`) applied to every accepted
            connection — the server-side injection point for network chaos.
    """

    def __init__(
        self,
        service,
        config: Optional[ServerConfig] = None,
        registry: Optional[MetricsRegistry] = None,
        close_service: bool = False,
        transport=None,
    ) -> None:
        self.service = service
        self.config = config or ServerConfig()
        self.registry = registry if registry is not None else MetricsRegistry()
        self._close_service = close_service
        self.transport = transport
        self.admission: Optional[FairShareAdmission] = None
        if self.config.tenant_ops_per_second is not None:
            self.admission = FairShareAdmission(
                self.config.tenant_ops_per_second,
                burst_ops=self.config.tenant_burst_ops,
                weights=self.config.tenant_weights,
            )
        self._listener: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._handlers: Set[threading.Thread] = set()
        self._conn_sockets: Set[socket.socket] = set()
        self._lock = threading.Lock()
        # Request accounting, exported below as callback metrics: one lock
        # round trip per request edge instead of one per metric touched.
        self._load_lock = threading.Lock()
        self._requests = 0
        self._in_flight = 0
        self._stop = threading.Event()
        self._started_monotonic: Optional[float] = None
        self.address: Optional[tuple] = None

        # Observability: reuse the service's recorder/journal when it has
        # them (attach_observability wired one shared set) so engine spans
        # and server spans land in the same ring, and engine maintenance
        # events interleave with server-side tenant_throttle events.
        cfg = self.config
        recorder = getattr(service, "recorder", None)
        if recorder is None:
            recorder = TraceRecorder(capacity=cfg.trace_capacity)
        if cfg.trace_sampling is not None:
            recorder.sampling = cfg.trace_sampling
        self.recorder = recorder
        observer = getattr(service, "observer", None)
        self.journal = observer.journal if observer is not None else EventJournal()
        self.slow_ops: Optional[SlowOpLog] = None
        if cfg.slow_op_threshold_s is not None:
            self.slow_ops = SlowOpLog(
                threshold_s=cfg.slow_op_threshold_s,
                capacity=cfg.slow_op_capacity,
            )
        # The registry carries the backend's own counts next to server_*: one
        # metrics_snapshot() per scrape, whether or not the service is observed.
        if hasattr(service, "metrics_snapshot"):
            EngineView(self.registry, service)
        self.sampler = TimeSeriesSampler(self.registry, capacity=cfg.history_capacity)

        self.dedup: Optional[DedupTable] = (
            DedupTable(capacity=cfg.dedup_capacity)
            if cfg.dedup_capacity > 0
            else None
        )
        self.overload = OverloadGuard(
            brownout_in_flight=cfg.brownout_in_flight,
            overload_in_flight=cfg.overload_in_flight,
            brownout_scan_limit=cfg.brownout_scan_limit,
            shed_on_backpressure_stop=cfg.shed_on_backpressure_stop,
            journal=self.journal,
        )

        registry = self.registry
        self._connections_total = registry.counter(
            "server_connections_total", "client connections accepted"
        )
        self._connections_rejected = registry.counter(
            "server_connections_rejected_total",
            "connections refused at the max_connections cap",
        )
        registry.counter(
            "server_requests_total", "requests served (all types)"
        ).set_function(lambda: self._requests)
        self._protocol_errors = registry.counter(
            "server_protocol_errors_total",
            "malformed/corrupt frames received (connection dropped)",
        )
        self._request_errors = registry.counter(
            "server_request_errors_total",
            "requests answered with an error frame",
        )
        registry.gauge(
            "server_in_flight_requests", "requests currently executing"
        ).set_function(lambda: self._in_flight)
        registry.gauge(
            "server_connections_active", "currently open client connections"
        ).set_function(lambda: len(self._conn_sockets))
        registry.gauge(
            "server_uptime_seconds", "seconds since the server started"
        ).set_function(lambda: self.uptime_seconds)
        self._request_wall = {
            request.OP: registry.histogram(
                "server_request_wall_seconds",
                "server-side request latency (admission + engine + encode)",
                min_value=1e-6,
                labels={"op": request.OP},
            )
            for request in REQUEST_TYPES
        }
        self._admission_wait = registry.histogram(
            "server_admission_wait_seconds",
            "delay injected by fair-share admission",
            min_value=1e-6,
        )
        self._retries_total = registry.counter(
            "server_retries_total",
            "mutating requests recognized as client retries (idempotency token seen before)",
        )
        self._dedup_hits = registry.counter(
            "server_dedup_hits",
            "retried mutations answered from the dedup table without re-executing",
        )
        self._shed_total = registry.counter(
            "server_shed_total",
            "requests refused with an overloaded error (load shedding)",
        )

    # -- lifecycle ------------------------------------------------------------

    @property
    def uptime_seconds(self) -> float:
        if self._started_monotonic is None:
            return 0.0
        return time.monotonic() - self._started_monotonic

    def start(self) -> tuple:
        """Bind, listen, and start the accept loop. Returns ``(host, port)``."""
        if self._listener is not None:
            raise ReproError("server already started")
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.config.host, self.config.port))
        listener.listen(min(self.config.max_connections, 128))
        listener.settimeout(self.config.idle_poll_s)
        self._listener = listener
        self.address = listener.getsockname()
        self._started_monotonic = time.monotonic()
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="lsm-server-accept", daemon=True
        )
        self._accept_thread.start()
        if self.config.stats_interval_s > 0:
            self.sampler.scrape()  # point zero, so history is never empty
            self.sampler.start(self.config.stats_interval_s)
        return self.address

    def shutdown(self, drain_timeout_s: Optional[float] = None) -> None:
        """Graceful drain: stop accepting, finish in-flight work, close.

        Connections idle between requests close immediately; a handler
        mid-request gets until the drain budget expires, after which its
        socket is force-closed (the client sees a reset, never a half
        response — frames are written with one ``sendall``).
        """
        if self._stop.is_set():
            return
        self._stop.set()
        self.sampler.stop()
        budget = (
            drain_timeout_s
            if drain_timeout_s is not None
            else self.config.drain_timeout_s
        )
        deadline = time.monotonic() + budget
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=budget)
        with self._lock:
            handlers = list(self._handlers)
        for handler in handlers:
            handler.join(timeout=max(0.0, deadline - time.monotonic()))
        with self._lock:
            stragglers = list(self._conn_sockets)
        for sock in stragglers:
            try:
                sock.close()
            except OSError:
                pass
        for handler in handlers:
            handler.join(timeout=1.0)
        if self._close_service:
            self.service.close()

    def __enter__(self) -> "LSMServer":
        if self._listener is None:
            self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    # -- accept / connection loops -------------------------------------------

    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            try:
                conn, addr = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return  # listener closed by shutdown()
            try:  # request/reply frames are small: never wait to coalesce them
                conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except OSError:
                pass
            if self.transport is not None:
                conn = self.transport.wrap(conn)
            if self._stop.is_set():
                self._refuse(conn, "shutting_down", "server is draining")
                continue
            with self._lock:
                if len(self._conn_sockets) >= self.config.max_connections:
                    admit = False
                else:
                    admit = True
                    self._conn_sockets.add(conn)
            if not admit:
                self._connections_rejected.inc()
                self._refuse(conn, "busy", "connection limit reached")
                continue
            self._connections_total.inc()
            handler = threading.Thread(
                target=self._handle_connection,
                args=(conn, addr),
                name=f"lsm-server-conn-{addr[1]}",
                daemon=True,
            )
            with self._lock:
                self._handlers.add(handler)
            handler.start()

    def _refuse(self, conn: socket.socket, code: str, message: str) -> None:
        try:
            send_message(conn, ErrorResponse(code=code, message=message))
        except OSError:
            pass
        finally:
            try:
                conn.close()
            except OSError:
                pass

    def _handle_connection(self, conn: socket.socket, addr) -> None:
        decoder = FrameDecoder(max_payload=self.config.max_payload_bytes)
        # Blocking reads that wake every idle_poll_s to check for shutdown.
        set_kernel_timeout(conn, self.config.idle_poll_s)
        # Frame-decode CPU time accumulates here and is attributed to the
        # next request served — the "wire_decode" stage of its breakdown.
        decode_s = 0.0
        try:
            while True:
                request = decoder.next_message()
                if request is not None:
                    self._serve_request(conn, request, wire_decode_s=decode_s)
                    decode_s = 0.0
                    continue
                if self._stop.is_set():
                    # Drained: nothing buffered, nothing in flight. One last
                    # short read so a request racing the shutdown gets an
                    # explicit shutting_down refusal instead of a silent
                    # close (its client would otherwise only see a
                    # ConnectionLostError).
                    try:
                        chunk = conn.recv(self.config.recv_bytes)
                        if chunk:
                            decoder.feed(chunk)
                    except (ProtocolError, OSError):
                        return
                    if decoder.next_message() is not None:
                        self._try_send(
                            conn,
                            ErrorResponse(
                                code="shutting_down",
                                message="server is draining",
                            ),
                        )
                    return
                try:
                    chunk = conn.recv(self.config.recv_bytes)
                except TIMED_OUT:
                    continue
                except OSError:
                    return
                if not chunk:
                    if decoder.pending_bytes:
                        self._protocol_errors.inc()
                    return
                feed0 = time.perf_counter()
                try:
                    decoder.feed(chunk)
                    decode_s += time.perf_counter() - feed0
                except ProtocolError as exc:
                    self._protocol_errors.inc()
                    self._try_send(
                        conn, ErrorResponse(code="bad_frame", message=str(exc))
                    )
                    return  # the stream is unsynchronized; drop it
        finally:
            with self._lock:
                self._conn_sockets.discard(conn)
                self._handlers.discard(threading.current_thread())
            try:
                conn.close()
            except OSError:
                pass

    def _try_send(self, conn: socket.socket, message: Message) -> None:
        try:
            send_message(conn, message)
        except OSError:
            pass

    # -- request dispatch ------------------------------------------------------

    def _serve_request(
        self, conn: socket.socket, request: Message, wire_decode_s: float = 0.0
    ) -> None:
        op = request.OP  # None for a response class: not something a client may send
        if op is None:
            self._protocol_errors.inc()
            self._try_send(
                conn,
                ErrorResponse(
                    code="bad_request",
                    message=f"unexpected message {type(request).__name__}",
                ),
            )
            return
        wall0 = time.perf_counter()
        with self._load_lock:
            self._requests += 1
            self._in_flight += 1
            in_flight = self._in_flight
        # Classify load *after* this request is counted: at the brink,
        # the request that crosses the threshold is the one shed.
        load_state = self.overload.state(in_flight)
        recorder = self.recorder
        ctx = request.trace  # every request type carries the block
        span = None
        if ctx is not None:
            if ctx.sampled:  # the client decided, positively or negatively
                span = recorder.start(f"server:{op}", parent=ctx)
        elif not self.overload.suppress_tracing(load_state) and recorder.should_sample():
            # No client context — this request's outermost span is here, so
            # the server makes the root sampling decision, once. Brownout
            # sheds optional work first: no new root samples.
            span = recorder.start(f"server:{op}")
        # Activate the decision — positive or negative — so every
        # maybe_start() below (service, engine) inherits it rather than
        # rolling its own dice mid-request.
        token = recorder.activate(span.context() if span is not None else _UNSAMPLED)
        admitted: dict = {}  # fair-share admission: the one stage timed below this frame
        try:
            response = self._execute(op, request, admitted, load_state)
        except ProtocolError as exc:
            self._request_errors.inc()
            response = ErrorResponse(code="bad_request", message=str(exc))
        except ConflictError as exc:
            # An expected optimistic-concurrency outcome, not a server
            # failure: counted separately, excluded from request_errors.
            self.registry.counter(
                "server_txn_conflicts_total",
                "transaction commits rejected by read-set validation",
            ).inc()
            response = ErrorResponse(code="conflict", message=str(exc))
        except ReproError as exc:
            self._request_errors.inc()
            response = ErrorResponse(
                code="engine", message=f"{type(exc).__name__}: {exc}"
            )
        except Exception as exc:  # noqa: BLE001 - a handler must not die
            self._request_errors.inc()
            response = ErrorResponse(
                code="internal", message=f"{type(exc).__name__}: {exc}"
            )
        finally:
            with self._load_lock:
                self._in_flight -= 1
            recorder.deactivate(token)
        executed = time.perf_counter()
        frame = encode_frame(response)
        encoded = time.perf_counter()
        total = (encoded - wall0) + wire_decode_s
        self._request_wall[op].record(total)
        # Close the books *before* the reply hits the wire, so a client that
        # reads its response is guaranteed to find the full span/slow-op
        # record already published (no racing with the handler thread).
        slow_ops = self.slow_ops
        if span is not None or (slow_ops is not None and total >= slow_ops.threshold_s):
            # Only a request somebody will look at pays for its breakdown.
            stages = {"wire_decode": wire_decode_s} if wire_decode_s > 0.0 else {}
            stages.update(admitted)
            stages["engine"] = max(
                0.0, (executed - wall0) - admitted.get("admission", 0.0)
            )
            stages["reply_encode"] = encoded - executed
            tenant = getattr(request, "tenant", "") or self.config.default_tenant
            attrs = {"tenant": tenant}
            if span is not None:
                for name, duration in stages.items():
                    span.add_stage(name, duration)
                recorder.finish(
                    span, op=op, tenant=tenant,
                    error=isinstance(response, ErrorResponse),
                )
                attrs["trace_id"] = span.trace_id
            if slow_ops is not None:
                slow_ops.observe(op, total, stages, **attrs)
        elif slow_ops is not None:
            slow_ops.observe(op, total)  # counted; below the threshold nothing is kept
        try:
            conn.sendall(frame)
        except OSError:
            pass

    def _resolve_tenant(self, request: Message) -> Tuple[str, bytes]:
        """The request's tenant and its key prefix (every key below is
        ``prefix + key``); ``tenant_prefix`` validates an id once."""
        tenant = request.tenant or self.config.default_tenant
        return tenant, tenant_prefix(tenant)

    def _admit(self, tenant: str, cost: int, stages: Optional[dict] = None) -> None:
        if self.admission is None:
            return
        waited = self.admission.admit(tenant, cost)
        if stages is not None:
            stages["admission"] = stages.get("admission", 0.0) + waited
        self.registry.counter(
            "server_tenant_ops_total",
            "operations admitted per tenant",
            labels={"tenant": tenant},
        ).inc(cost)
        if waited > 0:
            self._admission_wait.record(waited)
            self.registry.counter(
                "server_tenant_throttle_waits_total",
                "admission waits per tenant (fair-share throttling engaged)",
                labels={"tenant": tenant},
            ).inc()
            self.journal.emit(
                "tenant_throttle", tenant=tenant, waited_s=waited, cost=cost
            )

    #: Ops served even while shedding: an operator must be able to see why.
    _ALWAYS_SERVED = frozenset({"ping", "stats", "stats_history"})

    def _execute(
        self, op: str, request: Message, stages: dict, load_state: str = STATE_OK
    ) -> Message:
        tenant, prefix = self._resolve_tenant(request)
        if op not in self._ALWAYS_SERVED:
            if load_state == STATE_SHED:
                self._shed_total.inc()
                self.overload.record_shed(op, tenant, "in_flight")
                return ErrorResponse(
                    code="overloaded",
                    message="server is shedding load; retry with backoff",
                )
            if (
                request.MUTATING  # reads are still served while writes are stopped
                and self.overload.shed_on_backpressure_stop
                and self._backpressure_stopped()
            ):
                self._shed_total.inc()
                self.overload.record_shed(op, tenant, "backpressure_stop")
                return ErrorResponse(
                    code="overloaded",
                    message="engine backpressure is in stop; retry with backoff",
                )
        # Only mutating requests carry the field (Message.MUTATING ⇔ IDEM block).
        idem = getattr(request, "idem", None)
        if idem is None or self.dedup is None:
            return self._execute_op(op, request, tenant, prefix, stages, load_state)
        # Exactly-once: admit, replay, or park behind an in-flight original.
        client_id, idem_token = idem
        key = (tenant, client_id, idem_token)
        if self.dedup.is_retry(key):
            self._retries_total.inc()
            self.journal.emit(
                "client_retry", op=op, tenant=tenant,
                client_id=client_id, token=idem_token,
            )
        decision, cached = self.dedup.begin(key)
        if decision == "replay":
            self._dedup_hits.inc()
            self.journal.emit(
                "dedup_hit", op=op, tenant=tenant,
                client_id=client_id, token=idem_token,
            )
            return cached
        if decision == "busy":
            # The original execution outlived the wait budget; answering
            # retryable is safer than risking a second application.
            return ErrorResponse(
                code="overloaded",
                message="duplicate request still executing; retry",
            )
        response: Optional[Message] = None
        try:
            response = self._execute_op(op, request, tenant, prefix, stages, load_state)
            return response
        finally:
            # Only a success is cached for replay: an error frame means the
            # op was not applied, so a retry must execute for real.
            applied = response if isinstance(response, OkResponse) else None
            self.dedup.finish(key, applied)

    def _backpressure_stopped(self) -> bool:
        controller = getattr(self.service, "backpressure", None)
        if controller is None:
            return False
        try:
            return controller.state() == "stop"
        except Exception:  # noqa: BLE001 - shedding must never break serving
            return False

    def _execute_op(
        self, op: str, request: Message, tenant: str, prefix: bytes,
        stages: dict, load_state: str = STATE_OK,
    ) -> Message:
        service = self.service
        if op == "get":
            self._admit(tenant, 1, stages)
            result = service.get(prefix + request.key)
            return GetResponse._CODEC.build(result.found, result.value or b"", result.seqno)
        if op == "ping":
            info = service.ping() if hasattr(service, "ping") else {}
            return PongResponse(
                server_uptime_s=self.uptime_seconds,
                engine_uptime_s=info.get("engine_uptime_seconds", 0.0),
            )
        if op == "stats":
            return StatsResponse(payload_json=json.dumps(self.stats_snapshot()))
        if op == "stats_history":
            self.sampler.scrape()  # serve a fresh tail even between intervals
            payload = self.sampler.as_dict(last_n=request.last_n or None)
            return StatsHistoryResponse(payload_json=json.dumps(payload))
        if op == "put":
            self._admit(tenant, 1, stages)
            service.put(
                prefix + request.key, request.value,
                ttl=request.ttl,
            )
            return OkResponse._CODEC.build(1)
        if op == "merge":
            self._admit(tenant, 1, stages)
            service.merge(
                prefix + request.key, request.operand,
                operator=request.operator,
            )
            return OkResponse._CODEC.build(1)
        if op == "delete":
            self._admit(tenant, 1, stages)
            service.delete(prefix + request.key)
            return OkResponse._CODEC.build(1)
        if op == "multi_get":
            self._admit(tenant, len(request.keys), stages)
            stored = [prefix + key for key in request.keys]
            results = service.multi_get(stored)
            entries = []
            for user_key, stored_key in zip(request.keys, stored):
                result = results.get(stored_key, GetResult())
                entries.append((user_key, result.found, result.value or b""))
            return MultiGetResponse(entries=tuple(entries))
        if op == "scan":
            self._admit(tenant, 1, stages)
            limit = min(max(1, request.limit), self.config.scan_limit_max)
            limit = self.overload.clamp_scan_limit(limit, load_state)
            lo, hi = prefix_range(prefix, request.start, request.end)
            cut = len(prefix)  # every key in the range carries it
            items = []
            truncated = False
            for stored_key, value in service.scan(lo, hi):
                if len(items) >= limit:
                    truncated = True
                    break
                items.append((stored_key[cut:], value))
            return ScanResponse(items=tuple(items), truncated=truncated)
        if op == "batch":
            self._admit(tenant, len(request.ops), stages)
            service.write(self._namespace_ops(prefix, request.ops))
            return OkResponse(count=len(request.ops))
        if op == "txn_commit":
            self._admit(tenant, max(1, len(request.ops)), stages)
            read_set = {
                prefix + key: seqno for key, seqno in request.read_set
            }
            count = service.commit_transaction(
                read_set, self._namespace_ops(prefix, request.ops)
            )
            return OkResponse(count=count)
        raise ProtocolError(f"unhandled op {op!r}")  # pragma: no cover

    @staticmethod
    def _namespace_ops(prefix: bytes, ops) -> list:
        """Rewrite wire op keys into the tenant's namespace."""
        return [(kind, prefix + key, value, extra) for kind, key, value, extra in ops]

    # -- stats -----------------------------------------------------------------

    def stats_snapshot(self) -> dict:
        """Everything the ``stats`` frame reports, as one JSON-able dict."""
        service = self.service
        payload = {
            "server": {
                "address": list(self.address) if self.address else None,
                "uptime_seconds": self.uptime_seconds,
                "draining": self._stop.is_set(),
                "connections_active": len(self._conn_sockets),
            },
            "metrics": self.registry.snapshot(),
        }
        if hasattr(service, "ping"):
            payload["health"] = service.ping()
        if hasattr(service, "metrics_snapshot"):
            payload["engine"] = engine_section(payload["metrics"])
        if self.admission is not None:
            payload["tenants"] = self.admission.snapshot()
        payload["journal"] = {
            "capacity": self.journal.capacity,
            "emitted": self.journal.emitted,
            "evicted": self.journal.evicted,
            "counts": self.journal.counts_by_kind(),
            "recent": [e.as_dict() for e in self.journal.events(20)],
        }
        payload["traces"] = {
            "sampling": self.recorder.sampling,
            "sampled": self.recorder.sampled,
            "retained": len(self.recorder),
        }
        if self.slow_ops is not None:
            payload["slow_ops"] = self.slow_ops.snapshot()
        if self.dedup is not None:
            payload["dedup"] = self.dedup.stats()
        payload["overload"] = self.overload.stats()
        payload["history"] = {
            "samples": self.sampler.samples,
            "series": len(self.sampler.names()),
        }
        return payload
