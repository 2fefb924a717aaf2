"""A closed-loop, multi-client, multi-tenant load generator.

Extends the :mod:`repro.bench.harness` skeleton across the wire: each
tenant gets N client threads, each with its own TCP connection, driving an
operation stream from a :class:`~repro.workloads.spec.WorkloadSpec` (the
same YCSB-flavoured specs the in-process benchmarks use). Clients are
*closed-loop* — the next operation issues only after the previous response
lands — optionally paced to a target rate, so a tenant's offered load is a
real, bounded quantity rather than an unbounded queue.

Client-observed latency (the full round trip, admission delay included)
flows into ``client_op_wall_seconds`` histograms in a shared
:class:`~repro.observe.MetricsRegistry`, labelled by tenant — the numbers
the E23 isolation benchmark compares.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.observe import MetricsRegistry, TraceRecorder
from repro.server.client import LSMClient
from repro.server.protocol import ProtocolError, RemoteError
from repro.workloads.spec import OperationMix, WorkloadSpec, uniform_spec


@dataclass
class TenantLoad:
    """One tenant's offered load.

    Attributes:
        tenant: tenant id (namespace) the clients issue requests under.
        clients: concurrent connections (threads) for this tenant.
        ops_per_client: operations each client issues.
        target_ops_per_second: tenant-wide pacing target split evenly
            across clients; None runs each client flat-out (closed loop
            still bounds it at one in-flight request per connection).
        mix: operation mix (put/get/scan/delete fractions).
        keyspace: integer keyspace the spec draws from.
        value_size: payload bytes per put.
        scan_length: keys spanned per scan.
        scan_limit: reply-size cap sent with each scan.
        seed: workload RNG seed (each client derives its own).
        trace_sampling: fraction of this tenant's requests traced end to
            end (client root span + wire-propagated context); 0 disables.
    """

    tenant: str
    clients: int = 1
    ops_per_client: int = 100
    target_ops_per_second: Optional[float] = None
    mix: OperationMix = field(
        default_factory=lambda: OperationMix(put=0.25, get=0.75)
    )
    keyspace: int = 1_000
    value_size: int = 40
    scan_length: int = 16
    scan_limit: int = 64
    seed: int = 7
    trace_sampling: float = 0.0

    def spec_for_client(self, index: int) -> WorkloadSpec:
        return uniform_spec(
            self.keyspace,
            self.mix,
            value_size=self.value_size,
            scan_length=self.scan_length,
            seed=self.seed + 1000 * index,
        )


@dataclass
class TenantRunResult:
    """What one tenant's clients observed."""

    tenant: str
    operations: int = 0
    gets: int = 0
    puts: int = 0
    deletes: int = 0
    scans: int = 0
    found: int = 0
    wall_seconds: float = 0.0
    remote_errors: int = 0
    protocol_errors: int = 0
    errors: List[str] = field(default_factory=list)
    latency: Dict[str, float] = field(default_factory=dict)

    @property
    def ops_per_second(self) -> float:
        return self.operations / self.wall_seconds if self.wall_seconds else 0.0


def run_load(
    host: str,
    port: int,
    tenants: Sequence[TenantLoad],
    registry: Optional[MetricsRegistry] = None,
    timeout_s: float = 30.0,
    trace_recorder=None,
) -> Dict[str, TenantRunResult]:
    """Drive every tenant's clients concurrently; returns per-tenant results.

    All clients start on a shared barrier so tenants contend from the first
    operation. Per-tenant latency percentiles are read back from the shared
    registry's ``client_op_wall_seconds{tenant=...}`` histograms (one series
    per (op, tenant); the reported summary merges a tenant's ops).

    Errors never kill the run: a remote error frame or protocol error is
    counted and the client moves on (reconnecting once on protocol errors,
    whose streams are poisoned by design).

    Pass ``trace_recorder`` to collect the client-side spans of every
    tenant whose load sets ``trace_sampling > 0`` in one shared ring.
    """
    if registry is None:
        registry = MetricsRegistry()
    results = {load.tenant: TenantRunResult(tenant=load.tenant) for load in tenants}
    lock = threading.Lock()
    total_clients = sum(load.clients for load in tenants)
    barrier = threading.Barrier(total_clients + 1)

    def client_worker(load: TenantLoad, index: int) -> None:
        result = results[load.tenant]
        interval = None
        if load.target_ops_per_second is not None:
            interval = load.clients / load.target_ops_per_second
        local = TenantRunResult(tenant=load.tenant)
        client = None
        started = False

        def make_client() -> LSMClient:
            return LSMClient(
                host, port, tenant=load.tenant,
                timeout_s=timeout_s, registry=registry,
                trace_sampling=load.trace_sampling,
                trace_recorder=trace_recorder if load.trace_sampling > 0 else None,
            )

        try:
            client = make_client()
            spec = load.spec_for_client(index)
            barrier.wait()
            started = True
            start = time.monotonic()
            for i, op in enumerate(spec.operations(load.ops_per_client)):
                if interval is not None:
                    next_at = start + i * interval
                    delay = next_at - time.monotonic()
                    if delay > 0:
                        time.sleep(delay)
                try:
                    if op.kind == "put":
                        client.put(op.key, op.value)
                        local.puts += 1
                    elif op.kind == "get":
                        if client.get(op.key).found:
                            local.found += 1
                        local.gets += 1
                    elif op.kind == "scan":
                        client.scan(op.key, op.end_key, limit=load.scan_limit)
                        local.scans += 1
                    elif op.kind == "delete":
                        client.delete(op.key)
                        local.deletes += 1
                    local.operations += 1
                except RemoteError as exc:
                    local.remote_errors += 1
                    if len(local.errors) < 8:
                        local.errors.append(f"{load.tenant}#{index}: {exc}")
                except ProtocolError as exc:
                    local.protocol_errors += 1
                    if len(local.errors) < 8:
                        local.errors.append(f"{load.tenant}#{index}: {exc!r}")
                    client.close()
                    client = make_client()
        except Exception as exc:  # noqa: BLE001 - surfaced via errors list
            with lock:
                result.errors.append(f"{load.tenant}#{index}: fatal {exc!r}")
            if not started:
                try:
                    barrier.wait(timeout=1.0)  # never wedge the other clients
                except threading.BrokenBarrierError:
                    pass
        finally:
            if client is not None:
                client.close()
            with lock:
                result.operations += local.operations
                result.gets += local.gets
                result.puts += local.puts
                result.deletes += local.deletes
                result.scans += local.scans
                result.found += local.found
                result.remote_errors += local.remote_errors
                result.protocol_errors += local.protocol_errors
                result.errors.extend(local.errors)

    threads = [
        threading.Thread(
            target=client_worker,
            args=(load, index),
            name=f"loadgen-{load.tenant}-{index}",
        )
        for load in tenants
        for index in range(load.clients)
    ]
    for thread in threads:
        thread.start()
    barrier.wait()
    began = time.monotonic()
    for thread in threads:
        thread.join()
    wall = time.monotonic() - began

    for load in tenants:
        result = results[load.tenant]
        result.wall_seconds = wall
        result.latency = tenant_latency_summary(registry, load.tenant)
    return results


def tenant_latency_summary(
    registry: MetricsRegistry, tenant: str
) -> Dict[str, float]:
    """Merge one tenant's per-op latency histograms into one percentile dict."""
    merged = None
    for histogram in registry.histograms():
        if (
            histogram.name == "client_op_wall_seconds"
            and histogram.labels.get("tenant") == tenant
        ):
            if merged is None:
                merged = MetricsRegistry().histogram(
                    "client_op_wall_seconds_merged", min_value=histogram.min_value,
                    growth=histogram.growth,
                )
            merged.merge(histogram)
    if merged is None or merged.count == 0:
        return {}
    summary = merged.percentiles()
    summary["mean"] = merged.mean
    summary["count"] = merged.count
    summary["max"] = merged.max
    return summary


def run_smoke_test(
    server,
    tenant_count: int,
    clients: int,
    ops: int,
    trace_sampling: Optional[float] = None,
    metrics_out: Optional[str] = None,
    journal_out: Optional[str] = None,
    history_out: Optional[str] = None,
) -> Tuple[bool, List[str]]:
    """Drive a started :class:`~repro.server.LSMServer` with a built-in
    multi-tenant load and judge it (``python -m repro serve --smoke-test``).

    Passes when every operation completed with no protocol, remote or fatal
    error and, with ``trace_sampling``, at least one trace joined up across
    the socket with no orphan span. The ``*_out`` paths receive the
    server's stats snapshot (JSON), event journal (JSONL) and time-series
    history (JSON).

    Returns:
        ``(ok, report_lines)``; lines starting ``error:`` / ``fatal:``
        (after indentation) are the failure report.
    """
    host, port = server.address
    client_recorder = (
        TraceRecorder(capacity=8192, sampling=trace_sampling) if trace_sampling else None
    )
    tenants = [
        TenantLoad(
            tenant=f"smoke{i}",
            clients=clients,
            ops_per_client=ops,
            mix=OperationMix(put=0.4, get=0.5, scan=0.1),
            keyspace=500,
            seed=11 + i,
            trace_sampling=trace_sampling or 0.0,
        )
        for i in range(tenant_count)
    ]
    results = run_load(host, port, tenants, trace_recorder=client_recorder)
    lines: List[str] = []
    if metrics_out:
        with open(metrics_out, "w", encoding="utf-8") as fh:
            json.dump(server.stats_snapshot(), fh, indent=2, sort_keys=True, default=str)
        lines.append(f"metrics snapshot written to {metrics_out}")
    if journal_out:
        written = server.journal.write_jsonl(journal_out)
        lines.append(f"event journal ({written} events) written to {journal_out}")
    if history_out:
        server.sampler.scrape()
        with open(history_out, "w", encoding="utf-8") as fh:
            json.dump(server.sampler.as_dict(), fh, indent=2, sort_keys=True)
        lines.append(f"time-series history written to {history_out}")
    total_ops = sum(r.operations for r in results.values())
    protocol_errors = sum(r.protocol_errors for r in results.values())
    remote_errors = sum(r.remote_errors for r in results.values())
    fatal = [e for r in results.values() for e in r.errors]
    for result in results.values():
        p99 = result.latency.get("p99", 0.0)
        lines.append(
            f"  {result.tenant}: {result.operations} ops "
            f"({result.ops_per_second:.0f} ops/s, p99 {p99 * 1e3:.2f} ms)"
        )
    lines.append(
        f"smoke test: {total_ops} ops, {protocol_errors} protocol errors, "
        f"{remote_errors} remote errors"
    )
    expected = tenant_count * clients * ops
    ok = protocol_errors == 0 and remote_errors == 0 and not fatal and total_ops == expected
    if client_recorder is not None:
        # A joined trace = one trace id with spans on BOTH sides of the
        # socket; an orphan = a child span whose parent id does not resolve
        # anywhere within its own trace.
        client_spans = client_recorder.spans()
        server_spans = server.recorder.spans()
        joined = {s.trace_id for s in client_spans} & {s.trace_id for s in server_spans}
        span_ids_by_trace: Dict[str, set] = {}
        for span in client_spans + server_spans:
            span_ids_by_trace.setdefault(span.trace_id, set()).add(span.span_id)
        orphans = [
            span
            for span in client_spans + server_spans
            if span.parent_id and span.parent_id not in span_ids_by_trace[span.trace_id]
        ]
        lines.append(
            f"tracing: {len(client_spans)} client spans, "
            f"{len(server_spans)} server+engine spans, "
            f"{len(joined)} joined traces, {len(orphans)} orphan spans"
        )
        if not joined:
            lines.append("error: no cross-process trace joined up")
        if orphans:
            lines.append(
                f"error: {len(orphans)} orphan spans (first: {orphans[0].as_dict()})"
            )
        ok = ok and bool(joined) and not orphans
    if not ok:
        lines.extend(f"  fatal: {line}" for line in fatal[:8])
        lines.append(f"error: smoke test failed ({total_ops}/{expected} ops ok)")
    return ok, lines
