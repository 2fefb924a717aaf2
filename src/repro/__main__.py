"""``python -m repro`` — the CLI: demo tour, stats dumps, and read traces.

Subcommands:

* ``demo`` (the default) — the 30-second guided tour of the design space;
* ``stats`` — run an instrumented workload and print the RocksDB-style
  per-level table plus latency percentiles (``--format table|prometheus|
  json`` selects the export surface); ``--live`` instead renders a
  redrawing time-series dashboard, either over a local demo workload or —
  with ``--connect HOST:PORT`` — from a running server's ``stats_history``
  frames;
* ``trace`` — run with read-path tracing enabled and print the recorded
  spans with their per-stage latency breakdowns;
* ``serve`` — run the framed-protocol network server (``repro.server``)
  over a concurrent, observed engine; ``--smoke-test`` runs a built-in
  multi-tenant load against it and exits, for CI.

Every subcommand exits non-zero with a one-line ``error: ...`` message on
failure — no tracebacks for expected error classes.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro import LSMConfig, LSMTree, __version__
from repro.bench.harness import preload_tree, run_operations
from repro.bench.report import format_table, print_table
from repro.workloads.spec import OperationMix, uniform_spec


def demo() -> int:
    print(f"repro {__version__} — The LSM Design Space and its Read Optimizations")
    print("Building three small trees (leveling / tiering / lazy_leveling)...")
    rows = []
    for layout in ("leveling", "tiering", "lazy_leveling"):
        tree = LSMTree(
            LSMConfig(
                buffer_bytes=4 << 10, block_size=512, size_ratio=4,
                layout=layout, bits_per_key=10.0, cache_bytes=32 << 10, seed=1,
            )
        )
        preload_tree(tree, 2000, value_size=40)
        spec = uniform_spec(2000, OperationMix(put=0.4, get=0.6), value_size=40, seed=2)
        metrics = run_operations(tree, spec.operations(2000))
        rows.append(
            [
                layout,
                tree.num_levels,
                tree.total_runs,
                round(tree.write_amplification, 2),
                round(metrics.reads_per_get, 3),
                round(tree.stats.filter_fpr_observed, 4),
            ]
        )
    print_table(
        "the read/write tradeoff, in one table",
        ["layout", "levels", "runs", "write_amp", "io/get", "filter_fpr"],
        rows,
    )
    # Sanity-check the demo's own story before claiming it.
    by_layout = {row[0]: row for row in rows}
    assert by_layout["tiering"][3] <= by_layout["leveling"][3]
    print(
        "\nNext steps:\n"
        "  python -m repro stats                       # per-level stats + percentiles\n"
        "  python -m repro trace --sampling 1.0        # read-path spans\n"
        "  python examples/quickstart.py               # the API tour\n"
        "  python examples/design_space_tour.py        # 20 design points\n"
        "  pytest benchmarks/ --benchmark-only         # all experiments (E1-E16)\n"
        "  pytest tests/                               # the test suite\n"
        "See README.md, DESIGN.md, and EXPERIMENTS.md for the full map."
    )
    return 0


def _observed_demo_tree(keys: int, sampling: float = 0.0, trace_capacity: int = 256, seed: int = 1):
    """A small preloaded tree with observability attached after the load.

    Returns (tree, registry, recorder).
    """
    from repro.observe import MetricsRegistry, observe_tree

    tree = LSMTree(
        LSMConfig(
            buffer_bytes=8 << 10, block_size=512, size_ratio=4,
            layout="leveling", bits_per_key=10.0, cache_bytes=64 << 10, seed=seed,
        )
    )
    preload_tree(tree, keys, value_size=40)
    registry = MetricsRegistry()
    _, recorder = observe_tree(
        tree, registry, sampling=sampling, trace_capacity=trace_capacity
    )
    return tree, registry, recorder


def _instrumented_run(
    ops: int, keys: int, sampling: float, trace_capacity: int = 256, seed: int = 1
):
    """Build a small observed tree and drive a mixed workload through it.

    Returns (tree, registry, recorder) with the workload already applied.
    """
    tree, registry, recorder = _observed_demo_tree(keys, sampling, trace_capacity, seed)
    spec = uniform_spec(
        keys,
        OperationMix(put=0.30, get=0.65, scan=0.05),
        value_size=40,
        seed=seed + 1,
        scan_length=32,
    )
    run_operations(tree, spec.operations(ops))
    return tree, registry, recorder


_SPARK_BLOCKS = "▁▂▃▄▅▆▇█"


def _sparkline(values, width: int = 30) -> str:
    vals = list(values)[-width:]
    if not vals:
        return ""
    lo, hi = min(vals), max(vals)
    if hi <= lo:
        return _SPARK_BLOCKS[0] * len(vals)
    scale = (len(_SPARK_BLOCKS) - 1) / (hi - lo)
    return "".join(_SPARK_BLOCKS[int((v - lo) * scale)] for v in vals)


def _render_history_frame(payload: dict, max_rows: int = 18) -> str:
    """One dashboard frame from a ``TimeSeriesSampler.as_dict()`` payload."""
    series = payload.get("series", {})
    rows = []
    for name in sorted(series):
        data = series[name]
        ts, vals = data.get("t", []), data.get("v", [])
        if data.get("kind") == "cumulative":
            # Differentiate on read: show the per-second rate, not the total.
            rates = [
                (v1 - v0) / (t1 - t0)
                for (t0, v0), (t1, v1) in zip(zip(ts, vals), zip(ts[1:], vals[1:]))
                if t1 > t0
            ]
            if not rates:
                continue
            rows.append((f"{name}/s", rates))
        elif vals:
            rows.append((name, vals))

    def _priority(row) -> int:
        label = row[0]
        for rank, prefix in enumerate(
            ("cache_hit_ratio", "stall_fraction", "read_fraction",
             "engine_gets", "engine_puts", "level", "server_requests")
        ):
            if label.startswith(prefix):
                return rank
        return 99

    rows.sort(key=lambda row: (_priority(row), row[0]))
    lines = [
        f"repro {__version__} — live series "
        f"(samples={payload.get('samples', 0)}, "
        f"series={len(series)}, showing {min(len(rows), max_rows)})"
    ]
    for label, vals in rows[:max_rows]:
        lines.append(f"  {label:<34} {vals[-1]:>12.4g}  {_sparkline(vals)}")
    return "\n".join(lines)


def _emit_live_frame(frame: str) -> None:
    if sys.stdout.isatty():
        # Redraw in place (home + clear-to-end); no curses dependency.
        sys.stdout.write("\x1b[H\x1b[J" + frame + "\n")
    else:
        sys.stdout.write(frame + "\n" + "-" * 72 + "\n")
    sys.stdout.flush()


def stats_live_command(args: argparse.Namespace) -> int:
    """Live dashboard: scrape-and-redraw loop, local or over the wire."""
    import json as _json
    import threading
    import time as _time

    frames = max(1, int(round(args.duration / args.interval)))
    payload = None

    if args.connect:
        from repro.server.client import LSMClient

        host, _, port = args.connect.rpartition(":")
        if not host or not port.isdigit():
            print(f"error: --connect wants HOST:PORT, got {args.connect!r}",
                  file=sys.stderr)
            return 1
        client = LSMClient(host, int(port))
        try:
            for _ in range(frames):
                payload = client.stats_history()
                _emit_live_frame(_render_history_frame(payload))
                _time.sleep(args.interval)
        finally:
            client.close()
    else:
        from repro.observe import TimeSeriesSampler

        tree, registry, _ = _observed_demo_tree(args.keys)
        sampler = TimeSeriesSampler(registry)
        stop = threading.Event()

        def drive() -> None:
            round_no = 0
            while not stop.is_set():
                spec = uniform_spec(
                    args.keys, OperationMix(put=0.30, get=0.65, scan=0.05),
                    value_size=40, seed=2 + round_no, scan_length=16,
                )
                run_operations(tree, spec.operations(500))
                round_no += 1

        worker = threading.Thread(target=drive, name="stats-live-load", daemon=True)
        worker.start()
        try:
            for _ in range(frames):
                _time.sleep(args.interval)
                sampler.scrape()
                payload = sampler.as_dict()
                _emit_live_frame(_render_history_frame(payload))
        finally:
            stop.set()
            worker.join(timeout=5.0)

    if args.history_out and payload is not None:
        with open(args.history_out, "w", encoding="utf-8") as fh:
            _json.dump(payload, fh, indent=2, sort_keys=True)
        print(f"time-series history written to {args.history_out}")
    return 0


def stats_command(args: argparse.Namespace) -> int:
    """Per-level stats table and latency percentiles for a demo workload."""
    from repro.observe import render_dump, to_json, to_prometheus

    if args.live:
        return stats_live_command(args)
    sampling = args.sampling if args.format == "json" else 0.0
    tree, registry, recorder = _instrumented_run(
        ops=args.ops, keys=args.keys, sampling=sampling
    )
    if args.format == "prometheus":
        sys.stdout.write(to_prometheus(registry))
    elif args.format == "json":
        print(to_json(registry, tree=tree, recorder=recorder))
    else:
        print(f"repro {__version__} — engine stats ({args.ops} ops, {args.keys} keys)")
        print(render_dump(registry, tree))
    return 0


def trace_command(args: argparse.Namespace) -> int:
    """Record read-path spans and print their stage breakdowns."""
    _, _, recorder = _instrumented_run(
        ops=args.ops,
        keys=args.keys,
        sampling=args.sampling,
        trace_capacity=max(args.limit, 1),
    )
    spans = recorder.spans(args.limit)
    stats = recorder.snapshot()
    print(
        f"repro {__version__} — read-path traces "
        f"(sampling={args.sampling}, sampled={stats['sampled']}, "
        f"dropped={stats['dropped']}, showing {len(spans)})"
    )
    if not spans:
        print("no spans recorded; raise --sampling (0 disables tracing)")
        return 0
    rows = []
    for index, span in enumerate(spans):
        stages = " ".join(f"{name}={duration:.2e}" for name, duration in span.stages)
        rows.append(
            [
                index,
                span.name,
                f"{span.total:.2e}",
                span.attrs.get("found", ""),
                span.attrs.get("blocks_read", ""),
                stages,
            ]
        )
    print(format_table(["#", "op", "total_s", "found", "blocks", "stages"], rows))
    return 0


def serve_command(args: argparse.Namespace) -> int:
    """Serve the framed protocol over TCP; ``--smoke-test`` drives itself.

    The server fronts a concurrent, observed :class:`~repro.service.DBService`
    (group commit, background maintenance, backpressure) and exports every
    engine and ``server_*`` metric through the stats frame.
    """
    import signal
    import threading

    import repro
    from repro.server import LSMServer, ServerConfig, run_smoke_test

    service = repro.open(service=True, observe=True)
    registry = service.observer.registry
    if args.trace_sampling:
        # Swap in a roomier recorder so smoke runs keep every span of every
        # joined trace (the default ring is sized for steady-state serving).
        from repro.observe import TraceRecorder

        recorder = TraceRecorder(capacity=8192, sampling=args.trace_sampling)
        service.recorder = recorder
        service.tree.tracer = recorder
    server_config = ServerConfig(
        host=args.host,
        port=args.port,
        max_connections=args.max_connections,
        tenant_ops_per_second=args.tenant_rate,
        tenant_burst_ops=args.tenant_burst,
        trace_sampling=args.trace_sampling,
    )
    server = LSMServer(
        service, server_config, registry=registry, close_service=True
    )
    server.start()
    host, port = server.address
    print(f"repro {__version__} — serving on {host}:{port}", flush=True)
    if server_config.tenant_ops_per_second:
        print(
            f"fair-share admission: {server_config.tenant_ops_per_second:g} "
            "ops/s per tenant",
            flush=True,
        )

    if args.smoke_test:
        try:
            ok, report = run_smoke_test(
                server, args.tenant_count, args.clients, args.ops,
                trace_sampling=args.trace_sampling, metrics_out=args.metrics_out,
                journal_out=args.journal_out, history_out=args.history_out,
            )
        finally:
            server.shutdown()
        for line in report:
            failure = line.lstrip().startswith(("error:", "fatal:"))
            print(line, file=sys.stderr if failure else sys.stdout)
        return 0 if ok else 1

    stop = threading.Event()
    try:
        signal.signal(signal.SIGTERM, lambda *_: stop.set())
    except ValueError:
        pass  # not the main thread (tests drive this path)
    try:
        while not stop.is_set():
            stop.wait(0.5)
    except KeyboardInterrupt:
        print("\nshutting down...", flush=True)
    finally:
        server.shutdown()
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command")

    demo_parser = sub.add_parser(
        "demo", help="the 30-second guided tour (the default)"
    )
    demo_parser.add_argument(
        "--profile",
        action="store_true",
        help="run the tour under cProfile and print the hot spots",
    )
    demo_parser.add_argument(
        "--profile-top", type=int, default=20,
        help="profile rows to print (with --profile)",
    )

    stats = sub.add_parser("stats", help="per-level stats and latency percentiles")
    stats.add_argument(
        "--demo",
        action="store_true",
        help="use the built-in demo workload (the default data source)",
    )
    stats.add_argument(
        "--format",
        choices=("table", "prometheus", "json"),
        default="table",
        help="export surface (default: the human table)",
    )
    stats.add_argument("--ops", type=int, default=3000, help="operations to drive")
    stats.add_argument("--keys", type=int, default=2000, help="keyspace size")
    stats.add_argument(
        "--sampling",
        type=float,
        default=0.1,
        help="trace sampling fraction for the json export's trace section",
    )
    stats.add_argument(
        "--live",
        action="store_true",
        help="render a redrawing time-series dashboard instead of one table",
    )
    stats.add_argument(
        "--connect",
        default=None,
        metavar="HOST:PORT",
        help="live mode: poll a running server's stats_history frames "
        "instead of driving a local demo workload",
    )
    stats.add_argument(
        "--interval", type=float, default=1.0,
        help="live mode: seconds between frames",
    )
    stats.add_argument(
        "--duration", type=float, default=10.0,
        help="live mode: total seconds to run",
    )
    stats.add_argument(
        "--history-out",
        default=None,
        metavar="FILE",
        help="live mode: write the final time-series history as JSON",
    )

    trace = sub.add_parser("trace", help="sampled read-path span breakdowns")
    trace.add_argument(
        "--sampling", type=float, default=1.0, help="span sampling fraction in [0, 1]"
    )
    trace.add_argument("--ops", type=int, default=500, help="operations to drive")
    trace.add_argument("--keys", type=int, default=1000, help="keyspace size")
    trace.add_argument("--limit", type=int, default=10, help="spans to print")

    serve = sub.add_parser(
        "serve", help="run the framed-protocol network server (repro.server)"
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port", type=int, default=0, help="bind port (0 picks an ephemeral one)"
    )
    serve.add_argument(
        "--max-connections", type=int, default=64, help="concurrent connection cap"
    )
    serve.add_argument(
        "--tenant-rate",
        type=float,
        default=None,
        help="fair-share admission: ops/s granted to each tenant (default: off)",
    )
    serve.add_argument(
        "--tenant-burst",
        type=float,
        default=None,
        help="admission burst allowance in ops (default: one second of rate)",
    )
    serve.add_argument(
        "--smoke-test",
        action="store_true",
        help="start, drive a multi-tenant load against yourself, report, exit",
    )
    serve.add_argument(
        "--tenant-count", type=int, default=2, help="smoke test: tenants to drive"
    )
    serve.add_argument(
        "--clients", type=int, default=2, help="smoke test: connections per tenant"
    )
    serve.add_argument(
        "--ops", type=int, default=150, help="smoke test: operations per connection"
    )
    serve.add_argument(
        "--metrics-out",
        default=None,
        metavar="FILE",
        help="smoke test: write the server's JSON stats snapshot here",
    )
    serve.add_argument(
        "--trace-sampling",
        type=float,
        default=None,
        metavar="FRACTION",
        help="trace this fraction of requests end to end (client spans in "
        "the smoke test propagate over the wire and join the server's)",
    )
    serve.add_argument(
        "--journal-out",
        default=None,
        metavar="FILE",
        help="smoke test: write the structured event journal as JSONL",
    )
    serve.add_argument(
        "--history-out",
        default=None,
        metavar="FILE",
        help="smoke test: write the time-series history as JSON",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    from repro.errors import ReproError

    try:
        if args.command == "stats":
            return stats_command(args)
        if args.command == "trace":
            return trace_command(args)
        if args.command == "serve":
            return serve_command(args)
        if args.command == "demo" and args.profile:
            from repro.bench.harness import run_profiled

            code, _ = run_profiled(demo, top=args.profile_top)
            return code
        return demo()
    except (ReproError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
