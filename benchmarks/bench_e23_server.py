"""E23 — Network server: multi-tenant QoS isolation under an abusive tenant.

The claim (``repro.server``): with per-tenant fair-share admission enabled,
one tenant driving ~4x its fair share is throttled to roughly that share —
on its own connections — while every compliant tenant keeps its offered
throughput and its client-observed p99 stays within **2x** of what it sees
running alone on the same server.

Method: every phase runs the real stack — framed TCP protocol, threaded
server, closed-loop multi-client load generator (`repro.server.loadgen`
via :func:`repro.bench.harness.run_server_workload`):

* *solo phases* — each compliant tenant alone, paced below its share;
* *contended phase* — the same compliant tenants plus a hot tenant
  running flat out on several connections (offered load >> share).

Runs two ways:

* ``pytest benchmarks/bench_e23_server.py`` — experiment-table path
  (writes ``benchmarks/results/e23_*.txt``);
* ``python benchmarks/bench_e23_server.py [--quick]`` — the CI path:
  merges a ``server_isolation`` section into ``BENCH_perf.json`` and exits
  non-zero if the 2x isolation bound does not hold.
"""

import argparse
import pathlib
import sys

import repro
from repro import LSMConfig
from repro.bench.harness import run_server_workload
from repro.server import ServerConfig, TenantLoad
from repro.workloads.spec import OperationMix

HERE = pathlib.Path(__file__).parent
DEFAULT_OUTPUT = HERE / "results" / "BENCH_perf.json"

FULL = dict(share=150.0, burst=15.0, compliant_rate=100.0, compliant_ops=240,
            hot_clients=2, hot_ops=450)
QUICK = dict(share=150.0, burst=15.0, compliant_rate=100.0, compliant_ops=120,
             hot_clients=2, hot_ops=240)

COMPLIANT = ("alpha", "beta", "gamma")
MIX = OperationMix(put=0.25, get=0.75)


def _service():
    return repro.open(
        config=LSMConfig(
            buffer_bytes=16 << 10, block_size=512, size_ratio=4,
            bits_per_key=10.0, cache_bytes=64 << 10, seed=23,
        ),
        service=True,
        observe=True,
    )


def _server_config(params):
    return ServerConfig(
        tenant_ops_per_second=params["share"],
        tenant_burst_ops=params["burst"],
    )


def _compliant_load(tenant, params, seed):
    return TenantLoad(
        tenant=tenant,
        clients=1,
        ops_per_client=params["compliant_ops"],
        target_ops_per_second=params["compliant_rate"],
        mix=MIX,
        keyspace=800,
        value_size=40,
        seed=seed,
    )


def _run_phase(params, tenants):
    service = _service()
    try:
        return run_server_workload(
            service, tenants, server_config=_server_config(params)
        )
    finally:
        service.close()


def run_experiment(quick):
    params = QUICK if quick else FULL
    share = params["share"]

    # Solo baselines: each compliant tenant alone on a fresh server.
    solo_p99 = {}
    for i, tenant in enumerate(COMPLIANT):
        results, _ = _run_phase(params, [_compliant_load(tenant, params, 100 + i)])
        solo_p99[tenant] = results[tenant].latency["p99"]

    # Contended: the same tenants, plus one tenant offering ~4x its share.
    loads = [
        _compliant_load(tenant, params, 100 + i)
        for i, tenant in enumerate(COMPLIANT)
    ]
    loads.append(
        TenantLoad(
            tenant="hog",
            clients=params["hot_clients"],
            ops_per_client=params["hot_ops"],
            target_ops_per_second=None,  # flat out: admission is the brake
            mix=MIX,
            keyspace=800,
            value_size=40,
            seed=999,
        )
    )
    results, snapshot = _run_phase(params, loads)
    admission = snapshot["tenants"]

    hog = results["hog"]
    hog_rate = hog.operations / max(
        1e-9, hog.wall_seconds
    )  # joint wall: a lower bound on its achieved rate
    tenants_out = {}
    worst_ratio = 0.0
    for tenant in COMPLIANT:
        contended = results[tenant].latency["p99"]
        # Guard the ratio against sub-millisecond timer noise on very fast
        # solo runs; the isolation claim is about admission stalls (tens to
        # hundreds of ms), far above this floor.
        ratio = contended / max(solo_p99[tenant], 1e-3)
        worst_ratio = max(worst_ratio, ratio)
        tenants_out[tenant] = {
            "solo_p99_ms": round(solo_p99[tenant] * 1e3, 3),
            "contended_p99_ms": round(contended * 1e3, 3),
            "p99_ratio": round(ratio, 2),
            "operations": results[tenant].operations,
            "throttle_waits": admission[tenant]["throttle_waits"],
        }
    return {
        "experiment": "e23_server_isolation",
        "quick": quick,
        "share_ops_per_second": share,
        "burst_ops": params["burst"],
        "hot_tenant": {
            "clients": params["hot_clients"],
            "operations": hog.operations,
            "achieved_ops_per_second": round(hog_rate, 1),
            "achieved_x_share": round(hog_rate / share, 2),
            "throttle_waits": admission["hog"]["throttle_waits"],
            "throttle_wait_seconds": admission["hog"]["throttle_wait_seconds"],
            "p99_ms": round(hog.latency["p99"] * 1e3, 3),
        },
        "tenants": tenants_out,
        "worst_p99_ratio": round(worst_ratio, 2),
        "isolation_holds": worst_ratio <= 2.0,
        "protocol_errors": sum(r.protocol_errors for r in results.values()),
    }


def merge_into_perf_json(results, path):
    """Merge this experiment's section into the shared perf JSON."""
    from conftest import merge_perf_json

    merged = {}
    merged["server_isolation"] = {
        "share_ops_per_second": results["share_ops_per_second"],
        "hot_achieved_x_share": results["hot_tenant"]["achieved_x_share"],
        "hot_throttle_waits": results["hot_tenant"]["throttle_waits"],
        "worst_compliant_p99_ratio": results["worst_p99_ratio"],
        "isolation_holds": results["isolation_holds"],
        "protocol_errors": results["protocol_errors"],
    }
    return merge_perf_json(path, merged)


# -- pytest entry -------------------------------------------------------------


def test_e23_server_isolation(benchmark):
    from conftest import once, record

    results = once(benchmark, lambda: run_experiment(quick=True))
    rows = [
        [
            tenant,
            row["solo_p99_ms"],
            row["contended_p99_ms"],
            row["p99_ratio"],
            row["operations"],
            row["throttle_waits"],
        ]
        for tenant, row in results["tenants"].items()
    ]
    hot = results["hot_tenant"]
    rows.append(
        ["hog (4x offered)", "-", hot["p99_ms"], "-", hot["operations"],
         hot["throttle_waits"]]
    )
    record(
        "e23_server_isolation",
        "E23 — tenant isolation: p99 vs solo under one abusive tenant "
        f"(share {results['share_ops_per_second']:.0f} ops/s)",
        ["tenant", "solo p99 ms", "contended p99 ms", "ratio", "ops", "waits"],
        rows,
    )
    merge_into_perf_json(results, DEFAULT_OUTPUT)
    assert results["protocol_errors"] == 0
    assert hot["throttle_waits"] > 0, "the hot tenant was never throttled"
    # Throttled near its share (burst + scheduling slack allowed)...
    assert hot["achieved_x_share"] <= 1.6
    # ...while compliant tenants kept their throughput and their latency.
    for tenant, row in results["tenants"].items():
        assert row["throttle_waits"] == 0, f"{tenant} was throttled"
    assert results["isolation_holds"], (
        f"worst compliant p99 ratio {results['worst_p99_ratio']} > 2.0"
    )


# -- CI CLI -------------------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="CI-sized run")
    parser.add_argument("--output", type=pathlib.Path, default=DEFAULT_OUTPUT,
                        help="BENCH_perf.json to merge the section into")
    args = parser.parse_args(argv)

    results = run_experiment(quick=args.quick)
    merge_into_perf_json(results, args.output)
    hot = results["hot_tenant"]
    print(f"merged server_isolation into {args.output}")
    print(f"  hog:  {hot['achieved_ops_per_second']} ops/s "
          f"({hot['achieved_x_share']}x share), "
          f"{hot['throttle_waits']} waits, p99 {hot['p99_ms']} ms")
    for tenant, row in results["tenants"].items():
        print(f"  {tenant}: solo p99 {row['solo_p99_ms']} ms -> contended "
              f"{row['contended_p99_ms']} ms (ratio {row['p99_ratio']})")
    print(f"  worst ratio {results['worst_p99_ratio']} "
          f"(isolation holds: {results['isolation_holds']})")
    if results["protocol_errors"]:
        print(f"FAIL: {results['protocol_errors']} protocol errors", file=sys.stderr)
        return 1
    if not results["isolation_holds"]:
        print(f"FAIL: worst p99 ratio {results['worst_p99_ratio']} > 2.0",
              file=sys.stderr)
        return 1
    if hot["throttle_waits"] == 0:
        print("FAIL: hot tenant was never throttled", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
