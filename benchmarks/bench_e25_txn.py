"""E25 — Transactional tax: OCC conflict rate and commit latency under contention.

The claim (``repro.txn``): optimistic transactions cost nothing when they
don't conflict and degrade gracefully when they do. Two workloads pin it:

* **counter** — conflict-free ``merge`` increments on a hot key set.
  Typed MERGE entries ride the same group-commit frames as puts, so
  throughput should track the plain write path; the folded totals must
  come out exact (every operand applied exactly once).
* **bank transfer** — concurrent transfers on a small account pool.
  Contention scales with workers/accounts; losers retry. We report the
  commit-conflict rate, abort count (retry budget exhausted), and the
  p50/p99 commit latency including retries. Total balance conservation
  is asserted on every run — a failed invariant fails the benchmark.

Runs two ways:

* ``pytest benchmarks/bench_e25_txn.py`` — experiment-table path
  (writes ``benchmarks/results/e25_*.txt``);
* ``python benchmarks/bench_e25_txn.py [--quick]`` — the CI path:
  merges a ``transactions`` section into ``BENCH_perf.json`` and exits
  non-zero if an invariant breaks.
"""

import argparse
import pathlib
import sys

import repro
from repro import LSMConfig
from repro.workloads.txn import (
    counter_totals,
    run_bank_transfers,
    run_counter_increments,
    setup_accounts,
    total_balance,
)

HERE = pathlib.Path(__file__).parent
DEFAULT_OUTPUT = HERE / "results" / "BENCH_perf.json"

FULL = dict(
    accounts=48, workers=4, transfers_per_worker=250,
    hot_accounts=4, hot_transfers_per_worker=60, think_time_s=0.002,
    counters=8, increments_per_worker=600,
)
QUICK = dict(
    accounts=32, workers=3, transfers_per_worker=120,
    hot_accounts=4, hot_transfers_per_worker=40, think_time_s=0.002,
    counters=8, increments_per_worker=250,
)


def _service(seed):
    return repro.open(
        config=LSMConfig(
            buffer_bytes=16 << 10, block_size=512, size_ratio=4,
            bits_per_key=10.0, cache_bytes=64 << 10, seed=seed,
        ),
        service=True,
    )


def run_experiment(quick):
    params = QUICK if quick else FULL

    # -- counter workload: conflict-free merges, exact folded totals ------
    service = _service(seed=25)
    try:
        counters = run_counter_increments(
            service,
            counters=params["counters"],
            workers=params["workers"],
            increments_per_worker=params["increments_per_worker"],
            seed=25,
        )
        totals = counter_totals(service, params["counters"])
        folded_total = sum(totals.values())
    finally:
        service.close()
    expected_increments = params["workers"] * params["increments_per_worker"]
    counters_exact = folded_total == expected_increments

    # -- bank transfers: two contention tiers -----------------------------
    # Uncontended: a wide account pool, commit-now transactions (conflicts
    # near zero). Contended: a tiny hot pool plus think time inside the
    # transaction, so concurrent commits invalidate read sets constantly.
    def bank_tier(accounts, transfers_per_worker, think_time_s):
        service = _service(seed=26)
        try:
            invariant_total = setup_accounts(service, accounts)
            transfers = run_bank_transfers(
                service,
                accounts=accounts,
                workers=params["workers"],
                transfers_per_worker=transfers_per_worker,
                think_time_s=think_time_s,
                seed=26,
            )
            recovered_total = total_balance(service, accounts)
        finally:
            service.close()
        return transfers, recovered_total == invariant_total, recovered_total, invariant_total

    transfers, conserved, recovered_total, invariant_total = bank_tier(
        params["accounts"], params["transfers_per_worker"], 0.0
    )
    hot, hot_conserved, hot_recovered, hot_invariant = bank_tier(
        params["hot_accounts"], params["hot_transfers_per_worker"],
        params["think_time_s"],
    )

    return {
        "experiment": "e25_transactions",
        "quick": quick,
        "counter": {
            "workers": params["workers"],
            "increments": expected_increments,
            "ops_per_second": round(
                counters.operations / max(counters.wall_seconds, 1e-9), 1
            ),
            "folded_total": folded_total,
            "exact": counters_exact,
        },
        "bank": {
            "workers": params["workers"],
            "accounts": params["accounts"],
            "transfers": transfers.operations,
            "commits": transfers.commits,
            "conflicts": transfers.conflicts,
            "aborts": transfers.aborts,
            "conflict_rate": round(transfers.conflict_rate, 4),
            "commit_p50_ms": round(transfers.latency_percentile(0.50) * 1e3, 3),
            "commit_p99_ms": round(transfers.latency_percentile(0.99) * 1e3, 3),
            "ops_per_second": round(
                transfers.operations / max(transfers.wall_seconds, 1e-9), 1
            ),
            "total_balance": recovered_total,
            "invariant_total": invariant_total,
            "conserved": conserved,
        },
        "bank_hot": {
            "workers": params["workers"],
            "accounts": params["hot_accounts"],
            "transfers": hot.operations,
            "commits": hot.commits,
            "conflicts": hot.conflicts,
            "aborts": hot.aborts,
            "conflict_rate": round(hot.conflict_rate, 4),
            "commit_p50_ms": round(hot.latency_percentile(0.50) * 1e3, 3),
            "commit_p99_ms": round(hot.latency_percentile(0.99) * 1e3, 3),
            "ops_per_second": round(
                hot.operations / max(hot.wall_seconds, 1e-9), 1
            ),
            "total_balance": hot_recovered,
            "invariant_total": hot_invariant,
            "conserved": hot_conserved,
        },
        "invariants_hold": counters_exact and conserved and hot_conserved,
    }


def merge_into_perf_json(results, path):
    """Merge this experiment's section into the shared perf JSON."""
    from conftest import merge_perf_json

    merged = {}
    merged["transactions"] = {
        "counter_ops_per_second": results["counter"]["ops_per_second"],
        "counter_exact": results["counter"]["exact"],
        "bank_ops_per_second": results["bank"]["ops_per_second"],
        "conflict_rate": results["bank"]["conflict_rate"],
        "hot_conflict_rate": results["bank_hot"]["conflict_rate"],
        "hot_aborts": results["bank_hot"]["aborts"],
        "commit_p50_ms": results["bank"]["commit_p50_ms"],
        "commit_p99_ms": results["bank"]["commit_p99_ms"],
        "hot_commit_p99_ms": results["bank_hot"]["commit_p99_ms"],
        "conserved": (
            results["bank"]["conserved"] and results["bank_hot"]["conserved"]
        ),
    }
    return merge_perf_json(path, merged)


# -- pytest entry -------------------------------------------------------------


def test_e25_transactions(benchmark):
    from conftest import once, record

    results = once(benchmark, lambda: run_experiment(quick=True))
    bank = results["bank"]
    hot = results["bank_hot"]
    counter = results["counter"]
    record(
        "e25_transactions",
        "E25 — OCC transactions and merge operators under contention "
        f"({bank['workers']} workers, {bank['accounts']} accounts)",
        ["workload", "ops/s", "conflict rate", "aborts", "p50 ms", "p99 ms"],
        [
            ["counter", counter["ops_per_second"], "-", "-", "-", "-"],
            [
                "bank", bank["ops_per_second"], f"{bank['conflict_rate']:.2%}",
                bank["aborts"], bank["commit_p50_ms"], bank["commit_p99_ms"],
            ],
            [
                "bank-hot", hot["ops_per_second"], f"{hot['conflict_rate']:.2%}",
                hot["aborts"], hot["commit_p50_ms"], hot["commit_p99_ms"],
            ],
        ],
    )
    merge_into_perf_json(results, DEFAULT_OUTPUT)
    assert counter["exact"], (
        f"counter folding lost operands: {counter['folded_total']} != "
        f"{counter['increments']}"
    )
    assert bank["conserved"], (
        f"balance not conserved: {bank['total_balance']} != "
        f"{bank['invariant_total']}"
    )
    assert hot["conserved"], (
        f"hot-tier balance not conserved: {hot['total_balance']} != "
        f"{hot['invariant_total']}"
    )
    # Every transfer must have landed or been counted as an abort.
    expected = bank["workers"] * QUICK["transfers_per_worker"]
    assert bank["transfers"] + bank["aborts"] == expected
    # The hot tier must actually exercise conflict handling.
    assert hot["conflicts"] > 0, "hot tier produced no conflicts"


# -- CI CLI -------------------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="CI-sized run")
    parser.add_argument("--output", type=pathlib.Path, default=DEFAULT_OUTPUT,
                        help="BENCH_perf.json to merge the section into")
    args = parser.parse_args(argv)

    results = run_experiment(quick=args.quick)
    merge_into_perf_json(results, args.output)
    print(f"merged transactions into {args.output}")
    counter, bank, hot = results["counter"], results["bank"], results["bank_hot"]
    print(f"  counter:  {counter['ops_per_second']} ops/s, exact={counter['exact']}")
    for label, tier in (("bank", bank), ("bank-hot", hot)):
        print(f"  {label + ':':9} {tier['ops_per_second']} ops/s, "
              f"conflict rate {tier['conflict_rate']:.2%}, aborts {tier['aborts']}, "
              f"p50 {tier['commit_p50_ms']} ms, p99 {tier['commit_p99_ms']} ms, "
              f"conserved={tier['conserved']}")
    if not results["invariants_hold"]:
        print("FAIL: transactional invariants violated", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
