"""E22 — Parallel subcompactions and coalesced device I/O.

Three claims about ``repro.parallel``:

* **Key-range subcompactions cut merge wall-clock ≥2× at 4 workers** on a
  device whose simulated latency is charged as real sleep time
  (``wall_latency_scale``), while producing the identical entry sequence a
  serial merge produces.
* **Readahead coalescing cuts long-scan seeks ≥3×** at unchanged bytes
  read: multi-block spans are charged one seek + sequential transfers.
* **Batched point reads (multi_get) coalesce adjacent candidate blocks**,
  needing far fewer seeks than the same keys fetched one at a time.

Runs two ways:

* ``pytest benchmarks/bench_e22_parallel.py`` — the usual experiment-table
  path (writes ``benchmarks/results/e22_*.txt``);
* ``python benchmarks/bench_e22_parallel.py [--quick]`` — the CI perf-smoke
  path: merges its sections into ``benchmarks/results/BENCH_perf.json`` and,
  with ``--check-baseline``, fails if
  serial merge throughput regressed >20% against the committed baseline
  (``benchmarks/baselines/perf_baseline.json``).
"""

import argparse
import json
import pathlib
import statistics
import sys
import time

from repro import LSMConfig, LSMTree, encode_uint_key
from repro.common.entry import Entry, EntryKind
from repro.parallel import ParallelConfig, run_subcompactions, split_key_ranges
from repro.storage.block_device import BlockDevice
from repro.storage.run import Run
from repro.storage.sstable import SSTableBuilder

HERE = pathlib.Path(__file__).parent
BASELINE_PATH = HERE / "baselines" / "perf_baseline.json"
DEFAULT_OUTPUT = HERE / "results" / "BENCH_perf.json"

FULL = dict(entries_per_run=8_000, runs=4, latency_scale=5e-3,
            tree_entries=6_000, keyspace=1_200)
QUICK = dict(entries_per_run=3_500, runs=4, latency_scale=4e-3,
             tree_entries=4_000, keyspace=800)


# -- part (a): merge wall-clock speedup ---------------------------------------


def _build_overlapping_runs(device, n_runs, entries_per_run):
    """Overlapping sorted runs with layered seqnos and tombstone churn."""
    runs, seq = [], 1
    for r in range(n_runs):
        builder = SSTableBuilder(device)
        for i in range(entries_per_run):
            key = encode_uint_key(i * n_runs + r)
            if (i + r) % 17 == 0:
                builder.add(Entry(key, seq, EntryKind.DELETE))
            else:
                builder.add(Entry(key, seq, value=b"e22:%05d:%03d" % (i, r)))
            seq += 1
        runs.append(Run([builder.finish()]))
    return runs


def _newest_live(group):
    """Bottom-level fold: keep each key's newest version unless it is a tombstone."""
    return None if group[0].is_tombstone else group[0]


def _timed_merge(device, inputs, ranges, scale, readahead):
    device.wall_latency_scale = scale
    wall0 = time.perf_counter()
    tables = run_subcompactions(
        inputs, ranges, _newest_live,
        builder_factory=lambda: SSTableBuilder(device, write_buffer_blocks=8),
        file_limit=256 << 10, readahead=readahead,
    )
    wall = time.perf_counter() - wall0
    device.wall_latency_scale = 0.0
    digest = []
    for table in tables:
        for entry in table.iter_entries():
            digest.append((entry.key, entry.seqno, entry.kind, entry.value))
    for table in tables:
        table.delete()
    return wall, digest


def bench_compaction_speedup(params):
    device = BlockDevice(block_size=4096)
    inputs = _build_overlapping_runs(device, params["runs"], params["entries_per_run"])
    total_entries = params["runs"] * params["entries_per_run"]
    ranges = split_key_ranges(inputs, max_subcompactions=4, min_blocks=8)
    assert len(ranges) == 4, f"expected 4 subcompaction ranges, got {len(ranges)}"
    scale = params["latency_scale"]
    wall_r1, digest_r1 = _timed_merge(device, inputs, [(None, None)], scale, readahead=1)
    wall_serial, digest_serial = _timed_merge(device, inputs, [(None, None)], scale, readahead=8)
    wall_parallel, digest_parallel = _timed_merge(device, inputs, ranges, scale, readahead=8)
    assert digest_parallel == digest_serial == digest_r1, "parallel merge diverged"
    return {
        "entries_merged": total_entries,
        "workers": 4,
        "serial_noreadahead_wall_s": round(wall_r1, 4),
        "serial_wall_s": round(wall_serial, 4),
        "parallel_wall_s": round(wall_parallel, 4),
        "speedup_vs_serial": round(wall_serial / wall_parallel, 2),
        "speedup_vs_seed": round(wall_r1 / wall_parallel, 2),
        "serial_throughput_eps": round(total_entries / wall_serial, 1),
        "parallel_throughput_eps": round(total_entries / wall_parallel, 1),
        "identical_output": True,
    }


# -- part (b): scan-seek coalescing -------------------------------------------


def _fill_tree(tree, n, keyspace, compact=True):
    for i in range(n):
        key = encode_uint_key((i * 31) % keyspace)
        if i % 19 == 0:
            tree.delete(key)
        else:
            tree.put(key, b"v%07d" % i)
    tree.flush()
    if compact:
        tree.compact_all()


def _tree(parallel, seed=22, layout="leveling"):
    return LSMTree(
        LSMConfig(
            buffer_bytes=8 << 10, block_size=512, size_ratio=3,
            bits_per_key=10.0, seed=seed, layout=layout, parallel=parallel,
        )
    )


def bench_scan_coalescing(params):
    # Tiered, flush-only trees keep several overlapping runs alive: a long
    # scan then interleaves blocks from many files, which is where per-block
    # reads pay a seek on nearly every access and readahead spans keep
    # their sequentiality.
    serial = _tree(None, layout="tiering")
    coalesced = _tree(
        ParallelConfig(max_subcompactions=1, scan_readahead_blocks=8),
        layout="tiering",
    )
    _fill_tree(serial, params["tree_entries"], params["keyspace"], compact=False)
    _fill_tree(coalesced, params["tree_entries"], params["keyspace"], compact=False)

    def scan_cost(tree):
        before = tree.device.stats.snapshot()
        cache_before = tree.cache.stats.snapshot()
        n = sum(1 for _ in tree.scan())
        cache = tree.cache.stats.delta(cache_before)
        return n, tree.device.stats.delta(before), (cache.lookups, cache.hits)

    n_serial, d_serial, cache_serial = scan_cost(serial)
    n_coalesced, d_coalesced, cache_coalesced = scan_cost(coalesced)
    assert n_serial == n_coalesced, "coalesced scan changed the result"
    return {
        "serial_cache_lookups_hits": list(cache_serial),
        "coalesced_cache_lookups_hits": list(cache_coalesced),
        "entries_scanned": n_serial,
        "serial_seeks": d_serial.seeks,
        "coalesced_seeks": d_coalesced.seeks,
        "seek_reduction": round(d_serial.seeks / max(1, d_coalesced.seeks), 2),
        "serial_bytes": d_serial.bytes_read,
        "coalesced_bytes": d_coalesced.bytes_read,
        "coalesced_reads": d_coalesced.coalesced_reads,
    }


# -- part (c): point-read latency and batched gets ----------------------------


def bench_point_reads(params):
    tree = _tree(ParallelConfig(max_subcompactions=1))
    _fill_tree(tree, params["tree_entries"], params["keyspace"])
    keyspace = params["keyspace"]
    latencies = []
    for i in range(min(1_000, keyspace)):
        before = tree.device.stats.simulated_time
        tree.get(encode_uint_key((i * 7) % keyspace))
        latencies.append(tree.device.stats.simulated_time - before)
    latencies.sort()
    batch = [encode_uint_key(i) for i in range(0, keyspace, 2)]
    before = tree.device.stats.snapshot()
    tree.multi_get(batch)
    batched = tree.device.stats.delta(before)
    before = tree.device.stats.snapshot()
    for key in batch:
        tree.get(key)
    single = tree.device.stats.delta(before)
    quantile = lambda q: latencies[min(len(latencies) - 1, int(q * len(latencies)))]
    return {
        "gets_sampled": len(latencies),
        "get_p50_sim": round(quantile(0.50), 3),
        "get_p99_sim": round(quantile(0.99), 3),
        "batch_keys": len(batch),
        "multi_get_seeks": batched.seeks,
        "individual_seeks": single.seeks,
        "batch_seek_reduction": round(single.seeks / max(1, batched.seeks), 2),
        "multi_get_coalesced_reads": batched.coalesced_reads,
    }


def run_experiment(quick):
    params = QUICK if quick else FULL
    return {
        "experiment": "e22_parallel",
        "quick": quick,
        "compaction": bench_compaction_speedup(params),
        "scan": bench_scan_coalescing(params),
        "point_reads": bench_point_reads(params),
    }


# -- pytest entry -------------------------------------------------------------


def test_e22_parallel(benchmark):
    from conftest import merge_perf_json, once, record

    results = once(benchmark, lambda: run_experiment(quick=True))
    comp, scan, points = results["compaction"], results["scan"], results["point_reads"]
    record(
        "e22_parallel_compaction",
        "E22a — subcompaction wall-clock speedup (4 workers, identical output)",
        ["entries", "serial r=1 s", "serial r=8 s", "parallel s",
         "speedup", "vs seed"],
        [[comp["entries_merged"], comp["serial_noreadahead_wall_s"],
          comp["serial_wall_s"], comp["parallel_wall_s"],
          comp["speedup_vs_serial"], comp["speedup_vs_seed"]]],
    )
    record(
        "e22_parallel_io",
        "E22b — coalesced I/O: scan seeks and batched point reads",
        ["scan seeks serial", "scan seeks coalesced", "reduction",
         "bytes equal", "cache lookups, hits equal",
         "batch seeks", "single seeks", "reduction"],
        [[scan["serial_seeks"], scan["coalesced_seeks"], scan["seek_reduction"],
          scan["serial_bytes"] == scan["coalesced_bytes"],
          scan["serial_cache_lookups_hits"] == scan["coalesced_cache_lookups_hits"],
          points["multi_get_seeks"], points["individual_seeks"],
          points["batch_seek_reduction"]]],
    )
    merge_perf_json(DEFAULT_OUTPUT, results)
    assert comp["identical_output"]
    assert comp["speedup_vs_serial"] >= 2.0
    assert scan["seek_reduction"] >= 3.0
    assert scan["serial_bytes"] == scan["coalesced_bytes"]
    assert scan["serial_cache_lookups_hits"] == scan["coalesced_cache_lookups_hits"]
    assert scan["serial_cache_lookups_hits"][0] > 0
    assert points["batch_seek_reduction"] > 1.0


# -- CI perf-smoke CLI --------------------------------------------------------


def check_baseline(results, baseline_path, tolerance=0.20):
    """Compare serial merge throughput against the committed baseline."""
    if not baseline_path.exists():
        return [f"no baseline at {baseline_path}; skipping regression check"]
    baseline = json.loads(baseline_path.read_text())
    expected = baseline["serial_throughput_eps"]
    measured = results["compaction"]["serial_throughput_eps"]
    floor = expected * (1.0 - tolerance)
    if measured < floor:
        raise SystemExit(
            f"PERF REGRESSION: serial merge throughput {measured:.0f} entries/s "
            f"is below {floor:.0f} (baseline {expected:.0f} - {tolerance:.0%})"
        )
    return [f"serial throughput {measured:.0f} entries/s vs baseline "
            f"{expected:.0f} (floor {floor:.0f}): OK"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="CI-sized run")
    parser.add_argument("--output", type=pathlib.Path, default=DEFAULT_OUTPUT,
                        help="BENCH_perf.json to merge the sections into")
    parser.add_argument("--baseline", type=pathlib.Path, default=BASELINE_PATH)
    parser.add_argument("--check-baseline", action="store_true",
                        help="fail if serial throughput regressed >20%%")
    parser.add_argument("--write-baseline", action="store_true",
                        help="record this run as the new committed baseline")
    args = parser.parse_args(argv)

    from conftest import merge_perf_json

    results = run_experiment(quick=args.quick)
    merge_perf_json(args.output, results)
    comp, scan, points = results["compaction"], results["scan"], results["point_reads"]
    print(f"wrote {args.output}")
    print(f"  merge: serial {comp['serial_wall_s']}s, parallel(4) "
          f"{comp['parallel_wall_s']}s -> {comp['speedup_vs_serial']}x "
          f"(identical output: {comp['identical_output']})")
    print(f"  scan:  {scan['serial_seeks']} -> {scan['coalesced_seeks']} seeks "
          f"({scan['seek_reduction']}x) at equal bytes "
          f"({scan['serial_bytes'] == scan['coalesced_bytes']})")
    print(f"  gets:  p50 {points['get_p50_sim']} p99 {points['get_p99_sim']} sim; "
          f"batch seeks {points['multi_get_seeks']} vs "
          f"{points['individual_seeks']} ({points['batch_seek_reduction']}x)")
    if args.write_baseline:
        args.baseline.parent.mkdir(parents=True, exist_ok=True)
        args.baseline.write_text(json.dumps(
            {"quick": args.quick,
             "serial_throughput_eps": comp["serial_throughput_eps"]}, indent=2))
        print(f"baseline written to {args.baseline}")
    if args.check_baseline:
        for line in check_baseline(results, args.baseline):
            print(f"  {line}")
    if not comp["identical_output"]:
        return 1
    if comp["speedup_vs_serial"] < 2.0:
        print(f"FAIL: speedup {comp['speedup_vs_serial']}x < 2x", file=sys.stderr)
        return 1
    if scan["seek_reduction"] < 3.0:
        print(f"FAIL: scan seek reduction {scan['seek_reduction']}x < 3x",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
