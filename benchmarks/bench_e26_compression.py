"""E26 — Per-block compression and the two-tier block cache.

Three claims about ``repro.storage.compression`` + the cache tiers:

* **Device bytes drop ≥25%** under both real codecs (``zlib`` and the
  RLE fallback) on a compressible YCSB-style workload — written bytes
  during load+compaction and read bytes during an uncached point-get
  sweep both shrink, measured by the simulator's exact byte accounting.
* **The warm read path gives nothing back**: with the uncompressed cache
  tier warm, point-get and scan throughput under every codec stays
  within 10% of the ``none`` codec (decode cost is paid once, at fill).
* **Compaction is codec-transparent**: serial and 4-way parallel
  subcompactions produce identical entry sequences under every codec.

It also sweeps the cache budget split between the uncompressed and
compressed tiers: at a fixed total budget smaller than the working set,
moving budget into the compressed tier holds more blocks resident
(compressed frames are smaller), cutting device reads.

Runs two ways:

* ``pytest benchmarks/bench_e26_compression.py`` — the experiment-table
  path (writes ``benchmarks/results/e26_*.txt``);
* ``python benchmarks/bench_e26_compression.py [--quick]`` — the CI
  perf-smoke path: merges a ``compression`` section into
  ``BENCH_perf.json`` and, with ``--check-baseline``, fails if point-get
  or scan throughput regressed against the committed baseline
  (``benchmarks/baselines/perf_baseline.json``).
"""

import argparse
import hashlib
import json
import pathlib
import sys
import time

from repro import LSMConfig, LSMTree, encode_uint_key
from repro.common.entry import Entry, EntryKind
from repro.parallel import per_key, run_subcompactions, split_key_ranges
from repro.storage.block_device import BlockDevice
from repro.storage.run import Run
from repro.storage.sstable import SSTableBuilder

HERE = pathlib.Path(__file__).parent
BASELINE_PATH = HERE / "baselines" / "perf_baseline.json"
DEFAULT_OUTPUT = HERE / "results" / "BENCH_perf.json"

CODECS = ("none", "rle", "zlib")

FULL = dict(entries=10_000, keyspace=2_400, value_size=96, io_gets=1_500,
            timed_gets=6_000, timed_scans=120, scan_len=64,
            merge_runs=3, merge_entries_per_run=3_000,
            split_budget=64 << 10, split_gets=1_500)
QUICK = dict(entries=5_000, keyspace=1_200, value_size=96, io_gets=1_000,
             timed_gets=4_000, timed_scans=80, scan_len=48,
             merge_runs=3, merge_entries_per_run=1_500,
             split_budget=48 << 10, split_gets=1_000)


def _value(key: int, size: int) -> bytes:
    """Compressible YCSB-style payload: a short unique header then a long
    single-byte run (field padding), so both zlib and byte-RLE bite."""
    head = b"f%05d=" % (key % 100_000)
    return head + bytes([97 + key % 5]) * (size - len(head))


def _load(tree, params):
    for i in range(params["entries"]):
        key = (i * 31) % params["keyspace"]
        if i % 23 == 0:
            tree.delete(encode_uint_key(key))
        else:
            tree.put(encode_uint_key(key), _value(key, params["value_size"]))
    tree.flush()
    tree.compact_all()


def _config(codec, cache_bytes, compressed_cache_bytes=0, seed=26):
    return LSMConfig(
        buffer_bytes=8 << 10, block_size=512, size_ratio=3,
        bits_per_key=10.0, cache_bytes=cache_bytes,
        compressed_cache_bytes=compressed_cache_bytes,
        compression=codec, seed=seed,
    )


# -- part (a): device-byte reduction ------------------------------------------


def bench_device_bytes(params):
    """Load + compact + uncached get sweep per codec; exact device bytes."""
    out = {}
    for codec in CODECS:
        tree = LSMTree(_config(codec, cache_bytes=0))
        _load(tree, params)
        written = tree.device.stats.bytes_written
        before = tree.device.stats.snapshot()
        for i in range(params["io_gets"]):
            tree.get(encode_uint_key((i * 7) % params["keyspace"]))
        read = tree.device.stats.delta(before).bytes_read
        out[codec] = {
            "bytes_written": written,
            "bytes_read": read,
            "compression_ratio": round(tree.stats.compression_ratio, 4),
            "blocks_written": tree.stats.blocks_written,
        }
    for codec in CODECS:
        out[codec]["write_reduction"] = round(
            1.0 - out[codec]["bytes_written"] / out["none"]["bytes_written"], 4
        )
        out[codec]["read_reduction"] = round(
            1.0 - out[codec]["bytes_read"] / out["none"]["bytes_read"], 4
        )
    return out


# -- part (b): warm-tier throughput -------------------------------------------


def _timed(fn) -> float:
    """One GC-quiesced wall-clock pass (collect before, disable during)."""
    import gc

    gc.collect()
    gc.disable()
    try:
        began = time.perf_counter()
        fn()
        return time.perf_counter() - began
    finally:
        gc.enable()


def bench_warm_throughput(params, repeats=4):
    """Point-get and scan ops/s per codec with the uncompressed tier warm.

    All codecs' trees are built first and the timed passes are interleaved
    round-robin (best-of-N per codec), so a machine-load drift window hits
    every codec alike instead of skewing the cross-codec ratios the 10%
    gate compares.
    """
    keyspace = params["keyspace"]
    trees = {}
    for codec in CODECS:
        tree = LSMTree(_config(codec, cache_bytes=8 << 20,
                               compressed_cache_bytes=256 << 10))
        _load(tree, params)
        trees[codec] = tree

    def gets(tree):
        for i in range(params["timed_gets"]):
            tree.get(encode_uint_key((i * 13) % keyspace))

    def scans(tree):
        for i in range(params["timed_scans"]):
            start = (i * 101) % keyspace
            lo = encode_uint_key(start)
            hi = encode_uint_key(min(keyspace, start + params["scan_len"]))
            for _ in tree.scan(lo, hi):
                pass

    best = {codec: {"gets": float("inf"), "scans": float("inf")}
            for codec in CODECS}
    for codec in CODECS:  # warm both tiers before any timing
        gets(trees[codec])
        scans(trees[codec])
    for _ in range(repeats):
        for codec in CODECS:
            best[codec]["gets"] = min(best[codec]["gets"],
                                      _timed(lambda: gets(trees[codec])))
            best[codec]["scans"] = min(best[codec]["scans"],
                                       _timed(lambda: scans(trees[codec])))

    out = {}
    for codec in CODECS:
        snapshot = trees[codec].metrics_snapshot()
        out[codec] = {
            "point_get_ops_s": round(params["timed_gets"] / best[codec]["gets"], 1),
            "scan_ops_s": round(params["timed_scans"] / best[codec]["scans"], 1),
            "cache_hit_rate": round(
                snapshot["cache_hits"]
                / max(1, snapshot["cache_hits"] + snapshot["cache_misses"]), 4),
            "cache_compressed_hits": snapshot["cache_compressed_hits"],
        }
    for codec in CODECS:
        out[codec]["point_get_vs_none"] = round(
            out[codec]["point_get_ops_s"] / out["none"]["point_get_ops_s"], 3)
        out[codec]["scan_vs_none"] = round(
            out[codec]["scan_ops_s"] / out["none"]["scan_ops_s"], 3)
    return out


# -- part (c): serial vs parallel compaction under every codec -----------------


def _build_overlapping_runs(device, params, codec):
    runs, seq = [], 1
    for r in range(params["merge_runs"]):
        builder = SSTableBuilder(device, codec=None if codec == "none" else codec)
        for i in range(params["merge_entries_per_run"]):
            key = encode_uint_key(i * params["merge_runs"] + r)
            if (i + r) % 17 == 0:
                builder.add(Entry(key, seq, EntryKind.DELETE))
            else:
                builder.add(Entry(key, seq, value=_value(i, params["value_size"])))
            seq += 1
        runs.append(Run([builder.finish()]))
    return runs


def _newest_live(group):
    """Bottom-level fold: keep each key's newest version unless it is a tombstone."""
    return None if group[0].is_tombstone else group[0]


def _merge_digest(device, inputs, ranges, codec):
    tables = run_subcompactions(
        inputs, ranges, per_key(_newest_live),
        builder_factory=lambda: SSTableBuilder(
            device, write_buffer_blocks=8,
            codec=None if codec == "none" else codec),
        file_limit=256 << 10, readahead=8,
    )
    digest = hashlib.sha256()
    entries = 0
    for table in tables:
        for entry in table.iter_entries():
            digest.update(b"%d:%d:" % (entry.seqno, entry.kind))
            digest.update(entry.key)
            digest.update(entry.value or b"")
            entries += 1
    for table in tables:
        table.delete()
    return digest.hexdigest(), entries


def bench_parallel_identity(params):
    out = {}
    for codec in CODECS:
        device = BlockDevice(block_size=4096)
        inputs = _build_overlapping_runs(device, params, codec)
        ranges = split_key_ranges(inputs, max_subcompactions=4, min_blocks=8)
        serial_digest, serial_n = _merge_digest(device, inputs, [(None, None)], codec)
        parallel_digest, parallel_n = _merge_digest(device, inputs, ranges, codec)
        out[codec] = {
            "entries": serial_n,
            "subcompactions": len(ranges),
            "identical": serial_digest == parallel_digest and serial_n == parallel_n,
            "digest": serial_digest[:16],
        }
    return out


# -- part (d): cache-tier split sweep -----------------------------------------


def bench_tier_split(params):
    """Fixed cache budget, swept between tiers; device reads per split.

    The budget is deliberately smaller than the decoded working set, so
    what fits resident decides how many gets fall through to the device.
    """
    budget = params["split_budget"]
    splits = [("all_uncompressed", 1.0), ("half_half", 0.5), ("quarter", 0.25)]
    out = {}
    for codec in ("rle", "zlib"):
        rows = {}
        for name, fraction in splits:
            uncompressed = int(budget * fraction)
            tree = LSMTree(_config(codec, cache_bytes=uncompressed,
                                   compressed_cache_bytes=budget - uncompressed))
            _load(tree, params)
            # Two passes over the same key sequence: the first fills the
            # tiers, the second shows what stayed resident.
            for _pass in range(2):
                before = tree.device.stats.snapshot()
                for i in range(params["split_gets"]):
                    tree.get(encode_uint_key((i * 11) % params["keyspace"]))
                delta = tree.device.stats.delta(before)
            snapshot = tree.metrics_snapshot()
            rows[name] = {
                "uncompressed_bytes": uncompressed,
                "compressed_bytes": budget - uncompressed,
                "device_reads": delta.blocks_read,
                "compressed_tier_hits": snapshot["cache_compressed_hits"],
            }
        out[codec] = rows
    return out


def run_experiment(quick):
    params = QUICK if quick else FULL
    return {
        "experiment": "e26_compression",
        "quick": quick,
        "device_bytes": bench_device_bytes(params),
        "warm_throughput": bench_warm_throughput(params),
        "parallel_identity": bench_parallel_identity(params),
        "tier_split": bench_tier_split(params),
    }


def merge_into_perf_json(results, path):
    """Merge this experiment's section into the shared perf JSON."""
    from conftest import merge_perf_json

    merged = {}
    bytes_ = results["device_bytes"]
    warm = results["warm_throughput"]
    identity = results["parallel_identity"]
    merged["compression"] = {
        "codecs": {
            codec: {
                "compression_ratio": bytes_[codec]["compression_ratio"],
                "write_reduction": bytes_[codec]["write_reduction"],
                "read_reduction": bytes_[codec]["read_reduction"],
                "point_get_ops_s": warm[codec]["point_get_ops_s"],
                "point_get_vs_none": warm[codec]["point_get_vs_none"],
                "scan_ops_s": warm[codec]["scan_ops_s"],
                "scan_vs_none": warm[codec]["scan_vs_none"],
                "parallel_identical": identity[codec]["identical"],
            }
            for codec in CODECS
        },
        "device_byte_reduction_ok": all(
            bytes_[c]["write_reduction"] >= 0.25
            and bytes_[c]["read_reduction"] >= 0.25
            for c in ("rle", "zlib")
        ),
        "warm_throughput_within_10pct": all(
            warm[c]["point_get_vs_none"] >= 0.90
            and warm[c]["scan_vs_none"] >= 0.90
            for c in ("rle", "zlib")
        ),
        "parallel_identical_all_codecs": all(
            identity[c]["identical"] for c in CODECS
        ),
        "tier_split": results["tier_split"],
    }
    return merge_perf_json(path, merged)


# -- pytest entry -------------------------------------------------------------


def test_e26_compression(benchmark):
    from conftest import once, record

    results = once(benchmark, lambda: run_experiment(quick=True))
    bytes_ = results["device_bytes"]
    warm = results["warm_throughput"]
    identity = results["parallel_identity"]
    record(
        "e26_compression",
        "E26 — per-block compression: device bytes, warm throughput, "
        "parallel identity",
        ["codec", "ratio", "write cut", "read cut", "get ops/s", "vs none",
         "scan ops/s", "vs none", "parallel ="],
        [
            [codec, bytes_[codec]["compression_ratio"],
             f"{bytes_[codec]['write_reduction']:.1%}",
             f"{bytes_[codec]['read_reduction']:.1%}",
             warm[codec]["point_get_ops_s"], warm[codec]["point_get_vs_none"],
             warm[codec]["scan_ops_s"], warm[codec]["scan_vs_none"],
             identity[codec]["identical"]]
            for codec in CODECS
        ],
    )
    split_rows = []
    for codec, rows in results["tier_split"].items():
        for name, row in rows.items():
            split_rows.append(
                [codec, name, row["uncompressed_bytes"], row["compressed_bytes"],
                 row["device_reads"], row["compressed_tier_hits"]]
            )
    record(
        "e26_tier_split",
        "E26b — cache-tier split sweep (fixed budget, second pass)",
        ["codec", "split", "uncompressed B", "compressed B",
         "device reads", "tier hits"],
        split_rows,
    )
    merge_into_perf_json(results, DEFAULT_OUTPUT)
    for codec in ("rle", "zlib"):
        assert bytes_[codec]["write_reduction"] >= 0.25, codec
        assert bytes_[codec]["read_reduction"] >= 0.25, codec
        assert warm[codec]["point_get_vs_none"] >= 0.90, warm[codec]
        assert warm[codec]["scan_vs_none"] >= 0.90, warm[codec]
    for codec in CODECS:
        assert identity[codec]["identical"], codec
    for codec, rows in results["tier_split"].items():
        assert (rows["half_half"]["device_reads"]
                <= rows["all_uncompressed"]["device_reads"]), codec


# -- CI perf-smoke CLI --------------------------------------------------------


def check_baseline(results, baseline_path, tolerance=0.30):
    """Compare warm point-get and scan ops/s against the committed baseline."""
    if not baseline_path.exists():
        return [f"no baseline at {baseline_path}; skipping regression check"]
    baseline = json.loads(baseline_path.read_text())
    lines = []
    warm_none = results["warm_throughput"]["none"]
    for metric in ("point_get_ops_s", "scan_ops_s"):
        expected = baseline.get(metric)
        if expected is None:
            lines.append(f"baseline lacks {metric}; run --write-baseline")
            continue
        measured = warm_none[metric]
        floor = expected * (1.0 - tolerance)
        if measured < floor:
            raise SystemExit(
                f"PERF REGRESSION: {metric} {measured:.0f} is below "
                f"{floor:.0f} (baseline {expected:.0f} - {tolerance:.0%})"
            )
        lines.append(f"{metric} {measured:.0f} vs baseline {expected:.0f} "
                     f"(floor {floor:.0f}): OK")
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="CI-sized run")
    parser.add_argument("--output", type=pathlib.Path, default=DEFAULT_OUTPUT,
                        help="BENCH_perf.json to merge the section into")
    parser.add_argument("--baseline", type=pathlib.Path, default=BASELINE_PATH)
    parser.add_argument("--check-baseline", action="store_true",
                        help="fail if warm read throughput regressed >30%%")
    parser.add_argument("--write-baseline", action="store_true",
                        help="record this run's read throughput in the baseline")
    args = parser.parse_args(argv)

    results = run_experiment(quick=args.quick)
    merge_into_perf_json(results, args.output)
    print(f"merged compression into {args.output}")
    bytes_ = results["device_bytes"]
    warm = results["warm_throughput"]
    identity = results["parallel_identity"]
    for codec in CODECS:
        print(f"  {codec + ':':6} ratio {bytes_[codec]['compression_ratio']}, "
              f"write cut {bytes_[codec]['write_reduction']:.1%}, "
              f"read cut {bytes_[codec]['read_reduction']:.1%}, "
              f"get {warm[codec]['point_get_ops_s']:.0f} ops/s "
              f"({warm[codec]['point_get_vs_none']:.2f}x none), "
              f"scan {warm[codec]['scan_ops_s']:.0f} ops/s "
              f"({warm[codec]['scan_vs_none']:.2f}x none), "
              f"parallel identical {identity[codec]['identical']}")
    if args.write_baseline:
        args.baseline.parent.mkdir(parents=True, exist_ok=True)
        baseline = {}
        if args.baseline.exists():
            baseline = json.loads(args.baseline.read_text())
        baseline["point_get_ops_s"] = warm["none"]["point_get_ops_s"]
        baseline["scan_ops_s"] = warm["none"]["scan_ops_s"]
        args.baseline.write_text(json.dumps(baseline, indent=2))
        print(f"baseline updated at {args.baseline}")
    if args.check_baseline:
        for line in check_baseline(results, args.baseline):
            print(f"  {line}")
    ok = True
    for codec in ("rle", "zlib"):
        if (bytes_[codec]["write_reduction"] < 0.25
                or bytes_[codec]["read_reduction"] < 0.25):
            print(f"FAIL: {codec} device-byte reduction below 25%",
                  file=sys.stderr)
            ok = False
        if (warm[codec]["point_get_vs_none"] < 0.90
                or warm[codec]["scan_vs_none"] < 0.90):
            print(f"FAIL: {codec} warm throughput >10% below none",
                  file=sys.stderr)
            ok = False
    for codec in CODECS:
        if not identity[codec]["identical"]:
            print(f"FAIL: {codec} parallel merge diverged", file=sys.stderr)
            ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
