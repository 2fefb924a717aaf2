"""Smoke tests of the benchmark itself (``pytest perf -q``; not a tier-1 path).

Every workload runs at 1/50 size, so the whole file takes well under a minute.
What is checked is the harness's contract, not the engine's speed: counts
repeat exactly for a seed and move with it, every declared metric comes out
with its unit, a wrong answer is counted, and the trace accounts for its time.
"""

from __future__ import annotations

import functools
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

from harness import run_workload  # noqa: E402
from run import load_declared, result_line  # noqa: E402
from workloads import BLOCK_OPS, PUT, SEGMENTS, WORKLOADS, Stream  # noqa: E402

SCALE = 0.02
SECONDS = 15.0
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
EXACT = ("read_ios_per_op", "write_amp", "space_amp", "sim_cost_per_op")
TREE_WORKLOADS = [name for name, w in WORKLOADS.items() if w.handle == "tree"]


@functools.lru_cache(maxsize=None)
def report(workload: str, seed: int, trace: bool, repeat: int = 0, corrupt=False) -> dict:
    """One small run; ``repeat`` only distinguishes cache entries."""
    return run_workload(
        WORKLOADS[workload], seed, SECONDS, trace, scale=SCALE, corrupt_expected=corrupt
    )


@pytest.fixture(scope="module")
def spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def test_benchmark_json_meets_the_contract(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert spec["paths"] == ["perf"]
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    names = (
        [w["name"] for w in spec["workloads"]]
        + [m["name"] for m in spec["end_to_end"]]
        + [m["name"] for m in spec["per_layer"]]
    )
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_the_recorded_baseline_fits_the_drivers_time_cap(spec):
    """4 + 22 per workload driver runs must end within 3 420 s: judged on the
    wall clock the committed baseline measured, with a fifth in hand for a slower day."""
    with open(os.path.join(HERE, "results", "baseline.json")) as handle:
        baseline = json.load(handle)
    assert baseline["seconds"] == spec["run_seconds"]
    assert list(baseline["workloads"]) == [w["name"] for w in spec["workloads"]]
    start_up = 1.0  # interpreter start and imports, which wall_s does not see
    slower = [
        max(w["plain_run"]["wall_s"], w["traced_run"]["wall_s"]) + start_up
        for w in baseline["workloads"].values()
    ]
    assert (4 * max(slower) + 22 * sum(slower)) * 1.2 <= 3420, slower


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_answer_is_right_and_every_metric_is_emitted(workload):
    declared = load_declared()
    for trace, group in ((False, "end_to_end"), (True, "per_layer")):
        rep = report(workload, 12, trace)
        assert rep["failed"] == 0 and rep["correct"], rep["first_failure"]
        assert rep["attempted"] >= 1 and not rep["integrity_errors"]
        line = result_line(rep, declared)
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert set(line["metrics"]) == set(declared[group])
        for name, cell in line["metrics"].items():
            assert cell["unit"] == declared[group][name]
            assert isinstance(cell["value"], (int, float)) and cell["value"] == cell["value"]
        json.dumps(line)
    end_to_end = report(workload, 12, False)["end_to_end"]
    assert all(value > 0 for value in end_to_end.values()), end_to_end
    assert report(workload, 12, False)["segments"] == SEGMENTS


@pytest.mark.parametrize("workload", TREE_WORKLOADS)
def test_counts_repeat_for_a_seed_and_move_with_it(workload):
    first = report(workload, 12, False)["end_to_end"]
    again = report(workload, 12, False, repeat=1)["end_to_end"]
    other = report(workload, 13, False)["end_to_end"]
    assert [first[name] for name in EXACT] == [again[name] for name in EXACT]
    w = WORKLOADS[workload]
    assert Stream(w, 12, SCALE).segment(BLOCK_OPS).ops != Stream(w, 13, SCALE).segment(BLOCK_OPS).ops
    if workload != "point-hot":  # there the mix is exact and every block fits the cache
        assert [first[name] for name in EXACT] != [other[name] for name in EXACT]


@pytest.mark.parametrize("workload", ["point-cold", "ingest-scan"])
def test_a_wrong_expected_value_is_counted_as_a_failure(workload):
    rep = report(workload, 12, False, corrupt=True)
    assert rep["failed"] == SEGMENTS + 1  # the first read of every segment, warm-up included
    assert not rep["correct"] and "want b'not the stored value'" in rep["first_failure"]
    assert report(workload, 12, False)["failed"] == 0


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_block_of_the_stream_holds_the_exact_mix(workload):
    w = WORKLOADS[workload]
    ops = Stream(w, 12, SCALE).segment(5 * BLOCK_OPS).ops
    for start in range(0, len(ops), BLOCK_OPS):
        kinds = [op[0] for op in ops[start : start + BLOCK_OPS]]
        assert kinds.count(PUT) == round(BLOCK_OPS * (1 - w.read_share))
        assert kinds.count(w.read_kind) == BLOCK_OPS - kinds.count(PUT)


def test_wire_hot_drives_the_head_of_point_hots_stream():
    hot = Stream(WORKLOADS["point-hot"], 12, SCALE)
    wire = Stream(WORKLOADS["wire-hot"], 12, SCALE)
    assert hot.preload() == wire.preload()
    head = wire.segment(2 * BLOCK_OPS).ops + wire.segment(BLOCK_OPS).ops
    assert hot.segment(5 * BLOCK_OPS).ops[: len(head)] == head


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_span_self_times_add_up_to_their_roots(workload):
    rep = report(workload, 12, True)
    table = rep["trace_table"]
    for side in ("client", "server"):
        for kind in ("get", "put", "scan"):
            rows = [r for r in table if r["side"] == side and r["kind"] == kind]
            roots = sum(r["dur_us"] for r in rows if r["parent"] == "")
            selves = sum(r["self_raw_us"] for r in rows)
            if roots:
                assert abs(selves - roots) <= 0.10 * roots, (side, kind, selves, roots)
    layer = rep["per_layer"]
    assert layer["observe.trace_overhead_share"] < 1.0  # tiny runs: may even be negative
    if WORKLOADS[workload].handle == "wire":
        assert layer["service.batch_wait_us"] > 0 and layer["server.bytes_per_op"] > 0
        assert layer["server.errors"] == 0
    else:
        assert layer["core.put_self_us"] > 0 and layer["memtable.put_us"] > 0


def test_without_the_engine_the_command_fails_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perf", ignore=shutil.ignore_patterns("__pycache__", "results"))
    proc = subprocess.run(
        [sys.executable, "perf/run.py", "--workload", "point-hot", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert not proc.stdout.strip()
