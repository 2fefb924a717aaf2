"""The harness kernel's failure path — the one green CI runs never reach.

Both matrices report through ``run_grid`` / ``finish_matrix``; a stub harness
that always violates its contract checks what a red run produces: a failure
record per configuration, the failures file, one replay line each, exit 1 —
and that a harness with a ``close()`` is closed even when its run raises.
"""

import json

import pytest

from repro.faults.kernel import CycleResult, HarnessReport, finish_matrix, run_grid


class _StubHarness:
    closed = 0

    def __init__(self, seed, mode):
        self.seed, self.mode = seed, mode

    def run(self, cycles):
        if self.mode == "boom":
            raise RuntimeError("harness died")
        violations = [f"seed {self.seed} lost a write"] if self.mode == "bad" else []
        return HarnessReport([
            CycleResult(cycle=n, crash_point="p", countdown=1, fired=True,
                        ops_acked=3, violations=list(violations))
            for n in range(cycles)
        ])

    def close(self):
        type(self).closed += 1


def test_grid_collects_replayable_failures_and_closes_harnesses(capsys):
    _StubHarness.closed = 0
    grid = [dict(seed=1, mode="good"), dict(seed=2, mode="bad")]
    ok, failures = run_grid(grid, _StubHarness, cycles=2, verbose=True)
    assert not ok
    assert failures == [
        {"seed": 2, "mode": "bad", "violations": ["seed 2 lost a write"] * 2}
    ]
    assert _StubHarness.closed == 2
    out = capsys.readouterr().out
    assert "seed=1 mode=good: 2 cycles, 2 crashes fired, 6 acked ops, 0 violations" in out
    assert "matrix total: 4 cycles, 1 failing configs" in out
    with pytest.raises(RuntimeError):
        run_grid([dict(seed=3, mode="boom")], _StubHarness, cycles=1)
    assert _StubHarness.closed == 3


def test_red_matrix_writes_the_failures_file_and_replay_hints(tmp_path, capsys):
    failures = [{"seed": 2, "mode": "bad", "violations": ["x"]}]
    path = tmp_path / "failures.json"
    code = finish_matrix(
        failures, str(path), "durability", lambda f: f"--seed {f['seed']} --mode {f['mode']}"
    )
    assert code == 1
    assert json.loads(path.read_text()) == failures
    err = capsys.readouterr().err
    assert "FAIL: 1 configuration(s) violated durability" in err
    assert "  replay: --seed 2 --mode bad" in err
    assert finish_matrix([], str(tmp_path / "none.json"), "durability", str) == 0
    assert not (tmp_path / "none.json").exists()
