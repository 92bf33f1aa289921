"""Tests of the benchmark itself, through its smoke mode.

    python -m pytest perfbench

The smoke mode runs every workload on small inputs, untraced and traced,
with every output check; it takes a few seconds and gates on no timing.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def test_smoke_runs_every_workload_with_its_checks():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"],
                          capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    summary = json.loads(proc.stdout.splitlines()[-1])
    assert summary["smoke"] == "pass"
    runs = {(r["workload"], r["trace"]): r for r in summary["runs"]}
    assert set(runs) == {(w, t) for w in ("rank-100k", "verify-grid", "pair-scalar") for t in (0, 1)}
    for (workload, _), run in runs.items():
        assert run["correct"] and run["attempted"] > 0
        # Only the three `verify --target F` calls outside the matrix fail: 3 of 18.
        expected = run["attempted"] // 6 if workload == "verify-grid" else 0
        assert run["failed"] == expected, run


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pair-scalar", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""
