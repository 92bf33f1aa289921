#!/usr/bin/env python3
"""changekit benchmark: run one workload against the checkout's src/.

    python3 perfbench/run.py --workload rank-100k --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

Each workload runs in a process of its own (worker.py); set-up time is the
import of changekit in fresh interpreters.  The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics:
the end-to-end metrics of BENCHMARK.json with --trace 0, its per-layer
metrics with --trace 1.  Lines before it, starting with '#', say what ran.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
WORKLOADS = ("rank-100k", "verify-grid", "pair-scalar")

#: Fresh interpreters started to time `import changekit`; the median is reported.
IMPORT_STARTS = 9
IMPORT_PROBE = "import time; t = time.perf_counter(); import changekit; print(time.perf_counter() - t)"

#: Every run ends within this many seconds, set-up and checks included.
DEADLINE_S = 170


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("CHANGEKIT_SEED", None)  # the benchmark passes every seed itself
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + inherited if inherited else "")
    return env


def _python(args: list[str], timeout: float) -> subprocess.CompletedProcess:
    try:
        proc = subprocess.run([sys.executable, *args], env=child_env(), cwd=ROOT,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:  # run() kills the child and waits for it
        raise BenchError(f"{args[:3]} did not finish within {timeout:.0f} s")
    if proc.returncode != 0:
        raise BenchError(f"{args[:3]} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return proc


def import_seconds() -> float:
    """Wall time of `import changekit` in a fresh interpreter."""
    return float(_python(["-c", IMPORT_PROBE], 60).stdout)


def import_own_seconds() -> float:
    """Self time of changekit's own modules under -X importtime, which
    leaves numpy's (and every other package's) import out."""
    err = _python(["-X", "importtime", "-c", "import changekit"], 60).stderr
    us = 0
    for line in err.splitlines():
        parts = line.split("|")
        if line.startswith("import time:") and len(parts) == 3:
            name = parts[2].strip()
            if name == "changekit" or name.startswith("changekit."):
                us += int(parts[0].split(":")[1])
    return us / 1e6


def run_workload(workload: str, seed: int, seconds: float, trace: int, smoke: bool,
                 deadline: float) -> dict:
    args = [str(WORKER), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--root", str(ROOT)]
    if smoke:
        args.append("--smoke")
    starts = 3 if smoke else IMPORT_STARTS
    name, measure = ("import.changekit_own_s", import_own_seconds) if trace else ("setup_s", import_seconds)
    seconds = statistics.median(measure() for _ in range(starts))
    proc = _python(args, deadline - time.monotonic())
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["metrics"][name] = seconds
    result["info"][name] = f"median {seconds:.6g} s over {starts} starts"
    return result


def declared_metrics(trace: int) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def report(workload: str, result: dict, units: dict[str, str]) -> dict:
    """Print what ran and return the result line, metrics in BENCHMARK.json's order."""
    got = result["metrics"]
    if set(got) != set(units):
        raise BenchError(f"metrics differ from BENCHMARK.json: missing {sorted(set(units) - set(got))}, "
                         f"extra {sorted(set(got) - set(units))}")
    print(f"# workload {workload}: " + ", ".join(f"{k} {v}" for k, v in result["info"].items()))
    for problem in result["problems"]:
        print(f"# WRONG: {problem}")
    print(f"# attempted {result['attempted']}, failed {result['failed']}, correct {result['correct']}")
    for name, unit in units.items():
        print(f"# {name} = {got[name]:.6g} {unit}")
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": got[name], "unit": unit} for name, unit in units.items()},
    }


def smoke(deadline: float) -> int:
    """Every workload on small inputs, untraced and traced, with all checks."""
    runs = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            res = report(workload, run_workload(workload, 1, 0.2, trace, True, deadline),
                         declared_metrics(trace))
            runs.append({"workload": workload, "trace": trace, "correct": res["correct"],
                         "attempted": res["attempted"], "failed": res["failed"]})
    ok = all(r["correct"] for r in runs)
    print(json.dumps({"smoke": "pass" if ok else "fail", "runs": runs}))
    return 0 if ok else 1


def main() -> int:
    deadline = time.monotonic() + DEADLINE_S
    ap = argparse.ArgumentParser(description="changekit benchmark")
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="run every workload briefly on small inputs, with every check")
    args = ap.parse_args()
    if not (ROOT / "src" / "changekit" / "__init__.py").is_file():
        print(f"perfbench: no changekit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.smoke:
            return smoke(deadline)
        if args.workload is None:
            ap.error("--workload is required unless --smoke is given")
        result = run_workload(args.workload, args.seed, args.seconds, args.trace, False, deadline)
        line = report(args.workload, result, declared_metrics(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
