"""Run one workload in this process and print its result as one JSON line.

Started by run.py with ``PYTHONPATH`` set to the checkout's ``src``; not
meant to be called by hand.  The timed loop runs whole passes until
``--seconds`` have gone by.  The outputs of the first pass are checked after
the loop, and every later pass must reproduce them exactly.
"""
from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import layers
import workloads
from speed import Speed


def tail(durations: list[float]) -> str:
    """The median, and the highest of p99/p90/p75 with ten samples beyond it."""
    n = len(durations)
    text = f"median {statistics.median(durations):.6g} s over {n} passes"
    for q in (99, 90, 75):
        if n * (100 - q) / 100 >= 10:
            cut = statistics.quantiles(durations, n=100)[q - 1]
            return text + f", p{q} {cut:.6g} s"
    return text


def measure(wl, seconds: float):
    """Whole passes until `seconds` have gone by.

    Returns each pass's time (the sum of its operations' times) as measured,
    and as reported: scaled by the reference loop timed before and after it
    when the workload sets `scaled` (see speed.py), else as measured.  Then
    the operation counts and the reference samples.
    """
    speed = Speed()
    passes: list[float] = []
    reported: list[float] = []
    attempted = failed = mismatched = 0
    first_fp = None
    if wl.scaled:
        speed.sample()
    start = time.perf_counter()
    while True:
        tag = "first" if not passes else "again"
        spent = 0.0
        for op in wl.operations(tag):
            t0 = time.perf_counter()
            ok = op()
            spent += time.perf_counter() - t0
            attempted += 1
            failed += not ok
        passes.append(spent)
        if wl.scaled:
            speed.sample()
            reported.append(spent * speed.scale_last())
        else:
            reported.append(spent)
        fp = wl.fingerprint(tag)
        if first_fp is None:
            first_fp = fp
        elif fp != first_fp:
            mismatched += 1
        if time.perf_counter() - start >= seconds:
            return passes, reported, attempted, failed, mismatched, speed.samples


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--root", type=Path, required=True)
    args = ap.parse_args()

    import changekit
    import numpy

    src = (args.root / "src").resolve()
    if src not in Path(changekit.__file__).resolve().parents:
        print(f"changekit was imported from {changekit.__file__}, not from {src}", file=sys.stderr)
        return 3

    sizes = workloads.SMOKE if args.smoke else workloads.FULL
    workdir = workloads.workdir_for(args.root, args.workload)
    wl = workloads.WORKLOADS[args.workload](args.seed, sizes, workdir)

    tracer = layers.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    try:
        passes, reported, attempted, failed, mismatched, samples = measure(wl, args.seconds)
    finally:
        if tracer:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    problems, counts = wl.check("first")
    if mismatched:
        problems.append(f"{mismatched} of {len(passes) - 1} later passes changed the output")

    info = {
        "backend": changekit.BACKEND,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "measured pass time": tail(passes),
    }
    if tracer:
        metrics = tracer.metrics(len(passes), statistics.median(passes))
        probed, probe_info = layers.probe(args.seed, sizes, workdir)
        metrics.update(probed)
        info.update(probe_info)
    else:
        metrics = {
            "pass_s": statistics.median(reported),
            "items_per_s": wl.items_per_pass * len(reported) / sum(reported),
            "peak_rss_mb": peak_rss_mb,
        }
    if samples:
        info["reference loop"] = f"median {statistics.median(samples) * 1e3:.4g} ms over {len(samples)} samples"
    if "F_worst_rel_error" in counts:
        info["eval_F worst relative error by lambda"] = counts["F_worst_rel_error"]
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "problems": problems[:20],
        "info": info,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
