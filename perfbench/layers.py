"""Per-layer measurement from outside changekit: spans and a layer probe.

The layers are changekit's modules.  ``Tracer`` rebinds every public
function and class of each layer module, wherever a changekit module or a
module-level dict holds it, to a wrapper that records the call's time; a
layer's self time is its calls' time minus the time of the traced calls
they made.  ``probe`` times the public functions of each layer directly on
seeded inputs, so its figures do not depend on which workload ran.
"""
from __future__ import annotations

import importlib
import io
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

import workloads

LAYER_MODULES = {
    "changekit.types": "types",
    "changekit.core": "core",
    "changekit.calibration": "calibration",
    "changekit.axioms": "axioms",
    "changekit.cli": "cli",
}
LAYERS = ("types", "kernels", "core", "calibration", "axioms", "cli")

#: Kernel modules that may be importable; `changekit._backend` selects one.
KERNEL_MODULES = {"python": "changekit._kernels_py", "compiled": "changekit._kernels"}


def _layer_modules():
    from changekit import _backend

    mods = [(importlib.import_module(name), layer) for name, layer in LAYER_MODULES.items()]
    return mods + [(_backend.kernels, "kernels")]


class Tracer:
    """Spans around every call into a layer's public functions."""

    def __init__(self):
        self.self_ns: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, bool]] = []

    def _wrap(self, name, fn):
        stack, self_ns, clock = self._stack, self.self_ns, time.perf_counter_ns

        def traced(*args, **kwargs):
            stack.append(0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                self_ns[name] += dur - stack.pop()
                if stack:
                    stack[-1] += dur

        return traced

    def install(self) -> None:
        wrappers = {}
        for mod, layer in _layer_modules():
            for attr, obj in vars(mod).items():
                if callable(obj) and not attr.startswith("_") and getattr(obj, "__module__", None) == mod.__name__:
                    wrappers[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
        for name, mod in list(sys.modules.items()):
            if name != "changekit" and not name.startswith("changekit."):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    setattr(mod, attr, wrappers[id(obj)])
                    self._patches.append((mod, attr, obj, False))
                elif isinstance(obj, dict):  # dispatch tables, e.g. cli's checkers
                    for key, val in list(obj.items()):
                        if id(val) in wrappers:
                            obj[key] = wrappers[id(val)]
                            self._patches.append((obj, key, val, True))

    def uninstall(self) -> None:
        for target, key, obj, is_dict in reversed(self._patches):
            if is_dict:
                target[key] = obj
            else:
                setattr(target, key, obj)
        self._patches.clear()

    def metrics(self, passes: int, pass_s: float) -> dict[str, float]:
        out = {"span.pass_s": pass_s}
        for layer in LAYERS:
            ns = sum(v for k, v in self.self_ns.items() if k.split(".", 1)[0] == layer)
            out[f"span.{layer}.self_s"] = ns / passes / 1e9
        return out


def _median_time(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _kernel_timings(kern, pairs, xs, ys, repeats: int) -> dict[str, float]:
    out = np.empty(len(xs))

    def scalar(fn):
        def run():
            for x, y in pairs:
                fn(0.5, x, y)
        return _median_time(run, repeats) / len(pairs) * 1e9

    def batch(fn):
        return _median_time(lambda: fn(0.5, xs, ys, out), repeats) / len(xs) * 1e9

    return {
        "f_scalar.ns_per_call": scalar(kern.f_scalar),
        "F_scalar.ns_per_call": scalar(kern.F_scalar),
        "f_many.ns_per_elem": batch(kern.f_many),
        "F_many.ns_per_elem": batch(kern.F_many),
    }


def probe(seed: int, sizes: workloads.Sizes, workdir: Path) -> tuple[dict, dict]:
    """Time each layer's public functions on seeded inputs.

    Returns (metrics, info); info holds the timings of every importable
    kernel module, so a compiled-against-python comparison times each.
    """
    from changekit import _backend, axioms, calibration, cli, core, types

    reps = sizes.probe_repeats
    m: dict[str, float] = {}
    info: dict = {}

    # types, kernels, core, calibration: the pair-scalar inputs at lambda = 0.5.
    pw = workloads.PairWorkload(seed, sizes, workdir)
    pairs = dict(pw.blocks)[0.5]
    PositivePair, check_lambda = types.PositivePair, types.check_lambda
    pps = [PositivePair(x, y) for x, y in pairs]
    lams = [workloads.MATRIX[i % len(workloads.MATRIX)] for i in range(len(pairs))]
    cal_inputs = [calibration.CalibrationInput(PositivePair(a, b), PositivePair(c, d))
                  for a, b, c, d, _ in pw.calibrations]

    def loop_pairs():
        for x, y in pairs:
            PositivePair(x, y)

    def loop_lambda():
        for lam in lams:
            check_lambda(lam)

    def loop_eval(fn):
        def run():
            for p in pps:
                fn(0.5, p)
        return run

    def loop_calibrate():
        for inp in cal_inputs:
            calibration.calibrate_lambda(inp)

    n = len(pairs)
    m["types.PositivePair.ns_per_call"] = _median_time(loop_pairs, reps) / n * 1e9
    m["types.check_lambda.ns_per_call"] = _median_time(loop_lambda, reps) / n * 1e9
    m["core.eval_f.ns_per_call"] = _median_time(loop_eval(core.eval_f), reps) / n * 1e9
    m["core.eval_F.ns_per_call"] = _median_time(loop_eval(core.eval_F), reps) / n * 1e9
    m["calibration.calibrate_lambda.ns_per_call"] = (
        _median_time(loop_calibrate, reps) / len(cal_inputs) * 1e9)

    rng = np.random.default_rng(seed)
    xs = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), sizes.probe_elems))
    ys = xs * np.exp(rng.normal(0.0, 1.0, sizes.probe_elems))
    for key, value in _kernel_timings(_backend.kernels, pairs, xs, ys, reps).items():
        m[f"kernels.{key}"] = value
    for backend, modname in KERNEL_MODULES.items():
        try:
            mod = importlib.import_module(modname)
        except ImportError:
            continue
        info[f"kernels[{backend}]"] = {
            k: round(v, 1) for k, v in _kernel_timings(mod, pairs, xs, ys, reps).items()}

    for op in pw.operations("probe"):
        op()
    _, counts = pw.check("probe")
    m["core.eval_F.oracle_misses"] = counts["oracle_misses"]
    info["eval_F worst relative error by lambda"] = counts["F_worst_rel_error"]

    # cli stages on the rank-100k CSV.
    rw = workloads.RankWorkload(seed, sizes, workdir)
    rows = len(rw.rows)
    with open(rw.csv_path, encoding="utf-8", newline="") as fh:
        t0 = time.perf_counter()
        ds = cli.parse_csv(fh, str(rw.csv_path))
        m["cli.parse_csv.rows_per_s"] = rows / (time.perf_counter() - t0)
    t0 = time.perf_counter()
    reports = cli.rank_dataset(ds, 0.5, "f")
    m["cli.rank_dataset.rows_per_s"] = rows / (time.perf_counter() - t0)
    for kind, precision in (("table", 2), ("csv", 2), ("json", 15)):
        buf = io.StringIO()
        t0 = time.perf_counter()
        cli.render_reports(reports, cli.OutputFormat(kind, precision), "f", 0.5, buf)
        m[f"cli.render_reports.{kind}.rows_per_s"] = rows / (time.perf_counter() - t0)
        if kind == "table":
            ranks = [r[6] for r in workloads.parse_rank_output(buf.getvalue(), kind)]
            m["cli.rank.tied_rows"] = workloads.count_tied(ranks)
    del ds, reports

    # verify: whole target runs and each checker.
    nb, nF = sizes.verify_batch_samples, sizes.verify_F_samples

    def cfg(count, lam=0.5, seed=workloads.F_SAMPLE_SEED):
        return axioms.SampleConfig(seed=seed, count=count, lambda_range=(lam, lam))

    m["cli.run_verify.f.s_per_call"] = _median_time(lambda: cli.run_verify("f", 0.5, cfg(nb)), reps)
    m["cli.run_verify.F.s_per_call"] = _median_time(lambda: cli.run_verify("F", 0.5, cfg(nF)), reps)
    f_ind, F_ind = axioms.f_indicator(0.5), axioms.F_indicator(0.5)
    for name, ind in (("affine_linearity", f_ind), ("naturality", f_ind),
                      ("relative_scaling", f_ind), ("vartia_invariance", f_ind),
                      ("antisymmetry", F_ind), ("additivity", F_ind)):
        check = getattr(axioms, f"check_{name}")
        m[f"axioms.check_{name}.ns_per_sample"] = (
            _median_time(lambda: check(ind, cfg(nb)), reps) / nb * 1e9)
    m["axioms.check_normed.ns_per_sample"] = _median_time(
        lambda: axioms.check_normed(axioms.F_indicator, axioms.f_indicator, cfg(nF)), reps) / nF * 1e9
    failed = 0
    for call in workloads.verify_calls(seed, sizes):
        if call.target == "F":
            results, _ = cli.run_verify("F", call.lam, cfg(call.samples, call.lam, call.seed))
            failed += sum(r["expected"] == "pass" and not r["pass"] for r in results)
    m["axioms.F.failed_checks"] = failed
    return m, info
