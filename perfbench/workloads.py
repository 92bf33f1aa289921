"""The three workloads: seeded inputs, one pass of operations, output checks.

Every input is made here from the benchmark seed with ``random.Random``, so
the same seed gives the same inputs whatever numpy's version.  The program
sees only the generated inputs: a CSV file and argv lists for the CLI
workloads, Python floats for the library workload.
"""
from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import random
from collections import Counter
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import oracle
from oracle import EPS

#: The lambda matrix of the acceptance suite.
MATRIX = (-1.0, 0.0, 0.25, 0.5, 1.0, 2.0)

#: `verify --target F` lambdas outside the matrix.  Each call exits 2 (the
#: F_lam cancellation and checker-normalization fault of ROADMAP item 3);
#: they run on a fixed sampling seed so that they fail on every run.
FAILING_F_LAMBDAS = (-1.5, 5.0, 1e-9)

#: The CLI's default sampling seed.  Every `verify --target F` call samples
#: with it: on other seeds an expected-pass F check can fail inside the
#: matrix (relative_scaling at lambda = -1), which would make the failed
#: share depend on the seed.
F_SAMPLE_SEED = 20260824

#: Relative band inside which `rank` merges values into one rank.
RANK_TIE_REL = 1e-9


@dataclass(frozen=True)
class Sizes:
    rank_rows: int = 100_000
    verify_batch_samples: int = 100_000
    verify_F_samples: int = 2_000
    pair_block: int = 4_000
    calibration_block: int = 4_000
    probe_elems: int = 200_000
    probe_repeats: int = 5


FULL = Sizes()
SMOKE = Sizes(
    rank_rows=2_000,
    verify_batch_samples=5_000,
    pair_block=200,
    calibration_block=200,
    probe_elems=10_000,
    probe_repeats=1,
)


def _digest(paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(Path(p).read_bytes())
    return h.hexdigest()


def _call_cli(argv, out_path: Path) -> int:
    """One `changekit` command in-process, its stdout sent to a file."""
    from changekit import cli

    with open(out_path, "w", encoding="utf-8") as fh, contextlib.redirect_stdout(fh):
        return cli.main(argv)


def _sign(v) -> int:
    return (v > 0) - (v < 0)


# -- rank-100k --------------------------------------------------------------

def write_rank_csv(path: Path, seed: int, n: int) -> list[tuple[str, float, float]]:
    """A `label,past,present` CSV of n rows over six decades of scale.

    About 3% of rows are exactly stagnant (x == y) and about 3% repeat an
    earlier row's values, so the tie band merges real ties.  Values carry six
    significant digits, as measured data would.  Returns the rows as the
    program should read them.
    """
    rng = random.Random(f"rank-{seed}")
    texts: list[tuple[str, str]] = []
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("label,past,present\n")
        for i in range(n):
            u = rng.random()
            if u < 0.03 and texts:
                xt, yt = texts[rng.randrange(len(texts))]
            else:
                x = 10.0 ** rng.uniform(-2.0, 4.0)
                xt = f"{x:.6g}"
                yt = xt if u < 0.06 else f"{float(xt) * math.exp(rng.gauss(0.0, 0.5)):.6g}"
            texts.append((xt, yt))
            fh.write(f"ch{i:06d},{xt},{yt}\n")
    return [(f"ch{i:06d}", float(xt), float(yt)) for i, (xt, yt) in enumerate(texts)]


class RankWorkload:
    """`changekit rank` on a seeded CSV, three output formats per pass."""

    name = "rank-100k"
    scaled = False  # see speed.py
    # (indicator, lambda, format, precision)
    CALLS = (("f", 0.5, "table", 2), ("F", -1.0, "csv", 2), ("f", 1.0, "json", 15))

    def __init__(self, seed: int, sizes: Sizes, workdir: Path):
        self.workdir = workdir
        self.csv_path = workdir / "rank.csv"
        self.rows = write_rank_csv(self.csv_path, seed, sizes.rank_rows)
        self.items_per_pass = len(self.CALLS) * len(self.rows)
        self.paths: dict[str, list[Path]] = {}
        self.codes: dict[str, list] = {}

    def argv(self, call) -> list[str]:
        ind, lam, kind, prec = call
        return ["rank", str(self.csv_path), "--indicator", ind, "--lambda", repr(lam),
                "--format", kind, "--precision", str(prec)]

    def operations(self, tag: str) -> list:
        """One pass: each call writes its output to a file named by tag."""
        self.paths[tag] = [self.workdir / f"rank.{tag}.{k}.out" for k in range(len(self.CALLS))]
        self.codes[tag] = [None] * len(self.CALLS)
        return [partial(self._rank, tag, k) for k in range(len(self.CALLS))]

    def _rank(self, tag: str, k: int) -> bool:
        rc = self.codes[tag][k] = _call_cli(self.argv(self.CALLS[k]), self.paths[tag][k])
        return rc == 0

    def fingerprint(self, tag: str) -> str:
        return _digest(self.paths[tag])

    def check(self, tag: str) -> tuple[list[str], dict]:
        problems: list[str] = []
        D = oracle.D
        exact = {label: (x, y, D(x), D(y)) for label, x, y in self.rows}
        for call, rc, path in zip(self.CALLS, self.codes[tag], self.paths[tag]):
            if rc != 0:
                continue  # a failed call; counted in `failed`
            try:
                rows = parse_rank_output(path.read_text(encoding="utf-8"), call[2])
            except (ValueError, KeyError, IndexError) as exc:
                problems.append(f"rank {call}: unreadable output: {exc}")
                continue
            problems += check_rank_rows(exact, rows, *call)
        return problems, {}


def parse_rank_output(text: str, kind: str) -> list[tuple]:
    """(label, past, present, abs, rel, indicator, rank) per output row, in order.

    Numbers stay as printed text; the table's relative change keeps its
    percent scale.
    """
    if kind == "json":
        return [(d["label"], d["past"], d["present"], d["abs"], d["rel"], d["indicator"], d["rank"])
                for d in json.loads(text)]
    lines = text.splitlines()
    if kind == "csv":
        if lines[0] != "label,past,present,abs,rel,indicator,rank":
            raise ValueError(f"bad csv header {lines[0]!r}")
        cells = [line.split(",") for line in lines[1:]]
    else:
        cells = [line.split() for line in lines[1:] if not line.startswith("#")]
        for c in cells:
            c[4] = c[4].rstrip("%")
    return [(c[0], c[1], c[2], c[3], c[4], c[5], int(c[6])) for c in cells]


def check_rank_rows(exact: dict, rows, indicator: str, lam: float, kind: str, precision: int):
    """Check one `rank` output against values computed apart from changekit.

    `exact` maps each input label to (x, y) as floats and as Decimals.
    Every label appears once; ranks are dense and follow the reference
    values, with the tie band honoured up to each value's rounding allowance;
    printed numbers are within one unit of their last digit (a few roundings
    at full precision).
    """
    problems: list[str] = []
    where = f"rank {indicator} lambda={lam} {kind}"
    labels = [r[0] for r in rows]
    if len(labels) != len(exact) or set(labels) != set(exact):
        return [f"{where}: labels differ from the input ({len(labels)} rows for {len(exact)})"]

    ref_fn = oracle.f_ref if indicator == "f" else oracle.F_ref
    rel_scale = 100 if kind == "table" else 1
    unit = 10.0**-precision * (1 + 1e-9)
    refs, allow = [], []
    for label, past, present, ab, rel, ind, _rank in rows:
        x, y, dx, dy = exact[label]
        ref = ref_fn(lam, dx, dy)
        ref_abs = dy - dx
        ref_rel = oracle.CTX.divide(ref_abs, dx) * rel_scale
        value = float(ref)
        refs.append(value)
        terms = oracle.F_terms(lam, x, y) if indicator == "F" else abs(value)
        allow.append(1e-12 * max(abs(value), terms))
        if precision >= 15:
            ok = (float(past) == x and float(present) == y
                  and oracle.rel_error(float(ab), ref_abs) <= 4 * EPS
                  and oracle.rel_error(float(rel), ref_rel) <= 4 * EPS
                  and oracle.rel_error(float(ind), ref) <= 4 * EPS)
        else:
            ok = (abs(float(past) - x) <= unit and abs(float(present) - y) <= unit
                  and abs(float(ab) - float(ref_abs)) <= unit
                  and abs(float(rel) - float(ref_rel)) <= unit
                  and abs(float(ind) - value) <= unit)
        if not ok and len(problems) < 5:
            problems.append(f"{where}: row {label} ({x!r}, {y!r}) printed "
                            f"{(past, present, ab, rel, ind)} against reference {value!r}")

    ranks = [r[6] for r in rows]
    if ranks[0] != 1 or any(b - a not in (0, 1) for a, b in zip(ranks, ranks[1:])):
        problems.append(f"{where}: ranks are not dense from 1")
    head = 0
    for i in range(1, len(rows)):
        slack = allow[head] + allow[i]
        band = RANK_TIE_REL * max(1.0, abs(refs[head])) * (1 + 1e-6)
        gap = refs[head] - refs[i]
        if refs[i - 1] - refs[i] < -(allow[i - 1] + allow[i]):
            problems.append(f"{where}: {rows[i][0]} is ranked below {rows[i - 1][0]} "
                            f"but its value {refs[i]!r} is larger than {refs[i - 1]!r}")
        if ranks[i] == ranks[head]:
            if gap > band + slack:
                problems.append(f"{where}: {rows[i][0]} shares rank {ranks[i]} with "
                                f"{rows[head][0]} at a relative gap {gap / max(1, abs(refs[head])):.3g}")
        else:
            if gap < band - slack:
                problems.append(f"{where}: {rows[i][0]} starts rank {ranks[i]} within the tie band "
                                f"of {rows[head][0]}")
            head = i
        if len(problems) > 20:
            break
    return problems


def count_tied(ranks) -> int:
    """The number of rows that share their rank with another row."""
    return sum(c for c in Counter(ranks).values() if c > 1)


# -- verify-grid ------------------------------------------------------------

@dataclass(frozen=True)
class VerifyCall:
    target: str
    lam: float
    samples: int
    seed: int

    def argv(self) -> list[str]:
        return ["verify", "--target", self.target, "--lambda", repr(self.lam),
                "--samples", str(self.samples), "--seed", str(self.seed)]


#: Checks per target in `changekit verify` (the CLI's plan).
CHECKS_PER_TARGET = {"f": 4, "F": 5, "rel": 5, "abs": 5, "log": 5}


def verify_calls(seed: int, sizes: Sizes) -> list[VerifyCall]:
    """The fixed list of 18 calls: f and F over the matrix, the three
    classical indicators, and the three failing F lambdas."""
    rng = random.Random(f"verify-{seed}")
    nb, nF = sizes.verify_batch_samples, sizes.verify_F_samples
    calls = [VerifyCall("f", lam, nb, rng.randrange(2**31)) for lam in MATRIX]
    calls += [VerifyCall("F", lam, nF, F_SAMPLE_SEED) for lam in MATRIX]
    calls += [VerifyCall(t, 0.5, nb, rng.randrange(2**31)) for t in ("rel", "abs", "log")]
    calls += [VerifyCall("F", lam, nF, F_SAMPLE_SEED) for lam in FAILING_F_LAMBDAS]
    return calls


class VerifyWorkload:
    """`changekit verify` over the fixed list of calls."""

    name = "verify-grid"
    scaled = True  # see speed.py

    def __init__(self, seed: int, sizes: Sizes, workdir: Path):
        self.workdir = workdir
        self.calls = verify_calls(seed, sizes)
        self.items_per_pass = sum(c.samples * CHECKS_PER_TARGET[c.target] for c in self.calls)
        self.paths: dict[str, list[Path]] = {}
        self.codes: dict[str, list] = {}

    def operations(self, tag: str) -> list:
        self.paths[tag] = [self.workdir / f"verify.{tag}.{k}.out" for k in range(len(self.calls))]
        self.codes[tag] = [None] * len(self.calls)
        return [partial(self._verify, tag, k) for k in range(len(self.calls))]

    def _verify(self, tag: str, k: int) -> bool:
        rc = self.codes[tag][k] = _call_cli(self.calls[k].argv(), self.paths[tag][k])
        return rc == 0

    def fingerprint(self, tag: str) -> str:
        return _digest(self.paths[tag]) + repr(self.codes[tag])

    def check(self, tag: str) -> tuple[list[str], dict]:
        from changekit.axioms import VIOLATION_FLOOR

        problems: list[str] = []
        failed_checks = 0
        for call, rc, path in zip(self.calls, self.codes[tag], self.paths[tag]):
            where = f"verify {' '.join(call.argv()[1:])}"
            text = path.read_text(encoding="utf-8")
            try:
                rows = json.loads(text)
            except ValueError:
                if rc == 0:
                    problems.append(f"{where}: exit 0 without a JSON report")
                continue
            if call.target == "F":
                failed_checks += sum(r["expected"] == "pass" and not r["pass"] for r in rows)
            if rc != 0:
                continue  # a failed operation; counted in `failed`
            ind = oracle.indicator(call.target, call.lam)
            for r in rows:
                if r["expected"] == "pass":
                    if not r["pass"]:
                        problems.append(f"{where}: exit 0 with {r['property']} failing")
                    continue
                if r["pass"] or not r["max_residual"] > VIOLATION_FLOOR:
                    problems.append(f"{where}: expected-fail {r['property']} did not fail")
                    continue
                exact = oracle.identity_residual(r["property"], ind, r["worst_case"])
                if not exact > VIOLATION_FLOOR:
                    problems.append(f"{where}: worst case of {r['property']} {r['worst_case']} "
                                    f"breaks the identity by only {exact:.3g} in exact arithmetic")
        return problems, {"F_failed_checks": failed_checks}


# -- pair-scalar ------------------------------------------------------------

def pair_stream(rng: random.Random, n: int) -> list[tuple[float, float]]:
    """Pairs over six decades; about 1% exactly stagnant and another 10%
    with y within 1e-6 relative of x."""
    pairs = []
    for _ in range(n):
        x = 10.0 ** rng.uniform(-3.0, 3.0)
        u = rng.random()
        if u < 0.01:
            y = x
        elif u < 0.11:
            y = x * (1.0 + rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-9.0, -6.0))
        else:
            y = x * math.exp(rng.gauss(0.0, 1.0))
        pairs.append((x, y))
    return pairs


def calibration_stream(rng: random.Random, n: int) -> list[tuple[float, float, float, float, float]]:
    """(x1, y1, x2, y2, lam): two pairs whose changes agree under a planted lam.

    Past values differ by a factor of at least e**0.1, and changes are at
    least 1e-4 of the past value, so the closed form is well conditioned.
    """
    out = []
    while len(out) < n:
        lam = rng.uniform(-1.0, 2.0)
        x1 = 10.0 ** rng.uniform(-2.0, 2.0)
        x2 = x1 * math.exp(rng.choice((-1.0, 1.0)) * rng.uniform(0.1, 3.0))
        sign = rng.choice((-1.0, 1.0))
        d1 = sign * x1 * 10.0 ** rng.uniform(-4.0, -0.31)
        d2 = d1 * (x2 / x1) ** lam
        if d2 <= -0.5 * x2:
            continue
        out.append((x1, x1 + d1, x2, x2 + d2, lam))
    return out


class PairWorkload:
    """The library API one pair at a time: a block per matrix lambda, then a
    block of calibrations."""

    name = "pair-scalar"
    scaled = True  # see speed.py

    def __init__(self, seed: int, sizes: Sizes, workdir: Path):
        rng = random.Random(f"pairs-{seed}")
        self.blocks = [(lam, pair_stream(rng, sizes.pair_block)) for lam in MATRIX]
        self.calibrations = calibration_stream(rng, sizes.calibration_block)
        self.items_per_pass = sum(len(p) for _, p in self.blocks) + len(self.calibrations)
        self.results: dict[str, list] = {}

    def operations(self, tag: str) -> list:
        """One pass: a block per lambda, then the calibrations.  A block
        that raises leaves its result None and counts as failed."""
        out = self.results[tag] = [None] * (len(self.blocks) + 1)
        ops = [partial(self._evaluate, lam, pairs, out, k) for k, (lam, pairs) in enumerate(self.blocks)]
        return ops + [partial(self._calibrate, out, len(self.blocks))]

    @staticmethod
    def _evaluate(lam: float, pairs, out: list, k: int) -> bool:
        from changekit import ChangekitError, core, types

        PositivePair, eval_f, eval_F = types.PositivePair, core.eval_f, core.eval_F
        vals = []
        try:
            for x, y in pairs:
                p = PositivePair(x, y)
                vals.append((eval_f(lam, p), eval_F(lam, p)))
        except (ChangekitError, ArithmeticError):
            return False
        out[k] = vals
        return True

    def _calibrate(self, out: list, k: int) -> bool:
        from changekit import ChangekitError, calibration, types

        PositivePair = types.PositivePair
        CalibrationInput, calibrate = calibration.CalibrationInput, calibration.calibrate_lambda
        lams = []
        try:
            for x1, y1, x2, y2, _ in self.calibrations:
                lams.append(calibrate(CalibrationInput(PositivePair(x1, y1), PositivePair(x2, y2))))
        except (ChangekitError, ArithmeticError):
            return False
        out[k] = lams
        return True

    def fingerprint(self, tag: str) -> list:
        return list(self.results[tag])

    def check(self, tag: str) -> tuple[list[str], dict]:
        problems: list[str] = []
        misses = 0
        worst: dict[float, float] = {}
        for (lam, pairs), vals in zip(self.blocks, self.results[tag]):
            if vals is None:
                continue  # a failed block; counted in `failed`
            for (x, y), (vf, vF) in zip(pairs, vals):
                dx, dy = oracle.D(x), oracle.D(y)
                if oracle.rel_error(vf, oracle.f_ref(lam, dx, dy)) > 4 * EPS:
                    problems.append(f"eval_f({lam}, ({x!r}, {y!r})) = {vf!r} is off its reference")
                if _sign(vF) != _sign(y - x):
                    problems.append(f"eval_F({lam}, ({x!r}, {y!r})) = {vF!r} has the wrong sign")
                err = oracle.rel_error(vF, oracle.F_ref(lam, dx, dy))
                worst[lam] = max(worst.get(lam, 0.0), err)
                misses += err > 1e-9
        lams = self.results[tag][-1]
        if lams is not None:
            for (x1, y1, x2, y2, planted), got in zip(self.calibrations, lams):
                dx1, dx2 = oracle.D(x1), oracle.D(x2)
                ln_ratio = oracle.CTX.ln(oracle.CTX.divide(dx2, dx1))
                exact = float(oracle.CTX.ln(oracle.CTX.divide(oracle.D(y2) - dx2, oracle.D(y1) - dx1))
                              / ln_ratio)
                tol = 16 * EPS * (1 + abs(exact)) / abs(float(ln_ratio))
                if abs(got - exact) > tol or abs(got - planted) > 1e-6:
                    problems.append(f"calibrate_lambda({(x1, y1)}, {(x2, y2)}) = {got!r}, "
                                    f"planted {planted!r}, exact {exact!r}")
        worst_text = {str(lam): float(f"{err:.3g}") for lam, err in worst.items()}
        return problems[:20], {"oracle_misses": misses, "F_worst_rel_error": worst_text}


WORKLOADS = {w.name: w for w in (RankWorkload, VerifyWorkload, PairWorkload)}


def workdir_for(root: Path, workload: str) -> Path:
    path = root / ".perfbench-work" / workload
    os.makedirs(path, exist_ok=True)
    return path
