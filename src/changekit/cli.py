"""Command-line frontend.

Subcommands: rank, compare, calibrate, verify, elasticity, plot-data.
Exit codes are a stable contract: 0 success, 1 validation/parse error,
2 internal numerical error.  Output is deterministic: identical inputs and
flags produce byte-identical output (including JSON key order).
"""
from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import dataclass
from typing import Iterable, Sequence, TextIO

from . import approximation, axioms, calibration, core, elasticity
from .errors import (
    ChangekitError,
    DomainError,
    NumericalError,
    ParseError,
    ValidationError,
)
from .types import IndicatorReport, LabeledObservation, PositivePair, check_lambda

DEFAULT_LAMBDA = 0.5  # the symmetric choice between absolute and relative
DEFAULT_SEED = 20260824
SEED_ENV_VAR = "CHANGEKIT_SEED"

#: Rank ties: values within this relative band share a rank.  The worked
#: five-channel example contains a tie that is exact in real arithmetic but
#: not necessarily in floating point.
RANK_TIE_REL = 1e-9

#: Precision value that switches csv/json output to shortest round-trip floats.
FULL_PRECISION = 15


@dataclass
class Dataset:
    """An ordered collection of labeled observations."""

    observations: list[LabeledObservation]
    source: str = "<stdin>"


@dataclass(frozen=True)
class OutputFormat:
    kind: str = "table"  # table | csv | json
    precision: int = 2

    def __post_init__(self):
        if self.kind not in ("table", "csv", "json"):
            raise ValidationError(f"unknown output format {self.kind!r}")
        if not 0 <= self.precision <= FULL_PRECISION:
            raise ValidationError(f"precision must be in [0, {FULL_PRECISION}], got {self.precision}")


def parse_csv(stream: Iterable[str], source: str = "<stdin>") -> Dataset:
    """Read observations from CSV with header ``label,past,present``."""
    reader = csv.reader(stream)
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError(f"{source}: empty input, expected header 'label,past,present'")
    normalized = [col.strip().lower() for col in header]
    if normalized != ["label", "past", "present"]:
        raise ParseError(
            f"{source}:1: expected header 'label,past,present', got {','.join(header)!r}"
        )
    observations: list[LabeledObservation] = []
    seen: set[str] = set()
    for lineno, row in enumerate(reader, start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != 3:
            raise ParseError(f"{source}:{lineno}: expected 3 columns, got {len(row)}")
        label = row[0].strip()
        if not label:
            raise ValidationError(f"{source}:{lineno}: empty label")
        if label in seen:
            raise ValidationError(f"{source}:{lineno}: duplicate label {label!r}")
        values = []
        for col_name, cell in zip(("past", "present"), row[1:]):
            try:
                values.append(float(cell))
            except ValueError:
                raise ValidationError(
                    f"{source}:{lineno}: observation {label!r}: "
                    f"column {col_name!r} is not a number: {cell!r}"
                )
        try:
            pair = PositivePair(values[0], values[1])
        except ValidationError as exc:
            raise ValidationError(f"{source}:{lineno}: observation {label!r}: {exc}")
        seen.add(label)
        observations.append(LabeledObservation(label, pair))
    if not observations:
        raise ValidationError(f"{source}: no observations")
    return Dataset(observations, source)


def _dense_rank(reports: list[IndicatorReport]) -> list[IndicatorReport]:
    """Dense ranking by descending indicator value; near-equal values tie.

    Returns the reports sorted by (rank, label); tied values share a rank
    and the next distinct value takes the immediately following one.
    """
    ordered = sorted(reports, key=lambda r: (-r.indicator, r.label))
    rank = 0
    head = None
    for rep in ordered:
        if head is None or head - rep.indicator > RANK_TIE_REL * max(1.0, abs(head)):
            rank += 1
            head = rep.indicator
        rep.rank = rank
    return ordered


def rank_dataset(ds: Dataset, lam: float, indicator: str = "f") -> list[IndicatorReport]:
    """Per-observation report rows with a dense rank by the chosen family."""
    lam = check_lambda(lam)
    if indicator not in ("f", "F"):
        raise ValidationError(f"indicator must be 'f' or 'F', got {indicator!r}")
    evaluate = core.eval_f if indicator == "f" else core.eval_F
    reports = [
        IndicatorReport(
            label=obs.label,
            pair=obs.pair,
            abs_change=core.abs_change(obs.pair),
            rel_change=core.rel_change(obs.pair),
            indicator=evaluate(lam, obs.pair),
        )
        for obs in ds.observations
    ]
    return _dense_rank(reports)


def _fmt_num(v: float, precision: int) -> str:
    if precision >= FULL_PRECISION:
        return repr(float(v))
    return format(v, f".{precision}f")


def _indicator_column(indicator: str, lam: float) -> str:
    return f"{indicator}_{lam:.4g}"


def render_reports(
    reports: Sequence[IndicatorReport],
    fmt: OutputFormat,
    indicator: str,
    lam: float,
    out: TextIO,
    unit: str = "",
) -> None:
    p = fmt.precision
    if fmt.kind == "csv":
        out.write("label,past,present,abs,rel,indicator,rank\n")
        for r in reports:
            cells = [
                r.label,
                _fmt_num(r.pair.x, p),
                _fmt_num(r.pair.y, p),
                _fmt_num(r.abs_change, p),
                _fmt_num(r.rel_change, p),
                _fmt_num(r.indicator, p),
                str(r.rank),
            ]
            out.write(",".join(cells) + "\n")
    elif fmt.kind == "json":
        def num(v: float):
            return float(v) if p >= FULL_PRECISION else round(v, p)

        payload = [
            {
                "label": r.label,
                "past": num(r.pair.x),
                "present": num(r.pair.y),
                "abs": num(r.abs_change),
                "rel": num(r.rel_change),
                "indicator": num(r.indicator),
                "rank": r.rank,
            }
            for r in reports
        ]
        out.write(json.dumps(payload) + "\n")
    else:
        headers = ["label", "past", "present", "abs", "rel", _indicator_column(indicator, lam), "rank"]
        rows = [
            [
                r.label,
                _fmt_num(r.pair.x, p),
                _fmt_num(r.pair.y, p),
                _fmt_num(r.abs_change, p),
                f"{r.rel_change * 100:.{p}f}%",
                _fmt_num(r.indicator, p),
                str(r.rank),
            ]
            for r in reports
        ]
        widths = [max(len(h), *(len(row[i]) for row in rows)) for i, h in enumerate(headers)]
        out.write("  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip() + "\n")
        for row in rows:
            out.write("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() + "\n")
        if unit:
            # Units are metadata only; the indicator value notionally carries
            # the unit raised to the (1 - lambda) power.
            out.write(f"# indicator unit: {unit}^{1 - lam:.4g}\n")


def _parse_pair(text: str, what: str) -> PositivePair:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValidationError(f"{what}: expected 'past,present', got {text!r}")
    try:
        x, y = float(parts[0]), float(parts[1])
    except ValueError:
        raise ValidationError(f"{what}: values must be numbers, got {text!r}")
    return PositivePair(x, y)


def _parse_lambda_list(text: str) -> list[float]:
    try:
        return [float(item) for item in text.split(",") if item.strip() != ""]
    except ValueError:
        raise ValidationError(f"bad lambda list {text!r}; expected comma-separated numbers")


# -- verify -----------------------------------------------------------------

#: Which checks apply to which target, and whether each is expected to hold.
#: Entries are (checker name, expected-to-pass); expectation may be a callable
#: of lambda for the lambda-dependent cases.
_VERIFY_PLAN = {
    "f": [
        ("affine_linearity", True),
        ("naturality", True),
        ("relative_scaling", True),
        ("vartia_invariance", lambda lam: lam == 1.0),
    ],
    "F": [
        ("naturality", True),
        ("relative_scaling", True),
        ("antisymmetry", True),
        ("additivity", True),
        ("normed", True),
    ],
    "rel": [
        ("affine_linearity", True),
        ("naturality", True),
        ("vartia_invariance", True),
        ("antisymmetry", False),
        ("additivity", False),
    ],
    "abs": [
        ("affine_linearity", True),
        ("naturality", True),
        ("antisymmetry", True),
        ("additivity", True),
        ("vartia_invariance", False),
    ],
    "log": [
        ("naturality", True),
        ("vartia_invariance", True),
        ("antisymmetry", True),
        ("additivity", True),
        ("affine_linearity", False),
    ],
}

_CHECKERS = {
    "affine_linearity": axioms.check_affine_linearity,
    "naturality": axioms.check_naturality,
    "relative_scaling": axioms.check_relative_scaling,
    "vartia_invariance": axioms.check_vartia_invariance,
    "antisymmetry": axioms.check_antisymmetry,
    "additivity": axioms.check_additivity,
}


def _target_indicator(target: str, lam: float) -> axioms.Indicator:
    if target == "f":
        return axioms.f_indicator(lam)
    if target == "F":
        return axioms.F_indicator(lam)
    if target == "rel":
        return axioms.rel_indicator()
    if target == "abs":
        return axioms.abs_indicator()
    return axioms.log_ratio_indicator()


def run_verify(target: str, lam: float, cfg: axioms.SampleConfig) -> tuple[list[dict], bool]:
    """Run the check plan for one target.

    Returns the serialized reports (each annotated with its expectation) and
    the overall verdict: every expected-pass check passed and every
    expected-fail check produced a violation above the demonstration floor.
    """
    if target not in _VERIFY_PLAN:
        raise ValidationError(f"unknown verify target {target!r}")
    ind = _target_indicator(target, lam)
    results: list[dict] = []
    all_ok = True
    for name, expectation in _VERIFY_PLAN[target]:
        expect_pass = expectation(lam) if callable(expectation) else expectation
        if name == "normed":
            report = axioms.check_normed(
                axioms.F_indicator,
                axioms.f_indicator,
                axioms.SampleConfig(
                    seed=cfg.seed,
                    count=cfg.count,
                    value_range=cfg.value_range,
                    lambda_range=(lam, lam),
                    c_range=cfg.c_range,
                ),
            )
        else:
            report = _CHECKERS[name](ind, cfg)
        if expect_pass:
            ok = report.passed
        else:
            ok = (not report.passed) and report.max_residual > axioms.VIOLATION_FLOOR
        all_ok = all_ok and ok
        entry = report.to_dict()
        entry["expected"] = "pass" if expect_pass else "fail"
        results.append(entry)
    return results, all_ok


# -- command handlers -------------------------------------------------------

def _cmd_rank(args) -> int:
    fmt = OutputFormat(args.format, args.precision)
    if args.input == "-":
        ds = parse_csv(sys.stdin, "<stdin>")
    else:
        with open(args.input, "r", encoding="utf-8", newline="") as fh:
            ds = parse_csv(fh, args.input)
    lam = check_lambda(args.lam)
    reports = rank_dataset(ds, lam, args.indicator)
    render_reports(reports, fmt, args.indicator, lam, sys.stdout, unit=args.unit)
    return 0


def _cmd_compare(args) -> int:
    lam = check_lambda(args.lam)
    ref = _parse_pair(args.ref, "--ref")
    other = _parse_pair(args.cmp, "--cmp")
    value = core.relative_comparison(lam, ref, other)
    print(f"f[{lam:.4g}]({other.x:g}, {other.y:g}) / f[{lam:.4g}]({ref.x:g}, {ref.y:g}) = {value!r}")
    return 0


def _cmd_calibrate(args) -> int:
    ref = _parse_pair(args.ref, "--ref")
    cmp_pair = _parse_pair(args.cmp, "--cmp")
    inp = calibration.CalibrationInput(ref, cmp_pair)
    lam = calibration.calibrate_lambda(inp)
    residual = abs(core.eval_f(lam, ref) - core.eval_f(lam, cmp_pair))
    print(f"lambda = {lam!r}")
    print(f"residual |f(ref) - f(cmp)| = {residual!r}")
    return 0


def _cmd_verify(args) -> int:
    lam = check_lambda(args.lam)
    cfg = axioms.SampleConfig(seed=args.seed, count=args.samples, lambda_range=(lam, lam))
    results, ok = run_verify(args.target, lam, cfg)
    print(json.dumps(results))
    return 0 if ok else 2


def _cmd_elasticity(args) -> int:
    lam = check_lambda(args.lam)
    g = elasticity.parse_function_spec(args.fn)
    x = args.x
    print(f"function   = {g.name}")
    print(f"marginal   = {elasticity.marginal(g, x)!r}")
    print(f"classical  = {elasticity.classical_elasticity(g, x)!r}")
    print(f"generalized[{lam:.4g}] = {elasticity.generalized_elasticity(lam, g, x)!r}")
    return 0


def _cmd_plot_data(args) -> int:
    lambdas = _parse_lambda_list(args.lambdas)
    if not lambdas:
        raise ValidationError("at least one lambda is required")
    if args.points < 2:
        raise ValidationError(f"need at least 2 grid points, got {args.points}")
    grid = approximation.default_curve_grid(args.points, args.y_min, args.y_max)
    header, rows = approximation.curve_table(lambdas, grid)
    approximation.write_curve_csv(sys.stdout, header, rows)
    return 0


class _Parser(argparse.ArgumentParser):
    # Usage mistakes are validation errors: exit 1, not argparse's default 2.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="changekit", description="Change-indicator toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_lambda(p, default=DEFAULT_LAMBDA):
        p.add_argument("--lambda", dest="lam", type=float, default=default,
                       help=f"interpolation parameter (default {default})")

    p_rank = sub.add_parser("rank", help="rank a CSV of labeled observations")
    p_rank.add_argument("input", help="CSV path, or '-' for standard input")
    add_lambda(p_rank)
    p_rank.add_argument("--indicator", choices=["f", "F"], default="f")
    p_rank.add_argument("--format", choices=["table", "csv", "json"], default="table")
    p_rank.add_argument("--precision", type=int, default=2,
                        help="decimal places; 15 switches to full-precision floats")
    p_rank.add_argument("--unit", default="", help="measurement unit, shown as a footnote")
    p_rank.set_defaults(handler=_cmd_rank)

    p_cmp = sub.add_parser("compare", help="unit-free quotient of two indicator values")
    add_lambda(p_cmp)
    p_cmp.add_argument("--ref", required=True, help="reference pair 'past,present'")
    p_cmp.add_argument("--cmp", required=True, help="comparison pair 'past,present'")
    p_cmp.set_defaults(handler=_cmd_compare)

    p_cal = sub.add_parser("calibrate", help="solve for lambda equating two pairs")
    p_cal.add_argument("--ref", required=True, help="reference pair 'past,present'")
    p_cal.add_argument("--cmp", required=True, help="comparison pair 'past,present'")
    p_cal.set_defaults(handler=_cmd_calibrate)

    p_ver = sub.add_parser("verify", help="run the randomized axiom checks")
    p_ver.add_argument("--target", choices=sorted(_VERIFY_PLAN), required=True)
    add_lambda(p_ver)
    # A string default goes through type=int only when verify runs, so a bad
    # environment value is a usage error of verify alone.
    p_ver.add_argument("--seed", type=int, default=os.environ.get(SEED_ENV_VAR, str(DEFAULT_SEED)),
                       help=f"sampling seed (default: ${SEED_ENV_VAR}, else {DEFAULT_SEED})")
    p_ver.add_argument("--samples", type=int, default=10_000)
    p_ver.set_defaults(handler=_cmd_verify)

    p_el = sub.add_parser("elasticity", help="marginal, classical and generalized elasticity")
    p_el.add_argument("--fn", required=True, help="family spec, e.g. power:A=5,k=0.3")
    add_lambda(p_el)
    p_el.add_argument("--x", type=float, required=True)
    p_el.set_defaults(handler=_cmd_elasticity)

    p_pd = sub.add_parser("plot-data", help="emit the Box-Cox curve family as CSV")
    p_pd.add_argument("--lambdas", default="0,0.2,0.5,1", help="comma-separated lambda values")
    p_pd.add_argument("--y-min", type=float, default=0.01)
    p_pd.add_argument("--y-max", type=float, default=5.0)
    p_pd.add_argument("--points", type=int, default=500)
    p_pd.set_defaults(handler=_cmd_plot_data)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ParseError, ValidationError, DomainError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except (NumericalError, ArithmeticError) as exc:
        print(f"numerical error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except ChangekitError as exc:  # pragma: no cover - safety net
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
