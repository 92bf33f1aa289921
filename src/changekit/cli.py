"""Command-line frontend.

Subcommands: rank, compare, calibrate, verify, elasticity, plot-data.
Exit codes are a stable contract: 0 success, 1 validation/parse error,
2 internal numerical error.  Output is deterministic: identical inputs and
flags produce byte-identical output (including JSON key order).

``rank`` holds the input's columns and one list of rows: ``parse_csv``
reads a ``Dataset`` of columns (labels, past and present values),
``rank_dataset`` evaluates the family once over the columns into one list,
sorts it and replaces each entry by its ``Row`` tuple, and
``render_reports`` writes each row as it formats it, with one ``%``
operation on a format string built once per call, in every format.  A
relative change that overflows is refused with exit 2, as a value that is
not finite is, so ``rank`` prints only finite numbers.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import json
import sys
from collections.abc import Iterable, Sequence
from io import TextIOBase
from itertools import islice, repeat
from json.encoder import encode_basestring_ascii
from math import inf, isfinite
from operator import itemgetter

from . import _kernels_py as kernels
from . import core
from .errors import ChangekitError, NumericalError, ParseError, ValidationError
from .types import (PositivePair, SampleConfig, _FrozenRecord, _Record, _integer, _set, _shown,
                    check_lambda)

DEFAULT_LAMBDA = 0.5  # the symmetric choice between absolute and relative

#: Rank ties: values within this relative band share a rank.  The worked
#: five-channel example contains a tie that is exact in real arithmetic but
#: not necessarily in floating point.
RANK_TIE_REL = 1e-9

#: Precision value that switches csv/json output to shortest round-trip floats.
FULL_PRECISION = 15

#: One ranked observation: (label, past, present, indicator value, dense rank).
Row = tuple[str, float, float, float, int]

#: Rows per json block: the json format encodes and writes this many rows at
#: a time, so the whole payload is never held as one list or one string.
_JSON_BLOCK = 4096


class Dataset(_Record):
    """Labeled observations in input order, as columns: ``labels[i]`` names
    the pair ``(xs[i], ys[i])``, each value finite and positive."""

    __slots__ = ("labels", "xs", "ys")
    labels: list[str]
    xs: list[float]
    ys: list[float]

    def __init__(self, labels: list[str], xs: list[float], ys: list[float]):
        self.labels = labels
        self.xs = xs
        self.ys = ys


class OutputFormat(_FrozenRecord):
    __slots__ = ("kind", "precision")
    kind: str  # table | csv | json
    precision: int

    def __init__(self, kind: str = "table", precision: int = 2):
        if kind not in ("table", "csv", "json"):
            raise ValidationError(f"unknown output format {_shown(kind)}")
        if not 0 <= _integer("precision", precision) <= FULL_PRECISION:
            raise ValidationError(
                f"precision must be in [0, {FULL_PRECISION}], got {_shown(precision)}")
        _set(self, "kind", kind)
        _set(self, "precision", precision)


def parse_csv(stream: Iterable[str], source: str = "<stdin>") -> Dataset:
    """Read observations from CSV with header ``label,past,present``.

    Every refusal names the source and the line: a malformed row, an empty,
    repeated or multi-line label, a cell that is not a number, or a value
    that ``PositivePair`` refuses.
    """
    reader = csv.reader(stream)
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError(f"{source}: empty input, expected header 'label,past,present'")
    if header:  # a UTF-8 byte-order mark, as spreadsheet exports write it
        header[0] = header[0].removeprefix("\ufeff")
    normalized = [col.strip().lower() for col in header]
    if normalized != ["label", "past", "present"]:
        raise ParseError(
            f"{source}:1: expected header 'label,past,present', got {','.join(header)!r}"
        )
    labels: list[str] = []
    xs: list[float] = []
    ys: list[float] = []
    seen: set[str] = set()
    for lineno, row in enumerate(reader, start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != 3:
            raise ParseError(f"{source}:{lineno}: expected 3 columns, got {len(row)}")
        label, past, present = row
        label = label.strip()
        if not label:
            raise ValidationError(f"{source}:{lineno}: empty label")
        if "\r" in label or "\n" in label:
            raise ValidationError(f"{source}:{lineno}: label {label!r} holds a line break")
        if label in seen:
            raise ValidationError(f"{source}:{lineno}: duplicate label {label!r}")
        try:
            x = float(past)
        except ValueError:
            raise ValidationError(
                f"{source}:{lineno}: observation {label!r}: column 'past' is not a number: {past!r}"
            )
        try:
            y = float(present)
        except ValueError:
            raise ValidationError(
                f"{source}:{lineno}: observation {label!r}: "
                f"column 'present' is not a number: {present!r}"
            )
        if not (0.0 < x < inf and 0.0 < y < inf):  # NaN fails too
            try:
                PositivePair(x, y)  # refuses the pair, with its own message
            except ValidationError as exc:
                raise ValidationError(f"{source}:{lineno}: observation {label!r}: {exc}")
        seen.add(label)
        labels.append(label)
        xs.append(x)
        ys.append(y)
    if not labels:
        raise ValidationError(f"{source}: no observations")
    return Dataset(labels, xs, ys)


def rank_dataset(ds: Dataset, lam: float, indicator: str = "f") -> list[Row]:
    """Rows dense-ranked by the chosen family, sorted by descending value, then label.

    A relative change ``(y - x) / x`` that is not finite, or not finite in
    percent (times 100, as the table prints it), raises the NumericalError of
    the first such row in input order, whatever the output format.  The
    absolute change of two positive finite values is always finite.

    Each value goes through ``core._checked``, the gate of ``core.eval_f``
    and ``eval_F``, in input order: the first row whose value is not finite,
    or whose kernel call overflows or divides by zero, raises its
    NumericalError.  The values go straight into the one list that is
    sorted and then returned, each entry replaced by its row.

    A value shares the rank of the rank's first value, its head, while it is
    within ``RANK_TIE_REL * max(1, |head|)`` of the head.  The band is
    measured from the head, not from the preceding value: for a > b > c with
    each within the band of its predecessor but c outside that of a, the
    ranks are 1, 1, 2.
    """
    lam = check_lambda(lam)
    if indicator not in ("f", "F"):
        raise ValidationError(f"indicator must be 'f' or 'F', got {_shown(indicator)}")
    labels, xs, ys = ds.labels, ds.xs, ds.ys
    # Rounding is monotone and fl(y - x) <= y, so every row's percentage is at
    # most fl(max(ys) / min(xs) * 100): the rows are scanned only when that
    # bound is not finite.  No rows rank as no rows.
    if xs and not isfinite(max(ys) / min(xs) * 100):
        for label, x, y in zip(labels, xs, ys):
            if not isfinite((rel := (y - x) / x) * 100):
                raise NumericalError(f"observation {label!r}: relative change ({y!r} - {x!r}) / "
                                     f"{x!r} = {rel!r} is not finite in percent")
    kernel = kernels.f_scalar if indicator == "f" else kernels.F_scalar
    values = map(core._checked, repeat(indicator), repeat(kernel), repeat(lam), xs, ys)
    # Two stable sorts give the order of the key (-value, label); each
    # (label, x, y, value) is then replaced by its row, so one list holds them.
    rows = list(zip(labels, xs, ys, values))
    rows.sort(key=itemgetter(0))
    rows.sort(key=itemgetter(3), reverse=True)
    rank, head, band = 0, inf, 0.0
    for i, (label, x, y, value) in enumerate(rows):
        if head - value > band:
            rank += 1
            head, band = value, RANK_TIE_REL * max(1.0, abs(value))
        rows[i] = (label, x, y, value, rank)
    return rows


def _csv_label(label: str) -> str:
    """The label as ``csv.writer`` writes it with ``lineterminator="\\n"``:
    quoted, its quotes doubled, when it holds a comma, a quote or a line feed.
    A carriage return stays unquoted, so parse_csv refuses line breaks in
    labels."""
    if "," in label or '"' in label or "\n" in label:
        return '"%s"' % label.replace('"', '""')
    return label


def render_reports(
    rows: Sequence[Row],
    fmt: OutputFormat,
    indicator: str,
    lam: float,
    out: TextIOBase,
    unit: str = "",
) -> None:
    """Write ranked rows as a table, csv or json; ``unit`` is a table footnote,
    refused in every format, before any output, if it holds a line break.

    The rows' values and relative changes, in percent too, are finite, as
    ``rank_dataset`` returns them.  The absolute and relative changes are
    ``core.abs_change`` and ``core.rel_change``'s expressions.

    Each format writes a row with one ``%`` operation on a format string
    built once per call.  The bytes are those of ``csv.writer``,
    ``json.dumps`` and ``str.format``: ``%r`` is ``repr``, ``%.pf`` is
    ``{:.pf}``, and the table's ``%.pf%%`` of ``rel * 100`` is ``{:.p%}``.
    Every format is written as it is formatted and keeps no text per row.
    The table takes two passes: the first formats each cell for its
    column's width alone, the second writes each line with the widths in
    its conversions, such as ``%-8.2f``.
    """
    if "\r" in unit or "\n" in unit:
        raise ValidationError(f"unit {unit!r} holds a line break")
    p = fmt.precision
    full = p >= FULL_PRECISION
    if fmt.kind == "json":
        # json.dumps' separators and key order; its floats are repr's, its
        # strings encode_basestring_ascii's.
        line = ('{"label": %s, "past": %r, "present": %r, "abs": %r, "rel": %r, '
                '"indicator": %r, "rank": %d}')
        fields = ((encode_basestring_ascii(label), x, y, y - x, (y - x) / x, value, rank)
                  for label, x, y, value, rank in rows)
        if not full:
            fields = ((label, round(x, p), round(y, p), round(a, p), round(r, p),
                       round(v, p), rank) for label, x, y, a, r, v, rank in fields)
        items = map(line.__mod__, fields)
        # The blocks joined into one list: the bytes of json.dumps(rows).
        out.write("[")
        sep = ""
        while block := list(islice(items, _JSON_BLOCK)):
            out.write(sep + ", ".join(block))
            sep = ", "
        out.write("]\n")
        return
    num = "%r" if full else f"%.{p}f"
    if fmt.kind == "csv":
        line = f"%s,{num},{num},{num},{num},{num},%d\n"
        out.write("label,past,present,abs,rel,indicator,rank\n")
        out.writelines(line % (_csv_label(label), x, y, y - x, (y - x) / x, value, rank)
                       for label, x, y, value, rank in rows)
        return
    # Two passes over the rows: the columns' widths, then the lines.  The
    # table's rel cell is a percentage at every precision, padded as a string.
    rel = f"%.{p}f%%"
    headers = ("label", "past", "present", "abs", "rel", f"{indicator}_{lam:.4g}", "rank")
    cell = num.__mod__
    columns = ((str, map(itemgetter(0), rows)),
               (cell, map(itemgetter(1), rows)),
               (cell, map(itemgetter(2), rows)),
               (cell, (y - x for _, x, y, _, _ in rows)),
               (rel.__mod__, ((y - x) / x * 100 for _, x, y, _, _ in rows)),
               (cell, map(itemgetter(3), rows)))
    widths = [max(len(header), max(map(len, map(show, column)), default=0))
              for header, (show, column) in zip(headers, columns)]
    # Cells are left-aligned; the last one is not padded, so no line ends in a space.
    out.write(("%-{}s  " * 6 + "%s\n").format(*widths) % headers)
    line = "%-{}s  %-{}{c}  %-{}{c}  %-{}{c}  %-{}s  %-{}{c}  %d\n".format(*widths, c=num[1:])
    out.writelines(line % (label, x, y, y - x, rel % ((y - x) / x * 100), value, rank)
                   for label, x, y, value, rank in rows)
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
#: Entries are (checker name, expected-to-pass): the name is that of
#: ``axioms.check_<name>``, looked up when the check runs; expectation may be
#: a callable of lambda for the lambda-dependent cases.
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

#: The classical targets are the families' endpoints: (family, lambda).
_ENDPOINT_TARGETS = {"abs": ("f", 0.0), "rel": ("f", 1.0), "log": ("F", 1.0)}


def _target_indicator(target: str, lam: float):
    """The target's indicator, an ``axioms.BatchFn``."""
    from . import axioms

    family, lam = _ENDPOINT_TARGETS.get(target, (target, lam))
    return axioms.f_indicator(lam) if family == "f" else axioms.F_indicator(lam)


def run_verify(target: str, lam: float, cfg: SampleConfig) -> tuple[list[dict], bool]:
    """Run the check plan for one target.

    Returns the serialized reports (each annotated with its expectation) and
    the overall verdict: every expected-pass check passed and every
    expected-fail check produced a violation above the demonstration floor.
    """
    from . import axioms  # the one command that loads numpy

    if target not in _VERIFY_PLAN:
        raise ValidationError(f"unknown verify target {_shown(target)}")
    ind = _target_indicator(target, lam)
    results: list[dict] = []
    all_ok = True
    with axioms.shared_draws():
        for name, expectation in _VERIFY_PLAN[target]:
            expect_pass = expectation(lam) if callable(expectation) else expectation
            if name == "normed":
                report = axioms.check_normed(
                    axioms.F_indicator,
                    axioms.f_indicator,
                    SampleConfig(cfg.seed, cfg.count, (lam, lam)),
                )
            else:
                report = getattr(axioms, f"check_{name}")(ind, cfg)
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
    stdin = args.input == "-"
    source = "<stdin>" if stdin else args.input
    try:
        with (contextlib.nullcontext(sys.stdin) if stdin
              else open(args.input, "r", encoding="utf-8", newline="")) as fh:
            ds = parse_csv(fh, source)
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise ParseError(f"{source}: cannot read: {exc}") from None
    rows = rank_dataset(ds, args.lam, args.indicator)
    render_reports(rows, fmt, args.indicator, args.lam, sys.stdout, unit=args.unit_label)
    return 0


def _cmd_compare(args) -> int:
    lam = check_lambda(args.lam)
    ref = _parse_pair(args.ref, "--ref")
    other = _parse_pair(args.cmp, "--cmp")
    value = core.relative_comparison(lam, ref, other)
    print(f"f[{lam:.4g}]({other.x:g}, {other.y:g}) / f[{lam:.4g}]({ref.x:g}, {ref.y:g}) = {value!r}")
    return 0


def _cmd_calibrate(args) -> int:
    from . import calibration

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
    cfg = SampleConfig(seed=args.seed, count=args.samples)
    results, ok = run_verify(args.target, lam, cfg)
    print(json.dumps(results))
    return 0 if ok else 2


def _cmd_elasticity(args) -> int:
    from . import elasticity

    lam = check_lambda(args.lam)
    g = elasticity.parse_function_spec(args.fn)
    x = args.x
    # Every value before the first line, so that an error prints nothing.
    marginal = elasticity.marginal(g, x)
    classical = elasticity.classical_elasticity(g, x)
    generalized = elasticity.generalized_elasticity(lam, g, x)
    print(f"function   = {g.name}")
    print(f"marginal   = {marginal!r}")
    print(f"classical  = {classical!r}")
    print(f"generalized[{lam:.4g}] = {generalized!r}")
    return 0


def _cmd_plot_data(args) -> int:
    from . import approximation

    lambdas = _parse_lambda_list(args.lambdas)
    if not lambdas:
        raise ValidationError("at least one lambda is required")
    grid = approximation.default_curve_grid(args.points, args.y_min, args.y_max)
    lambdas = [check_lambda(lam) for lam in lambdas]  # every lambda before any cell
    rows = [[y] + [approximation.box_cox(lam, y) for lam in lambdas] for y in grid]
    header = ["y"] + [f"F_{lam:.4g}" for lam in lambdas]
    csv.writer(sys.stdout, lineterminator="\n").writerows([header, *rows])
    return 0


class _Parser(argparse.ArgumentParser):
    # Usage mistakes are validation errors: exit 1, not argparse's default 2.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="changekit", description="Change-indicator toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_lambda(p):
        p.add_argument("--lambda", dest="lam", type=float, default=DEFAULT_LAMBDA,
                       help=f"interpolation parameter (default {DEFAULT_LAMBDA}); write a negative "
                            "exponent form with '=', as in --lambda=-1e-12")

    p_rank = sub.add_parser("rank", help="rank a CSV of labeled observations")
    p_rank.add_argument("input", help="CSV path, or '-' for standard input")
    add_lambda(p_rank)
    p_rank.add_argument("--indicator", choices=["f", "F"], default="f")
    p_rank.add_argument("--format", choices=["table", "csv", "json"], default="table")
    p_rank.add_argument("--precision", type=int, default=2,
                        help="decimal places; 15 switches to full-precision floats")
    p_rank.add_argument("--unit", dest="unit_label", metavar="UNIT", default="",
                        help="measurement unit, shown as a footnote (table format only)")
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
    plan = SampleConfig()  # an instance: perfbench's tracer swaps classes for functions
    p_ver.add_argument("--seed", type=int, default=plan.seed,
                       help=f"sampling seed (default {plan.seed})")
    p_ver.add_argument("--samples", type=int, default=plan.count)
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
    except ArithmeticError as exc:  # NumericalError included
        print(f"numerical error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except ChangekitError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
