"""Golden stdout of `changekit rank`.

The worked five-channel example is pinned byte for byte in `tests/golden/`;
a seeded 2,000-row CSV is pinned by the sha256 of its output.  Both go
through `cli.main` only, so they hold for any internal row representation.
A seeded CSV longer than two json blocks is checked against a reference
built here from the library's per-pair functions, and render_reports alone,
on generated rows, against the same reference.
"""
import csv
import hashlib
import io
import json
import math
import random
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from changekit import cli, core
from changekit.cli import main
from changekit.errors import ValidationError
from changekit.types import PositivePair

GOLDEN = Path(__file__).resolve().parent / "golden"

EXAMPLE_CSV = """label,past,present
I,10,20
II,500,570
III,140,210
IV,35,70
V,80,135
"""


def rank_stdout(capsys, path, *flags):
    code = main(["rank", str(path), *flags])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    return captured.out


@pytest.mark.parametrize("precision", ["2", "15"])
@pytest.mark.parametrize("kind", ["table", "csv", "json"])
@pytest.mark.parametrize("indicator", ["f", "F"])
def test_example_matches_golden(capsys, tmp_path, indicator, kind, precision):
    path = tmp_path / "channels.csv"
    path.write_text(EXAMPLE_CSV)
    out = rank_stdout(capsys, path, "--indicator", indicator, "--format", kind,
                      "--precision", precision)
    assert out == (GOLDEN / f"rank_example_{indicator}_{kind}_p{precision}.txt").read_text()


def test_example_unit_footnote_matches_golden(capsys, tmp_path):
    path = tmp_path / "channels.csv"
    path.write_text(EXAMPLE_CSV)
    out = rank_stdout(capsys, path, "--unit", "EUR")
    assert out == (GOLDEN / "rank_example_f_table_p2_unit_EUR.txt").read_text()


def write_seeded_csv(path, n=2000, seed=20260824):
    """n rows over six decades, with exact and near ties.

    About 5% of rows are stagnant (x == y, value 0 for every lambda), 5%
    repeat an earlier row exactly, and 5% are an earlier row scaled by a
    power of ten, which ties at lambda = 1 up to rounding (the tie band).
    """
    rng = random.Random(seed)
    rows = []
    for _ in range(n):
        u = rng.random()
        if u < 0.05 and rows:
            x, y = rows[rng.randrange(len(rows))]
        elif u < 0.10 and rows:
            x, y = rows[rng.randrange(len(rows))]
            c = 10.0 ** rng.randint(-2, 2)
            x, y = f"{float(x) * c:.6g}", f"{float(y) * c:.6g}"
        else:
            x = f"{10.0 ** rng.uniform(-2.0, 4.0):.6g}"
            y = x if u < 0.15 else f"{float(x) * 2.0 ** rng.gauss(0.0, 1.0):.6g}"
        rows.append((x, y))
    path.write_text("label,past,present\n"
                    + "".join(f"r{i:04d},{x},{y}\n" for i, (x, y) in enumerate(rows)))


SEEDED_SHA256 = {
    ("f", "0.5", "table", "2"):
        "59fe29dea3063fabc3dcba579d08b2e499d754545e47eeab0c359f7095c05dc5",
    ("f", "0", "csv", "15"):
        "e3a4d0eb56258f7b41610cff4e9609e3d1cb993d93813081beff54d1fca2f261",
    ("f", "1", "json", "15"):
        "039ea5894483508f0e49c30755c66c8801949e3e59d7f6cc443e0f23272bed32",
    ("f", "-1", "csv", "2"):
        "3d63c43f4bd66a2ac995f799de7de2e8310db281949d1ad962ffaee5589d8c3d",
    ("F", "0.5", "json", "2"):
        "fa6cacc29822952610ffc0a9a7035d05f096f5e58507a7412397aaa5cbf7cc88",
    ("F", "1", "table", "15"):
        "75291c3faa31a55dd951eb3e78c581ac5beae528ae3a95066ba57e066a8a0018",
    ("F", "-1", "csv", "15"):
        "09c38941c113b0127cbf09ae286c72867ec8003daccd79810b0c976b88844c48",
    ("F", "2", "table", "2"):
        "f45a1bf6c07b29f26d438a533faf2479f58b7bb848a9d2cc843d321b6b085e5b",
    ("f", "0.5", "table", "0"):
        "f295c347551a09dd9f97c6ccdcdedcb9fe948d5731c2ed53fba27657e7b8f746",
    ("F", "1", "csv", "0"):
        "097ae1ba0a411befbf24ec7ffab7d27591c89a38df176a00076e0686bb7bceba",
    ("f", "2", "json", "0"):
        "37d82166179e3a11e25d88a6a6dfca98c0c364292ca4fbdc8f822003cfe57284",
    ("F", "0.5", "table", "7"):
        "24438131203168f5e0536a0df5349aa2a9da3471a0e63a48e80577ec179809fb",
    ("f", "1", "csv", "7"):
        "991d5ffa057f000548f383e2745ac1548dd38c9e0230c2038d5767615f0e1d44",
    ("F", "-1", "json", "7"):
        "db2e474aebd9752dcccd28f705743a03d50f1ff98a872ba6848ed3c4d7fd4038",
}


@pytest.mark.parametrize("config", sorted(SEEDED_SHA256))
def test_seeded_csv_matches_golden_digest(capsys, tmp_path, config):
    indicator, lam, kind, precision = config
    path = tmp_path / "seeded.csv"
    write_seeded_csv(path)
    out = rank_stdout(capsys, path, "--indicator", indicator, "--lambda", lam,
                      "--format", kind, "--precision", precision)
    assert hashlib.sha256(out.encode()).hexdigest() == SEEDED_SHA256[config]


def reference_stdout(path, indicator, lam, kind, precision):
    """rank's stdout from PositivePair, eval_f/eval_F and reference_render.

    Rows sort by (-value, label), and the tie band is measured from each
    rank's head.
    """
    with open(path, newline="") as fh:
        pairs = {label: PositivePair(float(x), float(y)) for label, x, y in list(csv.reader(fh))[1:]}
    evaluate = core.eval_f if indicator == "f" else core.eval_F
    value = {label: evaluate(lam, p) for label, p in pairs.items()}
    rows, rank, head, band = [], 0, math.inf, 0.0
    for label in sorted(pairs, key=lambda label: (-value[label], label)):
        if head - value[label] > band:
            rank, head = rank + 1, value[label]
            band = cli.RANK_TIE_REL * max(1.0, abs(head))
        rows.append((label, pairs[label].x, pairs[label].y, value[label], rank))
    return reference_render(rows, indicator, lam, kind, precision)


def reference_render(rows, indicator, lam, kind, precision, unit=""):
    """render_reports' output from csv.writer, json.dumps and str.format.

    The changes are abs_change and rel_change; json is one json.dumps of the
    whole payload.
    """
    rows = [[label, x, y, core.abs_change(PositivePair(x, y)),
             core.rel_change(PositivePair(x, y)), value, rank]
            for label, x, y, value, rank in rows]
    full = precision == cli.FULL_PRECISION
    if kind == "json":
        keys = ["label", "past", "present", "abs", "rel", "indicator", "rank"]
        num = (lambda v: v) if full else (lambda v: round(v, precision))
        return json.dumps([dict(zip(keys, [r[0], *map(num, r[1:6]), r[6]])) for r in rows]) + "\n"
    text = repr if full else (lambda v: f"{v:.{precision}f}")
    rel_text = (lambda v: f"{v:.{precision}%}") if kind == "table" else text
    cells = [[r[0], text(r[1]), text(r[2]), text(r[3]), rel_text(r[4]), text(r[5]), str(r[6])]
             for r in rows]
    if kind == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerows([["label", "past", "present", "abs", "rel", "indicator", "rank"], *cells])
        return buf.getvalue()
    headers = ["label", "past", "present", "abs", "rel", f"{indicator}_{lam:.4g}", "rank"]
    widths = [max(len(row[i]) for row in [headers, *cells]) for i in range(7)]
    footnote = f"# indicator unit: {unit}^{1 - lam:.4g}\n" if unit else ""
    return "".join("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() + "\n"
                   for row in [headers, *cells]) + footnote


@pytest.mark.parametrize("precision", [2, 15])
@pytest.mark.parametrize("kind", ["table", "csv", "json"])
@pytest.mark.parametrize("indicator, lam", [("f", 0.5), ("F", -1.0)])
def test_output_across_json_blocks_matches_reference(capsys, tmp_path, indicator, lam, kind,
                                                     precision):
    path = tmp_path / "blocks.csv"
    write_seeded_csv(path, n=2 * cli._JSON_BLOCK + 1)
    out = rank_stdout(capsys, path, "--indicator", indicator, "--lambda", repr(lam),
                      "--format", kind, "--precision", str(precision))
    ref = reference_stdout(path, indicator, lam, kind, precision)
    # A short message: pytest's own diff of two long strings takes minutes.
    at = next((i for i, (a, b) in enumerate(zip(out, ref)) if a != b), min(len(out), len(ref)))
    same = out == ref
    assert same, f"differs at character {at}: {out[at - 40:at + 40]!r} != {ref[at - 40:at + 40]!r}"


#: Finite positive values, often at an end of the float range.
POSITIVE = st.one_of(st.sampled_from([5e-324, 1e-300, 1e300, 1.7976931348623157e308]),
                     st.floats(min_value=5e-324, max_value=1.7976931348623157e308))


@st.composite
def render_row(draw):
    """A row as rank_dataset returns one: a finite relative change (a pair
    whose change overflows is made stagnant), any finite value, any rank."""
    label = draw(st.text(alphabet=',"\n\r\t\\\x01\xe9\U0001f600', max_size=4))
    x = draw(POSITIVE)
    y = draw(st.one_of(st.just(x), POSITIVE))
    if not math.isfinite((y - x) / x):
        y = x
    value = draw(st.one_of(st.sampled_from([-0.0, 0.0, 5e-324, -1e-300, 1e300]),
                           st.floats(allow_nan=False, allow_infinity=False)))
    return label, x, y, value, draw(st.integers(1, 10**6))


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(rows=st.lists(render_row(), max_size=6),
       kind=st.sampled_from(["table", "csv", "json"]),
       precision=st.sampled_from([0, 1, 2, 14, 15]),
       indicator=st.sampled_from(["f", "F"]),
       lam=st.floats(-1e3, 1e3),
       unit=st.text(max_size=3),
       block=st.integers(1, 3))
def test_render_matches_reference(rows, kind, precision, indicator, lam, unit, block):
    fmt, buf = cli.OutputFormat(kind, precision), io.StringIO()
    if "\r" in unit or "\n" in unit:  # refused in every format, before any output
        with pytest.raises(ValidationError, match="holds a line break"):
            cli.render_reports(rows, fmt, indicator, lam, buf, unit)
        assert buf.getvalue() == ""
        return
    with mock.patch.object(cli, "_JSON_BLOCK", block):  # rows across json blocks
        cli.render_reports(rows, fmt, indicator, lam, buf, unit)
    assert buf.getvalue() == reference_render(rows, indicator, lam, kind, precision,
                                              unit if kind == "table" else "")
