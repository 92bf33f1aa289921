import argparse
import csv
import gc
import io
import math
import os
import random
import shlex
import subprocess
import sys
import tempfile
import tracemalloc
import weakref
from collections import deque
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import changekit
from changekit import _kernels_py as kernels
from changekit import axioms, cli
from changekit.cli import (
    RANK_TIE_REL,
    Dataset,
    OutputFormat,
    build_parser,
    main,
    parse_csv,
    rank_dataset,
    render_reports,
    run_verify,
)
from changekit.axioms import SampleConfig
from changekit.errors import NumericalError, ParseError, ValidationError

EXAMPLE_CSV = """label,past,present
I,10,20
II,500,570
III,140,210
IV,35,70
V,80,135
"""


@pytest.fixture
def example_file(tmp_path):
    path = tmp_path / "channels.csv"
    path.write_text(EXAMPLE_CSV)
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParseCsv:
    def test_basic(self):
        ds = parse_csv(io.StringIO(EXAMPLE_CSV))
        assert ds == Dataset(["I", "II", "III", "IV", "V"],
                             [10.0, 500.0, 140.0, 35.0, 80.0], [20.0, 570.0, 210.0, 70.0, 135.0])
        assert all(type(v) is float for v in ds.xs + ds.ys)

    def test_header_case_insensitive_and_crlf(self):
        ds = parse_csv(io.StringIO("Label,Past,Present\r\nA,1,2\r\n"))
        assert ds.labels[0] == "A"

    def test_missing_header(self):
        with pytest.raises(ParseError, match="header"):
            parse_csv(io.StringIO("name,old,new\nA,1,2\n"))

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse_csv(io.StringIO(""))

    def test_no_observations(self):
        with pytest.raises(ValidationError, match="no observations"):
            parse_csv(io.StringIO("label,past,present\n"))

    def test_nonpositive_value_names_label_and_column(self):
        with pytest.raises(ValidationError, match="'X'"):
            parse_csv(io.StringIO("label,past,present\nX,0,5\n"))

    def test_non_numeric_value(self):
        with pytest.raises(ValidationError, match="present"):
            parse_csv(io.StringIO("label,past,present\nX,1,abc\n"))

    def test_duplicate_label(self):
        with pytest.raises(ValidationError, match="duplicate"):
            parse_csv(io.StringIO("label,past,present\nA,1,2\nA,2,3\n"))

    def test_parse_error_carries_line_number(self):
        with pytest.raises(ParseError, match=":3:"):
            parse_csv(io.StringIO("label,past,present\nA,1,2\nB,1\n"))

    @pytest.mark.parametrize("cell, shown", [
        ("0", "0.0"), ("-1", "-1.0"), ("inf", "inf"), ("nan", "nan"), ("1e309", "inf")])
    @pytest.mark.parametrize("column", ["past", "present"])
    def test_refused_value_names_source_line_label_and_value(self, column, cell, shown):
        row = f"X,{cell},5" if column == "past" else f"X,5,{cell}"
        text = f"label,past,present\nA,1,2\n\n{row}\nB,3,4\n"
        with pytest.raises(ValidationError) as info:
            parse_csv(io.StringIO(text), "data.csv")
        assert str(info.value) == (
            f"data.csv:4: observation 'X': {column} value must be a finite positive number, "
            f"got {shown}")

    def test_refused_past_is_named_before_present(self):
        with pytest.raises(ValidationError) as info:
            parse_csv(io.StringIO("label,past,present\nX,-0,nan\n"))
        assert str(info.value) == (
            "<stdin>:2: observation 'X': past value must be a finite positive number, got -0.0")


class TestRanking:
    def test_example_ranking(self):
        ds = parse_csv(io.StringIO(EXAMPLE_CSV))
        reports = rank_dataset(ds, 0.5, "f")
        by_label = {label: rank for label, _, _, _, rank in reports}
        assert by_label["V"] == 1
        assert by_label["III"] == 2 and by_label["IV"] == 2
        assert by_label["I"] == 3
        assert by_label["II"] == 4
        assert [label for label, _, _, _, _ in reports] == ["V", "III", "IV", "I", "II"]
        assert [(x, y) for _, x, y, _, _ in reports] == [
            (80.0, 135.0), (140.0, 210.0), (35.0, 70.0), (10.0, 20.0), (500.0, 570.0)]

    def test_abs_ranking_cannot_separate_ii_and_iii(self):
        ds = parse_csv(io.StringIO(EXAMPLE_CSV))
        reports = rank_dataset(ds, 0.0, "f")
        by_label = {label: rank for label, _, _, _, rank in reports}
        assert by_label["II"] == 1 and by_label["III"] == 1
        assert [value for _, _, _, value, _ in sorted(reports, key=lambda r: r[0])] == [
            10, 70, 70, 35, 55]

    def test_single_row(self):
        ds = Dataset(["only"], [3.0], [4.0])
        reports = rank_dataset(ds, 0.5)
        assert reports == [("only", 3.0, 4.0, kernels.f_scalar(0.5, 3.0, 4.0), 1)]

    def test_no_rows(self):
        assert rank_dataset(Dataset([], [], []), 0.5) == []

    def test_unknown_indicator(self):
        ds = Dataset(["only"], [3.0], [4.0])
        with pytest.raises(ValidationError, match="indicator must be 'f' or 'F'"):
            rank_dataset(ds, 0.5, "g")

    def test_dense_ranks_after_tie(self):
        ds = Dataset(["a", "b", "c"], [1.0, 2.0, 1.0], [4.0, 8.0, 2.0])  # b: a's rel change
        reports = rank_dataset(ds, 1.0, "f")
        ranks = {label: rank for label, _, _, _, rank in reports}
        assert ranks == {"a": 1, "b": 1, "c": 2}

    def test_tie_band_is_measured_from_the_head_of_the_rank(self):
        # f_0 = y - x.  b and c each lie 0.6 band widths below their
        # predecessor, so c is 1.2 band widths below a, the head of rank 1.
        step = 0.6 * RANK_TIE_REL * 1000.0
        a, b, c = 1000.0, 1000.0 - step, 1000.0 - 2 * step
        ds = Dataset(["a", "b", "c"], [1.0] * 3, [1 + v for v in (a, b, c)])
        reports = rank_dataset(ds, 0.0, "f")
        values = [value for _, _, _, value, _ in reports]
        assert values[0] > values[1] > values[2]
        assert values[0] - values[1] <= RANK_TIE_REL * values[0]
        assert values[1] - values[2] <= RANK_TIE_REL * values[1]
        assert values[0] - values[2] > RANK_TIE_REL * values[0]
        assert [(label, rank) for label, _, _, _, rank in reports] == [("a", 1), ("b", 1), ("c", 2)]

    def test_first_row_whose_relative_change_overflows_in_percent(self):
        # z's relative change, 1e307, is finite but not in percent; a's is
        # inf.  Input order puts z first.
        ds = Dataset(["m", "z", "a"], [1.0, 1e-300, 1e-300], [2.0, 1e7, 1e10])
        with pytest.raises(NumericalError, match=r"^observation 'z': relative change "
                           r"\(10000000\.0 - 1e-300\) / 1e-300 = 1e\+307 is not finite in percent$"):
            rank_dataset(ds, 0.5)

    def test_rows_past_the_relative_change_bound_are_scanned(self):
        # max(ys) / min(xs) overflows, but each row's relative change is 0.
        big = 1.7976931348623157e308
        ds = Dataset(["a", "b"], [5e-324, big], [5e-324, big])
        assert rank_dataset(ds, 1.0) == [("a", 5e-324, 5e-324, 0.0, 1), ("b", big, big, 0.0, 1)]


class TestRendering:
    def _reports(self, lam=0.5, indicator="f"):
        ds = parse_csv(io.StringIO(EXAMPLE_CSV))
        return rank_dataset(ds, lam, indicator)

    def test_table_shows_percent_and_values(self):
        buf = io.StringIO()
        render_reports(self._reports(), OutputFormat("table", 2), "f", 0.5, buf)
        text = buf.getvalue()
        assert "68.75%" in text and "14.00%" in text
        assert "6.15" in text and "3.16" in text and "5.92" in text
        assert "f_0.5" in text

    def test_table_unit_footnote(self):
        buf = io.StringIO()
        render_reports(self._reports(), OutputFormat("table", 2), "f", 0.5, buf, unit="EUR")
        assert "EUR^0.5" in buf.getvalue()

    def test_csv_contract(self):
        buf = io.StringIO()
        render_reports(self._reports(), OutputFormat("csv", 2), "f", 0.5, buf)
        lines = buf.getvalue().split("\n")
        assert lines[0] == "label,past,present,abs,rel,indicator,rank"
        assert lines[1] == "V,80.00,135.00,55.00,0.69,6.15,1"

    def test_csv_quotes_labels(self):
        ds = parse_csv(io.StringIO('label,past,present\n"north, east",10,20\n"say ""hi""",5,6\n'))
        buf = io.StringIO()
        render_reports(rank_dataset(ds, 0.5), OutputFormat("csv", 2), "f", 0.5, buf)
        rows = list(csv.reader(io.StringIO(buf.getvalue())))
        assert all(len(row) == 7 for row in rows)
        assert sorted(row[0] for row in rows[1:]) == ["north, east", 'say "hi"']

    def test_csv_full_precision_round_trips(self):
        reports = self._reports()
        buf = io.StringIO()
        render_reports(reports, OutputFormat("csv", 15), "f", 0.5, buf)
        reparsed = {}
        for line in buf.getvalue().strip().split("\n")[1:]:
            cells = line.split(",")
            reparsed[cells[0]] = float(cells[5])
        for label, _, _, value, _ in reports:
            assert reparsed[label] == value  # bit-exact

    def test_json_deterministic(self, strict_json):
        bufs = []
        for _ in range(2):
            buf = io.StringIO()
            render_reports(self._reports(), OutputFormat("json", 15), "f", 0.5, buf)
            bufs.append(buf.getvalue())
        assert bufs[0] == bufs[1]
        data = strict_json(bufs[0])
        assert list(data[0]) == ["label", "past", "present", "abs", "rel", "indicator", "rank"]

    def test_no_rows(self):
        outs = {}
        for kind in ("table", "csv", "json"):
            buf = io.StringIO()
            render_reports([], OutputFormat(kind, 2), "f", 0.5, buf)
            outs[kind] = buf.getvalue()
        assert outs == {"table": "label  past  present  abs  rel  f_0.5  rank\n",
                        "csv": "label,past,present,abs,rel,indicator,rank\n", "json": "[]\n"}

    @pytest.mark.parametrize("kind", ["table", "csv", "json"])
    @pytest.mark.parametrize("indicator, lam, refusal", [
        (5, 0.5, "indicator must be 'f' or 'F', got 5"),
        ("log", 0.5, "indicator must be 'f' or 'F', got 'log'"),
        ("f", "x", "lambda must be a finite real number, got 'x'"),
        ("f", None, "lambda must be a finite real number, got None"),
        ("f", math.nan, "lambda must be a finite real number, got nan"),
    ])
    def test_indicator_and_lambda_refused_before_any_output(self, kind, indicator, lam, refusal):
        buf = io.StringIO()
        with pytest.raises(ValueError) as refused:
            render_reports(self._reports(), OutputFormat(kind, 2), indicator, lam, buf)
        assert str(refused.value) == refusal
        assert buf.getvalue() == ""

    def test_precision_bounds(self):
        with pytest.raises(ValidationError):
            OutputFormat("csv", 16)
        with pytest.raises(ValidationError):
            OutputFormat("csv", -1)
        with pytest.raises(ValidationError, match="unknown output format"):
            OutputFormat("xml")


def _dataset(n):
    """n observations whose values spread over six decades, the same on every run."""
    rng = random.Random(n)
    xs = [10 ** rng.uniform(-3, 3) for _ in range(n)]
    ys = [x * 10 ** rng.uniform(-1, 1) for x in xs]
    return Dataset([f"row{i}" for i in range(n)], xs, ys)


def _traced(call):
    """What ``call()`` allocated at its peak, and what it still held when it
    returned, both above what was allocated when it began, in bytes."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = call()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del result
    return peak - start, held - start


class _Sink:
    """An output stream that drops what it is given."""

    def write(self, text):
        return len(text)

    def writelines(self, lines):
        deque(lines, maxlen=0)


@pytest.fixture(scope="module")
def ranked_rows():
    return {n: rank_dataset(_dataset(n), 0.5) for n in (10_000, 40_000)}


class TestMemory:
    @pytest.mark.parametrize("precision", [2, 15])
    @pytest.mark.parametrize("kind", ["table", "csv", "json"])
    def test_render_holds_no_text_per_row(self, ranked_rows, kind, precision):
        # Every format writes each row as it formats it, so four times the
        # rows peak no higher: a per-row string would add 30k of them.
        fmt = OutputFormat(kind, precision)
        peak = {n: _traced(lambda: render_reports(rows, fmt, "f", 0.5, _Sink()))[0]
                for n, rows in ranked_rows.items()}
        assert peak[40_000] - peak[10_000] < 2**19, peak

    def test_rank_holds_one_list_of_rows(self):
        # The values, the sort and the ranks share one list: its peak is at
        # most the rows it returns, and the sort's keys.
        ds = _dataset(40_000)
        peak, held = _traced(lambda: rank_dataset(ds, 0.5))
        assert peak <= 1.1 * held, (peak, held)


class TestCommands:
    def test_rank_exit_codes(self, capsys, example_file):
        code, out, err = run_cli(capsys, "rank", example_file)
        assert code == 0
        assert "V" in out

    def test_rank_missing_column_is_validation_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("label,past,present\nX,-1,5\n")
        code, out, err = run_cli(capsys, "rank", str(bad))
        assert code == 1
        assert "ValidationError" in err

    def test_rank_byte_identical_runs(self, capsys, example_file):
        outs = [run_cli(capsys, "rank", example_file, "--format", "json")[1] for _ in range(2)]
        assert outs[0] == outs[1]

    def test_compare(self, capsys):
        code, out, _ = run_cli(capsys, "compare", "--lambda", "0.5",
                               "--ref", "140,210", "--cmp", "35,70")
        assert code == 0
        value = float(out.strip().rsplit("=", 1)[1])
        assert value == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("ref, error", [
        ("1", "expected 'past,present'"),
        ("a,b", "values must be numbers"),
    ])
    def test_compare_bad_pair_exits_one(self, capsys, ref, error):
        code, out, err = run_cli(capsys, "compare", "--ref", ref, "--cmp", "35,70")
        assert (code, out) == (1, "")
        assert err.startswith("error: ValidationError: --ref: " + error)

    def test_calibrate_success(self, capsys):
        code, out, _ = run_cli(capsys, "calibrate", "--ref", "1,2", "--cmp", "2,4")
        assert code == 0
        assert out.startswith("lambda = 1.0")

    @pytest.mark.parametrize("ref, cmp_pair, expected", [
        # cmp.x / ref.x underflows to 0: its log was a raw math domain error.
        ("1e300,2e300", "1e-300,2e-300",
         (0, "lambda = 1.0\nresidual |f(ref) - f(cmp)| = 0.0\n", "")),
        # Both pairs grow, though the changes' quotient underflows to 0:
        # lambda = 2, where f of the comparison pair is not finite.
        ("1,1e300", "1e-300,2e-300",
         (2, "", "numerical error: NumericalError: f[2](1e-300, 2e-300) is not finite: "
                 "ZeroDivisionError('float division by zero')\n")),
    ], ids=["quotient-underflows", "growth-not-sign-mismatch"])
    def test_calibrate_at_the_ends_of_the_float_range(self, capsys, ref, cmp_pair, expected):
        assert run_cli(capsys, "calibrate", "--ref", ref, "--cmp", cmp_pair) == expected

    def test_calibrate_named_errors(self, capsys):
        code, _, err = run_cli(capsys, "calibrate", "--ref", "1,2", "--cmp", "1,2")
        assert code == 1 and "EqualPastValues" in err
        code, _, err = run_cli(capsys, "calibrate", "--ref", "1,2", "--cmp", "4,3")
        assert code == 1 and "SignMismatch" in err
        code, _, err = run_cli(capsys, "calibrate", "--ref", "2,2", "--cmp", "1,2")
        assert code == 1 and "StagnantPair" in err

    def test_verify_f_passes(self, capsys, strict_json):
        code, out, _ = run_cli(capsys, "verify", "--target", "f", "--lambda", "0.5",
                               "--samples", "2000")
        assert code == 0
        reports = strict_json(out)
        names = [r["property"] for r in reports]
        assert names == ["affine_linearity", "naturality", "relative_scaling", "vartia_invariance"]
        assert [r["expected"] for r in reports] == ["pass", "pass", "pass", "fail"]
        assert all(r["pass"] for r in reports[:3])
        assert not reports[3]["pass"]

    def test_verify_f_at_lambda_one_expects_vartia(self, capsys, strict_json):
        code, out, _ = run_cli(capsys, "verify", "--target", "f", "--lambda", "1",
                               "--samples", "2000")
        assert code == 0
        reports = strict_json(out)
        assert reports[3]["expected"] == "pass" and reports[3]["pass"]

    def test_verify_rel_reports_expected_failures(self, capsys, strict_json):
        code, out, _ = run_cli(capsys, "verify", "--target", "rel", "--samples", "2000")
        assert code == 0
        by_name = {r["property"]: r for r in strict_json(out)}
        assert not by_name["antisymmetry"]["pass"]
        assert not by_name["additivity"]["pass"]
        assert by_name["antisymmetry"]["worst_case"]  # concrete stored witness

    @pytest.mark.parametrize("value", ["424242", "abc"])
    def test_verify_ignores_the_environment(self, capsys, monkeypatch, value):
        # The seed comes from --seed alone; a variable named like one is not read.
        argv = ["verify", "--target", "abs", "--samples", "500"]
        monkeypatch.delenv("CHANGEKIT_SEED", raising=False)
        expected = run_cli(capsys, *argv)
        monkeypatch.setenv("CHANGEKIT_SEED", value)
        assert run_cli(capsys, *argv) == expected

    @pytest.mark.parametrize("flags, seed", [
        (["--target", "f", "--seed", "-1"], -1),
        (["--target", "F", "--seed=-7"], -7),
    ], ids=["flag", "flag-equals"])
    def test_verify_negative_seed_exits_one(self, capsys, flags, seed):
        code, out, err = run_cli(capsys, "verify", *flags, "--samples", "50")
        assert (code, out) == (1, "")
        assert err == f"error: ValidationError: seed must be non-negative, got {seed}\n"

    @pytest.mark.parametrize("kind", ["table", "csv", "json"])
    def test_rank_non_finite_indicator_exits_two(self, capsys, tmp_path, kind):
        # 0.001**105 is subnormal, so f_105 of row a overflows to inf
        path = tmp_path / "overflow.csv"
        path.write_text("label,past,present\na,0.001,20\nb,35,70\n")
        code, out, err = run_cli(capsys, "rank", str(path), "--lambda", "105", "--format", kind)
        assert code == 2
        assert out == ""
        assert "NumericalError" in err

    @pytest.mark.parametrize("indicator", ["f", "F"])
    def test_rank_kernel_range_error_exits_two(self, capsys, tmp_path, indicator):
        # 0.001**400 underflows to 0 in f_400; expm1 overflows in F_400
        path = tmp_path / "range.csv"
        path.write_text("label,past,present\na,0.001,20\nb,35,70\n")
        code, out, err = run_cli(capsys, "rank", str(path), "--lambda", "400",
                                 "--indicator", indicator)
        assert (code, out) == (2, "")
        assert "NumericalError" in err

    @pytest.mark.parametrize("indicator, rows, message", [
        ("f", "z,0.001,20\na,0.0005,20", "f[105](0.001, 20.0) is not finite: inf"),
        ("F", "z,0.001,20\na,0.0005,20",
         "F[105](0.001, 20.0) is not finite: OverflowError('math range error')"),
        ("f", "a,0.0005,20\nz,0.001,20",
         "f[105](0.0005, 20.0) is not finite: ZeroDivisionError('float division by zero')"),
    ], ids=["f-inf", "F-overflow", "f-zero-division"])
    def test_rank_names_the_first_overflowing_row_in_input_order(self, capsys, tmp_path,
                                                                  indicator, rows, message):
        # At lambda 105 both z and a overflow: the kernel returns f of z as
        # inf (0.001**105 is subnormal) and signals f of a as a division by
        # 0.0005**105 == 0; F overflows expm1 at both.  The first of them in
        # input order is named; label and value order do not count.
        path = tmp_path / "two.csv"
        path.write_text(f"label,past,present\nm,1,2\n{rows}\n")
        code, out, err = run_cli(capsys, "rank", str(path), "--lambda", "105",
                                 "--indicator", indicator)
        assert (code, out, err) == (2, "", f"numerical error: NumericalError: {message}\n")

    @pytest.mark.parametrize("kind", ["table", "csv", "json"])
    def test_rank_overflowing_relative_change_exits_two(self, capsys, tmp_path, kind):
        # f_0.5 of row a is 1e155, but (1e10 - 1e-300) / 1e-300 overflows.
        path = tmp_path / "rel.csv"
        path.write_text("label,past,present\nm,1,2\na,1e-300,1e10\n")
        code, out, err = run_cli(capsys, "rank", str(path), "--format", kind)
        assert (code, out, err) == (
            2, "", "numerical error: NumericalError: observation 'a': relative change "
                   "(10000000000.0 - 1e-300) / 1e-300 = inf is not finite in percent\n")

    @pytest.mark.parametrize("kind", ["table", "csv", "json"])
    @pytest.mark.parametrize("unit", ["EUR\nII  1.00", "EUR\rII  1.00", "\n", "EUR\r\n"])
    def test_rank_unit_with_line_break_exits_one(self, capsys, example_file, kind, unit):
        # Printed in the table's footnote, it would add a line that reads as a row.
        code, out, err = run_cli(capsys, "rank", example_file, "--unit", unit, "--format", kind)
        assert (code, out, err) == (
            1, "", f"error: ValidationError: unit {unit!r} holds a line break\n")

    def test_elasticity_command(self, capsys):
        code, out, _ = run_cli(capsys, "elasticity", "--fn", "power:A=5,k=0.3",
                               "--lambda", "0.5", "--x", "2")
        assert code == 0
        lines = dict(
            line.split("=", 1) for line in out.strip().split("\n") if "=" in line
        )
        assert float(lines["classical  "]) == pytest.approx(0.3, rel=1e-12)
        assert float(lines["marginal   "]) == pytest.approx(1.5 * 2**-0.7, rel=1e-12)

    def test_elasticity_bad_function(self, capsys):
        code, _, err = run_cli(capsys, "elasticity", "--fn", "cubic:a=1", "--x", "2")
        assert code == 1 and "DomainError" in err
        # An error in any value leaves stdout empty.
        code, out, err = run_cli(capsys, "elasticity", "--fn", "power:A=5,k=0.3", "--x=-1")
        assert (code, out) == (1, "") and "DomainError" in err
        code, out, err = run_cli(capsys, "elasticity", "--fn", "power:A=5,k=400", "--x=10")
        assert (code, out) == (2, "") and "OverflowError" in err
        assert err.startswith("numerical error: NumericalError: ")

    @pytest.mark.parametrize("spec, key", [
        ("power:A=5,k=0.3,k=2", "k"),
        ("affine:a=1,b=2,b=3", "b"),
    ])
    def test_elasticity_repeated_parameter_exits_one(self, capsys, spec, key):
        # A repeated parameter is refused, not silently set to its last value.
        code, out, err = run_cli(capsys, "elasticity", "--fn", spec, "--x", "2")
        assert (code, out, err) == (
            1, "", f"error: DomainError: parameter {key!r} repeated in {spec!r}\n")

    @pytest.mark.parametrize("spec, message", [
        ("power:A=nan,k=1", "A must be a finite positive number, got nan"),
        ("power:A=inf,k=1", "A must be a finite positive number, got inf"),
        ("exponential:A=1,b=inf", "b must be a finite real number, got inf"),
        ("affine:a=nan,b=1", "a must be a finite real number, got nan"),
    ], ids=["power-A-nan", "power-A-inf", "exponential-b-inf", "affine-a-nan"])
    def test_elasticity_parameter_that_is_not_finite_exits_one(self, capsys, strict_json,
                                                               spec, message):
        # The family refuses it, as it refuses A <= 0, before any value is
        # computed: an input error, not a numerical one.
        argv = ["elasticity", "--fn", spec, "--x", "2"]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (1, "", f"error: DomainError: {message}\n")
        check_cli_contract(strict_json, argv, b"", "file")

    @pytest.mark.parametrize("argv, message", [
        (["elasticity", "--fn", "power:A=1e200,k=1", "--lambda=-1.5", "--x", "1"],
         "generalized_elasticity[-1.5]('power(A=1e+200, k=1)', 1.0) is not finite: inf"),
        # g(x) past the float range exits 2 whether it rounds to inf or exp raises.
        (["elasticity", "--fn", "power:A=1e300,k=2", "--x", "1e10"],
         "power(A=1e+300, k=2)(10000000000.0) is not finite: inf"),
        (["elasticity", "--fn", "exponential:A=1e300,b=1", "--x", "100"],
         "exponential(A=1e+300, b=1)(100.0) is not finite: inf"),
        (["elasticity", "--fn", "exponential:A=1,b=1", "--x", "1000"],
         "generalized_elasticity[0]('exponential(A=1, b=1)', 1000.0) is not finite: "
         "OverflowError('math range error')"),
        (["compare", "--ref", "1,1.0000000000000002", "--cmp", "1,1e300", "--lambda", "0.5"],
         "relative_comparison[0.5](1e+300, 2.220446049250313e-16) is not finite: inf"),
    ], ids=["elasticity", "elasticity-g-inf", "elasticity-g-exp-inf", "elasticity-g-exp-overflow",
            "compare"])
    def test_non_finite_value_is_numerical_error(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (2, "", f"numerical error: NumericalError: {message}\n")

    def test_plot_data_defaults(self, capsys):
        code, out, _ = run_cli(capsys, "plot-data")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "y,F_0,F_0.2,F_0.5,F_1"
        assert len(lines) == 501
        assert lines[-1].split(",")[0] == "5.0"

    def test_plot_data_closed_form_row(self, capsys):
        code, out, _ = run_cli(capsys, "plot-data", "--lambdas", "0.5",
                               "--y-min", "1", "--y-max", "4", "--points", "4")
        rows = out.strip().split("\n")
        last = rows[-1].split(",")
        assert float(last[0]) == 4.0
        assert float(last[1]) == pytest.approx(2.0, rel=1e-15)

    def test_plot_data_single_lambda_log_row(self, capsys):
        code, out, _ = run_cli(capsys, "plot-data", "--lambdas", "1",
                               "--y-min", "1", "--y-max", str(math.e),
                               "--points", "2")
        # two-point grid from y = 1 to y = e: ln(1) = 0 and ln(e) = 1
        assert code == 0
        first, last = out.strip().split("\n")[1:]
        assert first == "1.0,0.0"
        assert float(last.split(",")[1]) == pytest.approx(1.0, rel=1e-15)

    def test_plot_data_csv_bytes(self, capsys):
        code, out, err = run_cli(capsys, "plot-data", "--lambdas", "0.5",
                                 "--y-min", "1", "--y-max", "4", "--points", "2")
        assert (code, out, err) == (0, "y,F_0.5\n1.0,0.0\n4.0,2.0\n", "")
        # every curve vanishes at y = 1
        code, out, err = run_cli(capsys, "plot-data", "--y-min", "1", "--y-max", "2",
                                 "--points", "2")
        assert (code, err) == (0, "")
        assert out.split("\n")[1] == "1.0,0.0,0.0,0.0,0.0"

    def test_plot_data_invalid_range(self, capsys):
        code, _, err = run_cli(capsys, "plot-data", "--y-min", "-1")
        assert code == 1
        code, _, err = run_cli(capsys, "plot-data", "--lambdas", ",")
        assert code == 1 and "at least one lambda is required" in err
        code, _, err = run_cli(capsys, "plot-data", "--lambdas", "x")
        assert code == 1 and "bad lambda list" in err
        # y_max = inf, and a last point that rounds to inf
        code, out, err = run_cli(capsys, "plot-data", "--y-max", "inf")
        assert (code, out, err) == (
            1, "", "error: DomainError: grid hi must be a finite positive number, got inf\n")
        code, out, err = run_cli(capsys, "plot-data", "--y-min", "1e-300",
                                 "--y-max", "1.7976931348623157e308", "--points", "7")
        assert (code, out) == (1, "")
        assert err.startswith("error: DomainError: grid range (") and "not finite" in err

    def test_plot_data_checks_every_lambda_before_any_cell(self, capsys):
        # F_400(1, 1e-300) overflows, but the nan after it is reported first
        grid = ["--y-min", "1e-300", "--y-max", "1e-299", "--points", "2"]
        code, out, err = run_cli(capsys, "plot-data", "--lambdas=0.5,400,nan", *grid)
        assert (code, out, err) == (
            1, "", "error: DomainError: lambda must be a finite real number, got nan\n")
        code, out, err = run_cli(capsys, "plot-data", "--lambdas=400", *grid)
        assert (code, out) == (2, "") and "NumericalError" in err

    def test_plot_data_single_point_exits_one(self, capsys):
        code, out, err = run_cli(capsys, "plot-data", "--points", "1")
        assert code == 1
        assert out == ""
        assert "at least 2 points" in err

    # A command without its required --target, no command, and an unknown one.
    @pytest.mark.parametrize("argv", [["verify"], [], ["bogus"]],
                             ids=lambda argv: shlex.join(argv) or "no-arguments")
    def test_usage_error_exits_one(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out, err = capsys.readouterr()
        assert (exc.value.code, out) == (1, "")
        assert err.startswith("usage: changekit")


#: Inputs at the edges of `rank`'s CSV contract: file bytes (None for a path
#: that does not exist, "dir" for a directory), exit code, and the start of
#: the error line after "error: " (None on success).
RANK_INPUTS = {
    "missing-path": (None, 1, "ParseError: {path}: cannot read: "),
    "directory": ("dir", 1, "ParseError: {path}: cannot read: "),
    "not-utf8": (b"label,past,present\nA,1,2\n\xff,3,4\n", 1, "ParseError: {path}: cannot read: "),
    "bom": (b"\xef\xbb\xbflabel,past,present\nA,1,2\nB,3,5\n", 0, None),
    "cr-label": (b'label,past,present\nc,1,2\n"a\rb",10,20\n', 1,
                 "ValidationError: {path}:3: label 'a\\rb' holds a line break"),
    "lf-label": (b'label,past,present\n"a\nb",10,20\nc,1,2\n', 1,
                 "ValidationError: {path}:2: label 'a\\nb' holds a line break"),
    "comma-quote-labels": (b'label,past,present\n"north, east",10,20\n"say ""hi""",5,6\n', 0, None),
    "blank-lines": (b"label,past,present\n\nA,1,2\n  \n\nB,3,5\n", 0, None),
    "duplicate-labels": (b"label,past,present\nA,1,2\nA,2,3\n", 1,
                         "ValidationError: {path}:3: duplicate label 'A'"),
    "blank-label": (b"label,past,present\n ,1,2\n", 1, "ValidationError: {path}:2: empty label"),
    "oversized-field": (b"label,past,present\n" + b"x" * (csv.field_size_limit() + 1) + b",1,2\n",
                        1, "ParseError: {path}: cannot read: field larger than field limit"),
}


@pytest.mark.parametrize("kind", ["table", "csv", "json"])
@pytest.mark.parametrize("case", sorted(RANK_INPUTS))
def test_rank_input_contract(capsys, tmp_path, strict_json, case, kind):
    content, expected_code, error = RANK_INPUTS[case]
    path = tmp_path / "in.csv"
    if content == "dir":
        path.mkdir()
    elif content is not None:
        path.write_bytes(content)
    code, out, err = run_cli(capsys, "rank", str(path), "--format", kind)
    assert "Traceback" not in err
    assert code == expected_code
    if error is not None:
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: " + error.format(path=path))
        return
    assert err == ""
    if kind == "json":
        assert len(strict_json(out)) == 2
    elif kind == "csv":
        rows = list(csv.reader(io.StringIO(out, newline="")))
        assert len(rows) == 3 and all(len(row) == 7 for row in rows)


def test_rank_stdin_not_utf8_is_parse_error(capsys, monkeypatch):
    stdin = io.TextIOWrapper(io.BytesIO(b"label,past,present\n\xff,1,2\n"), encoding="utf-8")
    monkeypatch.setattr(sys, "stdin", stdin)
    code, out, err = run_cli(capsys, "rank", "-")
    assert (code, out) == (1, "")
    assert err.startswith("error: ParseError: <stdin>: cannot read: ")


def test_rank_stdin_byte_order_mark_is_skipped(capsys, monkeypatch):
    stdin = io.TextIOWrapper(io.BytesIO(b"\xef\xbb\xbflabel,past,present\nA,1,2\n"),
                             encoding="utf-8")
    monkeypatch.setattr(sys, "stdin", stdin)
    code, out, err = run_cli(capsys, "rank", "-", "--format", "csv")
    assert (code, err) == (0, "")
    assert [row[0] for row in csv.reader(io.StringIO(out))] == ["label", "A"]


#: One argv per subcommand that takes --lambda, without the option itself.
LAMBDA_COMMANDS = {
    "rank": ["rank", "data.csv"],
    "compare": ["compare", "--ref", "1,2", "--cmp", "3,4"],
    "verify": ["verify", "--target", "f"],
    "elasticity": ["elasticity", "--fn", "power:A=5,k=0.3", "--x", "2"],
}


@pytest.mark.parametrize("command", sorted(LAMBDA_COMMANDS))
def test_lambda_exponent_form_with_equals_sign(command):
    args = build_parser().parse_args([*LAMBDA_COMMANDS[command], "--lambda=-1e-12"])
    assert args.lam == -1e-12


@pytest.mark.parametrize("command", sorted(LAMBDA_COMMANDS))
def test_lambda_spaced_exponent_form(capsys, command):
    # argparse on Python 3.10 and 3.11 reads only -1 and -1.5 style values as
    # negative numbers, so "-1e-12" looks like an option there: a usage error.
    try:
        args = build_parser().parse_args([*LAMBDA_COMMANDS[command], "--lambda", "-1e-12"])
    except SystemExit as exc:
        err = capsys.readouterr().err
        assert exc.code == 1
        assert err.startswith(f"usage: changekit {command}")
        assert "--lambda: expected one argument" in err
        assert "Traceback" not in err
    else:  # an argparse that reads exponent forms as numbers
        assert args.lam == -1e-12


#: Argvs of every kind: the top-level help, no command, an unknown one, an
#: option or "--" before the command, and each command's help, with valid
#: arguments, or with a missing, mistyped, unknown or trailing argument.
PARSER_ARGVS = [
    [], ["-h"], ["--help"], ["bogus"], ["Rank"], ["ran"], ["-h", "verify"],
    ["--", "verify", "--target", "f"], ["--lambda", "0.5", "compare"],
    ["rank", "-h"], ["compare", "--help"], ["calibrate", "-h"], ["verify", "-h"],
    ["elasticity", "-h"], ["plot-data", "-h"],
    ["rank"], ["rank", "data.csv"], ["rank", "data.csv", "--format", "json", "--precision", "15"],
    ["rank", "data.csv", "--format", "xml"], ["rank", "data.csv", "--precision", "two"],
    ["rank", "missing.csv"], ["rank", "data.csv", "extra"],
    ["compare", "--ref", "10,20"], ["compare", "--ref", "10,20", "--cmp", "35,70"],
    ["compare", "--ref", "10,20", "--cmp", "35,70", "--lambda", "x"],
    ["calibrate"], ["calibrate", "--ref", "10,20", "--cmp", "35,70"],
    ["verify"], ["verify", "--target", "g"], ["verify", "--target", "f", "--samples", "many"],
    ["verify", "--target", "f", "--lambda", "-1e-12"],
    ["verify", "--target", "F", "--lambda=-1e-12", "--samples", "50"],
    ["verify", "--tar", "f", "--samples", "50"],
    ["verify", "--target", "f", "--samples", "50", "--", "x"],
    ["verify", "--target", "f", "--samples", "50", "-h"],
    ["verify", "--target", "f", "--samples", "50", "compare"],
    ["elasticity", "--x", "2"], ["elasticity", "--fn", "power:A=5,k=0.3", "--x", "2"],
    ["plot-data", "--points", "3"], ["plot-data", "--points", "3", "--bogus"],
]


def _outcome(capsys, argv):
    """(exit code, stdout, stderr) of ``main(argv)``."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv", PARSER_ARGVS, ids=lambda argv: shlex.join(argv) or "no-arguments")
def test_main_answers_as_the_full_parser(capsys, monkeypatch, tmp_path, argv):
    # main builds the named command's parser alone; its help, usage lines and
    # errors are those of the parser of every command, in this Python.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "data.csv").write_text(EXAMPLE_CSV)
    got = _outcome(capsys, argv)
    full = build_parser
    monkeypatch.setattr(cli, "build_parser", lambda command=None: full())
    assert _outcome(capsys, argv) == got
    try:
        expected = vars(full().parse_args(argv))
    except SystemExit:
        capsys.readouterr()
        return
    if argv[0] in cli._SUBCOMMANDS:  # the argv main parses with one command's parser
        assert vars(full(argv[0]).parse_args(argv)) == expected


def test_main_builds_the_parser_of_the_named_command_alone(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    assert main(["compare", "--ref", "10,20", "--cmp", "35,70"]) == 0
    assert built == ["changekit", "changekit compare"]
    built.clear()
    with pytest.raises(SystemExit):
        main(["bogus"])
    assert len(built) == 7
    capsys.readouterr()


GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize(
    "target, lam",
    [("rel", None), ("abs", None), ("log", None), ("f", "0.5"), ("F", "0.5"), ("F", "0"), ("F", "-1")],
    ids=["rel", "abs", "log", "f", "F", "F-lam0", "F-lam-1"],
)
def test_verify_target_matches_golden(capsys, target, lam):
    # The golden files pin each target's reports byte for byte, and with
    # them every checker's sample stream: the classical targets (the
    # families' endpoints, which take no lambda), both families at 0.5, and
    # F's lambda = 0 branch and a negative lambda.
    flags = ["--lambda", lam] if lam is not None else []
    stem = f"verify_{target}_lam{lam}" if flags else f"verify_{target}"
    code, out, _ = run_cli(capsys, "verify", "--target", target, *flags, "--samples", "200")
    assert code == 0
    assert out == (GOLDEN / f"{stem}_samples200.json").read_text()


@pytest.mark.parametrize("lam", ["-60", "60", "150"])
@pytest.mark.parametrize("target", ["f", "F"])
def test_verify_non_finite_report_is_strict_json(capsys, strict_json, target, lam):
    # At large |lambda| the kernels overflow, so residuals and worst-case
    # values go non-finite; they are written as null, never as NaN/Infinity.
    code, out, _ = run_cli(capsys, "verify", "--target", target, "--lambda", lam,
                           "--samples", "200")
    assert code == 2
    reports = strict_json(out)
    values = [r["max_residual"] for r in reports]
    values += [v for r in reports for v in r["worst_case"].values()]
    assert None in values
    assert not any(r["pass"] for r in reports if r["max_residual"] is None)


class TestVerifyPlanInternals:
    def test_big_F_full_plan(self):
        cfg = SampleConfig(seed=5, count=1500, lambda_range=(0.5, 0.5))
        results, ok = run_verify("F", 0.5, cfg)
        assert ok
        assert [r["property"] for r in results] == [
            "naturality", "relative_scaling", "antisymmetry", "additivity", "normed"]

    def test_no_target_calls_a_scalar_kernel(self, monkeypatch):
        cfg = SampleConfig(count=200)
        expected = {t: run_verify(t, 0.5, cfg) for t in ("f", "F", "rel", "abs", "log")}

        def scalar(*args):
            raise AssertionError("verify called a scalar kernel")

        monkeypatch.setattr(kernels, "f_scalar", scalar)
        monkeypatch.setattr(kernels, "F_scalar", scalar)
        for target, result in expected.items():
            assert run_verify(target, 0.5, cfg) == result

    def test_unknown_target(self):
        with pytest.raises(ValidationError):
            run_verify("nope", 0.5, SampleConfig(seed=1, count=10))

    @pytest.mark.parametrize("lam, cfg, refusal", [
        ("x", SampleConfig(count=10), "lambda must be a finite real number, got 'x'"),
        (math.nan, SampleConfig(count=10), "lambda must be a finite real number, got nan"),
        (0.5, None, "cfg must be a SampleConfig, got None"),
        (0.5, (1, 10), "cfg must be a SampleConfig, got (1, 10)"),
    ])
    def test_lambda_and_cfg_refused_before_any_check(self, monkeypatch, lam, cfg, refusal):
        def no_checks():
            raise AssertionError("a check ran")

        monkeypatch.setattr(axioms, "shared_draws", no_checks)
        with pytest.raises(ValueError) as refused:
            run_verify("f", lam, cfg)
        assert str(refused.value) == refusal

    @pytest.mark.parametrize("target, draws", [("f", 5), ("F", 5), ("rel", 3), ("abs", 3), ("log", 3)])
    def test_each_sample_array_is_drawn_once(self, monkeypatch, target, draws):
        # The checks of one call share their config's draws: as many arrays
        # as the most that one check reads.  check_normed reads array 1.
        calls = []
        draw = axioms._log_uniform
        monkeypatch.setattr(axioms, "_log_uniform", lambda rng, n: calls.append(n) or draw(rng, n))
        run_verify(target, 0.5, SampleConfig(count=300))
        assert calls == [300] * draws

    @pytest.mark.parametrize("target, lam", [("f", 0.5), ("f", 1.0), ("F", 0.5), ("F", -1.5),
                                             ("rel", 0.5), ("abs", 0.5), ("log", 0.5)])
    def test_shared_draws_give_each_check_its_own_report(self, target, lam):
        cfg = SampleConfig(count=40_000)
        results, _ = run_verify(target, lam, cfg)
        ind = cli._target_indicator(target, lam)
        for (name, _), got in zip(cli._VERIFY_PLAN[target], results, strict=True):
            if name == "normed":
                alone = axioms.check_normed(axioms.F_indicator, axioms.f_indicator,
                                            SampleConfig(cfg.seed, cfg.count, (lam, lam)))
            else:
                alone = getattr(axioms, f"check_{name}")(ind, cfg)
            assert got == {**alone.to_dict(), "expected": got["expected"]}

    def test_no_drawn_array_outlives_the_call(self, monkeypatch):
        drawn = []
        draw = axioms._log_uniform

        def tracked(rng, n):
            a = draw(rng, n)
            drawn.append(weakref.ref(a))
            return a

        monkeypatch.setattr(axioms, "_log_uniform", tracked)
        for target in cli._VERIFY_PLAN:
            run_verify(target, 0.5, SampleConfig(count=300))
        gc.collect()
        assert len(drawn) == 5 + 5 + 3 * 3
        assert all(ref() is None for ref in drawn)


@pytest.mark.parametrize("target, lam, samples", [
    ("F", "60", "40000"), ("F", "150", "200"), ("f", "-60", "200"),
])
def test_verify_past_the_float_range_is_quiet_on_stderr(strict_json, target, lam, samples):
    # Each run overflows the kernels and fails a check.  40,000 samples span
    # several blocks of each check.  The checks evaluate under one numpy
    # error state, so a value that is not finite shows only in the report,
    # as a JSON null, not as a warning, under Python's default warning filter.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
    root = str(Path(changekit.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
    assert 40_000 > 2 * axioms.BLOCK
    proc = subprocess.run(
        [sys.executable, "-m", "changekit.cli", "verify", "--target", target, f"--lambda={lam}",
         "--samples", samples], env=env, capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (2, "")
    assert strict_json(proc.stdout)


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_commands():
    """Every `changekit ...` line of the README's "Command line" block."""
    section = README.read_text().split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("changekit ")]


def test_readme_lists_commands():
    assert len(readme_commands()) >= 7


@pytest.mark.parametrize("line", readme_commands())
def test_readme_command_runs(capsys, monkeypatch, tmp_path, line):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "data.csv").write_text(EXAMPLE_CSV)
    code, out, err = run_cli(capsys, *shlex.split(line)[1:])
    assert code == 0, err
    assert out


# -- the CLI contract under generated input ------------------------------------

#: Number arguments in every notation, valid or not.
NUMBER_TEXTS = st.one_of(
    st.floats().map(repr),
    st.floats().map("{:e}".format),
    st.integers(-10**20, 10**20).map(str),
    st.sampled_from(["nan", "-inf", "Infinity", "1e308", "1e309", "-0", "-1e-12", "5e-324",
                     "0x10", "1_000", " 3 ", "", "abc"]),
)


def _mostly(valid, edge):
    """``valid`` three times in four, else ``edge``: most inputs then get past
    the first check, so that the later ones run too."""
    return st.sampled_from([valid, valid, valid, edge]).flatmap(lambda strategy: strategy)


POSITIVE_TEXTS = _mostly(st.floats(1e-3, 1e3).map(repr), NUMBER_TEXTS)
LAMBDA_TEXTS = _mostly(st.floats(-3, 3).map(repr), NUMBER_TEXTS)
INPUT = "<input>"  # rank's positional argument, replaced by the test


def _option(name, values, required=False):
    """A ``name value`` option, written as ``name=value`` or as two words; an
    optional one is sometimes left out."""
    def spell(value, joined):
        return [f"{name}={value}"] if joined else [name, value]
    spelled = st.builds(spell, values, st.booleans())
    return spelled if required else st.one_of(st.just([]), spelled)


@st.composite
def cli_argv(draw, commands=("rank", "compare", "calibrate", "verify", "elasticity", "plot-data")):
    command = draw(st.sampled_from(commands))
    pair = _mostly(st.tuples(POSITIVE_TEXTS, POSITIVE_TEXTS).map(",".join), NUMBER_TEXTS)
    if command == "rank":
        options = [_option("--indicator", st.sampled_from(["f", "F", "g"])),
                   _option("--format", st.sampled_from(["table", "csv", "json", "xml"])),
                   _option("--precision", st.integers(-1, 16).map(str)),
                   # Line breaks drawn as often as all other characters together.
                   _option("--unit", st.text(st.sampled_from("\r\n") | st.characters(), max_size=3))]
        argv = [command, INPUT]
    elif command in ("compare", "calibrate"):
        options = [_option("--ref", pair, True), _option("--cmp", pair, True)]
        argv = [command]
    elif command == "verify":
        targets = st.sampled_from(["f", "F", "rel", "abs", "log", "g"])
        options = [_option("--target", targets, True),
                   _option("--seed", st.one_of(st.integers(-2**70, 2**70).map(str), NUMBER_TEXTS))]
        argv = [command, f"--samples={draw(st.integers(-2, 200))}"]
    elif command == "elasticity":
        families = ["power:A={},k={}", "exponential:A={},b={}", "affine:a={},b={}", "cubic:a={}"]
        spec = st.builds(str.format, st.sampled_from(families), POSITIVE_TEXTS, LAMBDA_TEXTS)
        options = [_option("--fn", spec, True), _option("--x", POSITIVE_TEXTS, True)]
        argv = [command]
    else:
        lambdas = st.lists(LAMBDA_TEXTS, max_size=4).map(",".join)
        options = [_option("--lambdas", lambdas), _option("--y-min", POSITIVE_TEXTS),
                   _option("--y-max", POSITIVE_TEXTS)]
        argv = [command, f"--points={draw(st.integers(-1, 50))}"]
    if command not in ("calibrate", "plot-data"):
        options.append(_option("--lambda", LAMBDA_TEXTS))
    for option in options:
        argv += draw(option)
    return argv


#: A CSV line for rank that is not a clean observation.
EDGE_ROWS = st.one_of(
    st.sampled_from(["", "  ", ",", "a,1", "a,1,2,3"]),
    st.builds("{},{},{}".format, st.text(alphabet='ab ,"\r\n\xe9', max_size=4),
              POSITIVE_TEXTS, POSITIVE_TEXTS),
    st.builds('"{}",{},{}'.format, st.text(alphabet='ab ,"\r\n\xe9', max_size=4).map(
        lambda label: label.replace('"', '""')), POSITIVE_TEXTS, POSITIVE_TEXTS),
)


#: A past or present value for rank, now and then at an end of the float range.
RANK_VALUES = _mostly(st.floats(1e-3, 1e3),
                      st.sampled_from([5e-324, 1e-300, 1e300, 1.7976931348623157e308]))


@st.composite
def csv_bytes(draw):
    """Bytes for rank: mostly a clean table, else edge headers, rows, line
    endings, encodings or bytes."""
    rows = draw(st.dictionaries(st.text("abc", min_size=1, max_size=2),
                                st.tuples(RANK_VALUES, RANK_VALUES),
                                min_size=1, max_size=4))
    lines = [f"{label},{x!r},{y!r}" for label, (x, y) in rows.items()]
    if draw(_mostly(st.just(True), st.just(False))):
        return "\n".join(["label,past,present", *lines, ""]).encode()
    header = draw(st.sampled_from(["label,past,present", "\ufefflabel,past,present",
                                   "Label, Past ,PRESENT", "label,past", "", "name,old,new"]))
    lines += draw(st.lists(EDGE_ROWS, max_size=3))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = newline.join([header, *lines]) + draw(st.sampled_from(["", newline]))
    encoding = draw(st.sampled_from(["utf-8", "utf-16", "latin-1"]))
    return draw(_mostly(st.just(text.encode(encoding, "replace")), st.binary(max_size=40)))


def _finite_number(text):
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


def check_cli_contract(strict_json, argv, content, source):
    """main(argv), its input from content as a file, stdin, a missing path or
    a directory: the exit code, stderr and stdout keep the CLI's contract."""
    out, err = io.StringIO(), io.StringIO()
    stdin = io.TextIOWrapper(io.BytesIO(content), encoding="utf-8")
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "in.csv")
        if source == "file":
            Path(path).write_bytes(content)
        elif source == "directory":
            os.mkdir(path)
        argv = [("-" if source == "stdin" else path) if arg == INPUT else arg for arg in argv]
        usage = False
        with redirect_stdout(out), redirect_stderr(err), mock.patch.object(sys, "stdin", stdin):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's usage error
                assert exc.code == 1
                code, usage = 1, True
    assert code in (0, 1, 2)
    text, errors = out.getvalue(), err.getvalue()
    assert "Traceback" not in errors
    if usage:
        assert errors.startswith("usage: changekit")
        assert ": error: " in errors.splitlines()[-1]
    elif code == 0 or (argv[0] == "verify" and code == 2 and text):
        assert errors == ""
    else:  # a handler's error: one line
        assert errors.startswith(("error: ", "numerical error: "))
        assert errors.count("\n") == 1 and errors.endswith("\n")
    if argv[0] == "elasticity" and not usage:
        # A family parameter that is no finite number is an input error.
        params = build_parser().parse_args(argv).fn.partition(":")[2].split(",")
        if not all(_finite_number(item.partition("=")[2]) for item in params):
            assert code == 1
    if not text:
        return
    kind = getattr(build_parser().parse_args(argv), "format", None)  # a handler ran: argv parses
    if argv[0] == "rank":  # only finite numbers; the unit footnote is free text
        body, footnote, unit = text.partition("# indicator unit: ")
        assert "inf" not in body.lower() and "nan" not in body.lower()
        if footnote:  # the table's last line, and only that
            assert body.endswith("\n") and unit.endswith("\n")
            assert unit.count("\n") == 1 and "\r" not in unit
    if argv[0] == "verify" or kind == "json":
        strict_json(text)
    if kind == "csv":
        assert all(len(row) == 7 for row in csv.reader(io.StringIO(text, newline="")))


# strict_json holds no state, so sharing it across examples is safe.
GENERATED = settings(max_examples=150, derandomize=True, database=None, deadline=None,
                     suppress_health_check=[HealthCheck.function_scoped_fixture])
SOURCES = _mostly(st.sampled_from(["file", "stdin"]), st.sampled_from(["missing", "directory"]))


# Each command but rank gets its own examples, so that no edit of this test
# shifts the mix.  Only rank reads the input, so the others get none.
@pytest.mark.parametrize("command", ["compare", "calibrate", "verify", "elasticity", "plot-data"])
@settings(GENERATED, max_examples=30)
@given(data=st.data())
def test_cli_contract_under_generated_input(strict_json, command, data):
    argv = data.draw(cli_argv(commands=(command,)), label="argv")
    check_cli_contract(strict_json, argv, b"", "file")


def test_verify_exit_two_keeps_the_contract(strict_json):
    # verify's exit 2 with a report on stdout, which few generated argv reach.
    check_cli_contract(strict_json, ["verify", "--target", "F", "--lambda", "5", "--samples", "50"],
                       b"", "file")


# rank, the one command that reads an input: its argv, bytes and source drawn together.
@GENERATED
@given(argv=cli_argv(commands=("rank",)), content=csv_bytes(), source=SOURCES)
# A relative change past the float range.
@example(argv=["rank", INPUT, "--format", "json"],
         content=b"label,past,present\na,1e-300,1e10\n", source="stdin")
# A unit that would add a line after the footnote.
@example(argv=["rank", INPUT, "--unit", "EUR\nII  1.00"],
         content=b"label,past,present\nI,10,20\n", source="stdin")
def test_rank_contract_under_generated_input(strict_json, argv, content, source):
    check_cli_contract(strict_json, argv, content, source)
