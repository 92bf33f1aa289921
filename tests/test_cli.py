import io
import json
import math
import shlex
from pathlib import Path

import pytest

from changekit.cli import (
    Dataset,
    OutputFormat,
    main,
    parse_csv,
    rank_dataset,
    render_reports,
    run_verify,
)
from changekit.axioms import SampleConfig
from changekit.errors import ParseError, ValidationError
from changekit.types import LabeledObservation, PositivePair

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
        assert [o.label for o in ds.observations] == ["I", "II", "III", "IV", "V"]
        assert ds.observations[0].pair == PositivePair(10, 20)

    def test_header_case_insensitive_and_crlf(self):
        ds = parse_csv(io.StringIO("Label,Past,Present\r\nA,1,2\r\n"))
        assert ds.observations[0].label == "A"

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


class TestRanking:
    def test_example_ranking(self):
        ds = parse_csv(io.StringIO(EXAMPLE_CSV))
        reports = rank_dataset(ds, 0.5, "f")
        by_label = {r.label: r for r in reports}
        assert by_label["V"].rank == 1
        assert by_label["III"].rank == 2 and by_label["IV"].rank == 2
        assert by_label["I"].rank == 3
        assert by_label["II"].rank == 4
        assert [r.label for r in reports] == ["V", "III", "IV", "I", "II"]

    def test_abs_ranking_cannot_separate_ii_and_iii(self):
        ds = parse_csv(io.StringIO(EXAMPLE_CSV))
        reports = rank_dataset(ds, 0.0, "f")
        by_label = {r.label: r for r in reports}
        assert by_label["II"].rank == 1 and by_label["III"].rank == 1
        assert [r.indicator for r in sorted(reports, key=lambda r: r.label)] == [
            10, 70, 70, 35, 55]

    def test_single_row(self):
        ds = Dataset([LabeledObservation("only", PositivePair(3, 4))])
        reports = rank_dataset(ds, 0.5)
        assert reports[0].rank == 1

    def test_dense_ranks_after_tie(self):
        ds = Dataset(
            [
                LabeledObservation("a", PositivePair(1, 4)),
                LabeledObservation("b", PositivePair(2, 8)),  # same rel change as a
                LabeledObservation("c", PositivePair(1, 2)),
            ]
        )
        reports = rank_dataset(ds, 1.0, "f")
        ranks = {r.label: r.rank for r in reports}
        assert ranks == {"a": 1, "b": 1, "c": 2}


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

    def test_csv_full_precision_round_trips(self):
        reports = self._reports()
        buf = io.StringIO()
        render_reports(reports, OutputFormat("csv", 15), "f", 0.5, buf)
        reparsed = {}
        for line in buf.getvalue().strip().split("\n")[1:]:
            cells = line.split(",")
            reparsed[cells[0]] = float(cells[5])
        for r in reports:
            assert reparsed[r.label] == r.indicator  # bit-exact

    def test_json_deterministic(self):
        bufs = []
        for _ in range(2):
            buf = io.StringIO()
            render_reports(self._reports(), OutputFormat("json", 15), "f", 0.5, buf)
            bufs.append(buf.getvalue())
        assert bufs[0] == bufs[1]
        data = json.loads(bufs[0])
        assert list(data[0]) == ["label", "past", "present", "abs", "rel", "indicator", "rank"]

    def test_precision_bounds(self):
        with pytest.raises(ValidationError):
            OutputFormat("csv", 16)
        with pytest.raises(ValidationError):
            OutputFormat("csv", -1)


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

    def test_calibrate_success(self, capsys):
        code, out, _ = run_cli(capsys, "calibrate", "--ref", "1,2", "--cmp", "2,4")
        assert code == 0
        assert out.startswith("lambda = 1.0")

    def test_calibrate_named_errors(self, capsys):
        code, _, err = run_cli(capsys, "calibrate", "--ref", "1,2", "--cmp", "1,2")
        assert code == 1 and "EqualPastValues" in err
        code, _, err = run_cli(capsys, "calibrate", "--ref", "1,2", "--cmp", "4,3")
        assert code == 1 and "SignMismatch" in err
        code, _, err = run_cli(capsys, "calibrate", "--ref", "2,2", "--cmp", "1,2")
        assert code == 1 and "StagnantPair" in err

    def test_verify_f_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--target", "f", "--lambda", "0.5",
                               "--samples", "2000")
        assert code == 0
        reports = json.loads(out)
        names = [r["property"] for r in reports]
        assert names == ["affine_linearity", "naturality", "relative_scaling", "vartia_invariance"]
        assert [r["expected"] for r in reports] == ["pass", "pass", "pass", "fail"]
        assert all(r["pass"] for r in reports[:3])
        assert not reports[3]["pass"]

    def test_verify_f_at_lambda_one_expects_vartia(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--target", "f", "--lambda", "1",
                               "--samples", "2000")
        assert code == 0
        reports = json.loads(out)
        assert reports[3]["expected"] == "pass" and reports[3]["pass"]

    def test_verify_rel_reports_expected_failures(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--target", "rel", "--samples", "2000")
        assert code == 0
        by_name = {r["property"]: r for r in json.loads(out)}
        assert not by_name["antisymmetry"]["pass"]
        assert not by_name["additivity"]["pass"]
        assert by_name["antisymmetry"]["worst_case"]  # concrete stored witness

    def test_verify_seed_env_override(self, capsys, monkeypatch):
        monkeypatch.setenv("CHANGEKIT_SEED", "424242")
        code, out, _ = run_cli(capsys, "verify", "--target", "abs", "--samples", "500")
        assert code == 0
        monkeypatch.delenv("CHANGEKIT_SEED")
        code, out2, _ = run_cli(capsys, "verify", "--target", "abs", "--samples", "500",
                                "--seed", "424242")
        assert out == out2

    def test_verify_bad_seed_env_exits_one(self, capsys, monkeypatch):
        monkeypatch.setenv("CHANGEKIT_SEED", "abc")
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--target", "abs", "--samples", "50"])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert "--seed: invalid int value: 'abc'" in err
        assert "Traceback" not in err

    def test_bad_seed_env_does_not_affect_rank(self, capsys, monkeypatch, example_file):
        monkeypatch.setenv("CHANGEKIT_SEED", "abc")
        code, out, err = run_cli(capsys, "rank", example_file)
        assert code == 0 and err == ""
        assert out.startswith("label")

    @pytest.mark.parametrize("kind", ["table", "csv", "json"])
    def test_rank_non_finite_indicator_exits_two(self, capsys, tmp_path, kind):
        # 0.001**105 is subnormal, so f_105 of row a overflows to inf
        path = tmp_path / "overflow.csv"
        path.write_text("label,past,present\na,0.001,20\nb,35,70\n")
        code, out, err = run_cli(capsys, "rank", str(path), "--lambda", "105", "--format", kind)
        assert code == 2
        assert out == ""
        assert "NumericalError" in err

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

    def test_plot_data_defaults(self, capsys):
        code, out, _ = run_cli(capsys, "plot-data")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "y,F_0,F_0.2,F_0.5,F_1"
        assert len(lines) == 501

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
        # two-point grid ending at y = e: the last row evaluates ln(e) = 1
        assert code == 0
        value = float(out.strip().split("\n")[-1].split(",")[1])
        assert value == pytest.approx(1.0, rel=1e-15)

    def test_plot_data_invalid_range(self, capsys):
        code, _, err = run_cli(capsys, "plot-data", "--y-min", "-1")
        assert code == 1

    def test_usage_error_exits_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify"])  # missing required --target
        assert exc.value.code == 1


class TestVerifyPlanInternals:
    def test_big_F_full_plan(self):
        cfg = SampleConfig(seed=5, count=1500, lambda_range=(0.5, 0.5))
        results, ok = run_verify("F", 0.5, cfg)
        assert ok
        assert [r["property"] for r in results] == [
            "naturality", "relative_scaling", "antisymmetry", "additivity", "normed"]

    def test_unknown_target(self):
        with pytest.raises(ValidationError):
            run_verify("nope", 0.5, SampleConfig(seed=1, count=10))


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
    monkeypatch.delenv("CHANGEKIT_SEED", raising=False)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "data.csv").write_text(EXAMPLE_CSV)
    code, out, err = run_cli(capsys, *shlex.split(line)[1:])
    assert code == 0, err
    assert out
