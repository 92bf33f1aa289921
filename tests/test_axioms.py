import json
import math
import tracemalloc
from decimal import localcontext
from functools import partial

import numpy as np
import pytest

import decimal_ref

from changekit import _kernels_py as kernels
from changekit import axioms, cli, types
from changekit.axioms import (
    NORMED_H_FRACTIONS,
    CheckReport,
    SampleConfig,
    VALUE_RANGE,
    VIOLATION_FLOOR,
    F_indicator,
    check_additivity,
    check_affine_linearity,
    check_antisymmetry,
    check_naturality,
    check_normed,
    check_relative_scaling,
    check_vartia_invariance,
    f_indicator,
    shared_draws,
)
from changekit.errors import ValidationError

LAMBDA_MATRIX = (-1.0, 0.0, 0.25, 0.5, 1.0, 2.0)

# The classical indicators are the families' endpoints.
abs_indicator = partial(f_indicator, 0.0)
rel_indicator = partial(f_indicator, 1.0)
log_ratio_indicator = partial(F_indicator, 1.0)


def cfg(seed=1234, count=2000, **kw):
    return SampleConfig(seed=seed, count=count, **kw)


#: Ulps within which both libm and numpy round log, expm1 and pow: glibc
#: stays within 1 ulp, numpy's SIMD float64 routines within 4.
ULPS = 4
EPS = 2.0**-52


def normed_ratio_gap(lam, x, y, F, f, diff, bound, ratio):
    """Bound on how far two evaluations of one normed ratio can differ.

    Each evaluation rounds log, expm1 and pow to within ULPS ulps and every
    other operation correctly.  To first order in EPS, one evaluation errs by:

    - F = (expm1(u ln y) - expm1(u ln x)) / u with u = 1 - lam, whose terms
      T_v = expm1(u ln v) cancel.  ln v carries ULPS ulps and u * ln v one
      more, so the argument is off by (ULPS + 1) EPS |u ln v|, which expm1
      scales by its derivative v**u; expm1 itself adds ULPS EPS |T_v|.  After
      the division by u each term contributes
      EPS ((ULPS + 1) |ln v| v**u + ULPS |T_v| / |u|), and the subtraction
      and the division add 2 EPS |F|.  At lam = 1 the terms are ln x and
      ln y, ULPS EPS |ln v| each, plus EPS |F| for the subtraction.  At
      lam = 0, F = y - x is exact (Sterbenz: x <= y <= 2x).
    - f = (y - x) / x**lam: y - x is exact; pow and the division add
      (ULPS + 1) EPS |f|.
    - diff = |F - f| adds EPS diff.  K h**2 = |lam| h h / xi**(1 + lam)
      carries (ULPS + 3) EPS relative error, and the ratio's division EPS.

    Two evaluations differ by at most the sum of their errors:
    2 (err_F + err_f + EPS diff) / (K h**2) + 2 (ULPS + 4) EPS ratio.
    """
    if lam == 0.0:
        err_F = 0.0
    elif lam == 1.0:
        err_F = EPS * (ULPS * (abs(math.log(x)) + abs(math.log(y))) + abs(F))
    else:
        u = 1.0 - lam
        terms = sum(
            (ULPS + 1) * abs(math.log(v)) * v**u + ULPS * abs(math.expm1(u * math.log(v))) / abs(u)
            for v in (x, y)
        )
        err_F = EPS * (terms + 2 * abs(F))
    err_f = (ULPS + 1) * EPS * abs(f)
    return 2 * (err_F + err_f + EPS * diff) / bound + 2 * (ULPS + 4) * EPS * ratio


def reference_normed(c):
    """The normed check one sample and one h at a time, through the scalar kernels.

    Returns its report and ``normed_ratio_gap`` for every sample, keyed by
    (x, h).  If a batch check of the same samples errs by at most g_i on
    sample i, its residual b and this residual a satisfy
    a - g(a's worst case) <= b <= a + g(b's worst case).
    """
    rng = c.rng()
    lams = rng.uniform(*c.lambda_range, c.count).tolist()
    xs = np.exp(rng.uniform(math.log(VALUE_RANGE[0]), math.log(VALUE_RANGE[1]), c.count)).tolist()
    worst, case, gaps = 0.0, {}, {}
    for lam, x in zip(lams, xs):
        for frac in NORMED_H_FRACTIONS:
            h = x * frac
            F = kernels.F_scalar(lam, x, x + h)
            f = kernels.f_scalar(lam, x, x + h)
            diff = abs(F - f)
            xi = min(x, x + h) if lam >= -1.0 else max(x, x + h)
            bound = abs(lam) * h * h / xi ** (1.0 + lam)
            if bound > 0.0:
                ratio = diff / bound
                gaps[x, h] = normed_ratio_gap(lam, x, x + h, F, f, diff, bound, ratio)
            else:
                ratio = 0.0 if diff == 0.0 else math.inf
                gaps[x, h] = 0.0
            if ratio > worst:
                worst, case = ratio, {"lambda": lam, "x": x, "h": h}
    return CheckReport("normed", c.count, worst, case, 1.0), gaps


class TestReportsAndConfig:
    def test_report_json_schema(self, strict_json):
        report = check_antisymmetry(abs_indicator(), cfg())
        data = strict_json(json.dumps(report.to_dict()))
        assert list(data) == ["property", "samples", "max_residual", "worst_case", "pass"]
        assert data["pass"] is True
        assert isinstance(data["max_residual"], float)

    def test_non_finite_values_serialize_as_null(self, strict_json):
        r = CheckReport("demo", 10, math.nan, {"x": 2.0, "value": -math.inf}, 1.0)
        data = strict_json(json.dumps(r.to_dict()))
        assert data["max_residual"] is None
        assert data["worst_case"] == {"x": 2.0, "value": None}
        assert data["pass"] is False

    def test_pass_flag_tracks_tolerance(self):
        r = CheckReport("demo", 10, 1e-10, {}, 1e-9)
        assert r.passed
        r2 = CheckReport("demo", 10, 1e-8, {}, 1e-9)
        assert not r2.passed

    def test_deterministic_given_seed(self):
        a = check_relative_scaling(f_indicator(0.7), cfg(seed=99))
        b = check_relative_scaling(f_indicator(0.7), cfg(seed=99))
        assert json.dumps(a.to_dict()) == json.dumps(b.to_dict())
        c = check_relative_scaling(f_indicator(0.7), cfg(seed=100))
        assert c.worst_case != a.worst_case

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            SampleConfig(count=0)
        with pytest.raises(ValidationError):
            SampleConfig(lambda_range=(2.0, 1.0))
        with pytest.raises(ValidationError, match="seed"):
            SampleConfig(seed=-1)

    def test_config_is_the_types_class(self):
        # It lives in `types`, which loads no numpy, and is importable from here.
        assert SampleConfig is types.SampleConfig


class TestSharedDraws:
    # relative_scaling draws arrays 0-4; affine_linearity, after it, still
    # draws its t from position 3 of the stream.
    CHECKS = (check_relative_scaling, check_affine_linearity, check_naturality,
              check_vartia_invariance, check_antisymmetry, check_additivity)

    @staticmethod
    def write_xs(xs, ys):
        xs[0] = 1.0
        return ys - xs

    @staticmethod
    def write_ys(xs, ys):
        ys[...] = xs
        return ys - xs

    @pytest.mark.parametrize("writer", ["write_xs", "write_ys"])
    def test_an_indicator_that_writes_into_its_samples_raises(self, writer):
        # Alone or sharing draws, the samples are read-only, so a later
        # check never sees the changes of an earlier one, and naturality's
        # copy of y with its stagnant tenth is read-only too.
        writer = getattr(self, writer)
        alone = []
        for check in self.CHECKS:
            with pytest.raises(ValueError, match="read-only"):
                check(writer, cfg())
            alone.append(check(abs_indicator(), cfg()))
        with shared_draws():
            for check, report in zip(self.CHECKS, alone):
                with pytest.raises(ValueError, match="read-only"):
                    check(writer, cfg())
                assert check(abs_indicator(), cfg()) == report
        # normed hands one (x, y) to F and then to f: neither can change
        # what the other reads.
        for families in ((lambda lam: writer, f_indicator), (F_indicator, lambda lam: writer)):
            with pytest.raises(ValueError, match="read-only"):
                check_normed(*families, cfg())

    def test_shared_reports_are_the_reports_alone(self):
        ind = f_indicator(0.5)
        alone = [check(ind, cfg()) for check in self.CHECKS]
        with shared_draws():
            assert [check(ind, cfg()) for check in self.CHECKS] == alone

    def test_normed_reads_the_array_naturality_drew(self):
        # normed's xs are position 1 of the stream, which naturality draws
        # first; its lambda_range is not part of the key.
        c = cfg(lambda_range=(0.5, 0.5))
        alone = check_normed(F_indicator, f_indicator, c)
        with shared_draws():
            check_naturality(F_indicator(0.5), cfg())
            assert check_normed(F_indicator, f_indicator, c) == alone

    @pytest.mark.parametrize("count", [1, 300, axioms.BLOCK + 1])
    def test_array_i_starts_where_i_arrays_end(self, count):
        c = cfg(count=count)
        rng = c.rng()
        for i in range(6):
            assert axioms._at(c, i).bit_generator.state == rng.bit_generator.state
            assert np.array_equal(axioms._log_uniform(axioms._at(c, i), count),
                                  axioms._log_uniform(rng, count))

    def test_normed_alone_draws_only_its_xs(self, monkeypatch):
        # Its lambdas take the steps of array 0, which it never reads.
        calls = []
        draw = axioms._log_uniform
        monkeypatch.setattr(axioms, "_log_uniform", lambda rng, n: calls.append(n) or draw(rng, n))
        check_normed(F_indicator, f_indicator, cfg(count=300, lambda_range=(0.5, 0.5)))
        assert calls == [300]


BLOCK = axioms.BLOCK
#: One sample, one block short, full and spilling by one, and several.
BLOCK_COUNTS = (1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7)
IDENTITY_CHECKS = (check_affine_linearity, check_naturality, check_relative_scaling,
                   check_vartia_invariance, check_antisymmetry, check_additivity)
#: Passing, failing and overflowing members: residuals of 0, finite, inf and NaN.
BLOCK_INDICATORS = (f_indicator(0.5), F_indicator(0.5), rel_indicator(),
                    F_indicator(-60.0), f_indicator(60.0), F_indicator(150.0))


def whole_array_report(monkeypatch, count, run):
    """``run()`` with the block size above ``count``: one block, the whole arrays."""
    with monkeypatch.context() as m:
        m.setattr(axioms, "BLOCK", count + 1)
        return run()


class TestBlocks:
    @pytest.mark.parametrize("count", BLOCK_COUNTS)
    @pytest.mark.parametrize("check", IDENTITY_CHECKS, ids=lambda c: c.__name__)
    def test_blocked_reports_are_the_whole_array_reports(self, monkeypatch, check, count):
        # repr compares NaN residuals and the worst case's key order too.
        c = cfg(count=count)
        for ind in BLOCK_INDICATORS:
            whole = whole_array_report(monkeypatch, count, lambda: check(ind, c))
            assert repr(check(ind, c)) == repr(whole)

    # lam None: a lambda per sample, one batch each, so only at two counts.
    @pytest.mark.parametrize("lam, count", [(lam, n) for lam in (0.0, 0.5, -1.5, 150.0)
                                            for n in BLOCK_COUNTS] + [(None, 1), (None, BLOCK + 1)])
    def test_blocked_normed_is_the_whole_array_normed(self, monkeypatch, lam, count):
        c = cfg(count=count) if lam is None else cfg(count=count, lambda_range=(lam, lam))
        whole = whole_array_report(monkeypatch, count,
                                   lambda: check_normed(F_indicator, f_indicator, c))
        assert repr(check_normed(F_indicator, f_indicator, c)) == repr(whole)


class TestWorstCaseMerge:
    """Residuals planted on either side of block boundaries.

    The worst case is ``np.argmax``'s over the whole stream: the first NaN,
    or else the first largest value.
    """

    c = cfg(count=3 * BLOCK + 7)

    def x(self, p):
        return float(axioms._sample(self.c, 0)[0][p])

    def planted(self, base, values):
        """``base`` over (xs, ys), but ``values[p]`` where xs holds sample p's x."""
        marks = [(self.x(p), v) for p, v in values.items()]

        def ind(xs, ys):
            out = base(xs, ys)
            for m, v in marks:
                out[xs == m] = v
            return out

        return ind

    def antisymmetry(self, values):
        # Zero is antisymmetric, so a planted value v leaves |v| / max(1, |v|).
        return check_antisymmetry(self.planted(lambda xs, ys: np.zeros(np.shape(xs)), values), self.c)

    def test_a_later_nan_beats_an_earlier_larger_residual(self):
        r = self.antisymmetry({5: 0.75, 2 * BLOCK + 3: math.nan})
        assert math.isnan(r.max_residual)
        assert r.worst_case["x"] == self.x(2 * BLOCK + 3)

    def test_the_first_nan_wins_once(self):
        r = self.antisymmetry({BLOCK + 1: math.nan, 2 * BLOCK + 1: math.nan, 3 * BLOCK: 0.75})
        assert math.isnan(r.max_residual)
        assert r.worst_case["x"] == self.x(BLOCK + 1)

    @pytest.mark.parametrize("first, second", [(5, BLOCK + 9), (BLOCK - 1, BLOCK)])
    def test_of_equal_maxima_the_first_wins(self, first, second):
        r = self.antisymmetry({first: 0.5, second: 0.5})
        assert r.max_residual == 0.5
        assert r.worst_case["x"] == self.x(first)

    def test_a_later_larger_maximum_wins(self):
        r = self.antisymmetry({5: 0.25, BLOCK + 5: 0.5})
        assert r.max_residual == 0.5
        assert r.worst_case["x"] == self.x(BLOCK + 5)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_naturality_scores_a_later_non_finite_value_inf(self, value):
        # Sample 10 is stagnant, so its residual is its value, 1e300.
        ind = self.planted(lambda xs, ys: ys - xs, {10: 1e300, BLOCK + 2: value, 2 * BLOCK + 3: math.inf})
        r = check_naturality(ind, self.c)
        assert r.max_residual == math.inf
        assert r.worst_case["x"] == self.x(BLOCK + 2)


#: Temporaries of BLOCK doubles that one block of a check may hold at once.
BLOCK_ARRAYS = 16


@pytest.mark.parametrize("check", IDENTITY_CHECKS + (check_normed,), ids=lambda c: c.__name__)
def test_block_temporaries_bound_the_peak(check):
    # tracemalloc sees numpy's data buffers.  The drawn arrays are made
    # first, so the peak is what the check allocates: whole-array
    # temporaries would be 12 of these units each at this count.
    c = cfg(count=200_000, lambda_range=(0.5, 0.5))
    unit = BLOCK * 8
    allowance = BLOCK_ARRAYS * unit
    if check is check_affine_linearity:
        allowance += c.count * 8  # its t, drawn whole
    if check is check_normed:
        run = partial(check, F_indicator, f_indicator, c)
        # its lambdas, drawn whole; a block's rows hold one sample per h-fraction
        allowance = c.count * 8 + len(NORMED_H_FRACTIONS) * allowance
    else:
        run = partial(check, F_indicator(0.5), c)
    with shared_draws():
        run()
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < allowance, f"{peak / unit:.1f} units of BLOCK doubles"


class TestAffineLinearity:
    @pytest.mark.parametrize("lam", LAMBDA_MATRIX)
    def test_f_family_passes(self, lam):
        assert check_affine_linearity(f_indicator(lam), cfg()).passed

    def test_big_F_fails_by_concavity(self):
        report = check_affine_linearity(F_indicator(0.5), cfg())
        assert not report.passed
        assert report.max_residual > VIOLATION_FLOOR
        # explicit witness: F(1, 2.5) = 2*(sqrt(2.5) - 1) vs the chord value 1
        F = F_indicator(0.5)
        assert abs(F(1.0, 2.5) - 0.5 * (F(1.0, 1.0) + F(1.0, 4.0))) > 0.1

    def test_log_ratio_fails(self):
        report = check_affine_linearity(log_ratio_indicator(), cfg())
        assert not report.passed and report.max_residual > VIOLATION_FLOOR


class TestNaturality:
    @pytest.mark.parametrize("lam", LAMBDA_MATRIX)
    def test_families_pass(self, lam):
        assert check_naturality(f_indicator(lam), cfg()).passed
        assert check_naturality(F_indicator(lam), cfg()).passed

    def test_squared_difference_fails(self):
        squared = lambda x, y: (y - x) ** 2
        report = check_naturality(squared, cfg(count=500))
        assert not report.passed
        assert squared(2.0, 1.0) == 1.0  # positive despite a decrease


class TestRelativeScaling:
    @pytest.mark.parametrize("lam", LAMBDA_MATRIX)
    def test_families_pass(self, lam):
        assert check_relative_scaling(f_indicator(lam), cfg()).passed
        assert check_relative_scaling(F_indicator(lam), cfg()).passed

    def test_shifted_abs_fails(self):
        shifted = lambda x, y: (y - x) + 1.0
        report = check_relative_scaling(shifted, cfg(count=500))
        assert not report.passed and report.max_residual > VIOLATION_FLOOR
        # witness from first principles: x=1,y=1,x2=1,y2=2,C=2
        assert shifted(1, 1) * shifted(2, 4) == 3.0
        assert shifted(1, 2) * shifted(2, 2) == 2.0


class TestVartiaInvariance:
    def test_rel_and_log_pass(self):
        assert check_vartia_invariance(rel_indicator(), cfg()).passed
        assert check_vartia_invariance(log_ratio_indicator(), cfg()).passed
        assert check_vartia_invariance(f_indicator(1.0), cfg()).passed

    def test_abs_fails(self):
        report = check_vartia_invariance(abs_indicator(), cfg(count=500))
        assert not report.passed and report.max_residual > VIOLATION_FLOOR
        ind = abs_indicator()
        assert ind(2.0, 4.0) != ind(1.0, 2.0)  # witness (1,2) with C=2


class TestAntisymmetry:
    @pytest.mark.parametrize("lam", LAMBDA_MATRIX)
    def test_big_F_passes(self, lam):
        assert check_antisymmetry(F_indicator(lam), cfg()).passed

    def test_abs_passes(self):
        assert check_antisymmetry(abs_indicator(), cfg()).passed

    def test_rel_fails(self):
        report = check_antisymmetry(rel_indicator(), cfg(count=500))
        assert not report.passed and report.max_residual > VIOLATION_FLOOR
        ind = rel_indicator()
        assert ind(1.0, 2.0) + ind(2.0, 1.0) == 0.5  # witness


class TestAdditivity:
    @pytest.mark.parametrize("lam", LAMBDA_MATRIX)
    def test_big_F_passes(self, lam):
        assert check_additivity(F_indicator(lam), cfg()).passed

    def test_abs_passes(self):
        assert check_additivity(abs_indicator(), cfg()).passed

    def test_rel_fails(self):
        report = check_additivity(rel_indicator(), cfg(count=500))
        assert not report.passed and report.max_residual > VIOLATION_FLOOR
        ind = rel_indicator()
        assert ind(1.0, 2.0) + ind(2.0, 4.0) - ind(1.0, 4.0) == -1.0  # witness (1,2,4)


class TestNormed:
    @pytest.mark.parametrize("lam", LAMBDA_MATRIX)
    def test_matched_families_pass(self, lam):
        c = cfg(count=300, lambda_range=(lam, lam))
        assert check_normed(F_indicator, f_indicator, c).passed

    def test_random_lambda_passes(self):
        assert check_normed(F_indicator, f_indicator, cfg(count=300)).passed

    @pytest.mark.parametrize("F_family, f_family", [
        (F_indicator, lambda lam: f_indicator(lam + 0.5)),
        (lambda lam: lambda xs, ys: np.full(np.shape(xs), np.nan), f_indicator),
    ], ids=["shifted-f", "nan-F"])
    def test_mismatched_families_fail(self, F_family, f_family):
        # A NaN ratio is the worst case, as in every other checker.
        report = check_normed(F_family, f_family, cfg(count=300, lambda_range=(0.5, 0.5)))
        assert not report.passed

    def test_exact_family_passes_below_minus_one(self):
        # With 1 + lam < 0 the remainder constant peaks at x + h, not at x;
        # F in 60-digit decimal leaves only the remainder itself to measure.
        def decimal_F(lam):
            def F(x, y):
                with localcontext() as ctx:
                    ctx.prec = 60
                    return float(decimal_ref.F(lam, x, y))
            return np.vectorize(F, otypes=[float])

        report = check_normed(decimal_F, f_indicator, cfg(count=200, lambda_range=(-20.0, -20.0)))
        assert report.passed, report.to_dict()

    @pytest.mark.parametrize("lam", (-20.0, -1.5, -1.0, 0.0, 1e-9, 0.25, 0.5, 1.0, 2.0, 5.0, None))
    def test_batch_matches_scalar_reference(self, lam):
        # lam None: a lambda per sample, so each batch covers one sample.
        c = cfg() if lam is None else cfg(lambda_range=(lam, lam))
        ref, gaps = reference_normed(c)
        got = check_normed(F_indicator, f_indicator, c)
        assert got.passed == ref.passed
        assert got.worst_case.get("lambda") == ref.worst_case.get("lambda")

        def gap(case):
            return gaps[case["x"], case["h"]] if case else 0.0

        assert ref.max_residual - gap(ref.worst_case) <= got.max_residual
        assert got.max_residual <= ref.max_residual + gap(got.worst_case)

    def test_lambda_zero_exact(self):
        report = check_normed(F_indicator, f_indicator, cfg(count=100, lambda_range=(0.0, 0.0)))
        assert report.max_residual == 0.0


# -- what the checks catch: a table of mutants --------------------------------

#: Scale factors c of the mutants c·f and c·F, by name.
SCALES = {"1+2**-20": 1 + 2**-20, "1+1e-5": 1 + 1e-5, "2": 2.0}
HOMOGENEOUS = pytest.mark.xfail(strict=True, reason=(
    "every f identity is homogeneous, so c·f passes each; ROADMAP item 17's scale "
    "check catches it"))
BELOW_NORMED = pytest.mark.xfail(strict=True, reason=(
    "normed's bound hides a small scale of F but at lambda = 0, where the bound is 0; "
    "ROADMAP item 17's scale check catches it"))


def scale_mutants():
    """(target, c, lambda) at every scale and matrix lambda, marked where no
    check catches the mutant today."""
    for target in ("f", "F"):
        for name, c in SCALES.items():
            for lam in LAMBDA_MATRIX:
                if target == "f":
                    marks = HOMOGENEOUS
                else:
                    marks = () if c == 2.0 or lam == 0.0 else BELOW_NORMED
                yield pytest.param(target, c, lam, marks=marks, id=f"({name})*{target}-lam{lam}")


@pytest.mark.parametrize("target, c, lam", scale_mutants())
def test_an_expected_pass_check_fails_the_scale_mutant(monkeypatch, target, c, lam):
    # `changekit verify --target TARGET` at the default seed, with c times the
    # family in place of the family: for F, normed compares c·F with f.
    family = getattr(axioms, f"{target}_indicator")
    monkeypatch.setattr(axioms, f"{target}_indicator",
                        lambda lam: lambda xs, ys, ind=family(lam): c * ind(xs, ys))
    reports, _ = cli.run_verify(target, lam, SampleConfig(count=2000))
    assert any(r["expected"] == "pass" and not r["pass"] for r in reports)
