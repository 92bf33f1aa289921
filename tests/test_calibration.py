import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from changekit import (
    CalibrationInput,
    DomainError,
    EqualPastValuesError,
    NumericalError,
    PositivePair,
    SignMismatchError,
    StagnantPairError,
    calibrate_lambda,
    doubling_example,
    eval_f,
    mrs_cobb_douglas,
    symmetric_scaling_residual,
)
from changekit.calibration import scaled_relative_pair


def bisect_lambda(ref, cmp_pair, lo=-5.0, hi=5.0, iters=200):
    """Brute-force oracle: bisection on lam -> f(ref) - f(cmp)."""

    def gap(lam):
        return eval_f(lam, ref) - eval_f(lam, cmp_pair)

    a, b = lo, hi
    fa = gap(a)
    assert fa * gap(b) < 0, "oracle bracket does not straddle a root"
    for _ in range(iters):
        m = 0.5 * (a + b)
        fm = gap(m)
        if fa * fm <= 0:
            b = m
        else:
            a, fa = m, fm
    return 0.5 * (a + b)


#: calibrate_lambda's error bound, times |lambda| + 1 / |ln(x2 / x1)|, with
#: u = 2**-53.  lambda = ln(d2 / d1) / ln(x2 / x1) over the changes
#: d = |y - x|, each rounded once, by at most u relative: ln(d2 / d1) is off
#: by at most 2u absolute before its log-ratio.  Each log-ratio errs by at
#: most 5u relative (F1_BOUND in test_kernels.py) and the quotient by u, so
#: lambda is off by at most 11u |lambda| + 2u / |ln(x2 / x1)| to first
#: order in u; 12u covers the higher orders.
CALIBRATION_BOUND = Decimal(12 * 2.0**-53)


@st.composite
def calibration_pairs(draw):
    """Two pairs whose changes agree under a drawn lambda, drawn as the
    benchmark's ``calibration_stream`` draws them: past values a factor
    e**0.1 to e**3 apart, changes 1e-4 to 0.49 of the past value."""
    lam = draw(st.floats(-1.0, 2.0))
    x1 = 10.0 ** draw(st.floats(-2.0, 2.0))
    x2 = x1 * math.exp(draw(st.sampled_from((-1.0, 1.0))) * draw(st.floats(0.1, 3.0)))
    d1 = draw(st.sampled_from((-1.0, 1.0))) * x1 * 10.0 ** draw(st.floats(-4.0, -0.31))
    d2 = d1 * (x2 / x1) ** lam
    assume(d2 > -0.5 * x2)
    return (x1, x1 + d1), (x2, x2 + d2)


class TestCalibrateLambda:
    def test_doubling_pairs_need_relative_change(self):
        lam = calibrate_lambda(CalibrationInput(PositivePair(1, 2), PositivePair(2, 4)))
        assert lam == pytest.approx(1.0, abs=1e-12)

    def test_equal_absolute_change_gives_zero(self):
        lam = calibrate_lambda(CalibrationInput(PositivePair(1, 2), PositivePair(0.5, 1.5)))
        assert lam == pytest.approx(0.0, abs=1e-12)

    def test_matches_bisection_oracle(self):
        # Closed form and brute-force bisection agree; both pairs here have
        # equal relative change, so the unique equating lambda is 1.
        ref, cmp_pair = PositivePair(10, 20), PositivePair(35, 70)
        lam = calibrate_lambda(CalibrationInput(ref, cmp_pair))
        oracle = bisect_lambda(ref, cmp_pair, lo=0.5, hi=1.5)
        assert lam == pytest.approx(oracle, abs=1e-9)
        assert eval_f(lam, ref) == pytest.approx(eval_f(lam, cmp_pair), rel=1e-9)

    def test_round_trip_recovers_lambda(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            target = rng.uniform(-1.0, 2.0)
            x = float(np.exp(rng.uniform(math.log(0.1), math.log(100.0))))
            ratio = float(rng.uniform(0.6, 0.95) if rng.random() < 0.5 else rng.uniform(1.05, 3.0))
            ref = PositivePair(x, x * ratio)
            x2 = 2 * x
            y2 = x2 + eval_f(target, ref) * x2**target
            if y2 <= 0:
                continue
            lam = calibrate_lambda(CalibrationInput(ref, PositivePair(x2, y2)))
            assert lam == pytest.approx(target, abs=1e-9)

    def test_named_domain_errors(self):
        with pytest.raises(StagnantPairError):
            CalibrationInput(PositivePair(2, 2), PositivePair(1, 2))
        with pytest.raises(StagnantPairError):
            CalibrationInput(PositivePair(1, 2), PositivePair(3, 3))
        with pytest.raises(EqualPastValuesError):
            CalibrationInput(PositivePair(1, 2), PositivePair(1, 3))
        with pytest.raises(EqualPastValuesError):
            # nearly-equal past values: log denominator below the cutoff
            CalibrationInput(PositivePair(1, 2), PositivePair(1 + 1e-14, 3))
        with pytest.raises(SignMismatchError):
            CalibrationInput(PositivePair(1, 2), PositivePair(4, 3))

    def test_lambda_past_the_float_range_is_numerical_error(self):
        # The quotient of the two absolute changes overflows, but its log is
        # ln(1e308 - 2) - ln(2**-52): lambda is about 1075.15, where 2**lambda
        # overflows in f of the comparison pair.
        inp = CalibrationInput(PositivePair(1, 1 + 2**-52), PositivePair(2, 1e308))
        with pytest.raises(NumericalError, match=r"^f\[1075\]\(2\.0, 1e\+308\) is not finite: "
                                                 r"OverflowError"):
            calibrate_lambda(inp)

    def test_past_values_whose_quotient_overflows(self):
        # cmp.x / ref.x is 1e600 and the changes' quotient 1e600 too: both
        # overflow, and each log-ratio is taken as ln(b) - ln(a).
        inp = CalibrationInput(PositivePair(1e-300, 2e-300), PositivePair(1e300, 2e300))
        assert calibrate_lambda(inp) == 1.0

    def test_past_values_whose_quotient_underflows(self):
        # cmp.x / ref.x and the changes' quotient are 1e-600: both underflow to
        # 0, and their inverses, which the log-ratio takes, overflow.
        inp = CalibrationInput(PositivePair(1e300, 2e300), PositivePair(1e-300, 2e-300))
        assert calibrate_lambda(inp) == 1.0

    def test_growth_whose_quotient_underflows_is_no_sign_mismatch(self):
        # Both pairs grow, though (2e-300 - 1e-300) / (1e300 - 1) underflows to
        # 0.  lambda is 2, and f of the comparison pair divides by
        # (1e-300)**2, which underflows to 0.
        inp = CalibrationInput(PositivePair(1, 1e300), PositivePair(1e-300, 2e-300))
        with pytest.raises(NumericalError, match=r"^f\[2\]\(1e-300, 2e-300\) is not finite: "
                                                 r"ZeroDivisionError"):
            calibrate_lambda(inp)

    # x1**lambda is subnormal in each, so eval_f(lambda, ref) is off.  The
    # first misses by 1.6e-5 relative; the second's f values, below 1 in
    # magnitude, differ by 1.59e-9, between the re-check's bound and twice it.
    @pytest.mark.parametrize("ref, cmp_pair, message", [
        ((2.5158433252107025e-285, 2.515843325210595e-285),
         (1.0165021685206002e-264, 1.016502168507375e-264),
         "calibrated lambda 1.120521612858324 fails its defining equation: "
         "f(ref) = -8.533928684679134e+20 vs f(cmp) = -8.533788107157798e+20"),
        ((1.3212574983522737e-305, 1.3212574983468742e-305),
         (6.10670328110875e-281, 6.106703280918854e-281),
         "calibrated lambda 1.0357329909131905 fails its defining equation: "
         "f(ref) = -0.3203334555715338 vs f(cmp) = -0.3203334539828981"),
    ])
    def test_subnormal_power_fails_the_re_check(self, ref, cmp_pair, message):
        with pytest.raises(NumericalError) as info:
            calibrate_lambda(CalibrationInput(PositivePair(*ref), PositivePair(*cmp_pair)))
        assert str(info.value) == message

    @given(pairs=calibration_pairs())
    @example(pairs=((1, 2), (2, 4)))
    @example(pairs=((10, 20), (80, 135)))
    @example(pairs=((3, 2), (5, 1)))
    @example(pairs=((0.5, 0.7), (1e-3, 0.1)))
    @example(pairs=((1e-200, 2e-200), (1e-190, 5e-190)))
    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    def test_lambda_is_the_closed_form_within_its_bound(self, pairs):
        (x1, y1), (x2, y2) = pairs
        lam = calibrate_lambda(CalibrationInput(PositivePair(x1, y1), PositivePair(x2, y2)))
        with localcontext() as ctx:
            ctx.prec = 60
            x1, y1, x2, y2 = map(Decimal, (x1, y1, x2, y2))
            log_past = (x2 / x1).ln()
            exact = (abs(y2 - x2) / abs(y1 - x1)).ln() / log_past
            assert abs(Decimal(lam) - exact) <= CALIBRATION_BOUND * (abs(exact) + 1 / abs(log_past))


class TestSymmetricScaling:
    def test_half_is_the_symmetric_choice(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            x = float(np.exp(rng.uniform(math.log(0.01), math.log(100.0))))
            y = x * float(rng.uniform(1.05, 5.0))
            c = float(np.exp(rng.uniform(math.log(0.25), math.log(4.0))))
            p = PositivePair(x, y)
            res = symmetric_scaling_residual(0.5, p, c)
            scale = abs(eval_f(0.5, p.scaled(c)))
            assert abs(res) <= 1e-12 * max(1.0, scale)

    def test_unit_scale_is_exact_for_any_lambda(self):
        for lam in (-1.5, 0.0, 0.3, 1.0, 2.5):
            assert symmetric_scaling_residual(lam, PositivePair(3, 8), 1.0) == 0.0

    def test_hand_evaluated_example(self):
        # lam=0, p=(1,2), C=2: f0(2,4) - f0(0.5,1.5) = 2 - 1
        assert symmetric_scaling_residual(0.0, PositivePair(1, 2), 2.0) == 1.0

    def test_nonhalf_lambda_leaves_residual(self):
        for lam in (-0.5, 0.0, 0.25, 0.75, 1.0, 2.0):
            if abs(lam - 0.5) > 1e-2:
                res = symmetric_scaling_residual(lam, PositivePair(1, 2), 2.0)
                assert abs(res) > 1e-6

    def test_invalid_constructed_pair_rejected(self):
        # y - x + x/C <= 0 for a steep decline and large C; at (2, 1) and
        # C = 2 it is exactly 0, refused here and not as a pair's ValidationError.
        with pytest.raises(DomainError):
            scaled_relative_pair(PositivePair(10, 1), 100.0)
        with pytest.raises(DomainError, match=r"^constructed pair \(1\.0, 0\.0\)"):
            scaled_relative_pair(PositivePair(2, 1), 2.0)
        with pytest.raises(DomainError):
            symmetric_scaling_residual(0.5, PositivePair(10, 1), 100.0)

    def test_rejects_nonpositive_scale(self):
        with pytest.raises(DomainError):
            symmetric_scaling_residual(0.5, PositivePair(1, 2), 0.0)
        with pytest.raises(DomainError):
            scaled_relative_pair(PositivePair(1, 2), 0.0)


class TestDoublingExample:
    def test_closed_forms(self):
        for lam in (-1.0, 0.0, 0.25, 0.5, 1.0, 2.0):
            a, b = doubling_example(lam)
            assert a == pytest.approx(2 ** (1 - lam), rel=1e-12)
            assert b == pytest.approx(2**lam, rel=1e-12)

    def test_components_cross_exactly_once(self):
        def gap(lam):
            a, b = doubling_example(lam)
            return a - b

        # 2**(1-lam) - 2**lam is strictly decreasing: a single sign change
        grid = [(-3 + 6 * i / 400) for i in range(401)]
        signs = [math.copysign(1, gap(l)) for l in grid if gap(l) != 0]
        changes = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
        assert changes == 1
        assert gap(0.5 - 1e-6) > 0 > gap(0.5 + 1e-6)
        assert doubling_example(0.5)[0] == doubling_example(0.5)[1]

    def test_paper_values_at_endpoints(self):
        assert doubling_example(0.0) == (2.0, 1.0)
        assert doubling_example(1.0) == (1.0, 2.0)
        a, b = doubling_example(0.5)
        assert a == pytest.approx(math.sqrt(2), rel=1e-15)


class TestMarginalRateOfSubstitution:
    def test_half_returns_past_value_exactly(self):
        for x in (7.0, 0.123, 980.5):
            assert mrs_cobb_douglas(0.5, PositivePair(x, 2 * x)) == x

    def test_examples(self):
        assert mrs_cobb_douglas(0.0, PositivePair(9, 10)) == 0.0
        assert mrs_cobb_douglas(1 / 3, PositivePair(6, 7)) == pytest.approx(3.0, rel=1e-12)

    def test_lambda_one_rejected(self):
        with pytest.raises(DomainError):
            mrs_cobb_douglas(1.0, PositivePair(1, 2))

    def test_non_finite_value_is_numerical_error(self):
        # lam / (1 - lam) is 2**53 - 1 one ulp below 1, and 9e15 * 1e300 overflows.
        with pytest.raises(NumericalError) as info:
            mrs_cobb_douglas(1 - 2**-53, PositivePair(1e300, 2e300))
        assert str(info.value) == "mrs_cobb_douglas[1](1e+300, 2e+300) is not finite: inf"

    def test_only_half_reproduces_x(self):
        x = 7.0
        for lam in (-0.5, 0.0, 0.25, 0.75, 0.9):
            assert abs(mrs_cobb_douglas(lam, PositivePair(x, 9)) - x) > 1e-6
