import math
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from changekit import (
    DomainError,
    NumericalError,
    PositivePair,
    StagnantPairError,
    abs_change,
    cobb_douglas_f,
    eval_F,
    eval_f,
    log_ratio,
    quantity_indicator,
    rel_change,
    relative_comparison,
)
from changekit import core
from changekit.errors import ValidationError

positive = st.floats(min_value=1e-3, max_value=1e3)
lambdas = st.floats(min_value=-2.0, max_value=3.0)

#: Unit roundoff of doubles: every correctly rounded operation is off by at
#: most this factor of its exact result; pow by at most twice it (one ulp).
U = sys.float_info.epsilon / 2


def pair(x, y):
    return PositivePair(x, y)


def scaling_residual(lam, x, y, c):
    """|f(Cx, Cy) - C**(1-lam) * f(x, y)| and the bound rounding allows it.

    The bound counts, in units of U times the terms that cancel,
    T = (c*x + c*y) / (c*x)**lam: forming c*x and c*y (1, plus |lam| through
    (c*x)**lam), each kernel (4: 1 for the subtraction, 2 for pow, 1 for
    the division), c**(1-lam) (2, plus |ln c| * |1-lam| from rounding
    1 - lam) and the final product (1).  Each side is at most T in magnitude.
    """
    lhs = eval_f(lam, pair(c * x, c * y))
    rhs = c ** (1.0 - lam) * eval_f(lam, pair(x, y))
    terms = (c * x + c * y) / (c * x) ** lam
    return abs(lhs - rhs), (12 + abs(lam) + abs(math.log(c) * (1.0 - lam))) * U * terms


def affine_residual(lam, x, y1, y2, t):
    """|f(x, ym) - ((1-t) f(x, y1) + t f(x, y2))| and the bound rounding allows it.

    With e = U / x**lam, the error is at most e * (2*ym + 4*|ym - x|) on the
    left (forming ym, then the kernel), 6 * e * ((1-t)|y1 - x| + t|y2 - x|)
    on the right (the kernels, both products and the sum) and e * x from
    rounding 1 - t.  Bounding each |a - b| by a + b gives 12 * e * (ym + x).
    """
    ym = (1 - t) * y1 + t * y2
    lhs = eval_f(lam, pair(x, ym))
    rhs = (1 - t) * eval_f(lam, pair(x, y1)) + t * eval_f(lam, pair(x, y2))
    return abs(lhs - rhs), 12 * U * (ym + x) / x**lam


class TestBaseline:
    def test_abs_change_examples(self):
        assert abs_change(pair(10, 20)) == 10
        assert abs_change(pair(500, 570)) == 70
        assert abs_change(pair(3.7, 3.7)) == 0

    def test_rel_change_examples(self):
        assert rel_change(pair(10, 20)) == 1.0
        assert rel_change(pair(80, 135)) == 0.6875
        assert rel_change(pair(42, 42)) == 0

    def test_rel_change_past_the_float_range_is_numerical_error(self):
        # The relative change is f at lam = 1, and refuses as f does.
        with pytest.raises(NumericalError) as info:
            rel_change(pair(1e-300, 1e300))
        assert str(info.value) == "f[1](1e-300, 1e+300) is not finite: inf"

    def test_log_ratio_examples(self):
        assert log_ratio(pair(1, math.e)) == pytest.approx(1.0, rel=1e-15)
        assert log_ratio(pair(5, 5)) == 0
        # direct evaluation, cross-checked against the reversed pair
        assert log_ratio(pair(2, 4)) == pytest.approx(0.6931471805599453, rel=1e-15)
        assert log_ratio(pair(2, 4)) == -log_ratio(pair(4, 2))

    def test_positive_pair_rejects_nonpositive(self):
        for bad in [(0, 5), (5, 0), (-1, 2), (2, -1), (math.nan, 1), (1, math.inf)]:
            with pytest.raises(ValidationError):
                PositivePair(*bad)


class TestEvalF:
    def test_worked_example_values(self):
        assert eval_f(0.5, pair(10, 20)) == pytest.approx(3.16, abs=0.005)
        assert eval_f(0.5, pair(80, 135)) == pytest.approx(6.15, abs=0.005)
        assert eval_f(1.0, pair(2, 4)) == 1.0

    @given(positive, positive)
    def test_endpoints_bitwise(self, x, y):
        p = pair(x, y)
        assert eval_f(0.0, p) == abs_change(p) == y - x
        assert eval_f(1.0, p) == rel_change(p) == (y - x) / x

    @given(lambdas, positive, positive)
    def test_sign_matches_direction(self, lam, x, y):
        p = pair(x, y)
        assert math.copysign(1, eval_f(lam, p)) == math.copysign(1, y - x) or y == x
        assert eval_f(lam, pair(x, x)) == 0.0

    @given(lambdas, positive, positive, st.floats(min_value=1e-3, max_value=1e3))
    @example(lam=0.0, x=1.0, y=0.99999, c=3.0)
    @example(lam=0.0, x=2.0, y=2.00001, c=3.0)
    @settings(max_examples=300)
    def test_exact_scaling_law(self, lam, x, y, c):
        residual, bound = scaling_residual(lam, x, y, c)
        assert residual <= bound

    @given(lambdas, positive, positive, positive, st.floats(min_value=0.0, max_value=1.0))
    @example(lam=-1.0, x=398.5625, y1=1.5649594411530074, y2=795.5625, t=0.5)
    @example(lam=-1.0, x=678.0, y1=678.0, y2=714.0, t=0.001)
    @example(lam=-2.0, x=56.58984375, y1=56.59039144776352, y2=1.0, t=2.0**-24)
    @settings(max_examples=300)
    def test_affine_in_second_argument(self, lam, x, y1, y2, t):
        residual, bound = affine_residual(lam, x, y1, y2, t)
        assert residual <= bound

    def test_identity_bounds_catch_a_y_dependent_kernel_error(self, monkeypatch):
        # A uniform relative error cancels out of both identities; one that
        # depends on y, here 1e-12 * ln(y), must break them.
        exact = core.kernels.f_scalar
        monkeypatch.setattr(core.kernels, "f_scalar",
                            lambda lam, x, y: exact(lam, x, y) * (1 + 1e-12 * math.log(y)))
        residual, bound = scaling_residual(0.5, 2.0, 7.0, 30.0)
        assert residual > bound
        residual, bound = affine_residual(0.5, 2.0, 0.1, 7.0, 0.3)
        assert residual > bound

    def test_monotone_in_present_value(self):
        for lam in (-1.0, 0.0, 0.5, 1.0, 2.0):
            ys = [0.01 * 1.3**i for i in range(40)]
            vals = [eval_f(lam, pair(7.5, y)) for y in ys]
            assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_rejects_non_finite_lambda(self):
        for lam in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError):
                eval_f(lam, pair(1, 2))

    def test_non_finite_result_raises(self):
        # 0.001**105 is subnormal: the quotient overflows to +inf, or -inf on decline
        for y in (20, 0.0005):
            with pytest.raises(NumericalError, match="not finite"):
                eval_f(105, pair(0.001, y))

    @pytest.mark.parametrize("lam", [400.0, -400.0, 1000.0, -1000.0])
    def test_kernel_range_errors_raise_numerical_error(self, lam):
        # x**lam underflows to 0 (ZeroDivisionError) or overflows (OverflowError)
        for p in (pair(1e-3, 2e-3), pair(1e3, 2e3)):
            with pytest.raises(NumericalError, match="not finite"):
                eval_f(lam, p)
        # expm1((1 - lam) * ln y) overflows (OverflowError)
        with pytest.raises(NumericalError, match="not finite"):
            eval_F(lam, pair(1e-3, 2e-3) if lam > 0 else pair(1e3, 2e3))


class TestEvalBigF:
    def test_examples(self):
        assert eval_F(1.0, pair(1, math.e)) == pytest.approx(1.0, rel=1e-15)
        assert eval_F(0.5, pair(1, 4)) == pytest.approx(2.0, rel=1e-15)
        assert eval_F(0.0, pair(10, 20)) == 10.0

    @given(positive, positive)
    def test_endpoints_bitwise(self, x, y):
        p = pair(x, y)
        assert eval_F(0.0, p) == abs_change(p) == y - x
        assert eval_F(1.0, p) == log_ratio(p)

    @given(lambdas, positive, positive)
    def test_sign_matches_direction(self, lam, x, y):
        p = pair(x, y)
        v = eval_F(lam, p)
        # v may round to exactly 0 when y is within an ulp of x; otherwise
        # the sign must track the direction of change
        assert v == 0.0 or math.copysign(1, v) == math.copysign(1, y - x)
        assert eval_F(lam, pair(x, x)) == 0.0

    def test_continuity_across_lambda_one(self):
        p = pair(2, 5)
        target = math.log(2.5)
        for eps in (1e-6, 1e-9, 1e-12, 1e-15):
            for lam in (1 - eps, 1 + eps):
                v = eval_F(lam, p)
                assert math.isfinite(v)
                assert abs(v - target) <= 1.1 * eps + 1e-15

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_kernel_result_raises(self, monkeypatch, bad):
        # F_scalar raises OverflowError before it can return inf on positive
        # inputs, so the check is driven through a stand-in kernel
        monkeypatch.setattr(core.kernels, "F_scalar", lambda lam, x, y: bad)
        with pytest.raises(NumericalError, match="not finite"):
            eval_F(0.5, pair(1, 2))

    @given(lambdas, positive, positive, positive)
    @settings(max_examples=300)
    def test_additive_over_chains(self, lam, x, y, z):
        a = eval_F(lam, pair(x, y))
        b = eval_F(lam, pair(y, z))
        rhs = eval_F(lam, pair(x, z))
        # conditioning: the sum a + b can cancel, so scale the tolerance by
        # the magnitude of the summands, not just the result
        scale = max(1.0, abs(a), abs(b), abs(rhs))
        assert abs((a + b) - rhs) <= 1e-9 * scale


class TestCobbDouglas:
    def test_worked_example_values(self):
        assert cobb_douglas_f(0.5, pair(10, 20)) == pytest.approx(3.16, abs=0.005)
        assert cobb_douglas_f(0.0, pair(35, 70)) == 35.0
        assert cobb_douglas_f(1.0, pair(140, 210)) == 0.5

    @given(lambdas, positive, st.floats(min_value=1.001, max_value=100.0))
    @settings(max_examples=300)
    def test_agrees_with_eval_f_on_growth(self, lam, x, ratio):
        p = pair(x, x * ratio)
        a = cobb_douglas_f(lam, p)
        b = eval_f(lam, p)
        assert abs(a - b) <= 32 * 2**-52 * abs(b)

    def test_rejects_decline_and_stagnation(self):
        with pytest.raises(DomainError, match="growth"):
            cobb_douglas_f(0.5, pair(2, 1))
        with pytest.raises(DomainError, match="growth"):
            cobb_douglas_f(0.5, pair(2, 2))

    @pytest.mark.parametrize("lam, x, y",
                             [(400, 1e-3, 1e3), (-400, 1e-3, 1e3), (0.5, 1e-300, 1e300)])
    def test_non_finite_value_is_numerical_error(self, lam, x, y):
        # The first two overflow inside a power; the last is inf without an exception.
        with pytest.raises(NumericalError, match="cobb_douglas_f"):
            cobb_douglas_f(lam, pair(x, y))


class TestQuantityIndicator:
    def test_examples(self):
        assert quantity_indicator(0.0, 5, 3) == 3.0
        assert quantity_indicator(1.0, 5, 3) == 0.6
        assert quantity_indicator(0.5, 4, 6) == 3.0  # 6 / sqrt(4)

    def test_zero_quantity_allowed(self):
        assert quantity_indicator(0.7, 3, 0) == 0.0

    def test_rejects_bad_domain(self):
        with pytest.raises(DomainError):
            quantity_indicator(0.5, 0, 1)
        with pytest.raises(DomainError):
            quantity_indicator(0.5, 1, -0.5)

    @pytest.mark.parametrize("lam, x, y, cause", [
        (400, 1e-3, 1.0, ZeroDivisionError), (-400, 1e-3, 1.0, OverflowError),
        (1.0, 5e-324, 1.0, type(None)),
    ])
    def test_non_finite_value_is_numerical_error(self, lam, x, y, cause):
        # x**lam underflows to 0 or overflows; y / x is inf without an exception.
        with pytest.raises(NumericalError, match=r"quantity_indicator\[") as info:
            quantity_indicator(lam, x, y)
        assert type(info.value.__cause__) is cause


class TestRelativeComparison:
    def test_worked_example_quotient(self):
        # (55 / sqrt(80)) / (10 / sqrt(10)) = 5.5 / sqrt(8)
        expected = 5.5 / math.sqrt(8)
        got = relative_comparison(0.5, pair(10, 20), pair(80, 135))
        assert got == pytest.approx(expected, rel=1e-14)

    def test_equal_pairs_give_one(self):
        for lam in (-1.0, 0.0, 0.5, 2.0):
            assert relative_comparison(lam, pair(3, 7), pair(3, 7)) == 1.0

    def test_equally_good_channels(self):
        got = relative_comparison(0.5, pair(140, 210), pair(35, 70))
        assert got == pytest.approx(1.0, rel=1e-12)

    def test_stagnant_reference_rejected(self):
        with pytest.raises(StagnantPairError):
            relative_comparison(0.5, pair(4, 4), pair(1, 2))

    @pytest.mark.parametrize("lam, a, b", [
        (0.5, pair(1, 1.0000000000000002), pair(1, 1e300)),
        (-30, pair(1e-10, 1.0000000000000002e-10), pair(1, 2)),
    ])
    def test_non_finite_quotient_is_numerical_error(self, lam, a, b):
        # The first quotient is inf; the second divides by f(a), which underflows to 0.
        with pytest.raises(NumericalError, match=r"relative_comparison\["):
            relative_comparison(lam, a, b)

    @given(lambdas, st.floats(min_value=1e-3, max_value=1e3))
    @settings(max_examples=200)
    def test_invariant_under_joint_rescaling(self, lam, c):
        a, b = pair(10, 20), pair(80, 135)
        base = relative_comparison(lam, a, b)
        scaled = relative_comparison(lam, a.scaled(c), b.scaled(c))
        assert abs(scaled - base) <= 1e-12 * max(1.0, abs(base))
