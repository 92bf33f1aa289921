import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

import decimal_ref

from changekit import (
    DomainError,
    NumericalError,
    PositivePair,
    ValidationError,
    box_cox,
    eval_F,
    eval_f,
    linearization_residual,
    remainder_bound,
    taylor_F,
    taylor_coefficient,
)
from changekit.approximation import default_curve_grid, rising_factorial


def central_kth_difference(fn, y0, k, step):
    """Oracle: k-th central finite difference of fn at y0."""
    total = 0.0
    for j in range(k + 1):
        total += (-1) ** j * math.comb(k, j) * fn(y0 + (k / 2 - j) * step)
    return total / step**k


class TestTaylorCoefficient:
    def test_lambda_zero_vanishes(self):
        for k in range(2, 10):
            assert taylor_coefficient(0.0, k, 3.7) == 0.0

    def test_log_series_coefficient(self):
        # second Taylor coefficient of ln(y) at 1 is -1/2
        assert taylor_coefficient(1.0, 2, 1.0) == -0.5

    def test_half_lambda_second_coefficient(self):
        # -lam * x**(-lam-1) / 2! at lam=1/2, x=1
        assert taylor_coefficient(0.5, 2, 1.0) == -0.25

    @pytest.mark.parametrize("lam", [0.25, 0.5, 1.0, 1.5])
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_matches_finite_difference_oracle(self, lam, k):
        x = 2.0
        step = 1e-2 * x
        fn = lambda y: eval_F(lam, PositivePair(x, y))
        # Richardson extrapolation cancels the O(step**2) truncation term of
        # the central difference, leaving O(step**4) error well under 1e-5.
        coarse = central_kth_difference(fn, x, k, step)
        fine = central_kth_difference(fn, x, k, step / 2)
        deriv = (4.0 * fine - coarse) / 3.0
        assert taylor_coefficient(lam, k, x) == pytest.approx(
            deriv / math.factorial(k), rel=1e-5
        )

    def test_rejects_bad_arguments(self):
        with pytest.raises(DomainError):
            taylor_coefficient(0.5, 1, 1.0)
        with pytest.raises(DomainError):
            taylor_coefficient(0.5, 2, -1.0)

    @pytest.mark.parametrize("x, cause", [
        (1e-10, "ZeroDivisionError('float division by zero')"),
        (1e10, "OverflowError(34, 'Numerical result out of range')"),
    ], ids=["underflow", "overflow"])
    def test_power_past_the_float_range_is_numerical_error(self, x, cause):
        # x**63.5 underflows to 0 or overflows.
        with pytest.raises(NumericalError) as info:
            taylor_coefficient(0.5, 64, x)
        assert str(info.value) == f"taylor_coefficient[0.5](64, {x!r}) is not finite: {cause}"

    def test_rising_factorial(self):
        assert rising_factorial(3.0, 0) == 1.0
        assert rising_factorial(2.0, 4) == 2 * 3 * 4 * 5
        assert rising_factorial(0.0, 5) == 0.0


class TestTaylorSeries:
    def test_order_one_is_eval_f(self):
        p = PositivePair(3, 5)
        for lam in (-1.0, 0.3, 1.7):
            assert taylor_F(lam, p, 1) == eval_f(lam, p)

    def test_log_series(self):
        p = PositivePair(1, 1.1)
        assert taylor_F(1.0, p, 6) == pytest.approx(math.log(1.1), abs=1e-6)

    def test_lambda_zero_is_abs_change_at_any_order(self):
        p = PositivePair(2, 9)
        for n in (1, 3, 8, 30):
            assert taylor_F(0.0, p, n) == p.y - p.x

    def test_moderate_step_accuracy(self):
        p = PositivePair(100, 110)
        assert taylor_F(0.5, p, 4) == pytest.approx(eval_F(0.5, p), abs=1e-4)

    def test_error_decreases_with_order(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            lam = rng.uniform(0.0, 1.0)
            x = float(np.exp(rng.uniform(math.log(0.1), math.log(100.0))))
            y = x * (1 + rng.uniform(-0.5, 0.5))
            if y <= 0:
                continue
            p = PositivePair(x, y)
            target = eval_F(lam, p)
            errs = [abs(taylor_F(lam, p, n) - target) for n in (1, 2, 4, 8, 16)]
            for a, b in zip(errs, errs[1:]):
                assert b <= a + 1e-15 * max(1.0, abs(target))

    def test_truncated_series_keeps_relative_scaling(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            lam = rng.uniform(0.0, 1.0)
            x, x2 = np.exp(rng.uniform(math.log(0.1), math.log(10.0), 2))
            y = x * (1 + rng.uniform(-0.4, 0.4))
            y2 = x2 * (1 + rng.uniform(-0.4, 0.4))
            c = float(np.exp(rng.uniform(math.log(0.1), math.log(10.0))))
            t = lambda a, b: taylor_F(lam, PositivePair(a, b), 6)
            lhs = t(x, y) * t(c * x2, c * y2)
            rhs = t(x2, y2) * t(c * x, c * y)
            assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))

    def test_truncated_series_keeps_naturality(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            lam = rng.uniform(0.0, 1.0)
            x = float(np.exp(rng.uniform(math.log(0.1), math.log(100.0))))
            r = rng.uniform(-0.5, 0.5)
            if r == 0:
                continue
            v = taylor_F(lam, PositivePair(x, x * (1 + r)), 6)
            assert math.copysign(1, v) == math.copysign(1, r)

    def test_bits_pinned(self):
        # float.hex values written by the incremental-coefficient loop that
        # taylor_F replaced; summing taylor_coefficient must give the same bits.
        cases = [
            (0.5, 3.0, 5.0, 4, "0x1.ffd4eaa39add6p-1"),
            (-1.5, 2.0, 2.5, 64, "0x1.b0aabef231e3cp+0"),
            (2.0, 10.0, 7.0, 64, "-0x1.5f15f15f15f17p-5"),
            (1.0, 1.0, 1.1, 6, "0x1.8663f40cf44c5p-4"),
            (0.25, 100.0, 110.0, 16, "0x1.8fe95d0f24c3ep+1"),
            (-0.75, 0.3, 0.2, 9, "-0x1.21445003a2260p-5"),
            (-20.0, 5.0, 5.5, 64, "0x1.0859612964040p+47"),
        ]
        for lam, x, y, order, bits in cases:
            assert taylor_F(lam, PositivePair(x, y), order).hex() == bits

    @pytest.mark.parametrize("lam, x, y, order, message", [
        # The 32nd coefficient overflows: x**31.5 is 1e-315.
        (0.5, 1e-10, 2e-10, 64, "taylor_coefficient[0.5](32, 1e-10) is not finite: -inf"),
        # The 4th coefficient underflows to -0.0, but is not 0: the sum
        # keeps its term, and (y - x)**4 overflows, so the term is 0 * inf.
        (1e-300, 1e10, 1e80, 4, "taylor_F[1e-300](10000000000.0, 1e+80) is not finite: nan"),
        (2.0, 1.0, 1e200, 2, "taylor_F[2](1.0, 1e+200) is not finite: -inf"),
    ], ids=["coefficient", "underflow-nan-sum", "inf-sum"])
    def test_non_finite_value_is_numerical_error(self, lam, x, y, order, message):
        with pytest.raises(NumericalError) as info:
            taylor_F(lam, PositivePair(x, y), order)
        assert str(info.value) == message

    @pytest.mark.parametrize("lam, x, y, order", [
        (0.0, 1.0, 1e103, 3), (-1.0, 1.0, 1e103, 4), (-2.0, 2.0, 1e80, 6),
    ])
    def test_terminating_series_is_F_where_its_dropped_powers_overflow(self, lam, x, y, order):
        # At lam = 0, -1, -2 every coefficient past order 1 - lam is exactly 0,
        # so the truncation is F, the polynomial (y**m - x**m) / m with
        # m = 1 - lam, though (y - x)**order is past the float range.
        m = 1 - int(lam)
        exact = (Fraction(y) ** m - Fraction(x) ** m) / m
        value = taylor_F(lam, PositivePair(x, y), order)
        assert abs(Fraction(value) - exact) <= exact * Fraction(2) ** -52

    def test_order_out_of_range(self):
        with pytest.raises(DomainError):
            taylor_F(0.5, PositivePair(1, 2), 0)
        with pytest.raises(DomainError):
            taylor_F(0.5, PositivePair(1, 2), 65)

    @pytest.mark.parametrize("order", [2.7, 3.0, "3", True, None])
    def test_order_must_be_an_integer(self, order):
        with pytest.raises(ValidationError) as info:
            taylor_F(0.5, PositivePair(1, 1.1), order)
        assert str(info.value) == f"Taylor order must be an integer, got {order!r}"


class TestRemainderBound:
    def test_zero_at_lambda_zero(self):
        p = PositivePair(4, 9)
        assert remainder_bound(0.0, p) == 0.0
        assert eval_F(0.0, p) == eval_f(0.0, p)

    def test_hand_evaluated_cases(self):
        assert remainder_bound(1.0, PositivePair(1, 2)) == 1.0
        assert abs(math.log(2) - 1.0) <= 1.0
        assert remainder_bound(0.5, PositivePair(4, 5)) == pytest.approx(0.0625, rel=1e-12)
        gap = abs(eval_F(0.5, PositivePair(4, 5)) - eval_f(0.5, PositivePair(4, 5)))
        assert gap <= 0.0625

    def test_bound_holds_on_random_samples(self):
        rng = np.random.default_rng(17)
        for _ in range(2000):
            lam = rng.uniform(0.0, 2.0)
            x, y = np.exp(rng.uniform(math.log(1e-3), math.log(1e3), 2))
            p = PositivePair(float(x), float(y))
            gap = abs(eval_F(lam, p) - eval_f(lam, p))
            assert gap <= remainder_bound(lam, p)

    def test_bound_holds_for_every_lambda_against_decimal(self):
        # |F - f| in 80-digit decimal, not through the kernels: below
        # lambda = 0 their F cancels when y is near x.  80 digits hold every
        # input exactly, so at lambda = 0 the gap is exactly 0, as the bound.
        def exact_gap(lam, x, y):
            return abs(decimal_ref.F(lam, x, y) - decimal_ref.f(lam, x, y))

        lams = [float(v) for v in np.linspace(-20.0, 20.0, 41)] + [-1.5, -0.5, 0.5, 1e-9]
        ratios = [float(r) for r in np.exp(np.linspace(-3.0, 3.0, 13))]
        with localcontext() as ctx:
            ctx.prec = 80
            for lam in lams:
                for x in (0.0625, 8.0):
                    for r in ratios:
                        p = PositivePair(x, x * r)
                        assert exact_gap(lam, p.x, p.y) <= Decimal(remainder_bound(lam, p))

    @pytest.mark.parametrize("lam, x, y", [
        (400, 1e-3, 2e-3), (-400, 1e3, 2e3), (400, 1e3, 2e3), (3, 1e-300, 1e300),
        (-0.5, 3e-212, 5e-212), (-1, 1e-300, 1.3e-154),
    ])
    def test_non_finite_value_is_numerical_error(self, lam, x, y):
        # In |lam| * s * s, s = (y - x) / sqrt(xi) * q * q, q = xi**(-lam / 4):
        # q overflows in the first two and underflows to a zero bound in the
        # third; in the fourth (y - x) / sqrt(xi) overflows.  In the fifth the
        # bound is subnormal, 1.1547e-318, 3.9e-8 off its 80-digit value, and
        # in the last it is 1.69e-308, in [2**-1023, 2**-1022): subnormal too.
        with pytest.raises(NumericalError, match="remainder_bound"):
            remainder_bound(lam, PositivePair(x, y))

    @pytest.mark.parametrize("lam, x, y", [
        (0.5, 1e-200, 2e-200), (-0.5, 1e-180, 2e-180), (1, 1e-200, 3e-200),
        (0.5, 1e-200, 1e-10), (0.5, 1e200, 2e200), (1, 1e200, 2e200), (2, 1e150, 1.5e150),
        (2, 1e200, 2e200), (-1, 1e-200, 1.0), (-1, 1e-300, 1e10), (-0.5, 1e-250, 1.0),
        (4.5, 1.5e163, 5e302), (-15.474652990676843, 126.0457146270155, 0.052673842724186036),
    ])
    def test_value_matches_decimal_within_its_rounding_bound(self, lam, x, y):
        # The bound is a normal double in each case.  (y - x)**2 underflows
        # to 0 at the small end and overflows at the large end.  With y >> x
        # and lam < 0, r = (y - x) / xi overflows or xi**(1 - lam) underflows;
        # xi**(-lam / 2) underflows at (4.5, 1.5e163, 5e302).  In the last case 1 - lam
        # rounds, and the form r * (r * xi**(1 - lam)) is off by 72 ulps.  s
        # carries seven roundings of at most half an ulp, so the bound,
        # |lam| * s * s, carries at most sixteen.
        with localcontext() as ctx:
            ctx.prec = 80
            dlam, dx, dy = Decimal(lam), Decimal(x), Decimal(y)
            xi = min(dx, dy) if lam >= -1 else max(dx, dy)
            exact = abs(dlam) * (dy - dx) ** 2 / xi ** (1 + dlam)
            got = Decimal(remainder_bound(lam, PositivePair(x, y)))
            assert abs(got - exact) <= 16 * Decimal(2.0**-53) * exact


class TestLinearization:
    def test_zero_step(self):
        for lam in (-1.0, 0.0, 0.5, 2.0):
            assert linearization_residual(lam, 3.0, 0.0) == 0.0

    def test_log_case_series_value(self):
        res = linearization_residual(1.0, 1.0, 0.01)
        assert res == pytest.approx(math.log(1.01) - 0.01, rel=1e-12)
        assert res == pytest.approx(-0.01**2 / 2, rel=1e-2)

    def test_lambda_zero_always_zero(self):
        assert linearization_residual(0.0, 5.0, 1.7) == 0.0

    def test_quadratic_decay(self):
        lam, x = 0.8, 3.0
        hs = [1e-1, 1e-2, 1e-3, 1e-4]
        ratios = [abs(linearization_residual(lam, x, h)) / h**2 for h in hs]
        for a, b in zip(ratios, ratios[1:]):
            assert 80 <= 100 * b / a <= 120  # consecutive levels within [80, 120] of 100x

    def test_invalid_constructed_pair(self):
        with pytest.raises(Exception):
            linearization_residual(0.5, 1.0, -1.0)


class TestBoxCox:
    def test_paper_closed_forms(self):
        assert box_cox(0.5, 4.0) == pytest.approx(2.0, rel=1e-15)
        assert box_cox(1.0, math.e) == pytest.approx(1.0, rel=1e-15)
        assert box_cox(0.2, 1.0) == 0.0

    def test_identities_on_grid(self):
        ys = default_curve_grid(100, 0.05, 5.0)
        for y in ys:
            assert box_cox(1.0, y) == pytest.approx(math.log(y), rel=1e-12, abs=1e-15)
            assert box_cox(0.5, y) == pytest.approx(2 * (math.sqrt(y) - 1), rel=1e-12, abs=1e-15)
            assert box_cox(0.2, y) == pytest.approx(
                1.25 * (y ** 0.8 - 1), rel=1e-12, abs=1e-15
            )
            # lam = 0 is the parameter-1 Box-Cox map (y - 1), matching the
            # absolute-change endpoint F(1, y) = y - 1.
            assert box_cox(0.0, y) == y - 1

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            box_cox(0.5, 0.0)

