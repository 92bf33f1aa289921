import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from changekit import DomainError, NumericalError
from changekit.elasticity import (
    EconFunction,
    affine_function,
    classical_elasticity,
    elasticity_quotient,
    exponential_function,
    generalized_elasticity,
    marginal,
    parse_function_spec,
    power_function,
)

#: Unit roundoff of doubles: every correctly rounded operation is off by at
#: most this factor of its exact result; libm's pow and exp by at most twice
#: it (one ulp).
U = sys.float_info.epsilon / 2


def _closed_form_cases():
    """(g, exact classical elasticity at x, bound on the relative error at x)."""
    for A, k in ((5, 0.3), (2, 1.7), (0.5, -1.25), (1e300, 2)):
        # m = (A*k) * x**(k-1) and g = A * x**k: three roundings, two pows,
        # then x / g and m * (x / g).  k - 1 rounds by dk, which x**(k-1)
        # turns into a relative error dk * ln(x).
        dk = float(Fraction(k) - 1 - Fraction(k - 1.0))
        yield (power_function(A, k), lambda x, k=k: Fraction(k),
               lambda x, dk=dk: 9 * U + abs(dk * math.log(x)))
    for A, b in ((0.5, 0.9), (2, -0.4)):
        # m = (A*b) * e and g = A * e share one e = exp(b*x), whose error
        # cancels: A*b, m, g, x / g and m * (x / g) round once each.
        yield (exponential_function(A, b), lambda x, b=b: Fraction(b) * Fraction(x),
               lambda x: 5 * U)
    for a, b in ((1, 3), (2, -0.01), (-1e-6, 1)):
        # g = a + b*x: b*x's rounding grows by |b*x / g| in the sum; then the
        # sum, x / g and b * (x / g) round once each; m = b is exact.
        yield (affine_function(a, b),
               lambda x, a=a, b=b: Fraction(b) * Fraction(x) / (a + Fraction(b) * Fraction(x)),
               lambda x, a=a, b=b: (3 + abs(b * x / (a + b * x))) * U)


class TestMarginal:
    def test_exact_derivatives(self):
        assert marginal(power_function(1, 2), 3.0) == pytest.approx(6.0, rel=1e-15)
        assert marginal(exponential_function(1, 1), 1.0) == pytest.approx(math.e, rel=1e-15)
        assert marginal(affine_function(1, 2), 5.0) == 2.0

    def test_power_rule_cross_checked(self):
        g = power_function(5, 0.3)
        exact = 1.5 * 2 ** (-0.7)
        assert marginal(g, 2.0) == pytest.approx(exact, rel=1e-15)
        assert exact == pytest.approx(0.92335, abs=5e-5)

    def test_domain_errors(self):
        g = power_function(1, 2)
        with pytest.raises(DomainError):
            marginal(g, -1.0)
        negative = EconFunction("neg", lambda x: -1.0, lambda x: 0.0)
        with pytest.raises(DomainError):
            marginal(negative, 1.0)

    def test_derivative_is_required(self):
        with pytest.raises(TypeError, match="derivative"):
            EconFunction("sqrt", math.sqrt)


class TestClassicalElasticity:
    def test_constant_elasticity_family(self):
        g = power_function(5, 0.3)
        for x in np.linspace(0.5, 10, 100):
            assert classical_elasticity(g, float(x)) == pytest.approx(0.3, abs=1e-15)

    def test_exponential(self):
        g = exponential_function(1, 1)
        assert classical_elasticity(g, 2.0) == pytest.approx(2.0, rel=1e-15)

    def test_constant_function(self):
        g = affine_function(4, 0)
        assert classical_elasticity(g, 3.0) == 0.0

    @pytest.mark.parametrize("g, closed_form, bound", [
        pytest.param(*case, id=case[0].name) for case in _closed_form_cases()])
    def test_builtins_match_closed_forms(self, g, closed_form, bound):
        # The bound sums the first-order relative errors above; 1.001 covers
        # their products.
        xs = np.exp(np.random.default_rng(18).uniform(math.log(1e-5), math.log(1e2), 2000))
        for x in xs.tolist():
            exact = closed_form(x)
            error = abs(Fraction(classical_elasticity(g, x)) - exact) / abs(exact)
            assert error <= 1.001 * bound(x), x

    def test_no_overflow_in_m_times_x(self):
        # m * x = 2e308 overflows; m * (x / g) is the constant elasticity.
        assert classical_elasticity(power_function(1e300, 2), 1e4) == 2.0


class TestGeneralizedElasticity:
    def test_endpoints_bitwise(self):
        for g in (power_function(5, 0.3), exponential_function(2, 0.4), affine_function(1, 2)):
            for x in (0.5, 2.0, 7.0):
                assert generalized_elasticity(0.0, g, x) == marginal(g, x)
                assert generalized_elasticity(1.0, g, x) == classical_elasticity(g, x)

    def test_hand_evaluated_square(self):
        g = power_function(1, 2)
        assert generalized_elasticity(0.0, g, 3.0) == pytest.approx(6.0, rel=1e-15)
        assert generalized_elasticity(0.5, g, 4.0) == pytest.approx(4.0, rel=1e-15)

    def test_closed_form_matches_finite_difference_path(self):
        # The pre-limit quotient needs no derivative.  At h = x * 1e-8 its
        # O(h) term and the rounding of g over h are each below 1e-7 here.
        for g in (power_function(5, 0.3), exponential_function(0.5, 0.9), affine_function(1, 3)):
            for lam in (0.0, 0.25, 0.5, 1.0, 1.5):
                for x in (0.7, 2.0, 9.0):
                    assert generalized_elasticity(lam, g, x) == pytest.approx(
                        elasticity_quotient(lam, g, x, x * 1e-8), rel=1e-6
                    )


class TestElasticityQuotient:
    def test_identity_function_is_unit_elastic(self):
        g = affine_function(0, 1)
        # dyadic steps keep x + h exactly representable, so the quotient is 1 bitwise
        for h in (0.5, -0.25, 0.0078125):
            assert elasticity_quotient(1.0, g, 3.0, h) == 1.0

    def test_forward_quotient_of_square(self):
        g = power_function(1, 2)
        assert elasticity_quotient(0.0, g, 1.0, 0.1) == pytest.approx(2.1, rel=1e-12)

    def test_converges_to_generalized(self):
        g = power_function(1, 2)
        vals = [elasticity_quotient(0.5, g, 4.0, h) for h in (0.1, 0.01, 0.001)]
        target = generalized_elasticity(0.5, g, 4.0)
        errs = [abs(v - target) for v in vals]
        assert errs[2] < errs[1] < errs[0]
        assert vals[2] == pytest.approx(target, rel=1e-3)

    def test_linear_convergence_rate(self):
        g = power_function(5, 0.3)
        target = generalized_elasticity(0.5, g, 2.0)
        errs = [abs(elasticity_quotient(0.5, g, 2.0, h) - target) for h in (1e-1, 1e-2, 1e-3)]
        for a, b in zip(errs, errs[1:]):
            assert 8 <= a / b <= 12

    def test_zero_step_rejected(self):
        with pytest.raises(DomainError):
            elasticity_quotient(0.5, power_function(1, 2), 1.0, 0.0)


class TestNumericalErrors:
    """A float overflow or division by zero is a NumericalError chained from it,
    with core's message: the function, lambda, the pair it prints and the cause."""

    OVERFLOW = "OverflowError(34, 'Numerical result out of range')"

    @pytest.mark.parametrize("call, message, cause", [
        (lambda: marginal(power_function(5, 400), 10.0),
         f"generalized_elasticity[0]('power(A=5, k=400)', 10.0) is not finite: {OVERFLOW}",
         OverflowError),
        (lambda: classical_elasticity(power_function(5, 400), 10.0),
         f"generalized_elasticity[1]('power(A=5, k=400)', 10.0) is not finite: {OVERFLOW}",
         OverflowError),
        (lambda: generalized_elasticity(1.0, power_function(5, 400), 10.0),
         f"generalized_elasticity[1]('power(A=5, k=400)', 10.0) is not finite: {OVERFLOW}",
         OverflowError),
        (lambda: generalized_elasticity(-1e308, power_function(1, 2), 3.0),
         f"generalized_elasticity[-1e+308]('power(A=1, k=2)', 3.0) is not finite: {OVERFLOW}",
         OverflowError),
        (lambda: elasticity_quotient(0.5, power_function(1, 2), 1.0, 1e308),
         f"elasticity_quotient[0.5](1.0, 1e+308) is not finite: {OVERFLOW}", OverflowError),
        (lambda: elasticity_quotient(400.0, power_function(1, 2), 1e-3, 1e-4),
         "elasticity_quotient[400](0.001, 0.0001) is not finite: "
         "ZeroDivisionError('float division by zero')", ZeroDivisionError),
    ], ids=["marginal", "classical", "generalized-lam1", "generalized", "quotient-overflow",
            "quotient-zero-division"])
    def test_arithmetic_error_is_numerical_error(self, call, message, cause):
        with pytest.raises(NumericalError) as info:
            call()
        assert type(info.value.__cause__) is cause
        assert str(info.value) == message

    @pytest.mark.parametrize("call, message", [
        (lambda: generalized_elasticity(-1.5, power_function(1e200, 1), 1.0),
         "generalized_elasticity[-1.5]('power(A=1e+200, k=1)', 1.0) is not finite: inf"),
        (lambda: marginal(power_function(1e300, 0.5), 1e-20),
         "generalized_elasticity[0]('power(A=1e+300, k=0.5)', 1e-20) is not finite: inf"),
    ], ids=["generalized", "marginal"])
    def test_non_finite_result_is_numerical_error(self, call, message):
        # Each true value, 1e500 and 5e309, is past the float range: the
        # product rounds to inf with no exception to chain.
        with pytest.raises(NumericalError) as info:
            call()
        assert str(info.value) == message
        assert info.value.__cause__ is None

    @pytest.mark.parametrize("fn", [
        marginal, classical_elasticity, lambda g, x: generalized_elasticity(0.5, g, x),
        lambda g, x: elasticity_quotient(0.5, g, x, 1.0),
    ], ids=["marginal", "classical", "generalized", "quotient"])
    def test_function_value_past_the_float_range_is_numerical_error(self, fn):
        # g(1e10) = 1e300 * 1e20 rounds to inf: no exception, and no DomainError.
        with pytest.raises(NumericalError) as info:
            fn(power_function(1e300, 2), 1e10)
        assert str(info.value) == "power(A=1e+300, k=2)(10000000000.0) is not finite: inf"
        # A g(x) that is not positive, or an x, stays a DomainError, though g'
        # divides by zero there.
        with pytest.raises(DomainError, match="function value must be positive, got 0.0"):
            fn(EconFunction("zero", lambda x: 0.0, lambda x: 1 / 0), 1.0)
        with pytest.raises(DomainError, match="x must be a finite positive number, got 0.0"):
            fn(power_function(1, 0.5), 0.0)


class TestRegistry:
    def test_parse_specs(self):
        g = parse_function_spec("power:A=5,k=0.3")
        assert g.eval(1.0) == 5.0
        g2 = parse_function_spec("exponential:A=2,b=0.5")
        assert g2.eval(0.0 + 2.0) == pytest.approx(2 * math.exp(1.0), rel=1e-15)
        g3 = parse_function_spec("affine:a=1,b=2")
        assert g3.eval(3.0) == 7.0

    def test_parse_errors(self):
        with pytest.raises(DomainError):
            parse_function_spec("cubic:a=1")
        with pytest.raises(DomainError):
            parse_function_spec("power:A=x")
        with pytest.raises(DomainError):
            parse_function_spec("power:A")
        with pytest.raises(DomainError):
            parse_function_spec("power:A=5,q=2")
        with pytest.raises(DomainError, match="parameter 'k' repeated in 'power:A=5, k=0.3,k =2'"):
            parse_function_spec("power:A=5, k=0.3,k =2")  # the later value is not taken

    def test_positive_amplitude_required(self):
        with pytest.raises(DomainError):
            power_function(0, 1)
        with pytest.raises(DomainError):
            exponential_function(-1, 1)
