"""The contract of every public function that returns one value: a finite
float or a ChangekitError, never inf, NaN or a bare arithmetic exception.

The named indicators and elasticities are calls of their family's gated
evaluator, so a seeded sweep pins that each returns the bits of its
classical expression wherever that expression is finite, and refuses
where it is not.
"""
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from changekit import (
    CalibrationInput,
    ChangekitError,
    PositivePair,
    abs_change,
    box_cox,
    calibrate_lambda,
    classical_elasticity,
    cobb_douglas_f,
    doubling_example,
    elasticity_quotient,
    eval_F,
    eval_f,
    generalized_elasticity,
    linearization_residual,
    log_ratio,
    marginal,
    mrs_cobb_douglas,
    quantity_indicator,
    rel_change,
    relative_comparison,
    remainder_bound,
    symmetric_scaling_residual,
    taylor_coefficient,
    taylor_F,
)
from changekit.elasticity import exponential_function, power_function

#: Lambdas that are family endpoints, the symmetric choice, or one ulp below 1.
SPECIAL_LAMBDAS = (0.0, 1.0, 0.5, -1.0, 2.0, 1 - 2**-52)


def _calls(lam, x, y, z, w, e, k):
    """Name -> thunk of every public one-value function, at one draw.

    (x, y) is the pair under test; (z, w) a second pair, ordered to change in
    the direction of the first for calibration; z is also a scale factor and
    the amplitude of the elasticity functions, e their exponent or rate, and
    k a Taylor order.  doubling_example's thunk returns its two values.
    """
    p = PositivePair(x, y)
    q = PositivePair(*sorted((z, w), reverse=y < x))
    calls = {
        "abs_change": lambda: abs_change(p),
        "rel_change": lambda: rel_change(p),
        "log_ratio": lambda: log_ratio(p),
        "eval_f": lambda: eval_f(lam, p),
        "eval_F": lambda: eval_F(lam, p),
        "cobb_douglas_f": lambda: cobb_douglas_f(lam, p),
        "quantity_indicator": lambda: quantity_indicator(lam, x, y),
        "relative_comparison": lambda: relative_comparison(lam, p, q),
        "taylor_coefficient": lambda: taylor_coefficient(lam, k, x),
        "taylor_F": lambda: taylor_F(lam, p, k),
        "remainder_bound": lambda: remainder_bound(lam, p),
        "linearization_residual": lambda: linearization_residual(lam, x, y - x),
        "box_cox": lambda: box_cox(lam, y),
        "calibrate_lambda": lambda: calibrate_lambda(CalibrationInput(p, q)),
        "symmetric_scaling_residual": lambda: symmetric_scaling_residual(lam, p, z),
        "doubling_example": lambda: doubling_example(lam),
        "mrs_cobb_douglas": lambda: mrs_cobb_douglas(lam, p),
    }
    for g in (power_function(z, e), exponential_function(z, e)):
        family = g.name.partition("(")[0]
        calls[f"marginal[{family}]"] = lambda g=g: marginal(g, x)
        calls[f"classical_elasticity[{family}]"] = lambda g=g: classical_elasticity(g, x)
        calls[f"generalized_elasticity[{family}]"] = lambda g=g: generalized_elasticity(lam, g, x)
        calls[f"elasticity_quotient[{family}]"] = (
            lambda g=g: elasticity_quotient(lam, g, x, y - x))
    return calls


def _offenders(lam, x, y, z, w, e, k):
    """Name -> what each call gave that is neither a finite float nor a ChangekitError."""
    bad = {}
    for name, call in _calls(lam, x, y, z, w, e, k).items():
        try:
            value = call()
        except ChangekitError:
            continue
        except Exception as exc:  # a bare arithmetic or type error breaks the contract
            bad[name] = repr(exc)
            continue
        values = value if isinstance(value, tuple) else (value,)
        if not all(type(v) is float and math.isfinite(v) for v in values):
            bad[name] = repr(value)
    return bad


magnitudes = st.floats(-300.0, 300.0).map(lambda t: 10.0**t)
pairs = st.one_of(
    st.tuples(magnitudes, magnitudes),
    # near-stagnant: y within a relative 1e-6 of x, equal to it included
    st.builds(lambda x, t: (x, x * (1.0 + t)), magnitudes, st.floats(-1e-6, 1e-6)),
)
lambdas = st.one_of(st.floats(-5.0, 5.0), st.floats(-400.0, 400.0),
                    st.sampled_from(SPECIAL_LAMBDAS))


@given(lam=lambdas, pair=pairs, other=pairs, e=st.floats(-5.0, 5.0), k=st.integers(2, 64))
# rel_change returned inf here.
@example(lam=1.0, pair=(1e-300, 1e300), other=(1.0, 2.0), e=1.0, k=2)
# taylor_coefficient and taylor_F raised ZeroDivisionError: x**63.5 underflows.
@example(lam=0.5, pair=(1e-10, 2e-10), other=(1.0, 2.0), e=1.0, k=64)
# taylor_coefficient raised OverflowError.
@example(lam=0.5, pair=(1e10, 2e10), other=(1.0, 2.0), e=1.0, k=64)
# mrs_cobb_douglas returned inf.
@example(lam=1 - 2**-53, pair=(1e300, 2e300), other=(1.0, 2.0), e=1.0, k=2)
# g(x) = 1e300 * x**2 rounds to inf at x = 1e10, and the generalized
# elasticity of 1e200 * x at x = 1 and lambda = -1.5 is 1e500.
@example(lam=0.5, pair=(1e10, 2e10), other=(1e300, 1.0), e=2.0, k=2)
@example(lam=-1.5, pair=(1.0, 2.0), other=(1e200, 1.0), e=1.0, k=2)
@settings(max_examples=400, derandomize=True, database=None, deadline=None)
def test_every_one_value_function_returns_a_finite_float_or_refuses(lam, pair, other, e, k):
    assert _offenders(lam, *pair, *other, e, k) == {}


def _rising_factorial(a, m):
    out = 1.0
    for i in range(m):
        out *= a + i
    return out


def _coefficient(lam, k, x):
    sign = 1.0 if k % 2 == 1 else -1.0
    return sign * _rising_factorial(lam, k - 1) / (math.factorial(k) * x ** (k + lam - 1.0))


def _taylor(lam, x, y, order):
    total = (y - x) / x**lam
    d = y - x
    d_pow = d
    for k in range(2, order + 1):
        d_pow *= d
        total += _coefficient(lam, k, x) * d_pow
    return total


class _Refused(Exception):
    """An argument or a g(x) that EconFunction.value refuses."""


def _value(g, x):
    gx = g.eval(x) if math.isfinite(x) and x > 0 else 0.0
    if not (math.isfinite(gx) and gx > 0):
        raise _Refused
    return gx


def _references(lam, x, y, g, k):
    """Name -> (call of the function, thunk of its classical expression)."""
    p = PositivePair(x, y)
    h = y - x
    return {
        "abs_change": (lambda: abs_change(p), lambda: y - x),
        "rel_change": (lambda: rel_change(p), lambda: (y - x) / x),
        "log_ratio": (lambda: log_ratio(p), lambda: math.log(y) - math.log(x)),
        "marginal": (lambda: marginal(g, x), lambda: (_value(g, x), g.derivative(x))[1]),
        "generalized_elasticity": (
            lambda: generalized_elasticity(lam, g, x),
            lambda: g.derivative(x) * (x / _value(g, x)) ** lam),
        "classical_elasticity": (
            lambda: classical_elasticity(g, x),
            lambda: g.derivative(x) * (x / _value(g, x)) ** 1.0),
        "elasticity_quotient": (
            lambda: elasticity_quotient(lam, g, x, h),
            lambda: ((_value(g, x + h) - _value(g, x)) / _value(g, x)**lam) / (h / x**lam)),
        "taylor_coefficient": (lambda: taylor_coefficient(lam, k, x),
                               lambda: _coefficient(lam, k, x)),
        "taylor_F": (lambda: taylor_F(lam, p, k), lambda: _taylor(lam, x, y, k)),
        "mrs_cobb_douglas": (lambda: mrs_cobb_douglas(lam, p), lambda: lam / (1.0 - lam) * x),
    }


def test_each_family_call_keeps_the_bits_of_its_classical_expression():
    # Where the expression is finite, the same bits; where it is not, or
    # raises, a refusal.  Each expression is written out as the function
    # evaluated it before it became a gated call of its family.  Half the
    # draws span the float range as the contract test does; the other half
    # stay near 1, where the Taylor functions and the elasticities of the
    # exponential family are mostly finite.
    rng = random.Random(20261020)
    compared = dict.fromkeys(_references(1.0, 1.0, 2.0, power_function(1, 1), 2), 0)
    for _ in range(3000):
        span = 300 if rng.random() < 0.5 else 3
        lam = rng.choice((rng.uniform(-5, 5), rng.uniform(-400, 400), rng.choice(SPECIAL_LAMBDAS)))
        x = 10.0 ** rng.uniform(-span, span)
        y = x * (1 + rng.uniform(-1e-6, 1e-6)) if rng.random() < 0.3 else 10.0 ** rng.uniform(-span, span)
        A = 10.0 ** rng.uniform(-span, span)
        g = (power_function if rng.random() < 0.5 else exponential_function)(A, rng.uniform(-5, 5))
        k = rng.randint(2, 64)
        for name, (call, expression) in _references(lam, x, y, g, k).items():
            try:
                expected = expression()
            except (ArithmeticError, _Refused):
                expected = math.nan
            if not math.isfinite(expected):
                with pytest.raises(ChangekitError):
                    call()
                continue
            assert call().hex() == expected.hex(), (name, lam, x, y, g.name, k)
            compared[name] += 1
    # The sweep reaches a finite value of every function many times.
    assert min(compared.values()) >= 1000, compared
