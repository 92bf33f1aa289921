"""The contract of every public function that returns one value, and of
the constructors of its arguments: a finite float (or an instance) or a
ChangekitError, never inf, NaN or a bare arithmetic or type error.

Every real argument is also drawn outside its domain: not a number, not
finite, 0 or negative; so is every integer argument: not an int, a bool, or
past the Taylor orders.  A value that is no finite real, or no int, is
refused by every call that takes it.  So is a text argument that is no
str, though the command line passes only strings.

The named indicators and elasticities are calls of their family's gated
evaluator, so a seeded sweep pins that each returns the bits of its
classical expression wherever that expression is finite, and refuses
where it is not.
"""
import io
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from changekit import (
    CalibrationInput,
    ChangekitError,
    DomainError,
    EconFunction,
    PositivePair,
    ValidationError,
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
from changekit import cli
from changekit.approximation import default_curve_grid
from changekit.calibration import scaled_relative_pair
from changekit.elasticity import (affine_function, exponential_function, parse_function_spec,
                                  power_function)
from changekit.types import SampleConfig

#: Lambdas that are family endpoints, the symmetric choice, or one ulp below 1.
SPECIAL_LAMBDAS = (0.0, 1.0, 0.5, -1.0, 2.0, 1 - 2**-52)

#: Values of a real argument outside its domain: the last two only where it
#: must be positive.  Python refuses to print an int of 5,001 digits.
BAD_REALS = (None, "a", [1.0], math.nan, math.inf, -math.inf, 10**400, 10**5000, -(10**5000),
             0.0, -1.0)
#: Values of an integer argument outside its domain: 65 only for a Taylor order.
BAD_INTEGERS = (2.5, True, "3", None, 65, 10**5000, -(10**5000))


def _calls(lam, x, y, z, w, e, h, k):
    """Name -> (the names of the drawn arguments it takes, its thunk), at one draw.

    (x, y) is the pair under test and h a step from x; (z, w) a second pair,
    ordered to change in the direction of the first for calibration; z is
    also a scale factor and the amplitude or intercept of the elasticity
    functions, e their exponent, rate or slope, and k a Taylor order and a
    number of grid points.  A pair is built inside each call, as any
    argument may be outside its domain.  doubling_example's thunk returns
    its two values.
    """
    p = lambda: PositivePair(x, y)
    q = lambda: PositivePair(z, w)
    calls = {
        "abs_change": ("x y", lambda: abs_change(p())),
        "rel_change": ("x y", lambda: rel_change(p())),
        "log_ratio": ("x y", lambda: log_ratio(p())),
        "eval_f": ("lam x y", lambda: eval_f(lam, p())),
        "eval_F": ("lam x y", lambda: eval_F(lam, p())),
        "cobb_douglas_f": ("lam x y", lambda: cobb_douglas_f(lam, p())),
        "quantity_indicator": ("lam x y", lambda: quantity_indicator(lam, x, y)),
        "relative_comparison": ("lam x y z w", lambda: relative_comparison(lam, p(), q())),
        "taylor_coefficient": ("lam k x", lambda: taylor_coefficient(lam, k, x)),
        "taylor_F": ("lam x y k", lambda: taylor_F(lam, p(), k)),
        "remainder_bound": ("lam x y", lambda: remainder_bound(lam, p())),
        "linearization_residual": ("lam x h", lambda: linearization_residual(lam, x, h)),
        "box_cox": ("lam y", lambda: box_cox(lam, y)),
        "default_curve_grid": ("k x y", lambda: default_curve_grid(k, x, y)),
        "calibrate_lambda": ("x y z w", lambda: calibrate_lambda(CalibrationInput(p(), q()))),
        "scaled": ("x y z", lambda: p().scaled(z)),
        "scaled_relative_pair": ("x y z", lambda: scaled_relative_pair(p(), z)),
        "symmetric_scaling_residual": (
            "lam x y z", lambda: symmetric_scaling_residual(lam, p(), z)),
        "doubling_example": ("lam", lambda: doubling_example(lam)),
        "mrs_cobb_douglas": ("lam x y", lambda: mrs_cobb_douglas(lam, p())),
    }
    for family in (power_function, exponential_function, affine_function):
        name = family.__name__.partition("_")[0]
        g = lambda family=family: family(z, e)
        calls[name] = ("z e", g)
        calls[f"marginal[{name}]"] = ("z e x", lambda g=g: marginal(g(), x))
        calls[f"classical_elasticity[{name}]"] = ("z e x", lambda g=g: classical_elasticity(g(), x))
        calls[f"generalized_elasticity[{name}]"] = (
            "lam z e x", lambda g=g: generalized_elasticity(lam, g(), x))
        calls[f"elasticity_quotient[{name}]"] = (
            "lam z e x h", lambda g=g: elasticity_quotient(lam, g(), x, h))
    return calls


def _usable(value, integer=False):
    """Whether ``value`` is in the domain of some argument of its kind."""
    if integer:
        return type(value) is int
    return type(value) is float and math.isfinite(value)


def _offenders(lam, x, y, z, w, e, h, k):
    """Name -> what each call gave that is neither a finite float nor a
    ChangekitError, or what it gave for an argument it had to refuse."""
    reals = dict(lam=lam, x=x, y=y, z=z, w=w, e=e, h=h)
    refused = {arg for arg, value in reals.items() if not _usable(value)}
    refused |= set() if _usable(k, integer=True) else {"k"}
    bad = {}
    for name, (args, call) in _calls(lam, x, y, z, w, e, h, k).items():
        try:
            value = call()
        except ChangekitError:
            continue
        except Exception as exc:  # a bare arithmetic or type error breaks the contract
            bad[name] = repr(exc)
            continue
        taken = refused & set(args.split())
        if taken:
            bad[name] = f"took {sorted(taken)}: {value!r}"
        elif not isinstance(value, (EconFunction, PositivePair)):
            values = value if isinstance(value, (tuple, list)) else (value,)
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
# At most two real arguments, by their names in _calls, replaced by values
# outside their domain.
replaced = st.dictionaries(st.sampled_from(("lam", "x", "y", "z", "w", "e", "h")),
                           st.sampled_from(BAD_REALS), max_size=2)
orders = st.one_of(st.integers(2, 64), st.sampled_from(BAD_INTEGERS))


@given(lam=lambdas, pair=pairs, other=pairs, e=st.floats(-5.0, 5.0), k=orders, bad=replaced)
# rel_change returned inf here.
@example(lam=1.0, pair=(1e-300, 1e300), other=(1.0, 2.0), e=1.0, k=2, bad={})
# taylor_coefficient and taylor_F raised ZeroDivisionError: x**63.5 underflows.
@example(lam=0.5, pair=(1e-10, 2e-10), other=(1.0, 2.0), e=1.0, k=64, bad={})
# taylor_coefficient raised OverflowError.
@example(lam=0.5, pair=(1e10, 2e10), other=(1.0, 2.0), e=1.0, k=64, bad={})
# mrs_cobb_douglas returned inf.
@example(lam=1 - 2**-53, pair=(1e300, 2e300), other=(1.0, 2.0), e=1.0, k=2, bad={})
# g(x) = 1e300 * x**2 rounds to inf at x = 1e10, and the generalized
# elasticity of 1e200 * x at x = 1 and lambda = -1.5 is 1e500.
@example(lam=0.5, pair=(1e10, 2e10), other=(1e300, 1.0), e=2.0, k=2, bad={})
@example(lam=-1.5, pair=(1.0, 2.0), other=(1e200, 1.0), e=1.0, k=2, bad={})
# box_cox and quantity_indicator raised ValueError, scaled_relative_pair
# TypeError, taylor_coefficient returned -0.0 and default_curve_grid raised
# TypeError, and power_function took a NaN exponent.
@example(lam=0.5, pair=(2.0, 3.0), other=(1.0, 2.0), e=1.0, k=2, bad={"y": "a"})
@example(lam=0.5, pair=(2.0, 3.0), other=(1.0, 2.0), e=1.0, k=2, bad={"z": "a"})
@example(lam=0.5, pair=(2.0, 3.0), other=(1.0, 2.0), e=1.0, k=2, bad={"x": math.inf})
@example(lam=0.5, pair=(2.0, 3.0), other=(1.0, 2.0), e=1.0, k="3", bad={})
@example(lam=0.5, pair=(2.0, 3.0), other=(1.0, 2.0), e=1.0, k=2, bad={"e": math.nan})
@settings(max_examples=400, derandomize=True, database=None, deadline=None)
def test_every_one_value_function_returns_a_finite_float_or_refuses(lam, pair, other, e, k, bad):
    x, y = pair
    z, w = sorted(other, reverse=y < x)
    drawn = dict(lam=lam, x=x, y=y, z=z, w=w, e=e, h=y - x, k=k)
    assert _offenders(**{**drawn, **bad}) == {}


@pytest.mark.parametrize("call, name, error", [
    (parse_function_spec, "function spec", DomainError),
    (lambda unit: cli.render_reports([], cli.OutputFormat(), "f", 0.5, io.StringIO(), unit),
     "unit", ValidationError),
    (lambda target: cli.run_verify(target, 0.5, SampleConfig(count=10)), "verify target",
     ValidationError),
], ids=["parse_function_spec", "render_reports", "run_verify"])
@pytest.mark.parametrize("value, shown", [
    (5, "5"), (None, "None"), (b"power:A=1,k=1", "b'power:A=1,k=1'"), (["f"], "['f']"),
    (10**5000, "<int of 16610 bits>"),
], ids=["int", "None", "bytes", "list", "long-int"])
def test_a_text_argument_that_is_no_str_is_refused_by_name(call, name, error, value, shown):
    with pytest.raises(error) as refused:
        call(value)
    assert str(refused.value) == f"{name} must be a string, got {shown}"


def _rising_factorial(a, m):
    out = 1.0
    for i in range(m):
        out *= a + i
    return out


def _coefficient(lam, k, x):
    sign = 1.0 if k % 2 == 1 else -1.0
    return sign * _rising_factorial(lam, k - 1) / (math.factorial(k) * x ** (k + lam - 1.0))


def _taylor(lam, x, y, order):
    if lam <= 0 and lam.is_integer():  # every later coefficient is exactly 0
        order = min(order, 1 - int(lam))
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
