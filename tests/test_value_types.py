"""What the seven value types promise their callers: constructor signature,
equality, hashing, repr, immutability and every constructor refusal."""
import inspect
import math

import numpy as np
import pytest

from changekit.approximation import default_curve_grid, taylor_F
from changekit.axioms import CheckReport
from changekit.calibration import CalibrationInput
from changekit.cli import DEFAULT_LAMBDA, Dataset, OutputFormat
from changekit.core import eval_f
from changekit.elasticity import EconFunction
from changekit.errors import (
    DomainError,
    EqualPastValuesError,
    SignMismatchError,
    StagnantPairError,
    ValidationError,
)
from changekit.types import PositivePair, SampleConfig, check_lambda

P = inspect.Parameter.POSITIONAL_OR_KEYWORD
NO = inspect.Parameter.empty

#: (class, constructor parameters as (name, kind, default), positional
#: arguments, the same as keywords, unequal arguments, the instance's repr).
CASES = [
    (PositivePair, [("x", P, NO), ("y", P, NO)],
     (1, 2), {"x": 1.0, "y": 2.0}, (1, 3),
     "PositivePair(x=1.0, y=2.0)"),
    (SampleConfig, [("seed", P, 20260824), ("count", P, 10_000), ("lambda_range", P, (0.5, 0.5))],
     (7, 50, (1.0, 1.0)), {"seed": 7, "count": 50, "lambda_range": (1.0, 1.0)}, (7, 51, (1.0, 1.0)),
     "SampleConfig(seed=7, count=50, lambda_range=(1.0, 1.0))"),
    (CalibrationInput, [("reference", P, NO), ("comparison", P, NO)],
     (PositivePair(10, 20), PositivePair(80, 135)),
     {"reference": PositivePair(10.0, 20.0), "comparison": PositivePair(80.0, 135.0)},
     (PositivePair(10, 20), PositivePair(80, 136)),
     "CalibrationInput(reference=PositivePair(x=10.0, y=20.0), "
     "comparison=PositivePair(x=80.0, y=135.0))"),
    (EconFunction, [("name", P, NO), ("eval", P, NO), ("derivative", P, NO)],
     ("g", math.sqrt, abs), {"name": "g", "eval": math.sqrt, "derivative": abs}, ("g", math.sqrt, max),
     "EconFunction(name='g', eval=<built-in function sqrt>, derivative=<built-in function abs>)"),
    (Dataset, [("labels", P, NO), ("xs", P, NO), ("ys", P, NO)],
     (["a"], [1.0], [2.0]), {"labels": ["a"], "xs": [1.0], "ys": [2.0]}, (["b"], [1.0], [2.0]),
     "Dataset(labels=['a'], xs=[1.0], ys=[2.0])"),
    (OutputFormat, [("kind", P, "table"), ("precision", P, 2)],
     ("csv", 4), {"kind": "csv", "precision": 4}, ("csv", 5),
     "OutputFormat(kind='csv', precision=4)"),
    (CheckReport, [("property_name", P, NO), ("samples", P, NO), ("max_residual", P, NO),
                   ("worst_case", P, NO), ("tolerance", P, NO)],
     ("p", 3, 0.5, {"x": 1.0}, 1), {"property_name": "p", "samples": 3, "max_residual": 0.5,
                                     "worst_case": {"x": 1.0}, "tolerance": 1.0},
     ("p", 3, 2.0, {"x": 1.0}, 1),
     "CheckReport(property_name='p', samples=3, max_residual=0.5, worst_case={'x': 1.0}, "
     "tolerance=1.0, passed=True)"),
]
FROZEN = {PositivePair, SampleConfig, CalibrationInput, EconFunction, OutputFormat}
IDS = [case[0].__name__ for case in CASES]


@pytest.mark.parametrize("cls, params, args, kwargs, other, text", CASES, ids=IDS)
def test_constructor_signature(cls, params, args, kwargs, other, text):
    got = [(p.name, p.kind, p.default) for p in inspect.signature(cls).parameters.values()]
    assert got == params
    assert cls(*args) == cls(**kwargs)


@pytest.mark.parametrize("cls, params, args, kwargs, other, text", CASES, ids=IDS)
def test_equality(cls, params, args, kwargs, other, text):
    a, b, c = cls(*args), cls(**kwargs), cls(*other)
    assert a == b and not (a != b)
    assert a != c and not (a == c)
    as_tuple = tuple(getattr(a, name) for name, _, _ in params)
    assert a != as_tuple and not (a == as_tuple)
    assert a != None  # noqa: E711


@pytest.mark.parametrize("cls, params, args, kwargs, other, text", CASES, ids=IDS)
def test_repr(cls, params, args, kwargs, other, text):
    assert repr(cls(*args)) == text


@pytest.mark.parametrize("cls, params, args, kwargs, other, text", CASES, ids=IDS)
def test_hash_only_where_frozen(cls, params, args, kwargs, other, text):
    a, b = cls(*args), cls(**kwargs)
    if cls in FROZEN:
        assert hash(a) == hash(b)
        assert {a: 1}[b] == 1 and len({a, b, cls(*other)}) == 2
    else:
        with pytest.raises(TypeError, match="unhashable"):
            hash(a)


@pytest.mark.parametrize("cls, params, args, kwargs, other, text", CASES, ids=IDS)
def test_assignment_only_where_not_frozen(cls, params, args, kwargs, other, text):
    a, b = cls(*args), cls(*other)
    name = params[0][0]
    if cls in FROZEN:
        with pytest.raises(AttributeError):
            setattr(a, name, getattr(b, name))
        with pytest.raises(AttributeError):
            delattr(a, name)
        assert a == cls(*args)
    else:
        setattr(a, name, getattr(b, name))
        assert getattr(a, name) == getattr(b, name)


def test_positive_pair_stores_floats():
    p = PositivePair(1, np.float32(2.5))
    assert (type(p.x), type(p.y), p.x, p.y) == (float, float, 1.0, 2.5)
    assert p.scaled(2) == PositivePair(2.0, 5.0)


def test_check_report_converts_and_decides():
    r = CheckReport("p", 3, 2, {}, 1)
    assert (type(r.max_residual), type(r.tolerance), r.passed) == (float, float, False)
    assert CheckReport("p", 3, 1, {}, 1).passed is True
    with pytest.raises(TypeError):
        CheckReport("p", 3, 1.0, {}, 1.0, passed=True)


def test_default_constructors():
    assert SampleConfig() == SampleConfig(20260824, 10_000, (0.5, 0.5))
    assert SampleConfig().lambda_range == (DEFAULT_LAMBDA, DEFAULT_LAMBDA)
    assert OutputFormat() == OutputFormat("table", 2)


def _refusal(make):
    with pytest.raises(Exception) as info:
        make()
    return type(info.value), str(info.value)


#: Every constructor refusal: (constructor call, error class, message).
REFUSALS = [
    (lambda: PositivePair(-1, 2), ValidationError,
     "past value must be a finite positive number, got -1.0"),
    (lambda: PositivePair(0.0, 2), ValidationError,
     "past value must be a finite positive number, got 0.0"),
    (lambda: PositivePair(math.nan, 2), ValidationError,
     "past value must be a finite positive number, got nan"),
    (lambda: PositivePair(math.inf, 2), ValidationError,
     "past value must be a finite positive number, got inf"),
    (lambda: PositivePair(1, -0.0), ValidationError,
     "present value must be a finite positive number, got -0.0"),
    (lambda: PositivePair(1, math.inf), ValidationError,
     "present value must be a finite positive number, got inf"),
    (lambda: PositivePair(-1, -2), ValidationError,
     "past value must be a finite positive number, got -1.0"),
    (lambda: SampleConfig(seed=-1), ValidationError, "seed must be non-negative, got -1"),
    (lambda: SampleConfig(count=0), ValidationError, "sample count must be positive, got 0"),
    (lambda: SampleConfig(lambda_range=(-2.0, 3.0)), ValidationError,
     "lambda_range must be one point (lam, lam), got (-2.0, 3.0)"),
    (lambda: CalibrationInput(PositivePair(1, 1), PositivePair(2, 3)), StagnantPairError,
     "reference pair (1.0, 1.0) is stagnant"),
    (lambda: CalibrationInput(PositivePair(1, 2), PositivePair(2, 2)), StagnantPairError,
     "comparison pair (2.0, 2.0) is stagnant"),
    (lambda: CalibrationInput(PositivePair(10, 20), PositivePair(10, 30)), EqualPastValuesError,
     "past values 10.0 and 10.0 coincide (or nearly so); lambda is indeterminate"),
    (lambda: CalibrationInput(PositivePair(10, 20), PositivePair(80, 70)), SignMismatchError,
     "the two pairs change in opposite directions; no lambda equates them"),
    (lambda: OutputFormat("xml"), ValidationError, "unknown output format 'xml'"),
    (lambda: OutputFormat("csv", 16), ValidationError, "precision must be in [0, 15], got 16"),
    (lambda: OutputFormat("csv", -1), ValidationError, "precision must be in [0, 15], got -1"),
    (lambda: OutputFormat("table", 2.5), ValidationError, "precision must be an integer, got 2.5"),
    (lambda: OutputFormat("table", True), ValidationError,
     "precision must be an integer, got True"),
    (lambda: OutputFormat("table", "2"), ValidationError, "precision must be an integer, got '2'"),
]


@pytest.mark.parametrize("make, error, message", REFUSALS)
def test_constructor_refusals(make, error, message):
    assert _refusal(make) == (error, message)


#: Values that ``float()`` refuses, overflows on or takes though they are no
#: numbers (a bool, numeric text), each refused by name instead of with
#: ``float()``'s own error or value: (constructor call, error, message).
BAD_NUMBERS = [
    (lambda: PositivePair(True, 2.5), ValidationError,
     "past value must be a finite positive number, got True"),
    (lambda: PositivePair(1, "2.5"), ValidationError,
     "present value must be a finite positive number, got '2.5'"),
    (lambda: PositivePair(10**400, 1), ValidationError,
     f"past value must be a finite positive number, got {10**400!r}"),
    (lambda: PositivePair(None, 1), ValidationError,
     "past value must be a finite positive number, got None"),
    (lambda: PositivePair(1, "one"), ValidationError,
     "present value must be a finite positive number, got 'one'"),
    (lambda: PositivePair(1, [2.0]), ValidationError,
     "present value must be a finite positive number, got [2.0]"),
    (lambda: check_lambda(10**400), DomainError,
     f"lambda must be a finite real number, got {10**400!r}"),
    (lambda: check_lambda(None), DomainError, "lambda must be a finite real number, got None"),
    (lambda: check_lambda("half"), DomainError,
     "lambda must be a finite real number, got 'half'"),
    (lambda: eval_f(-(10**400), PositivePair(1, 2)), DomainError,
     f"lambda must be a finite real number, got {-(10**400)!r}"),
    (lambda: eval_f(True, PositivePair(1, 2)), DomainError,
     "lambda must be a finite real number, got True"),
]


@pytest.mark.parametrize("make, error, message", BAD_NUMBERS, ids=[
    "pair-bool", "pair-numeric-text", "pair-overflow", "pair-none", "pair-text", "pair-list",
    "lambda-overflow", "lambda-none", "lambda-text", "eval_f-overflow", "eval_f-bool"])
def test_bad_numbers_are_refused_by_name(make, error, message):
    assert _refusal(make) == (error, message)
    with pytest.raises(ValueError):  # what callers catching ValueError rely on
        make()


#: Sampling plans that numpy refused only later, or never:
#: (SampleConfig keywords, message).
BAD_CONFIGS = [
    ({"count": 2.5}, "sample count must be an integer, got 2.5"),
    ({"count": True}, "sample count must be an integer, got True"),
    ({"seed": True}, "seed must be an integer, got True"),
    ({"seed": 1.0}, "seed must be an integer, got 1.0"),
    ({"seed": "7"}, "seed must be an integer, got '7'"),
    ({"lambda_range": (math.nan, 1.0)}, "lambda_range[0] must be a finite real number, got nan"),
    ({"lambda_range": (0.0, math.inf)}, "lambda_range[1] must be a finite real number, got inf"),
    ({"lambda_range": (0.0, 1.0, 2.0)}, "lambda_range must be a pair, got (0.0, 1.0, 2.0)"),
    ({"lambda_range": (None, 1.0)}, "lambda_range[0] must be a finite real number, got None"),
    ({"lambda_range": 1.0}, "lambda_range must be a pair, got 1.0"),
    ({"lambda_range": [0, 1]}, "lambda_range must be one point (lam, lam), got (0.0, 1.0)"),
]


@pytest.mark.parametrize("kwargs, message", BAD_CONFIGS)
def test_sample_config_refuses_what_it_cannot_store(kwargs, message):
    assert _refusal(lambda: SampleConfig(**kwargs)) == (ValidationError, message)


def test_sample_config_stores_lambda_range_as_two_floats():
    cfg = SampleConfig(lambda_range=[1, 1])
    assert cfg.lambda_range == (1.0, 1.0) and type(cfg.lambda_range[0]) is float
    assert cfg == SampleConfig(lambda_range=(1.0, 1.0)) and hash(cfg)


#: An int of 5,001 digits, more than Python prints: (call, error, message).
HUGE = 10**5000
HUGE_INTS = [
    (lambda: eval_f(HUGE, PositivePair(1, 2)), DomainError,
     "lambda must be a finite real number, got <int of 16610 bits>"),
    (lambda: PositivePair(-HUGE, 2), ValidationError,
     "past value must be a finite positive number, got <negative int of 16610 bits>"),
    (lambda: SampleConfig(seed=-HUGE), ValidationError,
     "seed must be non-negative, got <negative int of 16610 bits>"),
    (lambda: SampleConfig(count=-HUGE), ValidationError,
     "sample count must be positive, got <negative int of 16610 bits>"),
    (lambda: SampleConfig(lambda_range=(HUGE,)), ValidationError,
     "lambda_range must be a pair, got <tuple>"),
    (lambda: OutputFormat("table", HUGE), ValidationError,
     "precision must be in [0, 15], got <int of 16610 bits>"),
    (lambda: taylor_F(0.5, PositivePair(1, 2), HUGE), DomainError,
     "Taylor order must be in [1, 64], got <int of 16610 bits>"),
    (lambda: default_curve_grid(HUGE, 1, 2), DomainError,
     "grid needs at least 2 points and at most 2**53, got <int of 16610 bits>"),
]


@pytest.mark.parametrize("make, error, message", HUGE_INTS, ids=[
    "lambda", "pair", "seed", "count", "lambda_range", "precision", "taylor-order", "grid-points"])
def test_an_int_too_long_to_print_is_refused_by_its_sign_and_bit_count(make, error, message):
    assert _refusal(make) == (error, message)
