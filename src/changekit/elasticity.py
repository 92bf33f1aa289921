"""Classical and generalized elasticity of positive economic functions.

The generalized elasticity g'(x) * (x / g(x))**lam interpolates the
marginal function (lam = 0) and the classical elasticity (lam = 1); the
pre-limit difference quotient converges to it at rate O(h).  A float
overflow or division by zero in any of them raises NumericalError.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

from .errors import DomainError, NumericalError
from .types import check_lambda

#: Relative step for the central-difference fallback derivative.
FD_STEP_REL = 1e-6


@dataclass(frozen=True)
class EconFunction:
    """A positive-valued function of one positive variable.

    ``derivative`` is the exact derivative when available; otherwise the
    marginal function falls back to a central finite difference.
    Evaluators must be effect-free and positive on the declared domain
    (needed so (x / g(x))**lam is real for every lam).
    """

    name: str
    eval: Callable[[float], float]
    derivative: Optional[Callable[[float], float]] = None

    def value(self, x: float) -> float:
        if not (math.isfinite(x) and x > 0):
            raise DomainError(f"{self.name}: argument must be positive, got {x!r}")
        g = self.eval(x)
        if not (math.isfinite(g) and g > 0):
            raise DomainError(f"{self.name}: function value must be positive, got {g!r} at x = {x}")
        return g


def _numerical(fn):
    """``fn`` with an OverflowError or ZeroDivisionError raised as NumericalError from it."""
    @functools.wraps(fn)
    def checked(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (OverflowError, ZeroDivisionError) as exc:
            raise NumericalError(f"{fn.__name__}: {type(exc).__name__}: {exc}") from exc

    return checked


@_numerical
def marginal(g: EconFunction, x: float) -> float:
    """g'(x): the exact derivative if provided, else a central difference (O(h**2))."""
    g.value(x)
    if g.derivative is not None:
        return g.derivative(x)
    h = x * FD_STEP_REL
    return (g.eval(x + h) - g.eval(x - h)) / (2.0 * h)


@_numerical
def classical_elasticity(g: EconFunction, x: float) -> float:
    """g'(x) * x / g(x): the limit ratio of relative output to input change."""
    return marginal(g, x) * x / g.value(x)


@_numerical
def generalized_elasticity(lam: float, g: EconFunction, x: float) -> float:
    """g'(x) * (x / g(x))**lam.

    lam = 0 returns the marginal function bitwise, since (x / g)**0.0 == 1.0.
    lam = 1 returns classical_elasticity bitwise through its own branch: the
    general form rounds m * (x / g), classical_elasticity rounds m * x / g.
    """
    lam = check_lambda(lam)
    if lam == 1.0:
        return classical_elasticity(g, x)
    return marginal(g, x) * (x / g.value(x)) ** lam


@_numerical
def elasticity_quotient(lam: float, g: EconFunction, x: float, h: float) -> float:
    """Pre-limit quotient ((g(x+h) - g(x)) / g(x)**lam) / (h / x**lam).

    Converges to generalized_elasticity(lam, g, x) as h -> 0.
    """
    lam = check_lambda(lam)
    if h == 0.0:
        raise DomainError("elasticity quotient requires a nonzero step h")
    gx = g.value(x)
    gy = g.value(x + h)
    return ((gy - gx) / gx**lam) / (h / x**lam)


def power_function(A: float, k: float) -> EconFunction:
    """g(x) = A * x**k, A > 0; constant classical elasticity k."""
    if A <= 0:
        raise DomainError(f"power family requires A > 0, got {A}")
    return EconFunction(
        f"power(A={A:g}, k={k:g})",
        lambda x: A * x**k,
        lambda x: A * k * x ** (k - 1.0),
    )


def exponential_function(A: float, b: float) -> EconFunction:
    """g(x) = A * exp(b * x), A > 0; classical elasticity b * x."""
    if A <= 0:
        raise DomainError(f"exponential family requires A > 0, got {A}")
    return EconFunction(
        f"exponential(A={A:g}, b={b:g})",
        lambda x: A * math.exp(b * x),
        lambda x: A * b * math.exp(b * x),
    )


def affine_function(a: float, b: float) -> EconFunction:
    """g(x) = a + b * x, restricted to the range where it is positive."""
    return EconFunction(
        f"affine(a={a:g}, b={b:g})",
        lambda x: a + b * x,
        lambda x: b,
    )


#: Built-in families selectable by name (the CLI has no expression parser).
REGISTRY: dict[str, Callable[..., EconFunction]] = {
    "power": power_function,
    "exponential": exponential_function,
    "affine": affine_function,
}


def parse_function_spec(spec: str) -> EconFunction:
    """Build a registry function from a spec like ``power:A=5,k=0.3``."""
    name, _, params = spec.partition(":")
    name = name.strip().lower()
    if name not in REGISTRY:
        known = ", ".join(sorted(REGISTRY))
        raise DomainError(f"unknown function family {name!r}; known families: {known}")
    kwargs: dict[str, float] = {}
    if params.strip():
        for item in params.split(","):
            key, sep, val = item.partition("=")
            if not sep:
                raise DomainError(f"malformed parameter {item!r} in {spec!r}; expected name=value")
            try:
                kwargs[key.strip()] = float(val)
            except ValueError:
                raise DomainError(f"parameter {key.strip()!r} in {spec!r} is not a number: {val!r}")
    try:
        return REGISTRY[name](**kwargs)
    except TypeError as exc:
        raise DomainError(f"bad parameters for family {name!r}: {exc}")
