"""Classical and generalized elasticity of positive economic functions.

The generalized elasticity g'(x) * (x / g(x))**lam interpolates the
marginal function (lam = 0) and the classical elasticity (lam = 1), which
are its calls at those lambdas; the pre-limit difference quotient converges
to it at rate O(h).  A value that is not finite, a float overflow or a
division by zero raises NumericalError through ``core._checked``.
"""
from __future__ import annotations

import math
from collections.abc import Callable

from .core import _checked
from .errors import DomainError, NumericalError
from .types import _FrozenRecord, _real, _set, _text, check_lambda


class EconFunction(_FrozenRecord):
    """A positive-valued function of one positive variable and its exact derivative.

    Evaluators must be effect-free and positive on the declared domain
    (needed so (x / g(x))**lam is real for every lam).
    """

    __slots__ = ("name", "eval", "derivative")
    name: str
    eval: Callable[[float], float]
    derivative: Callable[[float], float]

    def __init__(self, name: str, eval: Callable[[float], float],
                 derivative: Callable[[float], float]):
        _set(self, "name", name)
        _set(self, "eval", eval)
        _set(self, "derivative", derivative)

    def value(self, x: float) -> float:
        """g(x), with x as a float, refusing an x or g(x) not positive and a g(x) not finite."""
        x = _real("x", x, 0.0)
        g = self.eval(x)
        if g <= 0:
            raise DomainError(f"{self.name}: function value must be positive, got {g!r} at x = {x}")
        if not math.isfinite(g):
            raise NumericalError(f"{self.name}({x!r}) is not finite: {g!r}")
        return g


def marginal(g: EconFunction, x: float) -> float:
    """g'(x), at an x where g.value accepts x and g(x): the lam = 0 member."""
    return generalized_elasticity(0.0, g, x)


def classical_elasticity(g: EconFunction, x: float) -> float:
    """The lam = 1 member, g'(x) * x / g(x): the limit ratio of relative output to input change."""
    return generalized_elasticity(1.0, g, x)


def generalized_elasticity(lam: float, g: EconFunction, x: float) -> float:
    """g'(x) * (x / g(x))**lam, one expression for every lam.

    lam = 0 returns g'(x) bitwise, since (x / g)**0.0 == 1.0 even where
    x / g is inf.  g.value(x) runs first, so an x it refuses is a DomainError
    whatever g' does there.  The error message prints g by its name.
    """
    return _checked("generalized_elasticity",
                    lambda lam, name, x: (x / g.value(x)) ** lam * g.derivative(x),
                    check_lambda(lam), g.name, _real("x", x, 0.0))


def elasticity_quotient(lam: float, g: EconFunction, x: float, h: float) -> float:
    """Pre-limit quotient ((g(x+h) - g(x)) / g(x)**lam) / (h / x**lam).

    Converges to generalized_elasticity(lam, g, x) as h -> 0.
    """
    lam, h = check_lambda(lam), _real("h", h)
    if h == 0.0:
        raise DomainError("elasticity quotient requires a nonzero step h")

    def quotient(lam, x, h):
        gx = g.value(x)
        gy = g.value(x + h)
        return ((gy - gx) / gx**lam) / (h / x**lam)

    return _checked("elasticity_quotient", quotient, lam, _real("x", x, 0.0), h)


def power_function(A: float, k: float) -> EconFunction:
    """g(x) = A * x**k, A > 0; constant classical elasticity k."""
    A, k = _real("A", A, 0.0), _real("k", k)
    return EconFunction(
        f"power(A={A:g}, k={k:g})",
        lambda x: A * x**k,
        lambda x: A * k * x ** (k - 1.0),
    )


def exponential_function(A: float, b: float) -> EconFunction:
    """g(x) = A * exp(b * x), A > 0; classical elasticity b * x."""
    A, b = _real("A", A, 0.0), _real("b", b)
    return EconFunction(
        f"exponential(A={A:g}, b={b:g})",
        lambda x: A * math.exp(b * x),
        lambda x: A * b * math.exp(b * x),
    )


def affine_function(a: float, b: float) -> EconFunction:
    """g(x) = a + b * x, restricted to the range where it is positive."""
    a, b = _real("a", a), _real("b", b)
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
    name, _, params = _text("function spec", spec, DomainError).partition(":")
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
            key = key.strip()
            if key in kwargs:
                raise DomainError(f"parameter {key!r} repeated in {spec!r}")
            try:
                kwargs[key] = float(val)
            except ValueError:
                raise DomainError(f"parameter {key!r} in {spec!r} is not a number: {val!r}")
    try:
        return REGISTRY[name](**kwargs)
    except TypeError as exc:
        raise DomainError(f"bad parameters for family {name!r}: {exc}")
