"""Baseline indicators of change and the two one-parameter families.

The family ``eval_f`` interpolates absolute change (lam = 0) and relative
change (lam = 1).  The family ``eval_F`` is its antisymmetric, additive
counterpart, interpolating absolute change (lam = 0) and the log-ratio
(lam = 1).  Both endpoints are special-cased in the kernel module so the
generalization claims hold bitwise, not just approximately.  A result that
is not finite raises NumericalError instead of being returned.
"""
from __future__ import annotations

import math

from ._backend import kernels
from .errors import DomainError, NumericalError, StagnantPairError
from .types import PositivePair, check_lambda


def abs_change(p: PositivePair) -> float:
    """Absolute change y - x (same unit as the observations)."""
    return p.y - p.x


def rel_change(p: PositivePair) -> float:
    """Relative change (y - x) / x (dimensionless)."""
    return (p.y - p.x) / p.x


def log_ratio(p: PositivePair) -> float:
    """ln(y / x), evaluated as ln(y) - ln(x) for stability at extreme ratios."""
    return math.log(p.y) - math.log(p.x)


def eval_f(lam: float, p: PositivePair) -> float:
    """f(x, y) = (y - x) / x**lam.

    lam = 0 returns abs_change bitwise, lam = 1 returns rel_change bitwise.
    The result carries the (documented, not computed) unit u**(1 - lam).
    """
    lam = check_lambda(lam)
    value = kernels.f_scalar(lam, p.x, p.y)
    if not math.isfinite(value):
        raise NumericalError(f"f[{lam:.4g}]({p.x!r}, {p.y!r}) is not finite: {value!r}")
    return value


def eval_F(lam: float, p: PositivePair) -> float:
    """F(x, y) = (y**(1-lam) - x**(1-lam)) / (1-lam), log-ratio at lam = 1.

    Evaluated through expm1 so the value stays accurate (and continuous to
    ~1e-12) across lam -> 1 without a switching threshold; lam = 0 returns
    abs_change bitwise.
    """
    lam = check_lambda(lam)
    value = kernels.F_scalar(lam, p.x, p.y)
    if not math.isfinite(value):
        raise NumericalError(f"F[{lam:.4g}]({p.x!r}, {p.y!r}) is not finite: {value!r}")
    return value


def cobb_douglas_f(lam: float, p: PositivePair) -> float:
    """The Cobb-Douglas form rel**lam * abs**(1-lam), equal to eval_f.

    Only defined for growth (y > x): for y <= x the expression takes
    fractional powers of non-positive numbers.
    """
    lam = check_lambda(lam)
    if p.y <= p.x:
        raise DomainError(
            "cobb_douglas_f requires growth (y > x): fractional powers of the "
            f"non-positive changes of ({p.x}, {p.y}) are undefined over the reals"
        )
    r = rel_change(p)
    a = abs_change(p)
    return r**lam * a ** (1.0 - lam)


def quantity_indicator(lam: float, x: float, y: float) -> float:
    """Quantity variant y / x**lam: absolute quantity at lam = 0, relative at lam = 1.

    Unlike PositivePair, y = 0 is allowed here.
    """
    lam = check_lambda(lam)
    x = float(x)
    y = float(y)
    if not (math.isfinite(x) and x > 0):
        raise DomainError(f"reference quantity x must be positive, got {x!r}")
    if not (math.isfinite(y) and y >= 0):
        raise DomainError(f"quantity y must be nonnegative, got {y!r}")
    if lam == 0.0:
        return y
    if lam == 1.0:
        return y / x
    return y / x**lam


def relative_comparison(lam: float, a: PositivePair, b: PositivePair) -> float:
    """Unit-free quotient eval_f(lam, b) / eval_f(lam, a).

    Invariant under simultaneous rescaling of both pairs by any C > 0.
    The reference pair a must not be stagnant.
    """
    lam = check_lambda(lam)
    if a.x == a.y:
        raise StagnantPairError(
            f"reference pair ({a.x}, {a.y}) is stagnant; its indicator value is zero"
        )
    return eval_f(lam, b) / eval_f(lam, a)
