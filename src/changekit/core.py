"""Baseline indicators of change and the two one-parameter families.

The family ``eval_f`` interpolates absolute change (lam = 0) and relative
change (lam = 1); ``eval_F``, its antisymmetric, additive counterpart,
interpolates absolute change (lam = 0) and the log-ratio (lam = 1).  The
three named indicators are those calls of their family, and they are the
classical expressions bit for bit: ``f``'s by arithmetic alone
(``x**0.0 == 1.0`` and ``x**1.0 == x``), ``F``'s through branches in the
kernel module, because its general form is 0/0 at lam = 1 and inexact at
lam = 0.  Every public function goes through one check, ``_checked``: a
result that is not finite, returned or signalled by the kernel as an
overflow or a division by zero, raises NumericalError.  Arguments go
through ``types``' one gate; ``eval_f`` and ``eval_F`` call it for lambda
themselves, as a ``check_lambda`` frame around it costs about 60 ns a call.
"""
from __future__ import annotations

import math

from . import _kernels_py as kernels
from .errors import DomainError, NumericalError, StagnantPairError
from .types import PositivePair, _real, check_lambda


def abs_change(p: PositivePair) -> float:
    """Absolute change y - x (same unit as the observations): f at lam = 0."""
    return eval_f(0.0, p)


def rel_change(p: PositivePair) -> float:
    """Relative change (y - x) / x (dimensionless): f at lam = 1."""
    return eval_f(1.0, p)


def log_ratio(p: PositivePair) -> float:
    """ln(y / x): F at lam = 1, the package's one log-ratio.

    The kernel evaluates it as log1p(|y - x| / min(x, y)), signed as
    y - x, so it is within a few ulps near y = x and antisymmetric bit for
    bit; ln(y) - ln(x) is its fallback where that quotient overflows.
    """
    return eval_F(1.0, p)


def _checked(name: str, kernel, lam: float, x: float, y: float) -> float:
    """``kernel(lam, x, y)``, or the one NumericalError if it is not finite.

    The kernel returns a non-finite value or signals one: a power underflows
    to 0 (ZeroDivisionError) or overflows (OverflowError).  The message
    prints x and y; a kernel of other operands closes over them.
    """
    cause = None
    try:
        value = kernel(lam, x, y)
    except (OverflowError, ZeroDivisionError) as exc:
        value = cause = exc
    else:
        if math.isfinite(value):
            return value
    raise NumericalError(f"{name}[{lam:.4g}]({x!r}, {y!r}) is not finite: {value!r}") from cause


def eval_f(lam: float, p: PositivePair) -> float:
    """f(x, y) = (y - x) / x**lam.

    lam = 0 returns y - x bitwise, lam = 1 returns (y - x) / x bitwise.
    The result carries the (documented, not computed) unit u**(1 - lam).
    """
    return _checked("f", kernels.f_scalar, _real("lambda", lam), p.x, p.y)


def eval_F(lam: float, p: PositivePair) -> float:
    """F(x, y) = (y**(1-lam) - x**(1-lam)) / (1-lam), log-ratio at lam = 1.

    Evaluated through expm1 so the value stays accurate (and continuous to
    ~1e-12) across lam -> 1 without a switching threshold; lam = 0 returns
    y - x bitwise.
    """
    return _checked("F", kernels.F_scalar, _real("lambda", lam), p.x, p.y)


def cobb_douglas_f(lam: float, p: PositivePair) -> float:
    """The Cobb-Douglas form rel**lam * abs**(1-lam), equal to eval_f.

    Only defined for growth (y > x): for y <= x the expression takes
    fractional powers of non-positive numbers.  A value that is not finite
    raises NumericalError, as in eval_f.
    """
    lam = check_lambda(lam)
    if p.y <= p.x:
        raise DomainError(
            "cobb_douglas_f requires growth (y > x): fractional powers of the "
            f"non-positive changes of ({p.x}, {p.y}) are undefined over the reals"
        )
    return _checked(
        "cobb_douglas_f", lambda lam, x, y: ((y - x) / x) ** lam * (y - x) ** (1.0 - lam),
        lam, p.x, p.y,
    )


def quantity_indicator(lam: float, x: float, y: float) -> float:
    """Quantity variant y / x**lam: absolute quantity at lam = 0, relative at lam = 1.

    Unlike PositivePair, y = 0 is allowed here.  A value that is not finite
    raises NumericalError, as in eval_f.
    """
    lam = check_lambda(lam)
    x = _real("reference quantity x", x, 0.0)
    y = _real("quantity y", y)
    if y < 0:
        raise DomainError(f"quantity y must be a finite nonnegative number, got {y!r}")
    return _checked("quantity_indicator", lambda lam, x, y: y / x**lam, lam, x, y)


def relative_comparison(lam: float, a: PositivePair, b: PositivePair) -> float:
    """Unit-free quotient eval_f(lam, b) / eval_f(lam, a).

    Invariant under simultaneous rescaling of both pairs by any C > 0.
    The reference pair a must not be stagnant, and a quotient that is not
    finite raises NumericalError.
    """
    lam = check_lambda(lam)
    if a.x == a.y:
        raise StagnantPairError(
            f"reference pair ({a.x}, {a.y}) is stagnant; its indicator value is zero"
        )
    return _checked("relative_comparison", lambda lam, fb, fa: fb / fa,
                    lam, eval_f(lam, b), eval_f(lam, a))
