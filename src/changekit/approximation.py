"""Taylor approximation of F around x, the quadratic error bound between
F and f, the linearization property and the Box-Cox specialization."""
from __future__ import annotations

import math

from .core import _checked, eval_F, eval_f
from .errors import DomainError, NumericalError
from .types import PositivePair, _integer, _real, _shown, check_lambda

# Coefficients beyond this order are numerically negligible or overflow-prone.
MAX_TAYLOR_ORDER = 64
_MIN_NORMAL = 2.0 ** -1022  # the smallest normal double; a smaller one has fewer digits


def _order(name: str, n: int, low: int) -> int:
    if not low <= _integer(name, n) <= MAX_TAYLOR_ORDER:
        raise DomainError(f"{name} must be in [{low}, {MAX_TAYLOR_ORDER}], got {_shown(n)}")
    return n


def rising_factorial(a: float, m: int) -> float:
    """a * (a + 1) * ... * (a + m - 1); empty product 1 for m = 0."""
    out = 1.0
    for i in range(m):
        out *= a + i
    return out


def taylor_coefficient(lam: float, k: int, x: float) -> float:
    """k-th Taylor coefficient of y -> F(x, y) around y = x, for k in [2, MAX_TAYLOR_ORDER].

    (-1)**(k+1) * [lam * (lam+1) * ... * (lam+k-2)] / (k! * x**(k+lam-1)).
    The Gamma-function quotient is evaluated as a rising factorial, which
    stays well-defined (and zero) at lam = 0 where the quotient of two
    Gammas would be NaN.  A value that is not finite raises NumericalError.
    """
    lam = check_lambda(lam)
    k = _order("Taylor coefficient index k", k, 2)
    x = _real("expansion point x", x, 0.0)
    sign = 1.0 if k % 2 == 1 else -1.0
    return _checked("taylor_coefficient", lambda lam, k, x: sign * rising_factorial(lam, k - 1)
                    / (math.factorial(k) * x ** (k + lam - 1.0)), lam, k, x)


def taylor_F(lam: float, p: PositivePair, order: int) -> float:
    """Order-n truncation f(x, y) + sum_{k=2}^{n} c_k * (y - x)**k.

    n = 1 returns eval_f exactly.  Convergence is only guaranteed for
    |y - x| < x (the binomial-series radius); outside that regime the
    truncation is still evaluated, caller beware.  At lam = 0, -1, -2, ...
    every c_k with k >= 2 - lam is exactly 0, so the sum stops before them,
    and is F itself from order 1 - lam on.  A term or a sum that is not
    finite raises NumericalError.
    """
    lam = check_lambda(lam)
    n = _order("Taylor order", order, 1)
    if lam <= 0 and lam.is_integer():
        n = min(n, 1 - int(lam))

    def truncation(lam, x, y):
        total = eval_f(lam, p)
        d = y - x
        d_pow = d
        for k in range(2, n + 1):
            d_pow *= d
            total += taylor_coefficient(lam, k, x) * d_pow
        return total

    return _checked("taylor_F", truncation, lam, p.x, p.y)


def remainder_bound(lam: float, p: PositivePair) -> float:
    """Global bound |lam| * (y - x)**2 / xi**(1 + lam) on |F - f|, for every lam.

    The Lagrange remainder is |lam|/2 * xi**-(1+lam) * (y - x)**2 for some xi
    between x and y; the bound takes the xi that makes it largest:
    min(x, y) when 1 + lam >= 0, max(x, y) when 1 + lam < 0.  It is evaluated
    as |lam| * s * s with s = (y - x) / sqrt(xi) * q * q, q = xi**(-lam / 4):
    the exponent is exact, and each partial product lies between two normal
    factors, so for normal x and y it stays a normal double wherever the
    bound is one, though (y - x)**2 and xi**(1 + lam) may not.  The bound is
    0 at lam = 0 and at x = y, where F = f; elsewhere a bound that is not
    finite, or below the smallest normal double, raises NumericalError.
    """
    lam = check_lambda(lam)
    if lam == 0.0 or p.x == p.y:
        return 0.0
    xi = min(p.x, p.y) if lam >= -1.0 else max(p.x, p.y)

    def bound(lam, x, y):
        q = xi ** (-0.25 * lam)
        s = (y - x) / math.sqrt(xi) * q * q
        return abs(lam) * s * s

    value = _checked("remainder_bound", bound, lam, p.x, p.y)
    if value < _MIN_NORMAL:
        raise NumericalError(f"remainder_bound[{lam:.4g}]({p.x!r}, {p.y!r}) underflows: {value!r}")
    return value


def linearization_residual(lam: float, x: float, h: float) -> float:
    """F(x, x + h) - f(x, x + h).

    f is the linearization of y -> F(x, y) at x, so residual / h -> 0 as
    h -> 0, and |residual| <= remainder_bound(lam, PositivePair(x, x + h)).
    """
    lam = check_lambda(lam)
    x = _real("x", x, 0.0)
    p = PositivePair(x, x + _real("h", h))
    return eval_F(lam, p) - eval_f(lam, p)


def box_cox(lam: float, y: float) -> float:
    """F(1, y): a Box-Cox transformation of parameter 1 - lam.

    Closed forms: lam = 1 gives ln(y), lam = 1/2 gives 2*(sqrt(y) - 1),
    lam = 1/5 gives (5/4)*(y**(4/5) - 1), lam = 0 gives y - 1.
    """
    return eval_F(check_lambda(lam), PositivePair(1.0, _real("y", y, 0.0)))


def default_curve_grid(points: int, lo: float, hi: float) -> list[float]:
    """Uniform grid of ``points`` values on [lo, hi], 0 < lo < hi, 2 <= points <= 2**53."""
    if not 2 <= _integer("grid points", points) <= 2**53:  # past it, floats skip indices
        raise DomainError(f"grid needs at least 2 points and at most 2**53, got {_shown(points)}")
    lo, hi = _real("grid lo", lo, 0.0), _real("grid hi", hi, 0.0)
    if not lo < hi:
        raise DomainError(f"grid range must satisfy lo < hi, got ({lo}, {hi})")
    step = (hi - lo) / (points - 1)
    if not math.isfinite(lo + (points - 1) * step):
        raise DomainError(f"grid range ({lo}, {hi}) in {points} points is not finite")
    return [lo + i * step for i in range(points)]
