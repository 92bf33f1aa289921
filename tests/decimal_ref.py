"""The two families in stdlib ``decimal``: a reference for the float kernels.

Both functions convert their float arguments exactly and evaluate under the
caller's decimal context, so the caller sets the precision, as in
``with decimal.localcontext() as ctx: ctx.prec = 60``.
"""
from decimal import Decimal


def F(lam, x, y) -> Decimal:
    """(y**u - x**u) / u with u = 1 - lam; ln(y) - ln(x) at u = 0."""
    lam, x, y = Decimal(lam), Decimal(x), Decimal(y)
    u = 1 - lam
    return y.ln() - x.ln() if u == 0 else (y**u - x**u) / u


def f(lam, x, y) -> Decimal:
    """(y - x) / x**lam."""
    lam, x, y = Decimal(lam), Decimal(x), Decimal(y)
    return (y - x) / x**lam
