"""The evaluation kernels of both families, in pure Python and numpy.

Scalar paths use ``math``; batch paths use vectorized numpy and write into
a caller-supplied ``out`` array.  Non-finite results are left to the callers.

``f`` needs no endpoint branch: ``x**0.0 == 1.0`` and ``x**1.0 == x`` are
exact in IEEE arithmetic, so its one expression returns ``y - x`` at
lam = 0 and ``(y - x) / x`` at lam = 1 bit for bit.  ``F`` keeps both
endpoints as branches: at lam = 1 the general form is 0/0, and at lam = 0
it goes through log and expm1, which do not give back ``y - x`` exactly.

``F`` is written once, in ``_F``, over a (log, expm1) pair: bound to
``math`` it is ``F_scalar``, bound to numpy it is the batch kernel behind
``F_many``.  Its lam = 1 branch is the one log-ratio of the package.
"""
import math

import numpy as np


def f_scalar(lam: float, x: float, y: float) -> float:
    """(y - x) / x**lam."""
    return (y - x) / x**lam


def _F(log, expm1):
    """F over the operands that ``log`` and ``expm1`` take: floats or arrays."""
    def F(lam: float, x, y):
        """(y**(1-lam) - x**(1-lam)) / (1-lam), log-ratio at lam == 1."""
        if lam == 0.0:
            return y - x
        if lam == 1.0:
            return log(y) - log(x)
        # expm1 cancels the O(1) constant terms analytically, so the
        # two-branch formula stays accurate through lam -> 1 without a
        # switching threshold.
        u = 1.0 - lam
        return (expm1(u * log(y)) - expm1(u * log(x))) / u

    return F


F_scalar = _F(math.log, math.expm1)
_F_array = _F(np.log, np.expm1)


def f_many(lam: float, xs, ys, out) -> None:
    xs = np.asarray(xs)
    np.subtract(ys, xs, out=out)
    np.divide(out, xs**lam, out=out)


def F_many(lam: float, xs, ys, out) -> None:
    out[...] = _F_array(lam, np.asarray(xs), np.asarray(ys))
