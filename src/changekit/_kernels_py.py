"""The evaluation kernels of both families, in pure Python and numpy.

Scalar paths use ``math``; batch paths use vectorized numpy and write into
a caller-supplied ``out`` array.  Non-finite results are left to the callers.
"""
import math

import numpy as np


def f_scalar(lam: float, x: float, y: float) -> float:
    """(y - x) / x**lam with exact endpoints at lam in {0, 1}."""
    if lam == 0.0:
        return y - x
    if lam == 1.0:
        return (y - x) / x
    return (y - x) / x**lam


def F_scalar(lam: float, x: float, y: float) -> float:
    """(y**(1-lam) - x**(1-lam)) / (1-lam), log-ratio at lam == 1."""
    if lam == 0.0:
        return y - x
    if lam == 1.0:
        return math.log(y) - math.log(x)
    # expm1 cancels the O(1) constant terms analytically, so the two-branch
    # formula stays accurate through lam -> 1 without a switching threshold.
    u = 1.0 - lam
    return (math.expm1(u * math.log(y)) - math.expm1(u * math.log(x))) / u


def f_many(lam: float, xs, ys, out) -> None:
    xs = np.asarray(xs)
    ys = np.asarray(ys)
    if lam == 0.0:
        np.subtract(ys, xs, out=out)
    elif lam == 1.0:
        np.subtract(ys, xs, out=out)
        np.divide(out, xs, out=out)
    else:
        np.subtract(ys, xs, out=out)
        np.divide(out, xs**lam, out=out)


def F_many(lam: float, xs, ys, out) -> None:
    xs = np.asarray(xs)
    ys = np.asarray(ys)
    if lam == 0.0:
        np.subtract(ys, xs, out=out)
    elif lam == 1.0:
        np.subtract(np.log(ys), np.log(xs), out=out)
    else:
        u = 1.0 - lam
        np.subtract(np.expm1(u * np.log(ys)), np.expm1(u * np.log(xs)), out=out)
        np.divide(out, u, out=out)
