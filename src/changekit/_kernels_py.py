"""The evaluation kernels of both families: ``math`` for one pair, numpy for arrays.

Each family's formula is written once and takes floats or arrays: scalar
paths call it on floats, batch paths on arrays, and the one adapter
``_many`` writes a batch result into a caller-supplied ``out`` array.
A batch call evaluates its whole arrays at once, so a caller that wants
cache-sized temporaries passes slices, as the axiom checkers do.
Non-finite results are left to the callers.

numpy is not imported with this module: ``_many`` imports it on the first
batch call, so one-pair callers (``core``, ``rank``) never load it.

``f`` needs no endpoint branch: ``x**0.0 == 1.0`` and ``x**1.0 == x`` are
exact in IEEE arithmetic, so its one expression returns ``y - x`` at
lam = 0 and ``(y - x) / x`` at lam = 1 bit for bit.  ``F`` keeps both
endpoints as branches: at lam = 1 the general form is 0/0, and at lam = 0
it goes through log and expm1, which do not give back ``y - x`` exactly.

``F`` is written in ``_F`` over a (log, expm1, log-ratio) triple: bound to
``math`` it is ``F_scalar``, bound to numpy it is the formula behind
``F_many``.  Its lam = 1 branch is the package's one log-ratio,
``log_ratio``, which ``calibration`` calls too; ``_log_ratio_many`` is the
same formula over arrays.
"""
import math


def f_scalar(lam, x, y):
    """(y - x) / x**lam."""
    return (y - x) / x**lam


def log_ratio(x, y, log=math.log, log1p=math.log1p, copysign=math.copysign):
    """ln(y / x) for positive floats x and y, within a few ulps everywhere.

    It is log1p(t), signed as y - x, of t = |y - x| / min(x, y) >= 0.  t is
    symmetric in x and y, so ``log_ratio(y, x) == -log_ratio(x, y)`` bit
    for bit.  t is rounded at most twice, in y - x (exact where x and y are
    within a factor of 2) and in the quotient, and log1p's condition number
    at t >= 0 is at most 1: the error is log1p's own plus at most 2**-52
    relative.  Where t overflows, as at (1e-300, 1e300), |ln(y / x)| > 709,
    and ln(y) - ln(x) is as accurate.
    """
    d = y - x
    t = abs(d) / (x if x < y else y)
    if t == math.inf:
        return log(y) - log(x)
    return copysign(log1p(t), d)


def _log_ratio_many(np):
    """``log_ratio`` over numpy arrays: its fallback is taken where t overflows."""
    def log_ratio_many(x, y):
        d = y - x
        with np.errstate(over="ignore"):
            t = np.abs(d) / np.minimum(x, y)
        far = np.isinf(t)
        value = np.copysign(np.log1p(t), d)
        return np.where(far, np.log(y) - np.log(x), value) if far.any() else value

    return log_ratio_many


def _F(log, expm1, log_ratio):
    """F over the operands that ``log``, ``expm1`` and ``log_ratio`` take:
    floats or arrays."""
    def F(lam: float, x, y):
        """(y**(1-lam) - x**(1-lam)) / (1-lam), log-ratio at lam == 1."""
        if lam == 0.0:
            return y - x
        if lam == 1.0:
            return log_ratio(x, y)
        # expm1 cancels the O(1) constant terms analytically, so the
        # two-branch formula stays accurate through lam -> 1 without a
        # switching threshold.  At lam > 1 a zero difference, as of a
        # stagnant pair, divided by u < 0 is -0.0; adding +0.0 makes it
        # +0.0 and leaves every other value, NaN and inf included, as is.
        u = 1.0 - lam
        return (expm1(u * log(y)) - expm1(u * log(x))) / u + 0.0

    return F


def _many(bind):
    """The batch form of the kernel that ``bind(numpy)`` returns: its value
    over arrays, written into ``out`` (an array, a view or a buffer such as
    ``array.array``) and returned.  xs and ys broadcast to ``out``'s shape,
    as in ``out[...] = kernel(lam, xs, ys)``.  The first call imports numpy
    and binds the kernel; later calls reuse it."""
    kernel = None

    def many(lam: float, xs, ys, out):
        nonlocal kernel
        import numpy as np

        if kernel is None:
            kernel = bind(np)
        np.asarray(out)[...] = kernel(lam, np.asarray(xs), np.asarray(ys))
        return out

    return many


F_scalar = _F(math.log, math.expm1, log_ratio)
# f's one expression takes arrays as it stands.  The default binds the
# function above, not what the module name holds at the first call.
f_many = _many(lambda np, f=f_scalar: f)
F_many = _many(lambda np: _F(np.log, np.expm1, _log_ratio_many(np)))
