"""Calibration of lambda from reference judgments, plus the symmetric-choice
diagnostics that single out lambda = 1/2."""
from __future__ import annotations

from ._kernels_py import log_ratio
from .core import _checked, eval_f
from .errors import (
    DomainError,
    EqualPastValuesError,
    NumericalError,
    SignMismatchError,
    StagnantPairError,
)
from .types import PositivePair, _FrozenRecord, _real, _set, check_lambda

# Below this the log in the calibration denominator is numerically meaningless.
_MIN_LOG_PAST_RATIO = 1e-12


class CalibrationInput(_FrozenRecord):
    """Two pairs judged to represent the same amount of change."""

    __slots__ = ("reference", "comparison")
    reference: PositivePair
    comparison: PositivePair

    def __init__(self, reference: PositivePair, comparison: PositivePair):
        ref, cmp = reference, comparison
        if ref.x == ref.y:
            raise StagnantPairError(f"reference pair ({ref.x}, {ref.y}) is stagnant")
        if cmp.x == cmp.y:
            raise StagnantPairError(f"comparison pair ({cmp.x}, {cmp.y}) is stagnant")
        if abs(log_ratio(ref.x, cmp.x)) < _MIN_LOG_PAST_RATIO:
            raise EqualPastValuesError(
                f"past values {ref.x} and {cmp.x} coincide (or nearly so); "
                "lambda is indeterminate"
            )
        if (cmp.y > cmp.x) != (ref.y > ref.x):
            raise SignMismatchError(
                "the two pairs change in opposite directions; no lambda equates them"
            )
        _set(self, "reference", reference)
        _set(self, "comparison", comparison)


def calibrate_lambda(inp: CalibrationInput) -> float:
    """The unique lambda giving both pairs the same f value.

    lambda = ln((y2 - x2) / (y1 - x1)) / ln(x2 / x1), finite for every input.
    The closed form is re-checked against both pairs before returning.
    """
    ref, cmp = inp.reference, inp.comparison
    lam = log_ratio(abs(ref.y - ref.x), abs(cmp.y - cmp.x)) / log_ratio(ref.x, cmp.x)
    f_ref = eval_f(lam, ref)
    f_cmp = eval_f(lam, cmp)
    if abs(f_ref - f_cmp) > 1e-9 * max(1.0, abs(f_ref)):
        raise NumericalError(
            f"calibrated lambda {lam} fails its defining equation: "
            f"f(ref) = {f_ref!r} vs f(cmp) = {f_cmp!r}"
        )
    return lam


def scaled_relative_pair(p: PositivePair, c: float) -> PositivePair:
    """The pair (x/c, y - x + x/c): same absolute change, relative change scaled by c."""
    c = _real("scale factor c", c, 0.0)
    x2 = p.x / c
    y2 = p.y - p.x + x2
    if y2 <= 0:
        raise DomainError(
            f"constructed pair ({x2}, {y2}) leaves the positive domain for C = {c}"
        )
    return PositivePair(x2, y2)


def symmetric_scaling_residual(lam: float, p: PositivePair, c: float) -> float:
    """f(Cx, Cy) - f(x/C, y - x + x/C).

    Analytically (C**(1-lam) - C**lam) * f(x, y): identically zero for all
    (p, C) exactly when lam = 1/2.  ``p.scaled`` checks C first.
    """
    lam = check_lambda(lam)
    return eval_f(lam, p.scaled(c)) - eval_f(lam, scaled_relative_pair(p, c))


def doubling_example(lam: float) -> tuple[float, float]:
    """(f(2, 4), f(1/2, 3/2)) = (2**(1-lam), 2**lam); equal iff lam = 1/2.

    (2, 4) doubles the absolute change of the reference pair (1, 2),
    (1/2, 3/2) doubles its relative change.
    """
    return (
        eval_f(lam, PositivePair(2.0, 4.0)),
        eval_f(lam, PositivePair(0.5, 1.5)),
    )


def mrs_cobb_douglas(lam: float, p: PositivePair) -> float:
    """Marginal rate of substitution of the Cobb-Douglas reading of f.

    With factors L = rel, K = abs and exponents (lam, 1 - lam) this equals
    lam / (1 - lam) * x, which is the past value x exactly when lam = 1/2.
    Only the past value of ``p`` enters; the pair is taken for interface
    uniformity.  A value that is not finite raises NumericalError.
    """
    lam = check_lambda(lam)
    if lam == 1.0:
        raise DomainError("marginal rate of substitution is undefined at lambda = 1")
    return _checked("mrs_cobb_douglas", lambda lam, x, y: lam / (1.0 - lam) * x, lam, p.x, p.y)
