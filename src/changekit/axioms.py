"""Randomized, seed-deterministic checkers for the axioms and claimed
properties of change indicators.

Each checker samples inputs from a SampleConfig, evaluates the residual of
one identity and reports the worst case.  Residuals are normalized by
max(1, |reference|): relative where the reference magnitude exceeds one,
absolute below.  The checkers only ever assert the forward direction
(a family satisfies an axiom) or exhibit a violating sample (a competitor
fails one); no function-space search is attempted.

All checkers are pure given their config: the sample stream is a function
of the seed alone, so repeat runs produce bit-identical reports.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from ._backend import kernels
from .errors import ValidationError

#: Default residual tolerance for the exact identities, adapted to doubles.
TOLERANCE = 1e-9

#: A failure demonstration must exceed this residual to count as a violation.
VIOLATION_FLOOR = 1e-6


@dataclass(frozen=True)
class SampleConfig:
    """Sampling plan for one check.

    Pair coordinates are drawn log-uniformly from ``value_range`` so scale
    extremes are exercised; the axioms quantify over all positive reals, so
    scale coverage matters more than density.
    """

    seed: int = 20260824
    count: int = 10_000
    value_range: tuple[float, float] = (1e-3, 1e3)
    lambda_range: tuple[float, float] = (-2.0, 3.0)
    c_range: tuple[float, float] = (1e-3, 1e3)

    def __post_init__(self):
        if self.count < 1:
            raise ValidationError(f"sample count must be positive, got {self.count}")
        lo, hi = self.value_range
        if not (0 < lo <= hi):
            raise ValidationError(f"value_range must satisfy 0 < lo <= hi, got {self.value_range}")
        if self.lambda_range[0] > self.lambda_range[1]:
            raise ValidationError(f"lambda_range is empty: {self.lambda_range}")
        clo, chi = self.c_range
        if not (0 < clo <= chi):
            raise ValidationError(f"c_range must satisfy 0 < lo <= hi, got {self.c_range}")

    def rng(self) -> np.random.Generator:
        return np.random.default_rng(self.seed)


@dataclass
class CheckReport:
    """Outcome of one property check over a sample stream."""

    property_name: str
    samples: int
    max_residual: float
    worst_case: dict
    tolerance: float
    passed: bool = field(init=False)

    def __post_init__(self):
        self.max_residual = float(self.max_residual)
        self.tolerance = float(self.tolerance)
        self.passed = bool(self.max_residual <= self.tolerance)

    def to_dict(self) -> dict:
        return {
            "property": self.property_name,
            "samples": self.samples,
            "max_residual": self.max_residual,
            "worst_case": self.worst_case,
            "pass": self.passed,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


class Indicator:
    """An indicator under test: a map (x, y) -> value, total on the positive quadrant.

    ``batch``, when provided, evaluates whole sample arrays at once and is
    what makes the 10^4-sample checks cheap; scalar-only indicators fall
    back to a Python loop.
    """

    def __init__(
        self,
        name: str,
        fn: Callable[[float, float], float],
        batch: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None,
    ):
        self.name = name
        self.fn = fn
        self.batch = batch

    def __call__(self, x: float, y: float) -> float:
        return self.fn(x, y)

    def many(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        if self.batch is not None:
            return self.batch(xs, ys)
        return np.fromiter(
            (self.fn(x, y) for x, y in zip(xs, ys)), dtype=float, count=len(xs)
        )


def _kernel_batch(many_fn, lam: float):
    def batch(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        out = np.empty(len(xs))
        many_fn(lam, xs, ys, out)
        return out

    return batch


def f_indicator(lam: float) -> Indicator:
    """The family member f_lam as an Indicator with a fast batch path."""
    return Indicator(
        f"f[{lam:.4g}]",
        lambda x, y: kernels.f_scalar(lam, x, y),
        _kernel_batch(kernels.f_many, lam),
    )


def F_indicator(lam: float) -> Indicator:
    """The family member F_lam as an Indicator with a fast batch path."""
    return Indicator(
        f"F[{lam:.4g}]",
        lambda x, y: kernels.F_scalar(lam, x, y),
        _kernel_batch(kernels.F_many, lam),
    )


def _log_uniform(rng, lo: float, hi: float, n: int) -> np.ndarray:
    if lo == hi:
        return np.full(n, lo)
    return np.exp(rng.uniform(math.log(lo), math.log(hi), n))


def _worst(residuals: np.ndarray, **columns: np.ndarray) -> tuple[float, dict]:
    i = int(np.argmax(residuals))
    return float(residuals[i]), {k: float(v[i]) for k, v in columns.items()}


def _norm(reference: np.ndarray) -> np.ndarray:
    return np.maximum(1.0, np.abs(reference))


def check_affine_linearity(ind: Indicator, cfg: SampleConfig) -> CheckReport:
    """f(x, (1-t)*y1 + t*y2) = (1-t)*f(x, y1) + t*f(x, y2)."""
    rng = cfg.rng()
    lo, hi = cfg.value_range
    n = cfg.count
    x = _log_uniform(rng, lo, hi, n)
    y1 = _log_uniform(rng, lo, hi, n)
    y2 = _log_uniform(rng, lo, hi, n)
    t = rng.uniform(0.0, 1.0, n)
    ym = (1.0 - t) * y1 + t * y2
    lhs = ind.many(x, ym)
    rhs = (1.0 - t) * ind.many(x, y1) + t * ind.many(x, y2)
    res = np.abs(lhs - rhs) / _norm(rhs)
    worst, case = _worst(res, x=x, y1=y1, y2=y2, t=t)
    return CheckReport("affine_linearity", n, worst, case, TOLERANCE)


def check_naturality(ind: Indicator, cfg: SampleConfig) -> CheckReport:
    """sign(f(x, y)) = sign(y - x), with f(x, x) = 0 exactly.

    One tenth of the samples are exact stagnation pairs.  A sample's
    residual is zero when the sign is correct, |f| for a wrong-signed or
    spuriously-zero value (floored at 1 so silent zeros still register),
    and |f(x, x)| at stagnation.  Tolerance is exact zero.
    """
    rng = cfg.rng()
    lo, hi = cfg.value_range
    n = cfg.count
    x = _log_uniform(rng, lo, hi, n)
    y = _log_uniform(rng, lo, hi, n)
    n_stag = max(1, n // 10)
    y[:n_stag] = x[:n_stag]
    v = ind.many(x, y)
    res = np.where(
        y == x,
        np.abs(v),
        np.where(np.sign(v) == np.sign(y - x), 0.0, np.maximum(np.abs(v), 1.0)),
    )
    if not np.all(np.isfinite(v)):
        res = np.where(np.isfinite(v), res, np.inf)
    worst, case = _worst(res, x=x, y=y, value=v)
    return CheckReport("naturality", n, worst, case, 0.0)


def check_relative_scaling(ind: Indicator, cfg: SampleConfig) -> CheckReport:
    """f(x, y) * f(C*x2, C*y2) = f(x2, y2) * f(C*x, C*y) for all C > 0."""
    rng = cfg.rng()
    lo, hi = cfg.value_range
    n = cfg.count
    x = _log_uniform(rng, lo, hi, n)
    y = _log_uniform(rng, lo, hi, n)
    x2 = _log_uniform(rng, lo, hi, n)
    y2 = _log_uniform(rng, lo, hi, n)
    c = _log_uniform(rng, *cfg.c_range, n)
    lhs = ind.many(x, y) * ind.many(c * x2, c * y2)
    rhs = ind.many(x2, y2) * ind.many(c * x, c * y)
    res = np.abs(lhs - rhs) / _norm(lhs)
    worst, case = _worst(res, x=x, y=y, x2=x2, y2=y2, C=c)
    return CheckReport("relative_scaling", n, worst, case, TOLERANCE)


def check_vartia_invariance(ind: Indicator, cfg: SampleConfig) -> CheckReport:
    """Full scale invariance f(C*x, C*y) = f(x, y) (the axiom relaxed for f_lam)."""
    rng = cfg.rng()
    lo, hi = cfg.value_range
    n = cfg.count
    x = _log_uniform(rng, lo, hi, n)
    y = _log_uniform(rng, lo, hi, n)
    c = _log_uniform(rng, *cfg.c_range, n)
    base = ind.many(x, y)
    scaled = ind.many(c * x, c * y)
    res = np.abs(scaled - base) / _norm(base)
    worst, case = _worst(res, x=x, y=y, C=c)
    return CheckReport("vartia_invariance", n, worst, case, TOLERANCE)


def check_antisymmetry(ind: Indicator, cfg: SampleConfig) -> CheckReport:
    """f(x, y) = -f(y, x)."""
    rng = cfg.rng()
    lo, hi = cfg.value_range
    n = cfg.count
    x = _log_uniform(rng, lo, hi, n)
    y = _log_uniform(rng, lo, hi, n)
    fwd = ind.many(x, y)
    bwd = ind.many(y, x)
    res = np.abs(fwd + bwd) / _norm(fwd)
    worst, case = _worst(res, x=x, y=y)
    return CheckReport("antisymmetry", n, worst, case, TOLERANCE)


def check_additivity(ind: Indicator, cfg: SampleConfig) -> CheckReport:
    """f(x, y) + f(y, z) = f(x, z) over chained transitions."""
    rng = cfg.rng()
    lo, hi = cfg.value_range
    n = cfg.count
    x = _log_uniform(rng, lo, hi, n)
    y = _log_uniform(rng, lo, hi, n)
    z = _log_uniform(rng, lo, hi, n)
    lhs = ind.many(x, y) + ind.many(y, z)
    rhs = ind.many(x, z)
    res = np.abs(lhs - rhs) / _norm(rhs)
    worst, case = _worst(res, x=x, y=y, z=z)
    return CheckReport("additivity", n, worst, case, TOLERANCE)


#: Relative step sizes for the shrinking-h normed check.
NORMED_H_FRACTIONS = (1e-1, 1e-2, 1e-3, 1e-4)


def check_normed(
    F_family: Callable[[float], Indicator],
    f_family: Callable[[float], Indicator],
    cfg: SampleConfig,
) -> CheckReport:
    """First-order contract: |F(x, x+h) - f(x, x+h)| <= K * h**2 with shrinking h.

    The Lagrange remainder is |F - f| = |lam|/2 * xi**-(1+lam) * h**2 for
    some xi between x and x+h.  K = |lam| * xi**-(1+lam) at the xi that makes
    it largest: min(x, x+h) when 1 + lam >= 0, max(x, x+h) when 1 + lam < 0.
    The reported residual is the largest ratio |F - f| / (K * h**2);
    passing means no ratio exceeded 1.
    """
    rng = cfg.rng()
    n = cfg.count
    lams = rng.uniform(*cfg.lambda_range, n)
    xs = _log_uniform(rng, *cfg.value_range, n)
    worst = 0.0
    case: dict = {}
    for lam, x in zip(lams, xs):
        F_ind = F_family(lam)
        f_ind = f_family(lam)
        for frac in NORMED_H_FRACTIONS:
            h = x * frac
            diff = abs(F_ind(x, x + h) - f_ind(x, x + h))
            xi = min(x, x + h) if lam >= -1.0 else max(x, x + h)
            bound = abs(lam) * h * h / xi ** (1.0 + lam)
            if bound > 0.0:
                ratio = diff / bound
            else:
                ratio = 0.0 if diff == 0.0 else math.inf
            if ratio > worst:
                worst = ratio
                case = {"lambda": float(lam), "x": float(x), "h": float(h)}
    return CheckReport("normed", n, worst, case, 1.0)
