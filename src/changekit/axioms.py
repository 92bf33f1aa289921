"""Randomized, seed-deterministic checkers for the axioms and claimed
properties of change indicators.

An indicator under test is a batch function: sample arrays (xs, ys) in,
an array of values out.  ``f_indicator(lam)`` and ``F_indicator(lam)`` are
the two families through the batch kernels; any other indicator is a plain
function of arrays, such as ``lambda x, y: y - x``.  There is one
evaluation path: every checker, ``check_normed`` included, evaluates whole
sample arrays and never calls an indicator one pair at a time.

Each checker reads its inputs from a SampleConfig's stream: log-uniform
arrays over VALUE_RANGE, array i drawn from the seed's generator at
``i * count`` steps in, so that it depends on (seed, count, i) alone.  It
evaluates the residual of one identity and reports the worst case.
Residuals of the exact identities are computed in one place,
``_identity_report``, and normalized by max(1, |reference|): relative where
the reference magnitude exceeds one, absolute below.  ``check_normed``
reports the ratio of |F - f| to its Lagrange remainder bound instead.  The
checkers only ever assert the forward direction (a family satisfies an
axiom) or exhibit a violating sample (a competitor fails one); no
function-space search is attempted.

``SampleConfig`` is defined in ``types``, which loads no numpy, so that
the command line can build one without importing this module; it is the
same class here.  This is the one module of the package that imports numpy
when it is imported.

All checkers are pure given their config: the sample stream is a function
of the seed and count alone, so repeat runs produce bit-identical reports.
A report serializes a non-finite float (an overflowed residual or value) as
None, so its JSON stays strict.

The drawn arrays are read-only, so an indicator that writes into its inputs
raises instead of changing the samples of a later check.  Within one
``shared_draws()`` block, as around the checks of one ``changekit verify``
call, each array of a (seed, count) stream is drawn once, by the first
checker that needs it.  An array is the same wherever it is read from, so
every report is the one a checker makes on its own.  The block's draws are
dropped when it ends.
"""
from __future__ import annotations

import contextlib
import contextvars
import math
from collections.abc import Callable

import numpy as np

from . import _kernels_py as kernels
from .types import SampleConfig, _Record

#: Default residual tolerance for the exact identities, adapted to doubles.
TOLERANCE = 1e-9

#: A failure demonstration must exceed this residual to count as a violation.
VIOLATION_FLOOR = 1e-6

#: Pair coordinates and scale factors C are drawn log-uniformly from this
#: range to exercise scale extremes: the axioms quantify over all positive
#: reals, so scale coverage matters more than density.
VALUE_RANGE = (1e-3, 1e3)


class CheckReport(_Record):
    """Outcome of one property check over a sample stream."""

    __slots__ = ("property_name", "samples", "max_residual", "worst_case", "tolerance", "passed")
    property_name: str
    samples: int
    max_residual: float
    worst_case: dict
    tolerance: float
    passed: bool

    def __init__(self, property_name: str, samples: int, max_residual: float,
                 worst_case: dict, tolerance: float):
        self.property_name = property_name
        self.samples = samples
        self.max_residual = float(max_residual)
        self.worst_case = worst_case
        self.tolerance = float(tolerance)
        self.passed = bool(self.max_residual <= self.tolerance)

    def to_dict(self) -> dict:
        """The report as JSON-ready values; a non-finite float becomes None."""
        return {
            "property": self.property_name,
            "samples": self.samples,
            "max_residual": _finite_or_none(self.max_residual),
            "worst_case": {k: _finite_or_none(v) for k, v in self.worst_case.items()},
            "pass": self.passed,
        }


def _finite_or_none(v: float) -> float | None:
    return v if math.isfinite(v) else None


#: An indicator under test: sample arrays (xs, ys) -> values, total on the
#: positive quadrant.
BatchFn = Callable[[np.ndarray, np.ndarray], np.ndarray]


def f_indicator(lam: float) -> BatchFn:
    """The family member f_lam over sample arrays, through ``kernels.f_many``."""
    return lambda xs, ys: kernels.f_many(lam, xs, ys, np.empty(np.shape(xs)))


def F_indicator(lam: float) -> BatchFn:
    """The family member F_lam over sample arrays, through ``kernels.F_many``."""
    return lambda xs, ys: kernels.F_many(lam, xs, ys, np.empty(np.shape(xs)))


def _log_uniform(rng: np.random.Generator, n: int) -> np.ndarray:
    lo, hi = VALUE_RANGE
    u = rng.uniform(math.log(lo), math.log(hi), n)
    return np.exp(u, out=u)


def _at(cfg: SampleConfig, i: int) -> np.random.Generator:
    """A generator for ``cfg`` at the start of array i of its stream.

    Every array of the stream is ``cfg.count`` doubles, and each double is
    one step of the seed's PCG64 generator, so array i begins
    ``i * cfg.count`` steps in.  A sampler that draws arrays of another
    length, or more than one step per value, must change this too.
    """
    rng = cfg.rng()
    rng.bit_generator.advance(i * cfg.count)
    return rng


#: The arrays drawn in the innermost ``shared_draws()`` block, by
#: (seed, count, position); None outside one.
_shared: contextvars.ContextVar[dict | None] = contextvars.ContextVar(
    "changekit_axioms_draws", default=None)


@contextlib.contextmanager
def shared_draws():
    """Within the block, checkers that share a seed and count draw each array once."""
    token = _shared.set({})
    try:
        yield
    finally:
        _shared.reset(token)


def _sample(cfg: SampleConfig, k: int) -> tuple:
    """Arrays 0 to k - 1 of ``cfg``'s stream, log-uniform over VALUE_RANGE.

    The arrays are read-only; inside ``shared_draws()`` they are shared.
    """
    draws = _shared.get()
    if draws is None:
        draws = {}
    arrays = []
    for i in range(k):
        key = (cfg.seed, cfg.count, i)
        if key not in draws:
            draws[key] = _log_uniform(_at(cfg, i), cfg.count)
            draws[key].flags.writeable = False
        arrays.append(draws[key])
    return tuple(arrays)


def _worst(residuals: np.ndarray, **columns: np.ndarray) -> tuple[float, dict]:
    i = int(np.argmax(residuals))
    return float(residuals[i]), {k: float(v[i]) for k, v in columns.items()}


def _identity_report(
    name: str, cfg: SampleConfig, lhs: np.ndarray, rhs: np.ndarray, ref: np.ndarray, **columns
) -> CheckReport:
    """The report on an exact identity lhs = rhs: residual |lhs - rhs| / max(1, |ref|)."""
    res = np.abs(lhs - rhs) / np.maximum(1.0, np.abs(ref))
    worst, case = _worst(res, **columns)
    return CheckReport(name, cfg.count, worst, case, TOLERANCE)


def check_affine_linearity(ind: BatchFn, cfg: SampleConfig) -> CheckReport:
    """f(x, (1-t)*y1 + t*y2) = (1-t)*f(x, y1) + t*f(x, y2)."""
    x, y1, y2 = _sample(cfg, 3)
    t = _at(cfg, 3).uniform(0.0, 1.0, cfg.count)
    ym = (1.0 - t) * y1 + t * y2
    lhs = ind(x, ym)
    rhs = (1.0 - t) * ind(x, y1) + t * ind(x, y2)
    return _identity_report("affine_linearity", cfg, lhs, rhs, rhs, x=x, y1=y1, y2=y2, t=t)


def check_naturality(ind: BatchFn, cfg: SampleConfig) -> CheckReport:
    """sign(f(x, y)) = sign(y - x), with f(x, x) = 0 exactly.

    One tenth of the samples are exact stagnation pairs.  A sample's
    residual is zero when the sign is correct, |f| for a wrong-signed or
    spuriously-zero value (floored at 1 so silent zeros still register),
    and |f(x, x)| at stagnation.  Tolerance is exact zero.
    """
    x, y = _sample(cfg, 2)
    n_stag = max(1, cfg.count // 10)
    y = y.copy()
    y[:n_stag] = x[:n_stag]
    v = ind(x, y)
    res = np.where(
        y == x,
        np.abs(v),
        np.where(np.sign(v) == np.sign(y - x), 0.0, np.maximum(np.abs(v), 1.0)),
    )
    if not np.all(np.isfinite(v)):
        res = np.where(np.isfinite(v), res, np.inf)
    worst, case = _worst(res, x=x, y=y, value=v)
    return CheckReport("naturality", cfg.count, worst, case, 0.0)


def check_relative_scaling(ind: BatchFn, cfg: SampleConfig) -> CheckReport:
    """f(x, y) * f(C*x2, C*y2) = f(x2, y2) * f(C*x, C*y) for all C > 0."""
    x, y, x2, y2, c = _sample(cfg, 5)
    lhs = ind(x, y) * ind(c * x2, c * y2)
    rhs = ind(x2, y2) * ind(c * x, c * y)
    return _identity_report("relative_scaling", cfg, lhs, rhs, lhs, x=x, y=y, x2=x2, y2=y2, C=c)


def check_vartia_invariance(ind: BatchFn, cfg: SampleConfig) -> CheckReport:
    """Full scale invariance f(C*x, C*y) = f(x, y) (the axiom relaxed for f_lam)."""
    x, y, c = _sample(cfg, 3)
    base = ind(x, y)
    return _identity_report("vartia_invariance", cfg, ind(c * x, c * y), base, base, x=x, y=y, C=c)


def check_antisymmetry(ind: BatchFn, cfg: SampleConfig) -> CheckReport:
    """f(x, y) = -f(y, x)."""
    x, y = _sample(cfg, 2)
    fwd = ind(x, y)
    # fwd - (-bwd) is fwd + bwd exactly: negation is exact in IEEE arithmetic.
    return _identity_report("antisymmetry", cfg, fwd, -ind(y, x), fwd, x=x, y=y)


def check_additivity(ind: BatchFn, cfg: SampleConfig) -> CheckReport:
    """f(x, y) + f(y, z) = f(x, z) over chained transitions."""
    x, y, z = _sample(cfg, 3)
    lhs = ind(x, y) + ind(y, z)
    rhs = ind(x, z)
    return _identity_report("additivity", cfg, lhs, rhs, rhs, x=x, y=y, z=z)


#: Relative step sizes for the shrinking-h normed check.
NORMED_H_FRACTIONS = (1e-1, 1e-2, 1e-3, 1e-4)


def check_normed(
    F_family: Callable[[float], BatchFn],
    f_family: Callable[[float], BatchFn],
    cfg: SampleConfig,
) -> CheckReport:
    """First-order contract: |F(x, x+h) - f(x, x+h)| <= K * h**2 with shrinking h.

    The Lagrange remainder is |F - f| = |lam|/2 * xi**-(1+lam) * h**2 for
    some xi between x and x+h.  K = |lam| * xi**-(1+lam) at the xi that makes
    it largest: x when 1 + lam >= 0, x + h when 1 + lam < 0.
    The reported residual is the largest ratio |F - f| / (K * h**2);
    passing means no ratio exceeded 1.

    Samples that share a lambda are evaluated together: one call to each
    family member covers them at every h-fraction.
    """
    n = cfg.count
    # The lambdas take the generator steps of array 0, so the xs are array 1.
    lams = cfg.rng().uniform(*cfg.lambda_range, n)
    xs = _sample(cfg, 2)[1]
    h = xs[:, None] * np.array(NORMED_H_FRACTIONS)
    x = np.broadcast_to(xs[:, None], h.shape)
    y = x + h
    # Group the samples by lambda in one pass, without sorting (np.unique
    # costs memory and buys nothing): one group when the lambda is fixed,
    # one per sample when it is drawn.
    groups: dict[float, list[int]] = {}
    for i, lam in enumerate(lams.tolist()):
        groups.setdefault(lam, []).append(i)
    diff = np.empty(h.shape)
    for lam, rows in groups.items():
        xg, yg = x[rows], y[rows]
        diff[rows] = np.abs(F_family(lam)(xg, yg) - f_family(lam)(xg, yg))
    lam_col = lams[:, None]
    xi = np.where(lam_col >= -1.0, x, y)
    bound = np.abs(lam_col) * h * h / xi ** (1.0 + lam_col)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(bound > 0.0, diff / bound, np.where(diff == 0.0, 0.0, np.inf))
    # The worst case is the first largest ratio in (sample, h-fraction)
    # order; a NaN ratio never counts.
    ratio = np.fmax(ratio, 0.0)
    i, j = np.unravel_index(np.argmax(ratio), ratio.shape)
    worst = float(ratio[i, j])
    case = {"lambda": float(lams[i]), "x": float(xs[i]), "h": float(h[i, j])} if worst > 0.0 else {}
    return CheckReport("normed", n, worst, case, 1.0)
