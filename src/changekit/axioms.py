"""Randomized, seed-deterministic checkers for the axioms and claimed
properties of change indicators.

An indicator under test is a batch function: sample arrays (xs, ys) in,
an array of values out.  ``f_indicator(lam)`` and ``F_indicator(lam)`` are
the two families through the batch kernels; any other indicator is a plain
function of arrays, such as ``lambda x, y: y - x``.  There is one
evaluation path: every checker, ``check_normed`` included, evaluates slices
of its sample arrays of at most ``BLOCK`` samples, and never calls an
indicator one pair at a time.  So an indicator must work element
by element: its output i may depend only on its inputs i.

Each checker reads its inputs from a SampleConfig's stream: log-uniform
arrays over VALUE_RANGE, array i drawn from the seed's generator at
``i * count`` steps in, so that it depends on (seed, count, i) alone.  It
evaluates the residual of one identity, one block of samples at a time, in
``_worst_case``, which keeps the worst case in sample order.  A block's
temporaries stay in cache; the drawn arrays stay whole.  Residuals of the
exact identities are normalized by max(1, |reference|): relative where the
reference magnitude exceeds one, absolute below.  ``check_normed`` reports
the ratio of |F - f| to its Lagrange remainder bound instead.  The
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

#: Samples per block of a check, the one blocking of batch evaluation: the
#: batch kernels evaluate a slice whole.  One block's temporary is 128 KiB and
#: F's formula holds about four at once, well inside a 2 MiB L2 cache; smaller
#: blocks pay numpy's per-call cost, dozens of calls per block, more often.
#: Of 4k, 16k and 64k, 16k gave the lowest `perfbench` `verify-grid` `pass_s`
#: (median of 4 runs each) on a 2-core Xeon with 2 MiB of L2 per core.
BLOCK = 16384


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
#: positive quadrant and elementwise, since checkers pass it slices.
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


def _sample(cfg: SampleConfig, *positions: int) -> tuple:
    """The arrays at ``positions`` in ``cfg``'s stream, log-uniform over VALUE_RANGE.

    The arrays are read-only; inside ``shared_draws()`` they are shared.
    """
    draws = _shared.get()
    if draws is None:
        draws = {}
    arrays = []
    for i in positions:
        key = (cfg.seed, cfg.count, i)
        if key not in draws:
            draws[key] = _log_uniform(_at(cfg, i), cfg.count)
            draws[key].flags.writeable = False
        arrays.append(draws[key])
    return tuple(arrays)


def _worst_case(
    name: str, cfg: SampleConfig, tolerance: float,
    residual: Callable[[int, dict], np.ndarray], **arrays: np.ndarray,
) -> CheckReport:
    """The report on ``residual`` over the named sample arrays, in blocks.

    ``residual(lo, block)`` takes the first sample's position and a dict of
    the arrays' slices ``[lo, lo + BLOCK)``, by name, and returns the
    residual of each sample in the block.  It may add or replace columns
    in the dict, each of the residual's shape.  The worst case reports every
    column at the first largest residual in sample order, by ``np.argmax``'s
    rule over the whole stream: the first NaN, or else the first maximum.
    """
    worst, case = -math.inf, {}
    for lo in range(0, cfg.count, BLOCK):
        block = {k: a[lo:lo + BLOCK] for k, a in arrays.items()}
        res = residual(lo, block)
        i = np.unravel_index(np.argmax(res), res.shape)
        r = float(res[i])
        if r > worst or (math.isnan(r) and not math.isnan(worst)):
            worst, case = r, {k: float(v[i]) for k, v in block.items()}
    return CheckReport(name, cfg.count, worst, case, tolerance)


def _identity_residual(lhs: np.ndarray, rhs: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """The residual of an exact identity lhs = rhs: |lhs - rhs| / max(1, |ref|)."""
    return np.abs(lhs - rhs) / np.maximum(1.0, np.abs(ref))


def check_affine_linearity(ind: BatchFn, cfg: SampleConfig) -> CheckReport:
    """f(x, (1-t)*y1 + t*y2) = (1-t)*f(x, y1) + t*f(x, y2)."""
    def residual(lo, b):
        x, y1, y2, t = b["x"], b["y1"], b["y2"], b["t"]
        lhs = ind(x, (1.0 - t) * y1 + t * y2)
        rhs = (1.0 - t) * ind(x, y1) + t * ind(x, y2)
        return _identity_residual(lhs, rhs, rhs)

    x, y1, y2 = _sample(cfg, 0, 1, 2)
    t = _at(cfg, 3).uniform(0.0, 1.0, cfg.count)
    return _worst_case("affine_linearity", cfg, TOLERANCE, residual, x=x, y1=y1, y2=y2, t=t)


def check_naturality(ind: BatchFn, cfg: SampleConfig) -> CheckReport:
    """sign(f(x, y)) = sign(y - x), with f(x, x) = 0 exactly.

    One tenth of the samples, the first, are exact stagnation pairs.  A
    sample's residual is zero when the sign is correct, |f| for a
    wrong-signed or spuriously-zero value (floored at 1 so silent zeros
    still register), |f(x, x)| at stagnation and inf for a non-finite
    value.  Tolerance is exact zero.
    """
    n_stag = max(1, cfg.count // 10)

    def residual(lo, b):
        x, y = b["x"], b["y"]
        if lo < n_stag:
            y = b["y"] = y.copy()
            y[:n_stag - lo] = x[:n_stag - lo]
        v = b["value"] = ind(x, y)
        res = np.where(
            y == x,
            np.abs(v),
            np.where(np.sign(v) == np.sign(y - x), 0.0, np.maximum(np.abs(v), 1.0)),
        )
        if not np.all(np.isfinite(v)):
            res = np.where(np.isfinite(v), res, np.inf)
        return res

    x, y = _sample(cfg, 0, 1)
    return _worst_case("naturality", cfg, 0.0, residual, x=x, y=y)


def check_relative_scaling(ind: BatchFn, cfg: SampleConfig) -> CheckReport:
    """f(x, y) * f(C*x2, C*y2) = f(x2, y2) * f(C*x, C*y) for all C > 0."""
    def residual(lo, b):
        x, y, x2, y2, c = b["x"], b["y"], b["x2"], b["y2"], b["C"]
        lhs = ind(x, y) * ind(c * x2, c * y2)
        return _identity_residual(lhs, ind(x2, y2) * ind(c * x, c * y), lhs)

    x, y, x2, y2, c = _sample(cfg, 0, 1, 2, 3, 4)
    return _worst_case("relative_scaling", cfg, TOLERANCE, residual, x=x, y=y, x2=x2, y2=y2, C=c)


def check_vartia_invariance(ind: BatchFn, cfg: SampleConfig) -> CheckReport:
    """Full scale invariance f(C*x, C*y) = f(x, y) (the axiom relaxed for f_lam)."""
    def residual(lo, b):
        x, y, c = b["x"], b["y"], b["C"]
        base = ind(x, y)
        return _identity_residual(ind(c * x, c * y), base, base)

    x, y, c = _sample(cfg, 0, 1, 2)
    return _worst_case("vartia_invariance", cfg, TOLERANCE, residual, x=x, y=y, C=c)


def check_antisymmetry(ind: BatchFn, cfg: SampleConfig) -> CheckReport:
    """f(x, y) = -f(y, x)."""
    def residual(lo, b):
        x, y = b["x"], b["y"]
        fwd = ind(x, y)
        # fwd - (-bwd) is fwd + bwd exactly: negation is exact in IEEE arithmetic.
        return _identity_residual(fwd, -ind(y, x), fwd)

    x, y = _sample(cfg, 0, 1)
    return _worst_case("antisymmetry", cfg, TOLERANCE, residual, x=x, y=y)


def check_additivity(ind: BatchFn, cfg: SampleConfig) -> CheckReport:
    """f(x, y) + f(y, z) = f(x, z) over chained transitions."""
    def residual(lo, b):
        x, y, z = b["x"], b["y"], b["z"]
        lhs = ind(x, y) + ind(y, z)
        rhs = ind(x, z)
        return _identity_residual(lhs, rhs, rhs)

    x, y, z = _sample(cfg, 0, 1, 2)
    return _worst_case("additivity", cfg, TOLERANCE, residual, x=x, y=y, z=z)


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

    Samples of a block that share a lambda are evaluated together: one call
    to each family member covers them at every h-fraction.  Ratios that are
    all zero, as at lam = 0, report no worst case.
    """
    # The lambdas take the generator steps of array 0, so the xs are array 1.
    lams = cfg.rng().uniform(*cfg.lambda_range, cfg.count)
    (xs,) = _sample(cfg, 1)
    fractions = np.array(NORMED_H_FRACTIONS)

    def residual(lo, b):
        # Group the samples by lambda in one pass, without sorting (np.unique
        # costs memory and buys nothing): one group when the lambda is fixed,
        # one per sample when it is drawn.
        groups: dict[float, list[int]] = {}
        for i, lam in enumerate(b["lambda"].tolist()):
            groups.setdefault(lam, []).append(i)
        # Rows are samples and columns h-fractions, so the worst case is the
        # first largest ratio in (sample, h-fraction) order.
        lam_col = b["lambda"][:, None]
        h = b["x"][:, None] * fractions
        x = np.broadcast_to(b["x"][:, None], h.shape)
        y = x + h
        b["lambda"], b["x"], b["h"] = np.broadcast_to(lam_col, h.shape), x, h
        diff = np.empty(h.shape)
        for lam, rows in groups.items():
            xg, yg = x[rows], y[rows]
            diff[rows] = np.abs(F_family(lam)(xg, yg) - f_family(lam)(xg, yg))
        xi = np.where(lam_col >= -1.0, x, y)
        bound = np.abs(lam_col) * h * h / xi ** (1.0 + lam_col)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(bound > 0.0, diff / bound, np.where(diff == 0.0, 0.0, np.inf))
        # A NaN ratio never counts.
        return np.fmax(ratio, 0.0)

    report = _worst_case("normed", cfg, 1.0, residual, **{"lambda": lams, "x": xs})
    return report if report.max_residual > 0.0 else CheckReport("normed", cfg.count, 0.0, {}, 1.0)
