"""Core value types shared across the library.

None of them needs numpy: ``SampleConfig.rng`` imports it when a check asks
for its generator, so importing this module (and ``changekit``) loads none.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, ValidationError


def check_lambda(lam: float) -> float:
    """Validate the interpolation parameter: any finite real."""
    lam = float(lam)
    if not math.isfinite(lam):
        raise DomainError(f"lambda must be finite, got {lam!r}")
    return lam


@dataclass(frozen=True)
class PositivePair:
    """An observation (x, y): past and present value, both strictly positive."""

    x: float
    y: float

    def __post_init__(self):
        object.__setattr__(self, "x", float(self.x))
        object.__setattr__(self, "y", float(self.y))
        if not (math.isfinite(self.x) and self.x > 0):
            raise ValidationError(f"past value must be a finite positive number, got {self.x!r}")
        if not (math.isfinite(self.y) and self.y > 0):
            raise ValidationError(f"present value must be a finite positive number, got {self.y!r}")

    def scaled(self, c: float) -> "PositivePair":
        """The pair (c*x, c*y), c > 0."""
        return PositivePair(c * self.x, c * self.y)


@dataclass(frozen=True)
class SampleConfig:
    """Sampling plan for one axiom check: the generator's seed, the number
    of samples, and the range ``check_normed`` draws lambda from.  Every
    other sampled quantity lies in ``axioms.VALUE_RANGE``.
    """

    seed: int = 20260824
    count: int = 10_000
    lambda_range: tuple[float, float] = (-2.0, 3.0)

    def __post_init__(self):
        if self.seed < 0:
            raise ValidationError(f"seed must be non-negative, got {self.seed}")
        if self.count < 1:
            raise ValidationError(f"sample count must be positive, got {self.count}")
        if self.lambda_range[0] > self.lambda_range[1]:
            raise ValidationError(f"lambda_range is empty: {self.lambda_range}")

    def rng(self):
        """A fresh ``numpy.random.Generator`` for the seed."""
        import numpy as np

        return np.random.default_rng(self.seed)
