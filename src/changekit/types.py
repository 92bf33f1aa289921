"""Core value types shared across the library."""
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
