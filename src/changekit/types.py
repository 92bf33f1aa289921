"""Core value types shared across the library.

None of them needs numpy: ``SampleConfig.rng`` imports it when a check asks
for its generator, so importing this module (and ``changekit``) loads none.

The package's value types are plain ``__slots__`` classes, not dataclasses:
importing ``dataclasses`` (and the ``inspect`` it loads) cost more than the
rest of ``import changekit``.  ``_Record`` and ``_FrozenRecord`` give them a
dataclass's equality, repr and, where frozen, hashing.
"""
from __future__ import annotations

import math

from .errors import DomainError, ValidationError

#: Sets a field of a ``_FrozenRecord`` from its ``__init__``.
_set = object.__setattr__


class _Record:
    """Equality between instances of one class and a ``Name(field=value, ...)``
    repr, both over the fields that ``__slots__`` names; unhashable."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self.__slots__])
        return f"{self.__class__.__qualname__}({fields})"


class _FrozenRecord(_Record):
    """A ``_Record`` that hashes its fields and refuses to change them."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def check_lambda(lam: float) -> float:
    """Validate the interpolation parameter: any finite real."""
    try:
        lam = float(lam)
    except (TypeError, ValueError, OverflowError):
        raise DomainError(f"lambda must be a finite real number, got {lam!r}") from None
    if not math.isfinite(lam):
        raise DomainError(f"lambda must be finite, got {lam!r}")
    return lam


def _coordinate(name: str, value) -> float:
    """``value`` as a float, or ValidationError naming the coordinate."""
    try:
        value = float(value)
    except (TypeError, ValueError, OverflowError):
        pass
    else:
        if math.isfinite(value) and value > 0:
            return value
    raise ValidationError(f"{name} value must be a finite positive number, got {value!r}")


class PositivePair(_FrozenRecord):
    """An observation (x, y): past and present value, both strictly positive."""

    __slots__ = ("x", "y")
    x: float
    y: float

    def __init__(self, x: float, y: float):
        _set(self, "x", _coordinate("past", x))
        _set(self, "y", _coordinate("present", y))

    def scaled(self, c: float) -> "PositivePair":
        """The pair (c*x, c*y), c > 0."""
        return PositivePair(c * self.x, c * self.y)


def _integer(name: str, value) -> int:
    """``value`` if it is an int and not a bool, else ValidationError naming it."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ValidationError(f"{name} must be an integer, got {value!r}")


class SampleConfig(_FrozenRecord):
    """Sampling plan for one axiom check: the generator's seed, the number
    of samples, and the range ``check_normed`` draws lambda from.  Every
    other sampled quantity lies in ``axioms.VALUE_RANGE``.
    """

    __slots__ = ("seed", "count", "lambda_range")
    seed: int
    count: int
    lambda_range: tuple[float, float]

    def __init__(
        self,
        seed: int = 20260824,
        count: int = 10_000,
        lambda_range: tuple[float, float] = (-2.0, 3.0),
    ):
        if _integer("seed", seed) < 0:
            raise ValidationError(f"seed must be non-negative, got {seed}")
        if _integer("sample count", count) < 1:
            raise ValidationError(f"sample count must be positive, got {count}")
        try:
            lo, hi = map(float, lambda_range)
        except (TypeError, ValueError, OverflowError):
            lo = hi = math.nan
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValidationError(f"lambda_range must be two finite numbers, got {lambda_range!r}")
        if lo > hi:
            raise ValidationError(f"lambda_range is empty: {lambda_range}")
        _set(self, "seed", seed)
        _set(self, "count", count)
        _set(self, "lambda_range", (lo, hi))

    def rng(self):
        """A fresh ``numpy.random.Generator`` for the seed."""
        import numpy as np

        return np.random.default_rng(self.seed)
