"""Core value types shared across the library.

None of them needs numpy: ``SampleConfig.rng`` imports it when a check asks
for its generator, so importing this module (and ``changekit``) loads none.

The package's value types are plain ``__slots__`` classes, not dataclasses:
importing ``dataclasses`` (and the ``inspect`` it loads) cost more than the
rest of ``import changekit``.  ``_Record`` and ``_FrozenRecord`` give them a
dataclass's equality, repr and, where frozen, hashing.

Every argument of the package passes one of three gates here: ``_real``
(and ``check_lambda``, its call for lambda) returns a finite float, positive
where the domain says so, or raises the caller's error class as ``<name> must
be a finite real|positive number, got <value>`` (a bool, numpy's too, or
text, though ``float()`` takes them); ``_integer`` refuses a non-int, and
``_text`` a non-str.
These refusals, and the range refusals elsewhere that print an argument,
show it through ``_shown``, which prints even an int too long for ``repr``.
"""
from __future__ import annotations

from math import inf

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


def _shown(value) -> str:
    """``repr(value)`` for a refusal message.  Python refuses to print an int
    of more than ``sys.get_int_max_str_digits()`` digits, so such an int shows
    as its sign and bit count, and a value that holds one as its type."""
    try:
        return repr(value)
    except ValueError:
        if isinstance(value, int):
            return f"<{'negative ' if value < 0 else ''}int of {value.bit_length()} bits>"
        return f"<{type(value).__name__}>"


#: What ``float()`` takes but ``_real`` refuses: a bool, and text.
_NOT_REAL = (bool, str, bytes, bytearray)
#: numpy's bool (``bool_`` before numpy 2), which is no ``bool``: by its
#: class's (module, name), so that this module imports no numpy.
_NUMPY_BOOLS = {("numpy", "bool"), ("numpy", "bool_")}


def _real(name: str, value, above: float = -inf, error: type = DomainError) -> float:
    """``value`` as a finite float greater than ``above``, which is -inf or, for a
    positive argument, 0.0; else ``error`` naming the argument."""
    if value.__class__ is float:
        if above < value < inf:
            return value
    elif not (isinstance(value, _NOT_REAL)
              or (value.__class__.__module__, value.__class__.__name__) in _NUMPY_BOOLS):
        try:
            value = float(value)
        except (TypeError, ValueError, OverflowError):
            pass
        else:
            if above < value < inf:
                return value
    kind = "real" if above == -inf else "positive"
    raise error(f"{name} must be a finite {kind} number, got {_shown(value)}")


def check_lambda(lam: float) -> float:
    """Validate the interpolation parameter: any finite real."""
    return _real("lambda", lam)


class PositivePair(_FrozenRecord):
    """An observation (x, y): past and present value, both strictly positive."""

    __slots__ = ("x", "y")
    x: float
    y: float

    def __init__(self, x: float, y: float):
        _set(self, "x", _real("past value", x, 0.0, ValidationError))
        _set(self, "y", _real("present value", y, 0.0, ValidationError))

    def scaled(self, c: float) -> "PositivePair":
        """The pair (c*x, c*y), c > 0."""
        c = _real("scale factor c", c, 0.0)
        return PositivePair(c * self.x, c * self.y)


def _integer(name: str, value) -> int:
    """``value`` if it is an int and not a bool, else ValidationError naming it."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ValidationError(f"{name} must be an integer, got {_shown(value)}")


def _text(name: str, value, error: type = ValidationError) -> str:
    """``value`` if it is a str, else ``error`` naming it."""
    if isinstance(value, str):
        return value
    raise error(f"{name} must be a string, got {_shown(value)}")


#: The default lambda of ``changekit verify`` and of ``SampleConfig``: the
#: symmetric choice between absolute and relative change.
DEFAULT_LAMBDA = 0.5


class SampleConfig(_FrozenRecord):
    """Sampling plan for one axiom check: the generator's seed, the number
    of samples, and the one lambda ``check_normed`` evaluates, as the point
    ``lambda_range = (lam, lam)``: a pair whose ends differ is refused.
    Pair coordinates and scale factors lie in ``axioms.VALUE_RANGE``.  The
    point stays a pair, not one float, until ``perfbench``, which builds it
    by this keyword, looks the signature up at run time (ROADMAP item 1).
    """

    __slots__ = ("seed", "count", "lambda_range")
    seed: int
    count: int
    lambda_range: tuple[float, float]

    def __init__(
        self,
        seed: int = 20260824,
        count: int = 10_000,
        lambda_range: tuple[float, float] = (DEFAULT_LAMBDA, DEFAULT_LAMBDA),
    ):
        if _integer("seed", seed) < 0:
            raise ValidationError(f"seed must be non-negative, got {_shown(seed)}")
        if _integer("sample count", count) < 1:
            raise ValidationError(f"sample count must be positive, got {_shown(count)}")
        try:
            lo, hi = lambda_range
        except (TypeError, ValueError):
            raise ValidationError(
                f"lambda_range must be a pair, got {_shown(lambda_range)}") from None
        lo = _real("lambda_range[0]", lo, -inf, ValidationError)
        hi = _real("lambda_range[1]", hi, -inf, ValidationError)
        if lo != hi:
            raise ValidationError(f"lambda_range must be one point (lam, lam), got {(lo, hi)}")
        _set(self, "seed", seed)
        _set(self, "count", count)
        _set(self, "lambda_range", (lo, hi))

    def rng(self):
        """A fresh ``numpy.random.Generator`` for the seed."""
        import numpy as np

        return np.random.default_rng(self.seed)
