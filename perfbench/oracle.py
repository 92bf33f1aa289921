"""High-precision references computed apart from changekit.

Every reference takes the exact binary value of the program's float inputs
(``Decimal(float)`` is exact) and evaluates the paper's closed forms in a
50-digit ``decimal`` context, so its own rounding is far below the
double-precision errors being checked.
"""
from __future__ import annotations

import decimal
from decimal import Decimal

CTX = decimal.Context(prec=50)

#: Unit roundoff of IEEE double precision.
EPS = 2.0**-52


def D(v: float) -> Decimal:
    return Decimal(v)


def power(x: Decimal, e: float) -> Decimal:
    """x**e for x > 0; integer and half-integer exponents take exact paths."""
    if e == 0.0:
        return Decimal(1)
    if e == int(e):
        return CTX.power(x, int(e))
    if e == 0.5:
        return CTX.sqrt(x)
    return CTX.power(x, D(e))


def f_ref(lam: float, x: Decimal, y: Decimal) -> Decimal:
    """f_lam(x, y) = (y - x) / x**lam."""
    return CTX.divide(CTX.subtract(y, x), power(x, lam))


def F_ref(lam: float, x: Decimal, y: Decimal) -> Decimal:
    """F_lam(x, y) = (y**u - x**u) / u with u = 1 - lam, ln(y / x) at lam = 1."""
    if lam == 1.0:
        return CTX.subtract(CTX.ln(y), CTX.ln(x))
    u = 1.0 - lam
    return CTX.divide(CTX.subtract(power(y, u), power(x, u)), D(u))


def F_terms(lam: float, x: float, y: float) -> float:
    """Magnitude of the two terms that cancel in F_lam; the scale of its rounding."""
    if lam == 1.0:
        return abs(float(CTX.ln(D(x)))) + abs(float(CTX.ln(D(y)))) + 1.0
    u = 1.0 - lam
    return (x**u + y**u) / abs(u)


def rel_error(value: float, ref: Decimal) -> float:
    if ref == 0:
        return 0.0 if value == 0.0 else float("inf")
    return abs(float(CTX.divide(CTX.subtract(D(value), ref), ref)))


# -- indicators under `changekit verify`, in exact arithmetic ----------------

def indicator(target: str, lam: float):
    """The indicator a verify target checks, as a map of Decimals."""
    if target == "f":
        return lambda x, y: f_ref(lam, x, y)
    if target == "F":
        return lambda x, y: F_ref(lam, x, y)
    if target == "rel":
        return lambda x, y: CTX.divide(y - x, x)
    if target == "abs":
        return lambda x, y: y - x
    if target == "log":
        return lambda x, y: CTX.ln(y) - CTX.ln(x)
    raise ValueError(f"unknown verify target {target!r}")


def _norm(v: Decimal) -> Decimal:
    return max(Decimal(1), abs(v))


def identity_residual(prop: str, ind, case: dict) -> float:
    """The residual of one axiom at a reported worst case, normalized as the
    checkers normalize it (by max(1, |reference side|))."""
    with decimal.localcontext(CTX):
        c = {k: D(v) for k, v in case.items()}
        if prop == "affine_linearity":
            t = c["t"]
            ym = (1 - t) * c["y1"] + t * c["y2"]
            lhs = ind(c["x"], ym)
            rhs = (1 - t) * ind(c["x"], c["y1"]) + t * ind(c["x"], c["y2"])
            return float(abs(lhs - rhs) / _norm(rhs))
        if prop == "vartia_invariance":
            base = ind(c["x"], c["y"])
            return float(abs(ind(c["C"] * c["x"], c["C"] * c["y"]) - base) / _norm(base))
        if prop == "antisymmetry":
            fwd = ind(c["x"], c["y"])
            return float(abs(fwd + ind(c["y"], c["x"])) / _norm(fwd))
        if prop == "additivity":
            rhs = ind(c["x"], c["z"])
            return float(abs(ind(c["x"], c["y"]) + ind(c["y"], c["z"]) - rhs) / _norm(rhs))
        if prop == "relative_scaling":
            cx2, cy2 = c["C"] * c["x2"], c["C"] * c["y2"]
            lhs = ind(c["x"], c["y"]) * ind(cx2, cy2)
            rhs = ind(c["x2"], c["y2"]) * ind(c["C"] * c["x"], c["C"] * c["y"])
            return float(abs(lhs - rhs) / _norm(lhs))
    raise ValueError(f"no exact re-evaluation for property {prop!r}")
