"""The kernel module: batch and scalar paths agree, and the package reports it."""
import math

import numpy as np
import pytest

from changekit import BACKEND, EconFunction, elasticity_quotient, quantity_indicator
from changekit._backend import kernels


def sample_inputs(n=500, seed=42):
    rng = np.random.default_rng(seed)
    xs = np.exp(rng.uniform(math.log(1e-3), math.log(1e3), n))
    ys = np.exp(rng.uniform(math.log(1e-3), math.log(1e3), n))
    return xs, ys


def test_batch_matches_scalar_same_backend():
    xs, ys = sample_inputs(200)
    out = np.empty(len(xs))
    for lam in (-1.0, 0.0, 0.5, 1.0, 2.0):
        kernels.f_many(lam, xs, ys, out)
        for i in range(0, len(xs), 17):
            assert out[i] == pytest.approx(kernels.f_scalar(lam, xs[i], ys[i]), rel=1e-15)
        kernels.F_many(lam, xs, ys, out)
        for i in range(0, len(xs), 17):
            assert out[i] == pytest.approx(kernels.F_scalar(lam, xs[i], ys[i]), rel=1e-15)


def test_default_backend_reported():
    assert BACKEND == "python"


def test_f_endpoints_are_the_classical_formulas_bitwise():
    # x**0.0 == 1.0 and x**1.0 == x exactly, subnormal x included, so the
    # general expressions need no endpoint branch anywhere in the range.
    rng = np.random.default_rng(7)
    n = 2000
    xs = np.exp(rng.uniform(math.log(1e-320), math.log(1e308), n))
    ys = np.exp(rng.uniform(math.log(1e-320), math.log(1e308), n))
    pairs = list(zip(xs.tolist(), ys.tolist()))
    steps = [(x, y - x) for x, y in pairs if y != x and x + (y - x) > 0]
    g = math.sqrt
    sqrt = EconFunction("sqrt", g)
    classical = {
        0.0: (lambda x, y: y - x, lambda x, y: y,
              lambda x, h: (g(x + h) - g(x)) / h),
        1.0: (lambda x, y: (y - x) / x, lambda x, y: y / x,
              lambda x, h: ((g(x + h) - g(x)) / g(x)) / (h / x)),
    }

    def bits(values):
        return np.asarray(values, dtype=float).view(np.int64)

    for lam, (f_ref, q_ref, e_ref) in classical.items():
        want = bits([f_ref(x, y) for x, y in pairs])
        assert np.array_equal(bits([kernels.f_scalar(lam, x, y) for x, y in pairs]), want)
        out = np.empty(n)
        with np.errstate(over="ignore"):  # y / x overflows for subnormal x
            kernels.f_many(lam, xs, ys, out)
        assert np.array_equal(bits(out), want)
        assert np.array_equal(bits([quantity_indicator(lam, x, y) for x, y in pairs]),
                              bits([q_ref(x, y) for x, y in pairs]))
        assert np.array_equal(bits([elasticity_quotient(lam, sqrt, x, h) for x, h in steps]),
                              bits([e_ref(x, h) for x, h in steps]))
