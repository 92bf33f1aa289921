"""The kernel module: batch and scalar paths agree, and the package reports it."""
import math

import numpy as np
import pytest

from changekit import BACKEND


def sample_inputs(n=500, seed=42):
    rng = np.random.default_rng(seed)
    xs = np.exp(rng.uniform(math.log(1e-3), math.log(1e3), n))
    ys = np.exp(rng.uniform(math.log(1e-3), math.log(1e3), n))
    return xs, ys


def test_batch_matches_scalar_same_backend():
    from changekit._backend import kernels

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
