"""The kernel module: batch and scalar paths agree, and the package reports it."""
import ast
import math
from pathlib import Path

import numpy as np
import pytest

import changekit
from changekit import (
    BACKEND,
    EconFunction,
    NumericalError,
    PositivePair,
    elasticity_quotient,
    eval_F,
    quantity_indicator,
)
from changekit import _kernels_py as kernels
from changekit.axioms import F_indicator, f_indicator


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
    # quantity_indicator and elasticity_quotient refuse a value that is not
    # finite, such as y / x for subnormal x, where the formula gives inf or nan.
    rng = np.random.default_rng(7)
    n = 2000
    xs = np.exp(rng.uniform(math.log(1e-320), math.log(1e308), n))
    ys = np.exp(rng.uniform(math.log(1e-320), math.log(1e308), n))
    pairs = list(zip(xs.tolist(), ys.tolist()))
    steps = [(x, y - x) for x, y in pairs if y != x and x + (y - x) > 0]
    g = math.sqrt
    sqrt = EconFunction("sqrt", g, lambda x: 0.5 / g(x))
    classical = {
        0.0: (lambda x, y: y - x, lambda x, y: y,
              lambda x, h: (g(x + h) - g(x)) / h),
        1.0: (lambda x, y: (y - x) / x, lambda x, y: y / x,
              lambda x, h: ((g(x + h) - g(x)) / g(x)) / (h / x)),
    }

    def bits(values):
        return np.asarray(values, dtype=float).view(np.int64)

    def assert_bitwise_or_refused(checked, ref, lam, args):
        want = [ref(*a) for a in args]
        finite = [a for a, w in zip(args, want) if math.isfinite(w)]
        assert np.array_equal(bits([checked(lam, *a) for a in finite]),
                              bits([w for w in want if math.isfinite(w)]))
        for a in set(args) - set(finite):
            with pytest.raises(NumericalError):
                checked(lam, *a)

    for lam, (f_ref, q_ref, e_ref) in classical.items():
        want = bits([f_ref(x, y) for x, y in pairs])
        assert np.array_equal(bits([kernels.f_scalar(lam, x, y) for x, y in pairs]), want)
        out = np.empty(n)
        with np.errstate(over="ignore"):  # y / x overflows for subnormal x
            kernels.f_many(lam, xs, ys, out)
        assert np.array_equal(bits(out), want)
        assert_bitwise_or_refused(quantity_indicator, q_ref, lam, pairs)
        assert_bitwise_or_refused(lambda lam, x, h: elasticity_quotient(lam, sqrt, x, h),
                                  e_ref, lam, steps)


@pytest.mark.parametrize("lam", [1.5, 2.0, 5.0, 20.0])
def test_stagnant_F_is_positive_zero(lam):
    # With u = 1 - lam < 0 the general form divides 0.0 by a negative u.
    xs = np.array([1e-3, 0.37, 1.0, 42.0, 1e3])
    out = np.empty(len(xs))
    kernels.F_many(lam, xs, xs, out)
    values = [eval_F(lam, PositivePair(x, x)) for x in xs.tolist()] + out.tolist()
    assert all(v == 0.0 and math.copysign(1.0, v) == 1.0 for v in values)


@pytest.mark.parametrize("indicator, name", [(f_indicator, "f_many"), (F_indicator, "F_many")])
def test_indicators_call_the_batch_kernel_when_they_run(monkeypatch, indicator, name):
    # The indicator looks the kernel up at each call, so a patch made after
    # it was built still applies.
    calls = []
    batch = getattr(kernels, name)
    fn = indicator(0.5)
    monkeypatch.setattr(kernels, name, lambda *args: calls.append(args) or batch(*args))
    xs, ys = sample_inputs(10)
    out = fn(xs, ys)
    assert len(calls) == 1 and calls[0][3] is out


def _package_nodes():
    """(file name, node) for every AST node of every module of the package."""
    for path in Path(changekit.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            yield path.name, node


def _imported_parts(node) -> set[str]:
    """The dotted parts of the names an import statement names; empty for other nodes."""
    if not isinstance(node, (ast.Import, ast.ImportFrom)):
        return set()
    names = [getattr(node, "module", None) or ""] + [a.name for a in node.names]
    return {part for name in names for part in name.split(".")}


def test_only_the_package_init_imports_the_backend_shim():
    importers = {name for name, node in _package_nodes() if "_backend" in _imported_parts(node)}
    assert importers == {"__init__.py"}


def test_only_the_cli_does_io():
    # The library returns values and raises; reading and writing streams is
    # the command line's part.
    doers = {
        name for name, node in _package_nodes()
        if _imported_parts(node) & {"sys", "csv"}
        or isinstance(node, ast.Call) and getattr(node.func, "id", None) == "print"
    }
    assert doers == {"cli.py"}


def test_no_module_imports_os():
    # Options are the only inputs: no module reads the environment.
    assert not {name for name, node in _package_nodes() if "os" in _imported_parts(node)}
