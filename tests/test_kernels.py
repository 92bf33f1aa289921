"""The kernel module: batch and scalar paths agree, the package reports it,
and numpy loads only where a batch needs it."""
import ast
import json
import math
import os
import subprocess
import sys
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
from changekit import axioms, cli
from changekit.axioms import F_indicator, SampleConfig, f_indicator


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


@pytest.mark.parametrize("lam", [-1.5, -1.0, 0.0, 0.25, 0.5, 1.0, 2.0, 5.0, 1e-9])
def test_batch_kernels_write_the_formula_bitwise_into_out(lam):
    # Every element of out keeps the bits of the formula over the whole
    # arrays, at any length and shape, through any view.
    B = axioms.BLOCK
    formulas = {"f_many": kernels.f_scalar, "F_many": kernels._F(np.log, np.expm1)}

    def bits(values):
        return np.asarray(values, dtype=float).view(np.int64)

    for name, formula in formulas.items():
        many = getattr(kernels, name)
        for n in (0, 1, B - 1, B, B + 1, 3 * B + 7):
            xs, ys = sample_inputs(n)
            out = np.empty(n)
            assert many(lam, xs, ys, out) is out
            assert np.array_equal(bits(out), bits(formula(lam, xs, ys)))
        # 2-D, as check_normed passes them, and a column broadcast over rows.
        xs, ys = (a.reshape(-1, 4) for a in sample_inputs(4 * (B + 3)))
        for x in (xs, xs[:, :1]):
            out = np.empty(ys.shape)
            many(lam, x, ys, out)
            assert np.array_equal(bits(out), bits(formula(lam, x, ys)))
        # A view that no flat array can alias: only its own elements change.
        buf = np.full((len(xs), 8), -7.0)
        many(lam, xs, ys, buf[:, 2:6])
        assert np.array_equal(bits(buf[:, 2:6]), bits(formula(lam, xs, ys)))
        assert np.all(buf[:, :2] == -7.0) and np.all(buf[:, 6:] == -7.0)
        # A 0-d out, from 0-d arrays and from floats.
        x, y = xs[5, 1], ys[5, 1]
        for args in ((np.array(x), np.array(y)), (float(x), float(y))):
            out = np.empty(())
            assert many(lam, *args, out) is out
            assert bits(out) == bits(formula(lam, x, y))


def run_fresh(code: str, *args: str) -> str:
    """Stdout of ``code`` run with ``args`` in a fresh interpreter that
    imports this same changekit, checkout or installed package."""
    env = dict(os.environ)
    root = str(Path(changekit.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


#: Child code: call the batch kernels named in argv[1], each (lam, kernel)
#: in order, on the grid in argv[2]; print whether numpy was loaded before
#: the first call and after it, and the hex of every value.  ``out`` is a
#: stdlib buffer that the kernels write through, so the child itself never
#: imports numpy.
LAZY_CALLS = """
import array, json, sys
from changekit import _kernels_py as kernels

calls, (xs, ys) = json.loads(sys.argv[1]), json.loads(sys.argv[2])
loaded = ["numpy" in sys.modules]
values = []
for lam, name in calls:
    out = array.array("d", bytes(8 * len(xs)))
    values.append([v.hex() for v in getattr(kernels, name)(lam, xs, ys, out).tolist()])
    loaded.append("numpy" in sys.modules)
print(json.dumps([loaded, values]))
"""


@pytest.mark.parametrize("names", [("f_many", "F_many"), ("F_many", "f_many")],
                         ids=["f_many-first", "F_many-first"])
def test_first_batch_call_binds_numpy(names):
    # Importing the kernels loads no numpy; the first batch call does, and
    # it gives the same bits as the kernels bound in this process.
    xs, ys = sample_inputs(200)
    calls = [(lam, name) for name in names for lam in (-1.0, 0.0, 0.5, 1.0, 2.0)]
    loaded, values = json.loads(run_fresh(LAZY_CALLS, json.dumps(calls),
                                          json.dumps([xs.tolist(), ys.tolist()])))
    assert loaded == [False] + [True] * len(calls)
    out = np.empty(len(xs))
    for (lam, name), got in zip(calls, values):
        want = getattr(kernels, name)(lam, xs, ys, out)
        assert got == [v.hex() for v in want.tolist()]
        scalar = kernels.f_scalar if name == "f_many" else kernels.F_scalar
        for i in range(0, len(xs), 17):
            assert float.fromhex(got[i]) == pytest.approx(scalar(lam, xs[i], ys[i]), rel=1e-15)


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


def test_verify_calls_the_batch_kernels_one_block_at_a_time(monkeypatch):
    # The checkers are the one layer that blocks: a kernel call covers at
    # most BLOCK samples, and normed's 2-D rows one sample per h-fraction.
    shapes = []
    for name in ("f_many", "F_many"):
        batch = getattr(kernels, name)
        monkeypatch.setattr(kernels, name, lambda *args, batch=batch:
                            shapes.append(np.shape(args[3])) or batch(*args))
    cfg = SampleConfig(count=3 * axioms.BLOCK + 7)
    for target in cli._VERIFY_PLAN:
        cli.run_verify(target, 0.5, cfg)
    # A shape's first axis is its samples; normed's second its h-fractions.
    assert {len(shape) for shape in shapes} == {1, 2}
    assert max(shape[0] for shape in shapes) == axioms.BLOCK
    assert {shape[1:] for shape in shapes if len(shape) == 2} == {(len(axioms.NORMED_H_FRACTIONS),)}


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


def test_no_module_of_the_package_imports_the_backend_shim():
    # The package's modules import the kernel module directly; the shim
    # loads only when `changekit.BACKEND` or `changekit._backend` is read.
    importers = {name for name, node in _package_nodes() if "_backend" in _imported_parts(node)}
    assert importers == set()


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


def _numpy_imports():
    """(file name, innermost enclosing function or None) for every import of
    numpy in the package."""
    def visit(name, node, function):
        for child in ast.iter_child_nodes(node):
            if "numpy" in _imported_parts(child):
                yield name, function
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else function
            yield from visit(name, child, inner)

    for path in Path(changekit.__file__).parent.glob("*.py"):
        yield from visit(path.name, ast.parse(path.read_text()), None)


def test_only_axioms_imports_numpy_at_module_level():
    # `import changekit` loads no numpy: the batch adapter and the sampling
    # plan's generator import it in the function that needs it.
    assert sorted(_numpy_imports(), key=str) == [
        ("_kernels_py.py", "many"), ("axioms.py", None), ("types.py", "rng")]


def test_no_module_imports_dataclasses_or_typing():
    # Both cost milliseconds at import (dataclasses pulls in inspect, ast,
    # dis and tokenize); the value types are plain classes, and annotations
    # take their abstract types from collections.abc.
    assert not {name for name, node in _package_nodes()
                if _imported_parts(node) & {"dataclasses", "typing"}}


#: Child code: import changekit, then run each argv of argv[1] through
#: cli.main; print which of numpy, dataclasses and inspect were loaded and
#: which changekit modules, after the import and after each command, with
#: each command's exit code and stdout.
CLI_RUNS = """
import contextlib, io, json, sys
def loaded():
    return [name in sys.modules for name in ("numpy", "dataclasses", "inspect")]
def ours():
    return [name for name in sys.modules if name.partition(".")[0] == "changekit"]
import changekit
runs = [["import", loaded(), ours(), 0, ""]]
from changekit import cli
runs.append(["import cli", loaded(), ours(), 0, ""])
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    runs.append([argv[0], loaded(), ours(), code, out.getvalue()])
print(json.dumps(runs))
"""


def test_only_verify_loads_numpy(tmp_path):
    data = tmp_path / "data.csv"
    data.write_text("label,past,present\nI,10,20\nII,500,570\n")
    argvs = [
        ["rank", str(data), "--format", "json"],
        ["rank", str(data), "--indicator", "F"],
        ["compare", "--ref", "10,20", "--cmp", "80,135"],
        ["calibrate", "--ref", "10,20", "--cmp", "80,135"],
        ["elasticity", "--fn", "power:A=5,k=0.3", "--x", "2"],
        ["plot-data", "--points", "3"],
        ["verify", "--target", "F", "--lambda", "0.5", "--samples", "200"],
    ]
    runs = json.loads(run_fresh(CLI_RUNS, json.dumps(argvs)))
    # Only numpy loads inspect; nothing loads dataclasses.
    none, numpy = [False, False, False], [True, False, True]
    assert [(name, loaded, code) for name, loaded, _, code, _ in runs] == [
        ("import", none, 0), ("import cli", none, 0), ("rank", none, 0), ("rank", none, 0),
        ("compare", none, 0), ("calibrate", none, 0), ("elasticity", none, 0),
        ("plot-data", none, 0), ("verify", numpy, 0)]
    # Each changekit module loads with the first command that uses it.
    before = [[]] + [ours for _, _, ours, _, _ in runs]
    assert [sorted(set(now) - set(then)) for then, now in zip(before, before[1:])] == [
        ["changekit"],
        ["changekit._kernels_py", "changekit.cli", "changekit.core", "changekit.errors",
         "changekit.types"],
        [], [], [], ["changekit.calibration"], ["changekit.elasticity"],
        ["changekit.approximation"], ["changekit.axioms"]]
    assert all(out for _, _, _, _, out in runs[2:])
    golden = Path(__file__).resolve().parent / "golden" / "verify_F_lam0.5_samples200.json"
    assert runs[-1][4] == golden.read_text()
