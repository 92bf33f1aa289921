import ast
import importlib
import inspect
import json
import pkgutil
import re
from pathlib import Path

import changekit
from test_kernels import run_fresh

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_exported_name_resolves():
    missing = [name for name in changekit.__all__ if not hasattr(changekit, name)]
    assert missing == []
    assert len(set(changekit.__all__)) == len(changekit.__all__)


def test_every_public_class_and_function_is_exported():
    # Names load on first read, so resolve every listed one before reading vars.
    for name in dir(changekit):
        getattr(changekit, name)
    public = {
        name
        for name, obj in vars(changekit).items()
        if not name.startswith("_") and (inspect.isclass(obj) or inspect.isfunction(obj))
    }
    assert sorted(public - set(changekit.__all__)) == []


#: Child code: import changekit in a fresh interpreter and print what the
#: import loaded, what each exported name and submodule resolves to, and
#: what `from changekit import *` and an unknown name give.
LAZY_IMPORT = """
import json, sys
def ours():
    return sorted(name for name in sys.modules if name.partition(".")[0] == "changekit")
import changekit
out = {"import": ours(), "listed": sorted(set(changekit.__all__) - set(dir(changekit)))}
defined_in = {}
for name in changekit.__all__:
    obj = getattr(changekit, name)
    module = "changekit._backend" if name == "BACKEND" else obj.__module__
    same = obj is vars(sys.modules[module])[name] and obj is vars(changekit)[name]
    defined_in[name] = module if same else None
out["defined_in"] = defined_in
out["submodules"] = {name: getattr(changekit, name) is sys.modules["changekit." + name]
                     for name in ("core", "types", "errors", "approximation", "calibration",
                                  "elasticity", "_backend", "_kernels_py")}
star = {}
exec("from changekit import *", star)
out["star"] = sorted(name for name in star
                     if name != "__builtins__" and star[name] is getattr(changekit, name))
for name in ("x", "axioms"):
    try:
        getattr(changekit, name)
    except AttributeError as exc:
        out[name] = str(exc)
out["after"] = ours() + ["numpy"] * ("numpy" in sys.modules)
print(json.dumps(out))
"""


def test_import_loads_the_package_module_alone_and_names_load_on_first_read():
    out = json.loads(run_fresh(LAZY_IMPORT))
    assert out["import"] == ["changekit"]
    assert out["listed"] == []  # dir() lists every name before it is read
    # Every exported name is its defining module's object, bound in the package.
    assert all(module is not None and module.startswith("changekit.")
               for module in out["defined_in"].values()), out["defined_in"]
    assert set(out["defined_in"]) == set(changekit.__all__)
    assert all(out["submodules"].values()), out["submodules"]
    assert out["star"] == sorted(changekit.__all__)
    # An unknown name, and a submodule that no export needs, raise as before.
    assert out["x"] == "module 'changekit' has no attribute 'x'"
    assert out["axioms"] == "module 'changekit' has no attribute 'axioms'"
    assert "changekit.axioms" not in out["after"] and "numpy" not in out["after"]


def _readme_block(heading, language):
    """The first ``language`` code block of the README's ``## heading`` section."""
    section = README.read_text().split(f"## {heading}\n", 1)[1]
    return section.split(f"```{language}\n", 1)[1].split("```", 1)[0]


def test_readme_library_example_shows_each_value():
    # A line that ends in `# value, ...` shows the repr of its result: the
    # whole of it, or its first digits where the value ends in "...".
    block = _readme_block("Library example", "python")
    lines = block.splitlines()
    namespace = {}
    shown = 0
    for node in ast.parse(block).body:
        comment = lines[node.end_lineno - 1][node.end_col_offset:].strip()
        if not (isinstance(node, ast.Expr) and comment.startswith("#")):
            exec(compile(ast.Module([node], []), str(README), "exec"), namespace)
            continue
        got = repr(eval(compile(ast.Expression(node.value), str(README), "eval"), namespace))
        value = re.split(r"[,\s]", comment[1:].strip(), maxsplit=1)[0]
        if value.endswith("..."):
            assert got.startswith(value[:-3]), (value, got)
        else:
            assert got == value, (value, got)
        shown += 1
    assert shown >= 5


def _readme_module_names():
    """Every dotted name in a backticked span of the README, outside code
    blocks, that starts with ``changekit`` or one of its modules."""
    modules = ["changekit"] + [m.name for m in pkgutil.iter_modules(changekit.__path__)]
    text = re.sub(r"```.*?```", "", README.read_text(), flags=re.S)
    dotted = re.compile(rf"(?<![\w.])(?:{'|'.join(modules)})(?:\.\w+)+")
    return [name for span in re.findall(r"`([^`]+)`", text) for name in dotted.findall(span)]


def _resolve(dotted):
    """The object ``dotted`` names, ``changekit.`` implied; a submodule is
    imported where it has not been read yet."""
    first, *attributes = dotted.split(".")
    obj = importlib.import_module("changekit" if first == "changekit" else f"changekit.{first}")
    for attribute in attributes:
        if inspect.ismodule(obj) and not hasattr(obj, attribute):
            importlib.import_module(f"{obj.__name__}.{attribute}")
        obj = getattr(obj, attribute)
    return obj


def test_every_module_name_the_readme_shows_resolves():
    names = _readme_module_names()
    assert len(names) >= 20
    unresolved = []
    for name in names:
        try:
            _resolve(name)
        except (AttributeError, ImportError):
            unresolved.append(name)
    assert unresolved == []
