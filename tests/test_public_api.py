import inspect
import json

import changekit
from test_kernels import run_fresh


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


def test_import_loads_only_the_backend_shim_and_names_load_on_first_read():
    out = json.loads(run_fresh(LAZY_IMPORT))
    assert out["import"] == ["changekit", "changekit._backend", "changekit._kernels_py"]
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
