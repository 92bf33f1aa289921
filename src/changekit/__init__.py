"""changekit: one-parameter families of change indicators.

The family f interpolates absolute and relative change; its antisymmetric,
additive counterpart F interpolates absolute change and the log-ratio.
Alongside the evaluators the package ships calibration of the interpolation
parameter, Taylor/Box-Cox approximation machinery, generalized elasticity
and a randomized axiom-verification suite with a CLI frontend.

``import changekit`` loads only the ``_backend`` shim and the kernel module.
Every other public name, and every module named in ``_EXPORTS``, is loaded
on first read (PEP 562): ``__getattr__`` imports the module that defines the
name and binds the name here, so later reads are plain lookups.
"""
from ._backend import BACKEND

__version__ = "0.1.0"

#: The package's one list of exports: each module and the public names it
#: defines.  ``__all__`` and ``__dir__`` are derived from it.
_EXPORTS = {
    "_backend": ("BACKEND",),
    "approximation": ("box_cox", "linearization_residual", "remainder_bound", "taylor_F",
                      "taylor_coefficient"),
    "calibration": ("CalibrationInput", "calibrate_lambda", "doubling_example",
                    "mrs_cobb_douglas", "symmetric_scaling_residual"),
    "core": ("abs_change", "cobb_douglas_f", "eval_F", "eval_f", "log_ratio",
             "quantity_indicator", "rel_change", "relative_comparison"),
    "elasticity": ("EconFunction", "classical_elasticity", "elasticity_quotient",
                   "generalized_elasticity", "marginal"),
    "errors": ("ChangekitError", "DomainError", "EqualPastValuesError", "NumericalError",
               "ParseError", "SignMismatchError", "StagnantPairError", "ValidationError"),
    "types": ("PositivePair",),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    """The public name or submodule ``name``, imported on first read and bound here."""
    from importlib import import_module

    module = _MODULE_OF.get(name, name if name in _EXPORTS else None)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = import_module(f".{module}", __name__)
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODULE_OF, *_EXPORTS})
