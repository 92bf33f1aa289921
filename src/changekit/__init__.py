"""changekit: one-parameter families of change indicators.

The family f interpolates absolute and relative change; its antisymmetric,
additive counterpart F interpolates absolute change and the log-ratio.
Alongside the evaluators the package ships calibration of the interpolation
parameter, Taylor/Box-Cox approximation machinery, generalized elasticity
and a randomized axiom-verification suite with a CLI frontend.
"""
from ._backend import BACKEND
from .approximation import (
    box_cox,
    linearization_residual,
    remainder_bound,
    taylor_F,
    taylor_coefficient,
)
from .calibration import (
    CalibrationInput,
    calibrate_lambda,
    doubling_example,
    mrs_cobb_douglas,
    symmetric_scaling_residual,
)
from .core import (
    abs_change,
    cobb_douglas_f,
    eval_F,
    eval_f,
    log_ratio,
    quantity_indicator,
    rel_change,
    relative_comparison,
)
from .elasticity import (
    EconFunction,
    classical_elasticity,
    elasticity_quotient,
    generalized_elasticity,
    marginal,
)
from .errors import (
    ChangekitError,
    DomainError,
    EqualPastValuesError,
    NumericalError,
    ParseError,
    SignMismatchError,
    StagnantPairError,
    ValidationError,
)
from .types import PositivePair

__version__ = "0.1.0"

__all__ = [
    "BACKEND",
    "CalibrationInput",
    "ChangekitError",
    "DomainError",
    "EconFunction",
    "EqualPastValuesError",
    "NumericalError",
    "ParseError",
    "PositivePair",
    "SignMismatchError",
    "StagnantPairError",
    "ValidationError",
    "abs_change",
    "box_cox",
    "calibrate_lambda",
    "classical_elasticity",
    "cobb_douglas_f",
    "doubling_example",
    "elasticity_quotient",
    "eval_F",
    "eval_f",
    "generalized_elasticity",
    "linearization_residual",
    "log_ratio",
    "marginal",
    "mrs_cobb_douglas",
    "quantity_indicator",
    "rel_change",
    "relative_comparison",
    "remainder_bound",
    "symmetric_scaling_residual",
    "taylor_F",
    "taylor_coefficient",
]
