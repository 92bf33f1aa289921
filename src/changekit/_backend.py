# The package has one kernel module.  These two names stay for callers of
# `_backend.kernels` and for `changekit.BACKEND`, which reports it.
from . import _kernels_py as kernels

BACKEND = "python"
