# The package has one kernel module, which changekit's modules import
# directly.  These two names stay for `changekit.BACKEND`, which reports it,
# and for outside callers of `_backend.kernels`.
from . import _kernels_py as kernels

BACKEND = "python"
