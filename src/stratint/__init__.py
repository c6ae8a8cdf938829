"""Iterated Stratonovich integrals via generalized Fourier coefficient expansions."""

__version__ = "0.1.0"

import os as _os
import sys as _sys

# The package's matrix products are small, and a multithreaded BLAS only slows
# them, ~2x on a busy host. So when numpy is not loaded yet, its BLAS and
# OpenMP default to one thread; a value already in the environment is kept.
if "numpy" not in _sys.modules:
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        _os.environ.setdefault(_var, "1")

from . import basis, coefficients, errors, kernel, oracle, rng, sampler, sde_demo
from .basis import *  # noqa: F403
from .coefficients import *  # noqa: F403
from .errors import *  # noqa: F403
from .kernel import *  # noqa: F403
from .oracle import *  # noqa: F403
from .rng import *  # noqa: F403
from .sampler import *  # noqa: F403
from .sde_demo import *  # noqa: F403

__all__ = ["__version__"]
for _module in (basis, coefficients, errors, kernel, oracle, rng, sampler, sde_demo):
    __all__ += _module.__all__
del _module
