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

from .basis import (
    MAX_LEGENDRE_ORDER,
    BasisKind,
    Interval,
    QuadratureRule,
    basis_integrals,
    eval_phi,
    gauss_rule,
    phi_matrix,
)
from .coefficients import (
    MAX_MULTIPLICITY,
    CoeffTensor,
    cache_load,
    cache_store,
    compute_tensor,
)
from .errors import (
    ArgumentError,
    CacheFormatError,
    CapabilityError,
    DomainError,
    StaleCacheError,
)
from .kernel import WeightPoly, WeightSpec, eval_K, eval_K_star, monomial_weight
from .oracle import (
    MeshPath,
    PairPartition,
    coarsen_path,
    discretize_ito,
    draw_path,
    enumerate_pair_partitions,
    strat_reference,
    table_from_path,
    truncated_moment,
)
from .rng import DOMAIN_PATH, DOMAIN_TABLE, normal_stream
from .sampler import (
    CLOSED_FORM_EXPONENTS,
    CLOSED_FORM_NAMES,
    GaussianTable,
    IntegralSpec,
    TruncationOrders,
    draw_table,
    sample_batch,
    sample_closed_form,
    sample_truncated,
)
from .sde_demo import (
    SCHEMES,
    ConvergenceResult,
    SdeProblem,
    convergence_study,
    gbm,
    integrate,
    two_noise,
)

__all__ = [
    "__version__",
    "MAX_LEGENDRE_ORDER",
    "MAX_MULTIPLICITY",
    "BasisKind",
    "Interval",
    "QuadratureRule",
    "basis_integrals",
    "eval_phi",
    "gauss_rule",
    "phi_matrix",
    "CoeffTensor",
    "cache_load",
    "cache_store",
    "compute_tensor",
    "ArgumentError",
    "CacheFormatError",
    "CapabilityError",
    "DomainError",
    "StaleCacheError",
    "WeightPoly",
    "WeightSpec",
    "eval_K",
    "eval_K_star",
    "monomial_weight",
    "MeshPath",
    "PairPartition",
    "coarsen_path",
    "discretize_ito",
    "draw_path",
    "enumerate_pair_partitions",
    "strat_reference",
    "table_from_path",
    "truncated_moment",
    "DOMAIN_PATH",
    "DOMAIN_TABLE",
    "normal_stream",
    "CLOSED_FORM_EXPONENTS",
    "CLOSED_FORM_NAMES",
    "GaussianTable",
    "IntegralSpec",
    "TruncationOrders",
    "draw_table",
    "sample_batch",
    "sample_closed_form",
    "sample_truncated",
    "SCHEMES",
    "ConvergenceResult",
    "SdeProblem",
    "convergence_study",
    "gbm",
    "integrate",
    "two_noise",
]
