"""The package's public surface: `stratint.__all__` and what importing it does."""

import ast
import glob
import json
import os
import subprocess
import sys

import pytest

import stratint
from stratint import basis, coefficients, errors, kernel, oracle, rng, sampler, sde_demo

SRC = os.path.dirname(os.path.dirname(stratint.__file__))
SUBMODULES = (basis, coefficients, errors, kernel, oracle, rng, sampler, sde_demo)

# the names `from stratint import *` binds
PUBLIC = {
    "__version__",
    "MAX_LEGENDRE_ORDER", "BasisKind", "Interval", "QuadratureRule", "basis_integrals",
    "gauss_rule", "phi_matrix",
    "MAX_MULTIPLICITY", "CoeffTensor", "cache_load", "cache_store", "compute_tensor",
    "ArgumentError", "CacheFormatError", "CapabilityError", "DomainError", "StaleCacheError",
    "WeightPoly", "WeightSpec", "eval_K", "eval_K_star", "monomial_weight",
    "PairPartition", "enumerate_pair_partitions", "truncated_moment",
    "DOMAIN_PATH", "DOMAIN_TABLE", "normal_stream",
    "CLOSED_FORM_EXPONENTS", "CLOSED_FORM_NAMES", "GaussianTable", "IntegralSpec",
    "TruncationOrders", "draw_table", "sample_batch", "sample_closed_form", "sample_truncated",
    "SCHEMES", "ConvergenceResult", "SdeProblem", "convergence_study", "gbm", "integrate",
    "two_noise",
}


def test_all_is_version_plus_each_submodules_all():
    want = ["__version__"] + [name for module in SUBMODULES for name in module.__all__]
    assert stratint.__all__ == want
    assert len(set(want)) == len(want) == 45


@pytest.mark.parametrize("module", SUBMODULES, ids=lambda m: m.__name__)
def test_each_public_name_is_the_submodules_own_object(module):
    for name in module.__all__:
        assert getattr(stratint, name) is getattr(module, name), name


def test_star_import_binds_the_public_names():
    namespace = {}
    exec("from stratint import *", namespace)
    assert set(namespace) - {"__builtins__"} == PUBLIC


def test_blas_threads_are_pinned_before_numpy_loads():
    # a fresh interpreter records the BLAS variable as numpy's import starts
    body = """
import importlib.abc, json, os, sys
seen = []
class Spy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path, target=None):
        if name == "numpy" and not seen:
            seen.append(os.environ.get("OPENBLAS_NUM_THREADS"))
sys.meta_path.insert(0, Spy())
import stratint
print(json.dumps(seen))
"""
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", body], capture_output=True, env=env,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == ["1"]


def test_test_helpers_stay_out_of_the_package():
    # the mesh oracle is test code (tests/mesh.py) and eval_phi is gone; with
    # them went the package's one use of numpy.polynomial
    body = """
import json, sys
import stratint
from stratint import oracle
gone = ("MeshPath", "draw_path", "coarsen_path", "table_from_path", "discretize_ito",
        "strat_reference", "eval_phi")
print(json.dumps([[n for n in gone if hasattr(stratint, n) or hasattr(oracle, n)],
                  [m for m in sys.modules if m.startswith("numpy.polynomial")]]))
"""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", body], capture_output=True, env=env,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [[], []]


def _index_calls(path):
    """The lines of path that call operator.index or import it from operator."""
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    return [node.lineno for node in ast.walk(tree)
            if (isinstance(node, ast.Attribute) and node.attr == "index"
                and isinstance(node.value, ast.Name) and node.value.id == "operator")
            or (isinstance(node, ast.ImportFrom) and node.module == "operator"
                and any(alias.name == "index" for alias in node.names))]


def test_errors_holds_the_one_integer_check():
    # errors._whole is the package's one integer check: no other module calls
    # operator.index, so none can grow a second check that accepts other values
    paths = sorted(glob.glob(os.path.join(SRC, "stratint", "*.py")))
    found = {os.path.basename(p): _index_calls(p) for p in paths}
    assert found.pop("errors.py")
    assert {name: lines for name, lines in found.items() if lines} == {}
