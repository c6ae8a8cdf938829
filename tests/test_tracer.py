"""The benchmark's span tracer still fits the package: every traced name is bound
where the tracer looks it up, and the work counts read the right arguments.

perfbench/tracer.py is loaded from the checkout and only read, never changed.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import stratint
import stratint.cli  # the tracer wraps names in every module its sites list
from stratint import coefficients, sampler, sde_demo
from stratint.basis import BasisKind, Interval
from stratint.kernel import WeightSpec

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    yield module
    del sys.modules[spec.name]


def _bound(tracer_module):
    """(owner, attribute name, object) of every name the tracer wraps."""
    found = []
    for site in tracer_module.SITES:
        for modname in site.modules:
            owner = getattr(stratint, modname)
            attr = site.func
            if "." in attr:
                cls, attr = attr.split(".")
                owner = getattr(owner, cls)
            # the tracer reads the owner's own namespace, so a name must be bound there
            assert attr in owner.__dict__, f"{owner.__name__} does not bind {attr}"
            found.append((owner, attr, owner.__dict__[attr]))
    return found


def test_every_site_binds_its_name(tracer_module):
    assert len(_bound(tracer_module)) == sum(len(s.modules) for s in tracer_module.SITES)


def test_install_and_uninstall_restore_every_name(tracer_module):
    before = _bound(tracer_module)
    tracer = tracer_module.Tracer(stratint)
    tracer.install()
    try:
        for owner, attr, original in before:
            wrapped = owner.__dict__[attr]
            assert wrapped is not original and wrapped.__wrapped__ is original
    finally:
        tracer.uninstall()
    for owner, attr, original in before:
        assert owner.__dict__[attr] is original


def test_traced_study_and_integrate_count_their_work(tracer_module):
    levels, n_paths, steps = (2, 4, 8, 16), 3, 5
    tracer = tracer_module.Tracer(stratint)
    tracer.install()
    try:
        # positional, as perfbench/workloads.py calls them: the work functions
        # read step_counts and n_paths, and steps, from args[2] and args[3]
        sde_demo.convergence_study(sde_demo.gbm(), "milstein", levels, n_paths, 7, 4)
        sde_demo.integrate(sde_demo.two_noise(), "milstein", steps, 7, 4)
    finally:
        tracer.uninstall()
    values, error, spans = tracer_module.analyse(tracer)
    assert values["sde_demo.studies"] == 1
    assert values["sde_demo.path_steps"] == n_paths * 16 * max(levels)
    assert values["sde_demo.integrate_steps"] == steps
    # the study and integrate draw raw words and convert only the normals their
    # scheme reads, below normal_stream, so the rng site sees none of their draws
    assert values["rng.calls"] == 0
    assert values["rng.variates"] == 0
    assert values["coefficients.builds"] == 0 and values["sampler.contractions"] == 0
    assert np.all(spans["end"] >= spans["start"])


@pytest.mark.parametrize("n, contractions", [(1, 0), (128, 2)])
def test_traced_sample_batch_counts_tables_and_contractions(tracer_module, n, contractions):
    # a block of fewer than _CERTIFY_ROWS rows sums both specs at once from
    # one draw, with no GaussianTable; a larger one draws a table and makes
    # one sample_truncated call per spec, whose work function reads the
    # truncation orders from args[3]
    iv = Interval(0.0, 0.01)
    ispecs, tensors, orders = [], [], []
    for exps, indices in (((0,), (1,)), ((0, 0), (1, 2))):
        spec = WeightSpec.from_exponents(exps)
        ispecs.append(sampler.IntegralSpec(spec=spec, indices=indices,
                                           basis=BasisKind.LEGENDRE, iv=iv))
        tensors.append(coefficients.compute_tensor(BasisKind.LEGENDRE, spec, iv, (4,) * len(exps)))
        orders.append(sampler.TruncationOrders.uniform(len(exps), 4))
    want = sampler.sample_batch(ispecs, tensors, 2, orders, 3, n)
    tracer = tracer_module.Tracer(stratint)
    tracer.install()
    try:
        got = sampler.sample_batch(ispecs, tensors, 2, orders, 3, n, 1)  # as workloads.py calls it
    finally:
        tracer.uninstall()
    assert got.tobytes() == want.tobytes()
    values, error, spans = tracer_module.analyse(tracer)
    assert values["sampler.batches"] == 1
    assert values["sampler.tables"] == (1 if n >= sampler._CERTIFY_ROWS else 0)
    assert values["rng.calls"] == 1  # both components in one draw
    assert values["rng.variates"] == n * 2 * 5
    assert values["sampler.contractions"] == contractions
    assert values["sampler.terms"] == (5 + 25 if contractions else 0)
    assert np.all(spans["end"] >= spans["start"])
