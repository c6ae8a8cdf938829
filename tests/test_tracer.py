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
from stratint import sde_demo

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
    # the study draws one stream per path, integrate one stream per component
    assert values["rng.calls"] == n_paths + 2
    assert values["rng.variates"] == n_paths * 16 * max(levels) * 5 + 2 * steps * 5
    assert values["coefficients.builds"] == 0 and values["sampler.contractions"] == 0
    assert np.all(spans["end"] >= spans["start"])
