"""SDE demo: schemes, shipped problems, convergence machinery."""

import hashlib
import math

import numpy as np
import pytest

from stratint import (
    ArgumentError,
    convergence_study,
    gbm,
    integrate,
    two_noise,
)
from stratint import sde_demo
from stratint.sde_demo import _chunk_increments, _coarsen, _ito_areas, _run_level


def test_gbm_problem_shape():
    prob = gbm(mu=0.5, sigma=0.8, x0=2.0, t_end=1.0)
    assert prob.dim == 1 and prob.m == 1
    x = np.array([[2.0], [3.0]])
    assert prob.drift(x).shape == (2, 1)
    assert prob.diffusion(x).shape == (2, 1, 1)
    assert prob.gdg(x).shape == (2, 1, 1, 1)
    # diagonal structure: g dg/dx = sigma^2 x
    assert prob.gdg(x)[0, 0, 0, 0] == pytest.approx(0.8**2 * 2.0)


def test_two_noise_problem_shape():
    prob = two_noise()
    assert prob.dim == 2 and prob.m == 2
    x = np.ones((3, 2))
    assert prob.diffusion(x).shape == (3, 2, 2)
    assert prob.gdg(x).shape == (3, 2, 2, 2)
    # the noncommutativity that makes Lévy areas matter
    g = prob.gdg(x)
    assert not np.allclose(g[..., 0, 1], g[..., 1, 0])


def test_integrate_deterministic():
    prob = gbm()
    a = integrate(prob, "milstein", steps=16, seed=3)
    b = integrate(prob, "milstein", steps=16, seed=3)
    assert np.array_equal(a, b)
    c = integrate(prob, "milstein", steps=16, seed=4)
    assert not np.array_equal(a, c)


def test_integrate_positive_gbm():
    # Milstein preserves the rough scale of GBM over one unit of time
    x = integrate(gbm(mu=0.0, sigma=0.3), "milstein", steps=64, seed=7)
    assert x.shape == (1,)
    assert 0.05 < x[0] < 20.0


def test_integrate_validation():
    with pytest.raises(ArgumentError):
        integrate(gbm(), "heun", steps=8, seed=0)
    with pytest.raises(ArgumentError):
        integrate(gbm(), "euler", steps=0, seed=0)
    with pytest.raises(ArgumentError):
        integrate(gbm(), "milstein", steps=8, seed=0, p=-1)


@pytest.mark.parametrize("t_end", [0.0, -1.0, math.inf, math.nan])
def test_problems_need_a_finite_positive_t_end(t_end):
    with pytest.raises(ArgumentError):
        integrate(gbm(t_end=t_end), "milstein", steps=8, seed=0)
    with pytest.raises(ArgumentError):
        convergence_study(gbm(t_end=t_end), "milstein", [1, 2, 4, 8], n_paths=2, seed=0)
    with pytest.raises(ArgumentError):
        integrate(two_noise(t_end=t_end), "euler", steps=8, seed=0)
    with pytest.raises(ArgumentError):
        convergence_study(two_noise(t_end=t_end), "euler", [1, 2, 4, 8], n_paths=2, seed=0)


@pytest.mark.parametrize("make", [gbm, two_noise])
@pytest.mark.parametrize("scheme", ["euler", "milstein"])
def test_integrate_is_path_zero_of_the_study(make, scheme):
    # integrate reads the study's increments of path 0, bit for bit, so it is
    # the study's reference path whenever steps is the reference count
    for p in (0, 10, 130):
        for steps, seed in ((1, 0), (37, 5), (64, 31)):
            got = integrate(make(), scheme, steps, seed, p)
            hs, dw, areas = _chunk_increments(make(), range(3), steps, seed, p)
            want = _run_level(make(), scheme, hs, dw, areas)[0]
            assert got.tobytes() == want.tobytes()


def test_chunk_increment_identities():
    prob = gbm()
    hs, dw, areas = _chunk_increments(prob, rows=range(4), n_ref=32, seed=5, p=8)
    assert hs.shape == (32,)
    # step-major: step s of path a is dw[s, a]
    assert dw.shape == (32, 4, 1)
    assert areas.shape == (32, 4, 1, 1)
    # area symmetrization: A_ij + A_ji = dW_i dW_j on every cell
    prob2 = two_noise()
    _, dw2, areas2 = _chunk_increments(prob2, rows=range(3), n_ref=16, seed=5, p=8)
    sym = areas2 + np.swapaxes(areas2, -1, -2)
    outer = np.einsum("ani,anj->anij", dw2, dw2)
    assert np.allclose(sym, outer, atol=1e-14)
    # diagonal areas are exactly half the squared increment
    diag = np.einsum("anii->ani", areas2)
    assert np.allclose(diag, 0.5 * dw2**2, atol=1e-14)


def test_coarse_steps_follow_chen():
    # J over a coarse step of f fine steps, path by path and step by step
    _, dw, areas = _chunk_increments(two_noise(), rows=range(3), n_ref=24, seed=9, p=6)
    f = 4
    dwb, areab = _coarsen(dw, areas, f)
    assert dwb.shape == (6, 3, 2) and areab.shape == (6, 3, 2, 2)
    for c in range(6):
        for a in range(3):
            so_far = np.zeros(2)
            want = np.zeros((2, 2))
            for k in range(c * f, (c + 1) * f):
                want += areas[k, a] + np.outer(so_far, dw[k, a])
                so_far += dw[k, a]
            np.testing.assert_allclose(dwb[c, a], so_far, rtol=1e-13, atol=1e-15)
            np.testing.assert_allclose(areab[c, a], want, rtol=1e-13, atol=1e-15)
    # and the coarse areas keep the symmetrization of the fine ones
    sym = areab + np.swapaxes(areab, -1, -2)
    assert np.allclose(sym, np.einsum("ani,anj->anij", dwb, dwb), atol=1e-14)


def test_convergence_study_gbm_milstein():
    result = convergence_study(gbm(), "milstein", [16, 32, 64, 128], n_paths=40, seed=2)
    assert result.step_counts == (16, 32, 64, 128)
    assert np.all(np.diff(result.rms) < 0)
    assert 0.7 < result.slope < 1.3


def test_convergence_study_euler_half_order():
    result = convergence_study(
        gbm(), "euler", [16, 32, 64, 128, 256], n_paths=250, seed=2
    )
    assert 0.3 < result.slope < 0.7


def test_convergence_study_two_noise():
    result = convergence_study(
        two_noise(), "milstein", [16, 32, 64, 128], n_paths=30, seed=11
    )
    assert 0.7 < result.slope < 1.3


def test_convergence_study_validation():
    with pytest.raises(ArgumentError):
        convergence_study(gbm(), "milstein", [16, 32, 64], n_paths=4, seed=0)
    with pytest.raises(ArgumentError):
        # 23 does not divide the 16x reference mesh
        convergence_study(gbm(), "milstein", [16, 23, 32, 64], n_paths=4, seed=0)
    with pytest.raises(ArgumentError):
        convergence_study(gbm(), "milstein", [16, 32, 64, 128], n_paths=0, seed=0)
    with pytest.raises(ArgumentError):
        convergence_study(gbm(), "milstein", [16, 32, 64, 128], n_paths=4, seed=0, p=-1)


def test_integrate_frozen_values():
    # re-recorded when integrate became path 0 of the study's increments: it
    # read one table stream per step (DOMAIN_TABLE) and now reads stream 0 of
    # DOMAIN_PATH, so SDE paths have one RNG layout and one Levy-area builder
    x = integrate(two_noise(), "milstein", 16, seed=3)
    assert x.tolist() == [0.7669730997697113, 1.064354958977383]


# SHA-256 of the end states over (steps, p) = (1, 10), (37, 0), (300, 10),
# (64, 130), re-recorded with test_integrate_frozen_values when integrate moved
# from one table stream per step to stream 0 of DOMAIN_PATH;
# test_integrate_is_path_zero_of_the_study pins the new layout to the study's
FROZEN_INTEGRATE = {
    ("gbm", "euler"):
        "76236b6826799c5b35ab84e9435d06723e43bd8ef241bab85722f4237d16dac2",
    ("gbm", "milstein"):
        "f1e45cf77f0103e856f8fabefda37421eaad754c31b49b5778f100bbeaa47003",
    ("two_noise", "euler"):
        "f4e630b9dc5f1a3e3e4cd63d9c65663e12f7ee58c37bd799016ef760a259c1ae",
    ("two_noise", "milstein"):
        "366eea99962769332a2bf2b26ddaf5ebf3c8de91c8baf6df81e761e0426bb543",
}


@pytest.mark.parametrize("problem, scheme", sorted(FROZEN_INTEGRATE))
def test_integrate_frozen_bytes(problem, scheme):
    make = {"gbm": gbm, "two_noise": two_noise}[problem]
    digest = hashlib.sha256()
    for steps, p in ((1, 10), (37, 0), (300, 10), (64, 130)):
        digest.update(integrate(make(), scheme, steps, seed=31, p=p).tobytes())
    assert digest.hexdigest() == FROZEN_INTEGRATE[problem, scheme]


def _midpoint_step(problem, x, h, dw, areas):
    """Milstein in midpoint form, the reference for the Ito form: it takes the
    areas J and takes h/2 times the diagonal of gdg off the drift at every step."""
    gdg = problem.gdg(x)
    f = problem.drift(x) - 0.5 * np.einsum("...dii->...d", gdg)
    g = problem.diffusion(x)
    corr = np.einsum("...dij,...ij->...d", gdg, areas)
    return x + f * h + np.einsum("...dm,...m->...d", g, dw) + corr


@pytest.fixture
def midpoint_form(monkeypatch):
    """Runs a callable with the midpoint-form step fed the areas J themselves."""
    def run(fn, *args):
        with monkeypatch.context() as patch:
            patch.setattr(sde_demo, "_milstein_step", _midpoint_step)
            patch.setattr(sde_demo, "_ito_areas", lambda areas, hs: areas)
            return fn(*args)
    return run


@pytest.mark.parametrize("make", [gbm, two_noise])
@pytest.mark.parametrize("scheme", ["euler", "milstein"])
def test_ito_form_matches_midpoint_form(midpoint_form, make, scheme):
    for seed in (0, 5, 31):
        for p in (0, 10, 130):
            for steps in (1, 37, 300):
                got = integrate(make(), scheme, steps, seed, p)
                want = midpoint_form(integrate, make(), scheme, steps, seed, p)
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
            for ladder, n_paths in (((1, 2, 4, 8), 9), ((2, 4, 8, 16), 4)):
                got = convergence_study(make(), scheme, ladder, n_paths, seed, p)
                want = midpoint_form(convergence_study, make(), scheme, ladder, n_paths, seed, p)
                np.testing.assert_allclose(got.rms, want.rms, rtol=1e-12, atol=0)


def test_ito_areas_shift_the_diagonal_only():
    rng = np.random.default_rng(4)
    areas = rng.standard_normal((5, 3, 2, 2))
    hs = rng.uniform(0.1, 1.0, 5)
    kept = areas.copy()
    ito = _ito_areas(areas, hs)
    assert areas.tobytes() == kept.tobytes()
    want = areas - 0.5 * hs[:, None, None, None] * np.eye(2)
    assert ito.tobytes() == want.tobytes()
    # one step of m = 1 paths, as integrate passes them: I_(1,1) = (dW^2 - h) / 2
    dw = rng.standard_normal(7)
    ito1 = _ito_areas((0.5 * dw * dw)[:, None, None], np.full(7, 1.0))
    assert np.array_equal(ito1[:, 0, 0], 0.5 * dw * dw - 0.5)


def _two_noise_einsum():
    """two_noise's coefficients as they were first written, by einsum."""
    a = np.array([[-0.2, 0.0], [0.0, -0.2]])
    b = np.stack([
        np.array([[0.0, 0.6], [0.0, 0.0]]),
        np.array([[0.0, 0.0], [0.6, 0.0]]),
    ])
    return {
        "drift": lambda x: np.einsum("de,...e->...d", a, x),
        "diffusion": lambda x: np.einsum("ide,...e->...di", b, x),
        "gdg": lambda x: np.einsum("jdc,ice,...e->...dij", b, b, x),
    }


@pytest.mark.parametrize("lead", [(), (5,), (3, 4)])
def test_two_noise_matrices_equal_einsums(lead):
    prob = two_noise()
    rng = np.random.default_rng(len(lead))
    for _ in range(20):
        # magnitudes across many binades, and both signs
        x = rng.standard_normal(lead + (2,)) * 10.0 ** rng.integers(-200, 200, lead + (2,))
        for name, want in _two_noise_einsum().items():
            got = getattr(prob, name)(x)
            assert got.shape == want(x).shape
            assert got.tobytes() == want(x).tobytes(), name
