"""SDE demo: schemes, shipped problems, convergence machinery."""

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
from stratint.sde_demo import _chunk_increments


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


def test_chunk_increment_identities():
    prob = gbm()
    hs, dw, areas = _chunk_increments(prob, rows=range(4), n_ref=32, seed=5, p=8)
    assert hs.shape == (32,)
    assert dw.shape == (4, 32, 1)
    assert areas.shape == (4, 32, 1, 1)
    # area symmetrization: A_ij + A_ji = dW_i dW_j on every cell
    prob2 = two_noise()
    _, dw2, areas2 = _chunk_increments(prob2, rows=range(3), n_ref=16, seed=5, p=8)
    sym = areas2 + np.swapaxes(areas2, -1, -2)
    outer = np.einsum("ani,anj->anij", dw2, dw2)
    assert np.allclose(sym, outer, atol=1e-14)
    # diagonal areas are exactly half the squared increment
    diag = np.einsum("anii->ani", areas2)
    assert np.allclose(diag, 0.5 * dw2**2, atol=1e-14)


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


def test_integrate_frozen_values():
    # recorded when every step drew its own table and evaluated its own Levy areas
    x = integrate(two_noise(), "milstein", 16, seed=3)
    assert x.tolist() == [0.4779849572564772, 0.45040152314348425]
