"""SDE demo: schemes, shipped problems, convergence machinery."""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from stratint import (
    ArgumentError,
    BasisKind,
    CapabilityError,
    GaussianTable,
    Interval,
    SdeProblem,
    convergence_study,
    gbm,
    integrate,
    sample_closed_form,
    two_noise,
)
from stratint import sampler, sde_demo
from stratint.basis import basis_integrals
from stratint.rng import DOMAIN_PATH, normal_stream
from stratint.sde_demo import _coarsen, _increments, _run_level


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
            want = _run_level(make(), _increments(make(), scheme, range(3), steps, seed, p))[0]
            assert got.tobytes() == want.tobytes()


def _draws(prob, rows, n_ref, seed, p):
    """z[a, i, s]: the p + 1 normals of step s of path a for component i + 1."""
    return np.stack([[normal_stream(seed, r, i, n_ref * (p + 1), DOMAIN_PATH)
                      .reshape(n_ref, p + 1) for i in range(1, prob.m + 1)] for r in rows])


def _ito(v, m):
    """The I_(i,j) of step-major increments v, as a (steps, paths, m, m) array."""
    return v[:, :, 1 + m:, 0].reshape(v.shape[:2] + (m, m))


@pytest.mark.parametrize("make", [gbm, two_noise])
def test_chunk_areas_are_the_closed_form_of_each_step(make):
    # each step's I_(i,j) is the library's I00 closed form J_(i,j) on that
    # step's rows, bit for bit, with h/2 taken off the diagonal, where
    # J_(i,i) is exactly h z0^2 / 2; dW is sqrt(h) z0
    prob = make()
    m, rows, n_ref, seed = prob.m, range(2, 5), 8, 11
    for p in (0, 10, 130):
        v = _increments(prob, "milstein", rows, n_ref, seed, p)
        ito, z = _ito(v, m), _draws(prob, rows, n_ref, seed, p)
        for s in range(n_ref):
            h = v[s, 0, 0, 0]
            iv = Interval(0.0, h)
            for a in range(len(rows)):
                assert v[s, a, 0, 0] == h
                values = np.empty((m + 1, p + 1))
                values[0] = basis_integrals(BasisKind.LEGENDRE, iv, p)
                values[1:] = z[a, :, s]
                table = GaussianTable(m=m, max_j=p, values=values,
                                      basis=BasisKind.LEGENDRE, iv=iv, seed=seed, stream=s)
                for i in range(m):
                    z0 = z[a, i, s, 0]
                    assert v[s, a, 1 + i, 0] == math.sqrt(h) * z0
                    assert ito[s, a, i, i] == 0.5 * h * (z0 * z0) - 0.5 * h
                    for j in range(m):
                        want = sample_closed_form("I00", table, iv, p, (i + 1, j + 1))
                        want -= 0.5 * h if i == j else 0.0
                        assert ito[s, a, i, j].tobytes() == np.float64(want).tobytes()


def test_chunk_increment_identities():
    v = _increments(gbm(), "milstein", rows=range(4), n_ref=32, seed=5, p=8)
    # step-major: step s of path a is v[s, a] = [h, dW, I_(1,1)]
    assert v.shape == (32, 4, 3, 1)
    assert np.array_equal(v[:, :, 0, 0], np.full((32, 4), 1.0 / 32))
    # I_(i,j) + I_(j,i) = dW_i dW_j - h delta_ij on every cell
    v2 = _increments(two_noise(), "milstein", rows=range(3), n_ref=16, seed=5, p=8)
    dw2, ito2 = v2[:, :, 1:3, 0], _ito(v2, 2)
    sym = ito2 + np.swapaxes(ito2, -1, -2)
    outer = np.einsum("ani,anj->anij", dw2, dw2) - v2[:, :, 0, 0, None, None] * np.eye(2)
    assert np.allclose(sym, outer, atol=1e-14)
    # the diagonal is (dW^2 - h) / 2
    diag = np.einsum("anii->ani", ito2)
    assert np.allclose(diag, 0.5 * dw2**2 - 0.5 * v2[:, :, :1, 0], atol=1e-14)


def test_coarse_steps_follow_chen():
    # I over a coarse step of f fine steps, path by path and step by step
    v = _increments(two_noise(), "milstein", rows=range(3), n_ref=24, seed=9, p=6)
    f = 4
    h = np.diff(np.arange(7) / 6)
    vb = _coarsen(v, f, h, 2)
    assert vb.shape == (6, 3, 7, 1)
    assert np.array_equal(vb[:, :, 0, 0], np.broadcast_to(h[:, None], (6, 3)))
    dw, ito = v[:, :, 1:3, 0], _ito(v, 2)
    dwb, itob = vb[:, :, 1:3, 0], _ito(vb, 2)
    for c in range(6):
        for a in range(3):
            so_far = np.zeros(2)
            want = np.zeros((2, 2))
            for k in range(c * f, (c + 1) * f):
                want += ito[k, a] + np.outer(so_far, dw[k, a])
                so_far += dw[k, a]
            np.testing.assert_allclose(dwb[c, a], so_far, rtol=1e-13, atol=1e-15)
            np.testing.assert_allclose(itob[c, a], want, rtol=1e-13, atol=1e-15)
    # the coarse I keep I_(i,j) + I_(j,i) = dW_i dW_j - H delta_ij
    sym = itob + np.swapaxes(itob, -1, -2)
    outer = np.einsum("ani,anj->anij", dwb, dwb) - h[:, None, None, None] * np.eye(2)
    assert np.allclose(sym, outer, atol=1e-14)
    # Euler's coarse steps are the [h, dW] prefix of Milstein's, bit for bit
    ve = _increments(two_noise(), "euler", rows=range(3), n_ref=24, seed=9, p=6)
    assert _coarsen(ve, f, h, 2).tobytes() == np.ascontiguousarray(vb[:, :, :3]).tobytes()


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
    # DOMAIN_PATH, so SDE paths have one RNG layout and one Levy-area builder.
    # Re-recorded when each step became one product of the packed coefficients
    # with [h, dW, I]: the sum's order moved both values by 2.1e-16 relative
    x = integrate(two_noise(), "milstein", 16, seed=3)
    assert x.tolist() == [0.7669730997697112, 1.0643549589773833]


# SHA-256 of the end states over (steps, p) = (1, 10), (37, 0), (300, 10),
# (64, 130), re-recorded with test_integrate_frozen_values when integrate moved
# from one table stream per step to stream 0 of DOMAIN_PATH;
# test_integrate_is_path_zero_of_the_study pins the new layout to the study's.
# All four were re-recorded when each step became one product of the packed
# coefficients [drift | diffusion | gdg] with the increments [h, dW, I], which
# adds the terms in another order: 18 of the 24 end values moved, the largest
# by 1.0e-15 relative (test_ito_form_matches_midpoint_form checks the new
# step against the term-by-term one)
FROZEN_INTEGRATE = {
    ("gbm", "euler"):
        "996dc3727e27527d81197a415ac68e59f2b8468e6bcc31aaaef33858c49973b1",
    ("gbm", "milstein"):
        "4102fdcb1cf919ab6ef3c5eaf8f984b6e3940fe2de6e2ac19f8024bf28047005",
    ("two_noise", "euler"):
        "7d9fba20c9f7b14ba6c81af3176d7404f6a0f58b04c6c656a2696eefb88705b0",
    # re-recorded when the study's areas came to be sampler._i00, which takes
    # the band difference in one three-operand einsum per direction
    ("two_noise", "milstein"):
        "f1cccf15201d0e3872e9d8248cdada32458b5a65819f1f60ca84f2e9c0f21630",
}


@pytest.mark.parametrize("problem, scheme", sorted(FROZEN_INTEGRATE))
def test_integrate_frozen_bytes(problem, scheme):
    make = {"gbm": gbm, "two_noise": two_noise}[problem]
    digest = hashlib.sha256()
    for steps, p in ((1, 10), (37, 0), (300, 10), (64, 130)):
        digest.update(integrate(make(), scheme, steps, seed=31, p=p).tobytes())
    assert digest.hexdigest() == FROZEN_INTEGRATE[problem, scheme]


def sin_cos():
    """dX = sin X dt + cos X dW, whose gdg is cos X times d(cos X)/dX = -sin X cos X."""
    def coefficients(x):
        s, c = np.sin(x), np.cos(x)
        return np.stack([s, c, -s * c], axis=-1)
    return SdeProblem(dim=1, m=1, coefficients=coefficients, x0=np.array([0.5]), t_end=1.0)


def _midpoint_level(problem, scheme, hs, dw, areas):
    """End states of a level stepped as the schemes were first written: one
    einsum per term, and Milstein in midpoint form, fed the areas J with h/2
    times the diagonal of gdg taken off the drift at every step."""
    x = np.broadcast_to(problem.x0, (dw.shape[1], problem.dim)).copy()
    for s, h in enumerate(hs.tolist()):
        f = problem.drift(x)
        noise = np.einsum("...dm,...m->...d", problem.diffusion(x), dw[s])
        if scheme == "milstein":
            gdg = problem.gdg(x)
            f = f - 0.5 * np.einsum("...dii->...d", gdg)
            noise = noise + np.einsum("...dij,...ij->...d", gdg, areas[s])
        x = x + f * h + noise
    return x


def _midpoint_increments(problem, rows, n_ref, seed, p):
    """Per-step (h, dw, areas J) of the study's paths, with J rebuilt from the
    library's Ito integrals as J_(i,j) = I_(i,j) + h/2 delta_ij."""
    m = problem.m
    v = _increments(problem, "milstein", rows, n_ref, seed, p)
    hs = v[:, 0, 0, 0]
    return hs, v[:, :, 1:1 + m, 0], _ito(v, m) + 0.5 * hs[:, None, None, None] * np.eye(m)


def _midpoint_coarsen(dw, areas, f):
    """(dw, J) of the steps made of f consecutive steps each, by Chen's relation
    with one pass over the fine steps of every coarse step at once."""
    dwr = dw.reshape((len(dw) // f, f) + dw.shape[1:])
    ar = areas.reshape((len(areas) // f, f) + areas.shape[1:])
    dwb, areab = np.zeros_like(dwr[:, 0]), np.zeros_like(ar[:, 0])
    for k in range(f):
        areab += ar[:, k] + dwb[..., :, None] * dwr[:, k, ..., None, :]
        dwb += dwr[:, k]
    return dwb, areab


def _midpoint_study(problem, scheme, ladder, n_paths, seed, p):
    """convergence_study's rms, for at most one block of paths, by _midpoint_level."""
    n_ref = 16 * max(ladder)
    hs, dw, areas = _midpoint_increments(problem, range(n_paths), n_ref, seed, p)
    x_ref = _midpoint_level(problem, scheme, hs, dw, areas)
    sq = []
    for n in ladder:
        dwb, areab = _midpoint_coarsen(dw, areas, n_ref // n)
        hb = np.diff(problem.t_end * (np.arange(n + 1) / n))
        sq.append(np.sum((_midpoint_level(problem, scheme, hb, dwb, areab) - x_ref) ** 2))
    return np.sqrt(np.array(sq) / n_paths)


@pytest.mark.parametrize("make", [gbm, two_noise, sin_cos])
@pytest.mark.parametrize("scheme", ["euler", "milstein"])
def test_ito_form_matches_midpoint_form(make, scheme):
    # the library steps with one contraction of the packed coefficients and
    # the Ito integrals I; this loop reads the same increments and calls
    # drift, diffusion and gdg term by term
    for seed in (0, 5, 31):
        for p in (0, 10, 130):
            for steps in (1, 37, 300):
                got = integrate(make(), scheme, steps, seed, p)
                increments = _midpoint_increments(make(), range(1), steps, seed, p)
                want = _midpoint_level(make(), scheme, *increments)[0]
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
            for ladder, n_paths in (((1, 2, 4, 8), 9), ((2, 4, 8, 16), 4)):
                got = convergence_study(make(), scheme, ladder, n_paths, seed, p)
                want = _midpoint_study(make(), scheme, ladder, n_paths, seed, p)
                np.testing.assert_allclose(got.rms, want, rtol=1e-12, atol=0)


def test_ito_areas_shift_the_diagonal_only():
    # I_(i,j) = J_(i,j) - h/2 delta_ij: off the diagonal I is J's I00 closed
    # form unchanged, and Euler's increments are Milstein's [h, dW] prefix
    rows, n_ref, seed, p = range(3), 5, 4, 10
    for prob in (gbm(), two_noise()):
        m = prob.m
        v = _increments(prob, "milstein", rows, n_ref, seed, p)
        euler = _increments(prob, "euler", rows, n_ref, seed, p)
        assert v.shape == (n_ref, 3, 1 + m + m * m, 1) and euler.shape == (n_ref, 3, 1 + m, 1)
        assert euler.tobytes() == np.ascontiguousarray(v[:, :, :1 + m]).tobytes()
        z = _draws(prob, rows, n_ref, seed, p).transpose(2, 0, 1, 3)
        h = v[:, :, :1, :1]
        areas = sampler._i00(z[:, :, :, None], z[:, :, None], h, p)
        want = areas - 0.5 * h * np.eye(m)
        assert _ito(v, m).tobytes() == want.tobytes()


def test_euler_builds_no_areas(monkeypatch):
    # Euler reads only [h, dW], so neither its study nor integrate calls the
    # closed form I00
    want_study = convergence_study(two_noise(), "euler", (2, 4, 8, 16), 3, seed=1)
    want_path = integrate(two_noise(), "euler", 40, seed=1)

    def refuse(*args):
        raise AssertionError("Euler built a Levy area")

    monkeypatch.setattr(sde_demo, "_i00", refuse)
    got = convergence_study(two_noise(), "euler", (2, 4, 8, 16), 3, seed=1)
    assert got.rms.tobytes() == want_study.rms.tobytes()
    assert integrate(two_noise(), "euler", 40, seed=1).tobytes() == want_path.tobytes()
    with pytest.raises(AssertionError, match="Levy area"):
        integrate(two_noise(), "milstein", 40, seed=1)


def _problem(**changes):
    fields = dict(dim=1, m=1, coefficients=gbm().coefficients, x0=np.array([1.0]), t_end=1.0)
    return SdeProblem(**{**fields, **changes})


@pytest.mark.parametrize("changes", [
    dict(dim=0, x0=np.zeros(0)),
    dict(m=0),
    dict(x0=np.array([1.0, 2.0])),
    dict(x0=np.array(1.0)),
    dict(x0=np.array([math.nan])),
    dict(x0=np.array([-math.inf])),
], ids=["dim", "m", "x0-length", "x0-scalar", "x0-nan", "x0-inf"])
def test_problems_refused_where_built(changes):
    _problem()
    with pytest.raises(ArgumentError):
        _problem(**changes)


@pytest.mark.parametrize("shape", [(1, 2), (1, 4), (3,), (1, 1, 3), (3, 1)])
def test_coefficients_of_the_wrong_shape_refused(shape):
    # checked on the first evaluation of a level, naming the shape it needs,
    # not left to fail as a broadcast error a step later
    prob = _problem(coefficients=lambda x: np.zeros(x.shape[:-1] + shape))
    with pytest.raises(ArgumentError, match=r"shape \(1, 3\)"):
        integrate(prob, "milstein", 4, seed=0)
    with pytest.raises(ArgumentError, match=r"shape \(1, 3\)"):
        convergence_study(prob, "euler", (1, 2, 4, 8), n_paths=2, seed=0)


def test_oversized_integrate_refused_before_allocating():
    # the draws alone would take 7 TB; tests/test_cli.py covers the studies
    tracemalloc.start()
    try:
        with pytest.raises(CapabilityError):
            integrate(gbm(), "milstein", 8, seed=0, p=10**11)
        assert tracemalloc.get_traced_memory()[1] < 2**20
    finally:
        tracemalloc.stop()


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
