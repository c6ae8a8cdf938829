"""Euler and Milstein strong integration driven by jointly sampled integrals."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .coefficients import check_bytes
from .errors import ArgumentError
from .rng import DOMAIN_PATH, _coordinate, _normals, _words
# normal_stream, draw_table and sample_closed_form are unused here but stay
# module attributes, where perfbench/tracer.py wraps them: it reads each
# traced name from the module's own namespace.
from .rng import normal_stream  # noqa: F401
from .sampler import _i00_band, _whole, draw_table, sample_closed_form  # noqa: F401

__all__ = [
    "SCHEMES",
    "SdeProblem",
    "ConvergenceResult",
    "gbm",
    "two_noise",
    "integrate",
    "convergence_study",
]

SCHEMES = ("euler", "milstein")

_STUDY_CHUNK = 50


@dataclass(frozen=True)
class SdeProblem:
    """Ito SDE dX = drift dt + diffusion dW with the contractions Milstein needs.

    coefficients(x) maps x of shape (..., dim), any leading axes, to shape
    (..., dim, 1 + m + m * m): per component d, the drift, the m diffusion
    columns, then gdg[d, i, j] in row-major (i, j) order, the Jacobian of
    diffusion column j applied to column i. drift, diffusion and gdg slice
    it to shapes (..., dim), (..., dim, m) and (..., dim, m, m).
    """

    dim: int
    m: int
    coefficients: Callable[[np.ndarray], np.ndarray]
    x0: np.ndarray
    t_end: float

    def __post_init__(self) -> None:
        if self.dim < 1 or self.m < 1:
            raise ArgumentError(f"need dim >= 1 and m >= 1, got dim={self.dim}, m={self.m}")
        if np.shape(self.x0) != (self.dim,):
            raise ArgumentError(f"x0 must have shape ({self.dim},), got {np.shape(self.x0)}")
        if not np.isfinite(self.x0).all():
            raise ArgumentError(f"x0 must be finite, got {self.x0}")
        if not (math.isfinite(self.t_end) and self.t_end > 0):
            raise ArgumentError(f"need a finite t_end > 0, got {self.t_end}")

    def drift(self, x: np.ndarray) -> np.ndarray:
        return self.coefficients(x)[..., 0]

    def diffusion(self, x: np.ndarray) -> np.ndarray:
        return self.coefficients(x)[..., 1:1 + self.m]

    def gdg(self, x: np.ndarray) -> np.ndarray:
        f = self.coefficients(x)
        return f[..., 1 + self.m:].reshape(f.shape[:-1] + (self.m, self.m))


@dataclass(frozen=True, eq=False)
class ConvergenceResult:
    """Per-level RMS terminal errors against a 16x reference, with log-log slope."""

    step_counts: tuple[int, ...]
    h: np.ndarray
    rms: np.ndarray
    slope: float


def gbm(mu: float = 1.0, sigma: float = 1.0, x0: float = 1.0, t_end: float = 1.0) -> SdeProblem:
    """Scalar geometric Brownian motion dX = mu X dt + sigma X dW."""
    c = np.array([mu, sigma, sigma * sigma])
    return SdeProblem(dim=1, m=1, coefficients=lambda x: x[..., :, None] * c,
                      x0=np.array([x0]), t_end=t_end)


def two_noise(t_end: float = 1.0) -> SdeProblem:
    """2-d linear system with two non-commuting noises, so I00(1,2) != I00(2,1)."""
    a = np.array([[-0.2, 0.0], [0.0, -0.2]])
    b = np.stack([
        np.array([[0.0, 0.6], [0.0, 0.0]]),
        np.array([[0.0, 0.0], [0.6, 0.0]]),
    ])
    # Each coefficient is linear in x, so all of them are one product with a
    # constant matrix whose rows are indexed by the component e of x: the drift
    # is a x, diffusion column i is b[i] x, and gdg[d, i, j] = sum_c b[j, d, c]
    # b[i, c, e] x_e, since column j has Jacobian b[j] and is applied to column
    # i. Every output is a single nonzero product, so no summation order can
    # change its rounding.
    packed = np.concatenate([
        a.T[:, :, None],
        np.einsum("ide->edi", b),
        np.einsum("jdc,ice->edij", b, b).reshape(2, 2, 4),
    ], axis=2).reshape(2, 14)
    return SdeProblem(dim=2, m=2,
                      coefficients=lambda x: (x @ packed).reshape(x.shape[:-1] + (2, 7)),
                      x0=np.array([1.0, 1.0]), t_end=t_end)


def integrate(
    problem: SdeProblem, scheme: str, steps: int, seed: int, p: int = 10
) -> np.ndarray:
    """Advance from x0 to t_end in `steps` steps as path 0 of convergence_study.

    The path reads stream 0 of DOMAIN_PATH, so with steps equal to a study's
    reference count the end state is bit for bit that of the study's path 0
    on its reference mesh.
    """
    if scheme not in SCHEMES:
        raise ArgumentError(f"unknown scheme {scheme!r}, pick one of {SCHEMES}")
    steps = _whole("steps", steps)
    if steps < 1:
        raise ArgumentError(f"need steps >= 1, got {steps}")
    p = _whole("p", p)
    if p < 0:
        raise ArgumentError(f"need p >= 0, got {p}")
    return _run_level(problem, _increments(problem, scheme, range(1), steps, seed, p))[0]


def _increments(
    problem: SdeProblem, scheme: str, rows: range, n_ref: int, seed: int, p: int
) -> np.ndarray:
    """Step-major increments of a block of paths on the reference mesh.

    v[s, a] is a column for step s of path a: [h, dW_1..dW_m] for Euler, and
    for Milstein also the Ito double integrals I_(i,j) = J_(i,j) - h/2 delta_ij
    in row-major (i, j) order, where J_(i,j) is the closed form I00 of the
    step's rows. Only Milstein builds J.

    Step s of path a reads the p + 1 normals zeta of stream a, components
    1..m, of DOMAIN_PATH, as normal_stream lays them out. Every raw word is
    drawn, but only the normals the scheme reads are converted: zeta_0 alone
    for Euler and for Milstein with one noise, whose one area is
    J_(1,1) = h/2 zeta_0^2, and all p + 1 for Milstein with m >= 2, where
    J_(i,j) and J_(j,i), i < j, share one band difference. A block whose
    arrays would pass the package's memory bound is refused before any is
    made.
    """
    m = problem.m
    n_paths = len(rows)
    n_areas = 0 if scheme == "euler" else m * m
    width = 1 if scheme == "euler" or m == 1 else p + 1
    # per step: every path's normals, v (the areas are its last n_areas
    # columns) and up to six per-path temporaries of one pair's band and areas;
    # one path's raw words with the generator's words of one component, and
    # their shifted words and uniforms
    per_step = (n_paths * (m * width + 1 + m + n_areas + 6)
                + (m + 1) * (p + 1) + 2 * m * width)
    check_bytes(8 * n_ref * per_step, f"{n_paths} path(s) of {n_ref} steps at p={p}")
    seed = _coordinate("seed", seed)
    z = np.empty((n_paths, m, n_ref, width))
    for local, r in enumerate(rows):
        words = _words(seed, (r,), range(1, m + 1), n_ref * (p + 1), DOMAIN_PATH)
        z[local] = _normals(words.reshape(m, n_ref, p + 1)[..., :width])
        del words  # before the next path's are drawn
    hs = np.diff(problem.t_end * (np.arange(n_ref + 1) / n_ref))
    zs = z.transpose(2, 0, 1, 3)
    z0 = zs[..., 0]
    v = np.empty((n_ref, n_paths, 1 + m + n_areas, 1))
    v[:, :, 0, 0] = hs[:, None]
    np.multiply(np.sqrt(hs)[:, None, None], z0, out=v[:, :, 1:1 + m, 0])
    if n_areas:
        half = 0.5 * hs[:, None]
        for i in range(m):
            v[:, :, 1 + m + i * (m + 1), 0] = z0[..., i] * z0[..., i] * half - half
            for j in range(i + 1, m):
                s = _i00_band(zs[:, :, i], zs[:, :, j], p)
                ab = z0[..., i] * z0[..., j]
                np.multiply(s + ab, half, out=v[:, :, 1 + m + i * m + j, 0])
                np.multiply(ab - s, half, out=v[:, :, 1 + m + j * m + i, 0])
    return v


def _coarsen(v: np.ndarray, f: int, h: np.ndarray, m: int) -> np.ndarray:
    """The increments v of the steps h, each made of f consecutive steps.

    dW is summed. By Chen's relation a coarse step's I_(i,j) is the sum of its
    steps' I_(i,j) plus, for each step, the coarse step's i-increment so far
    times that step's j-increment; the steps' -h/2 diagonal terms add up to
    the coarse step's -H/2.
    """
    n, n_paths, width = len(h), v.shape[1], v.shape[2]
    fine = v.reshape(n, f, n_paths, width)
    coarse = fine.sum(1)[..., None]
    coarse[:, :, 0, 0] = h[:, None]
    if width > 1 + m:
        dw = fine[..., 1:1 + m]
        before = np.empty_like(dw)
        before[:, 0] = 0.0
        np.cumsum(dw[:, :-1], axis=1, out=before[:, 1:])
        cross = np.matmul(before.transpose(0, 2, 3, 1), dw.transpose(0, 2, 1, 3))
        coarse[:, :, 1 + m:, 0] += cross.reshape(n, n_paths, m * m)
    return coarse


def _run_level(problem: SdeProblem, v: np.ndarray) -> np.ndarray:
    """End states of every path after the steps of the step-major increments v.
    A step is one coefficient call F and one product F @ v with its increments,
    Milstein in Ito form (Kloeden & Platen 10.3). Euler's v holds the first
    1 + m columns only, so no gdg, even inf, meets a zero."""
    width = 1 + problem.m + problem.m * problem.m
    shape = np.shape(problem.coefficients(problem.x0))
    if shape != (problem.dim, width):
        raise ArgumentError(f"coefficients(x0) must have shape ({problem.dim}, {width}), "
                            f"got {shape}")
    coefficients, cols = problem.coefficients, v.shape[2]
    x = np.broadcast_to(problem.x0, (v.shape[1], problem.dim)).copy()
    for vs in v:
        x = x + (coefficients(x)[..., :cols] @ vs)[..., 0]
    return x


def convergence_study(
    problem: SdeProblem,
    scheme: str,
    step_counts: tuple[int, ...],
    n_paths: int,
    seed: int,
    p: int = 10,
) -> ConvergenceResult:
    """Coupled strong-error ladder against the same scheme at 16x the finest level."""
    if scheme not in SCHEMES:
        raise ArgumentError(f"unknown scheme {scheme!r}, pick one of {SCHEMES}")
    levels = tuple(sorted(_whole("level", n) for n in step_counts))
    if len(levels) < 4 or len(set(levels)) != len(levels) or levels[0] < 1:
        raise ArgumentError(f"need >= 4 distinct positive levels, got {step_counts}")
    n_paths = _whole("n_paths", n_paths)
    if n_paths < 1:
        raise ArgumentError(f"need n_paths >= 1, got {n_paths}")
    p = _whole("p", p)
    if p < 0:
        raise ArgumentError(f"need p >= 0, got {p}")
    n_ref = 16 * levels[-1]
    if any(n_ref % n != 0 for n in levels):
        raise ArgumentError(f"every level must divide the reference count {n_ref}")

    sq_err = np.zeros(len(levels))
    done = 0
    while done < n_paths:
        rows = range(done, min(done + _STUDY_CHUNK, n_paths))
        v = _increments(problem, scheme, rows, n_ref, seed, p)
        x_ref = _run_level(problem, v)
        for li, n in enumerate(levels):
            h = np.diff(problem.t_end * (np.arange(n + 1) / n))
            x_n = _run_level(problem, _coarsen(v, n_ref // n, h, problem.m))
            sq_err[li] += float(np.sum((x_n - x_ref) ** 2))
        done = rows.stop
    rms = np.sqrt(sq_err / n_paths)
    h = problem.t_end / np.asarray(levels, dtype=float)
    slope = float(np.polyfit(np.log(h), np.log(rms), 1)[0])
    return ConvergenceResult(step_counts=levels, h=h, rms=rms, slope=slope)
