"""Euler and Milstein strong integration driven by jointly sampled integrals."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ArgumentError
from .rng import DOMAIN_PATH, normal_stream
# draw_table and sample_closed_form are unused here but stay module
# attributes, where perfbench/tracer.py wraps them.
from .sampler import _i00, draw_table, sample_closed_form  # noqa: F401

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

    gdg(x)[..., :, i1, i2] must equal the Jacobian of diffusion column i2
    applied to diffusion column i1. Coefficient callables must broadcast over
    leading batch axes (the shipped problems do).
    """

    dim: int
    m: int
    drift: Callable[[np.ndarray], np.ndarray]
    diffusion: Callable[[np.ndarray], np.ndarray]
    gdg: Callable[[np.ndarray], np.ndarray]
    x0: np.ndarray
    t_end: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.t_end) and self.t_end > 0):
            raise ArgumentError(f"need a finite t_end > 0, got {self.t_end}")


@dataclass(frozen=True, eq=False)
class ConvergenceResult:
    """Per-level RMS terminal errors against a 16x reference, with log-log slope."""

    step_counts: tuple[int, ...]
    h: np.ndarray
    rms: np.ndarray
    slope: float


def gbm(mu: float = 1.0, sigma: float = 1.0, x0: float = 1.0, t_end: float = 1.0) -> SdeProblem:
    """Scalar geometric Brownian motion dX = mu X dt + sigma X dW."""
    return SdeProblem(
        dim=1,
        m=1,
        drift=lambda x: mu * x,
        diffusion=lambda x: sigma * x[..., :, None],
        gdg=lambda x: sigma * sigma * x[..., :, None, None],
        x0=np.array([x0]),
        t_end=t_end,
    )


def two_noise(t_end: float = 1.0) -> SdeProblem:
    """2-d linear system with two non-commuting noises, so I00(1,2) != I00(2,1)."""
    a = np.array([[-0.2, 0.0], [0.0, -0.2]])
    b = np.stack([
        np.array([[0.0, 0.6], [0.0, 0.0]]),
        np.array([[0.0, 0.0], [0.6, 0.0]]),
    ])
    # Each coefficient is linear in x, so it is one product with a constant
    # matrix whose rows are indexed by the component e of x: diffusion column i
    # is b[i] x, and gdg[d, i, j] = sum_c b[j, d, c] b[i, c, e] x_e, since
    # column j has Jacobian b[j] and is applied to column i. Every output is
    # a single nonzero product, so no summation order can change its rounding.
    drift_m = np.ascontiguousarray(a.T)
    diffusion_m = np.einsum("ide->edi", b).reshape(2, 4)
    gdg_m = np.einsum("jdc,ice->edij", b, b).reshape(2, 8)

    return SdeProblem(
        dim=2,
        m=2,
        drift=lambda x: x @ drift_m,
        diffusion=lambda x: (x @ diffusion_m).reshape(x.shape[:-1] + (2, 2)),
        gdg=lambda x: (x @ gdg_m).reshape(x.shape[:-1] + (2, 2, 2)),
        x0=np.array([1.0, 1.0]),
        t_end=t_end,
    )


def _euler_step(problem: SdeProblem, x: np.ndarray, h: float, dw: np.ndarray) -> np.ndarray:
    g = problem.diffusion(x)
    return x + problem.drift(x) * h + np.einsum("...dm,...m->...d", g, dw)


def _milstein_step(
    problem: SdeProblem, x: np.ndarray, h: float, dw: np.ndarray, ito: np.ndarray
) -> np.ndarray:
    """Milstein in Ito form (Kloeden & Platen 10.3): `ito` holds the Ito double
    integrals I_(i,j) of the step, see _ito_areas."""
    g = problem.diffusion(x)
    corr = np.einsum("...dij,...ij->...d", problem.gdg(x), ito)
    return x + problem.drift(x) * h + np.einsum("...dm,...m->...d", g, dw) + corr


def _ito_areas(areas: np.ndarray, hs: np.ndarray) -> np.ndarray:
    """Ito double integrals I_(i,j) = J_(i,j) - h/2 delta_ij of the steps on
    axis 0, of lengths hs, as a new array: convergence_study builds its coarser
    levels from the areas J it was given."""
    m = areas.shape[-1]
    ito = areas.copy()
    diag = ito.reshape(ito.shape[:-2] + (m * m,))[..., :: m + 1]
    diag -= (0.5 * hs).reshape((-1,) + (1,) * (diag.ndim - 1))
    return ito


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
    if steps < 1:
        raise ArgumentError(f"need steps >= 1, got {steps}")
    if p < 0:
        raise ArgumentError(f"need p >= 0, got {p}")
    hs, dw, areas = _chunk_increments(problem, range(1), steps, seed, p)
    return _run_level(problem, scheme, hs, dw, areas)[0]


def _chunk_increments(
    problem: SdeProblem, rows: range, n_ref: int, seed: int, p: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-step (h, dw, areas) on the reference mesh for a block of paths.

    dw and areas are step-major: dw[s, a] and areas[s, a] belong to step s of
    path a, and areas are the J_(i,j) of each step, so each step reads one
    contiguous block. Each area is the closed form I00 of its step's rows.
    """
    m = problem.m
    n_paths = len(rows)
    z = np.empty((n_paths, m, n_ref, p + 1))
    for local, r in enumerate(rows):
        for i in range(1, m + 1):
            z[local, i - 1] = normal_stream(
                seed, r, i, n_ref * (p + 1), DOMAIN_PATH
            ).reshape(n_ref, p + 1)
    grid = problem.t_end * (np.arange(n_ref + 1) / n_ref)
    hs = np.diff(grid)
    dw = np.empty((n_ref, n_paths, m))
    zs = z.transpose(2, 0, 1, 3)
    np.multiply(np.sqrt(hs)[:, None, None], zs[..., 0], out=dw)
    areas = _i00(zs[:, :, :, None], zs[:, :, None], hs[:, None, None, None], p)
    return hs, dw, areas


def _coarsen(dw: np.ndarray, areas: np.ndarray, f: int) -> tuple[np.ndarray, np.ndarray]:
    """Step-major (dw, areas) of the steps made of f consecutive steps each.

    By Chen's relation a coarse step's J_(i,j) is the sum of its steps' J_(i,j)
    plus, for each step, the coarse step's i-increment so far times that
    step's j-increment.
    """
    n, n_paths, m = dw.shape[0] // f, dw.shape[1], dw.shape[2]
    dwr = dw.reshape(n, f, n_paths, m)
    before = np.empty_like(dwr)
    before[:, 0] = 0.0
    np.cumsum(dwr[:, :-1], axis=1, out=before[:, 1:])
    coarse = areas.reshape(n, f, n_paths, m, m).sum(1)
    coarse += np.matmul(before.transpose(0, 2, 3, 1), dwr.transpose(0, 2, 1, 3))
    return dwr.sum(1), coarse


def _run_level(
    problem: SdeProblem,
    scheme: str,
    hs: np.ndarray,
    dw: np.ndarray,
    areas: np.ndarray | None,
) -> np.ndarray:
    """End states of every path after the steps hs; dw and areas are step-major,
    and Euler reads no areas."""
    x = np.broadcast_to(problem.x0, (dw.shape[1], problem.dim)).copy()
    if scheme == "euler":
        for h, dw_step in zip(hs.tolist(), dw):
            x = _euler_step(problem, x, h, dw_step)
        return x
    for h, dw_step, ito_step in zip(hs.tolist(), dw, _ito_areas(areas, hs)):
        x = _milstein_step(problem, x, h, dw_step, ito_step)
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
    levels = tuple(sorted(int(n) for n in step_counts))
    if len(levels) < 4 or len(set(levels)) != len(levels) or levels[0] < 1:
        raise ArgumentError(f"need >= 4 distinct positive levels, got {step_counts}")
    if n_paths < 1:
        raise ArgumentError(f"need n_paths >= 1, got {n_paths}")
    if p < 0:
        raise ArgumentError(f"need p >= 0, got {p}")
    n_ref = 16 * levels[-1]
    if any(n_ref % n != 0 for n in levels):
        raise ArgumentError(f"every level must divide the reference count {n_ref}")

    sq_err = np.zeros(len(levels))
    done = 0
    while done < n_paths:
        rows = range(done, min(done + _STUDY_CHUNK, n_paths))
        hs, dw, areas = _chunk_increments(problem, rows, n_ref, seed, p)
        x_ref = _run_level(problem, scheme, hs, dw, areas)
        for li, n in enumerate(levels):
            grid = problem.t_end * (np.arange(n + 1) / n)
            dwb, areab = _coarsen(dw, areas, n_ref // n)
            x_n = _run_level(problem, scheme, np.diff(grid), dwb, areab)
            sq_err[li] += float(np.sum((x_n - x_ref) ** 2))
        done = rows.stop
    rms = np.sqrt(sq_err / n_paths)
    h = problem.t_end / np.asarray(levels, dtype=float)
    slope = float(np.polyfit(np.log(h), np.log(rms), 1)[0])
    return ConvergenceResult(step_counts=levels, h=h, rms=rms, slope=slope)
