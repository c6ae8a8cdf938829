"""Euler and Milstein strong integration driven by jointly sampled integrals."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .basis import Interval
from .errors import ArgumentError
from .rng import DOMAIN_PATH, DOMAIN_TABLE, normal_stream
# draw_table and sample_closed_form stay module attributes here, where
# perfbench/tracer.py wraps them; integrate evaluates I00 through _i00.
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


@dataclass(frozen=True)
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

    def diffusion(x: np.ndarray) -> np.ndarray:
        cols = np.einsum("ide,...e->...di", b, x)
        return cols

    def gdg(x: np.ndarray) -> np.ndarray:
        # column i2 has Jacobian b[i2]; applied to column i1 of the diffusion.
        return np.einsum("jdc,ice,...e->...dij", b, b, x)

    return SdeProblem(
        dim=2,
        m=2,
        drift=lambda x: np.einsum("de,...e->...d", a, x),
        diffusion=diffusion,
        gdg=gdg,
        x0=np.array([1.0, 1.0]),
        t_end=t_end,
    )


def _euler_step(problem: SdeProblem, x: np.ndarray, h: float, dw: np.ndarray) -> np.ndarray:
    g = problem.diffusion(x)
    return x + problem.drift(x) * h + np.einsum("...dm,...m->...d", g, dw)


def _milstein_step(
    problem: SdeProblem, x: np.ndarray, h: float, dw: np.ndarray, areas: np.ndarray
) -> np.ndarray:
    gdg = problem.gdg(x)
    # Midpoint-form drift; the diagonal areas carry the +h/2 back on average.
    f = problem.drift(x) - 0.5 * np.einsum("...dii->...d", gdg)
    g = problem.diffusion(x)
    corr = np.einsum("...dij,...ij->...d", gdg, areas)
    return x + f * h + np.einsum("...dm,...m->...d", g, dw) + corr


def integrate(
    problem: SdeProblem, scheme: str, steps: int, seed: int, p: int = 10
) -> np.ndarray:
    """Advance from x0 to t_end in `steps` steps, one fresh table per step.

    Step s reads the table rows of stream s (those of draw_table(..., stream=s)
    on its own interval); all steps are drawn and their Levy areas evaluated
    in one batch before the state is advanced.
    """
    if scheme not in SCHEMES:
        raise ArgumentError(f"unknown scheme {scheme!r}, pick one of {SCHEMES}")
    if steps < 1:
        raise ArgumentError(f"need steps >= 1, got {steps}")
    if p < 0:
        raise ArgumentError(f"need p >= 0, got {p}")
    x = np.array(problem.x0, dtype=float)
    m = problem.m
    hs = [
        Interval(problem.t_end * s / steps, problem.t_end * (s + 1) / steps).length()
        for s in range(steps)
    ]
    h = np.array(hs)
    # z[s, i - 1] is the row of Wiener component i in the table of step s
    z = np.stack(
        [normal_stream(seed, range(steps), i, p + 1, DOMAIN_TABLE) for i in range(1, m + 1)],
        axis=1,
    )
    dw = np.sqrt(h)[:, None] * z[..., 0]
    if scheme == "milstein":
        areas = _i00(z[:, :, None, :], z[:, None, :, :], h[:, None, None], p)
    for step in range(steps):
        if scheme == "euler":
            x = _euler_step(problem, x, hs[step], dw[step])
        else:
            x = _milstein_step(problem, x, hs[step], dw[step], areas[step])
    return x


def _chunk_increments(
    problem: SdeProblem, rows: range, n_ref: int, seed: int, p: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-step (h, dw, areas) on the reference mesh for a block of paths."""
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
    dw = np.sqrt(hs)[None, None, :] * z[..., 0]
    dw = np.moveaxis(dw, 1, 2)
    q = np.arange(1, p + 1)
    band = 1.0 / np.sqrt(4.0 * q * q - 1.0)
    m_term = np.einsum("aisq,ajsq,q->asij", z[..., :p], z[..., 1:], band)
    outer00 = np.einsum("ais,ajs->asij", z[..., 0], z[..., 0])
    areas = 0.5 * hs[None, :, None, None] * (outer00 + m_term - np.swapaxes(m_term, 2, 3))
    return hs, dw, areas


def _run_level(
    problem: SdeProblem,
    scheme: str,
    hs: np.ndarray,
    dw: np.ndarray,
    areas: np.ndarray,
) -> np.ndarray:
    x = np.broadcast_to(problem.x0, (dw.shape[0], problem.dim)).copy()
    for s in range(hs.size):
        if scheme == "euler":
            x = _euler_step(problem, x, hs[s], dw[:, s])
        else:
            x = _milstein_step(problem, x, hs[s], dw[:, s], areas[:, s])
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
    n_ref = 16 * levels[-1]
    if any(n_ref % n != 0 for n in levels):
        raise ArgumentError(f"every level must divide the reference count {n_ref}")

    sq_err = np.zeros(len(levels))
    done = 0
    while done < n_paths:
        rows = range(done, min(done + _STUDY_CHUNK, n_paths))
        hs, dw, areas = _chunk_increments(problem, rows, n_ref, seed, p)
        x_ref = _run_level(problem, scheme, hs, dw, areas)
        n_chunk = len(rows)
        for li, n in enumerate(levels):
            f = n_ref // n
            grid = problem.t_end * (np.arange(n + 1) / n)
            hb = np.diff(grid)
            dwr = dw.reshape(n_chunk, n, f, problem.m)
            dwb = dwr.sum(2)
            pref = np.concatenate(
                [np.zeros((n_chunk, n, 1, problem.m)), np.cumsum(dwr, axis=2)[:, :, :-1]],
                axis=2,
            )
            cross = np.einsum("anfi,anfj->anij", pref, dwr)
            areab = areas.reshape(n_chunk, n, f, problem.m, problem.m).sum(2) + cross
            x_n = _run_level(problem, scheme, hb, dwb, areab)
            sq_err[li] += float(np.sum((x_n - x_ref) ** 2))
        done = rows.stop
    rms = np.sqrt(sq_err / n_paths)
    h = problem.t_end / np.asarray(levels, dtype=float)
    slope = float(np.polyfit(np.log(h), np.log(rms), 1)[0])
    return ConvergenceResult(step_counts=levels, h=h, rms=rms, slope=slope)
