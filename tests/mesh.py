"""Mesh discretization with Stratonovich corrections: the pathwise reference.

A second route to the expansion's values, for the tests only. A path is a
mesh with Wiener increments drawn from the library's Philox streams, so that
a table coupled to the same path (`table_from_path`) can be compared with
the prelimit sums. Unlike `oracles.py`, this module imports the library.

Every function takes one path, increments of shape (m + 1, N), or a batch of
paths on one mesh, increments of shape (paths, m + 1, N), and then gives one
value per path. Each path of a batch has the bits of that path alone,
except the coupled table (see `table_from_path`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from numpy.polynomial import polynomial as nppoly

from stratint import (
    ArgumentError,
    BasisKind,
    GaussianTable,
    IntegralSpec,
    Interval,
    WeightPoly,
    WeightSpec,
    basis_integrals,
    gauss_rule,
    normal_stream,
    phi_matrix,
)
from stratint.rng import DOMAIN_PATH


@dataclass(frozen=True, eq=False)
class MeshPath:
    """Mesh t = tau_0 < ... < tau_N = T with the increments of one or more paths.

    increments is (m + 1, N), or (paths, m + 1, N) for a batch; row 0 of
    each path is dtau.
    """

    mesh: np.ndarray
    increments: np.ndarray

    def __post_init__(self) -> None:
        if self.mesh.ndim != 1 or self.mesh.size < 2:
            raise ArgumentError("mesh needs at least two points")
        if not np.all(np.diff(self.mesh) > 0):
            raise ArgumentError("mesh must be strictly increasing")
        if self.increments.ndim not in (2, 3) or self.increments.shape[-1] != self.mesh.size - 1:
            raise ArgumentError("increments must have one column per mesh step")
        if not np.all(self.increments[..., 0, :] == np.diff(self.mesh)):
            raise ArgumentError("increment row 0 must equal mesh differences exactly")
        self.mesh.setflags(write=False)
        self.increments.setflags(write=False)

    @property
    def m(self) -> int:
        return self.increments.shape[-2] - 1

    @property
    def steps(self) -> int:
        return self.mesh.size - 1

    def interval(self) -> Interval:
        return Interval(float(self.mesh[0]), float(self.mesh[-1]))


def draw_path(m: int, n_steps: int, iv: Interval, seed: int,
              stream: int | range = 0) -> MeshPath:
    """Wiener increments of m components on a uniform n_steps mesh over [t, T].

    A range of streams gives a batch whose path r is the path of stream[r].
    """
    if m < 1:
        raise ArgumentError(f"need m >= 1 components, got {m}")
    if n_steps < 1:
        raise ArgumentError(f"need n_steps >= 1, got {n_steps}")
    mesh = iv.t + iv.length() * (np.arange(n_steps + 1) / n_steps)
    mesh[0], mesh[-1] = iv.t, iv.T
    dtau = np.diff(mesh)
    z = normal_stream(seed, stream, range(1, m + 1), n_steps, DOMAIN_PATH)
    increments = np.empty((*z.shape[:-2], m + 1, n_steps))
    increments[..., 0, :] = dtau
    increments[..., 1:, :] = np.sqrt(dtau) * z
    return MeshPath(mesh=mesh, increments=increments)


def coarsen_path(path: MeshPath, factor: int) -> MeshPath:
    """Merge groups of `factor` consecutive steps; Wiener rows sum bit-exactly."""
    if factor < 1 or path.steps % factor != 0:
        raise ArgumentError(f"factor {factor} must divide the {path.steps} steps")
    mesh = path.mesh[::factor].copy()
    cuts = np.arange(0, path.steps, factor)
    increments = np.add.reduceat(path.increments, cuts, axis=-1)
    # Row 0 must stay exactly the mesh differences, not their rounded sums.
    increments[..., 0, :] = np.diff(mesh)
    return MeshPath(mesh=mesh, increments=increments)


def table_from_path(
    path: MeshPath, max_j: int, basis: BasisKind, phi: np.ndarray | None = None
) -> GaussianTable:
    """Couple a table to a path: zeta_j = sum_l phi_j(tau_l) dw_l, left endpoints.

    Pass phi = phi_matrix(basis, max_j, path.mesh[:-1], iv) to amortize the
    basis evaluation across many paths on a shared mesh. A batch is one
    matrix product over all its paths, so its rows agree with the single
    paths' tables to rounding, not bit for bit.
    """
    iv = path.interval()
    if phi is None:
        phi = phi_matrix(basis, max_j, path.mesh[:-1], iv)
    if phi.shape != (max_j + 1, path.steps):
        raise ArgumentError(f"phi must have shape {(max_j + 1, path.steps)}, got {phi.shape}")
    lead = path.increments.shape[:-2]
    dw = np.ascontiguousarray(path.increments[..., 1:, :]).reshape(-1, path.steps)
    values = np.empty((*lead, path.m + 1, max_j + 1))
    values[..., 0, :] = basis_integrals(basis, iv, max_j)
    values[..., 1:, :] = (dw @ phi.T).reshape(*lead, path.m, max_j + 1)
    return GaussianTable(m=path.m, max_j=max_j, values=values, basis=basis, iv=iv, seed=0)


def _check_path(ispec: IntegralSpec, path: MeshPath) -> None:
    if path.mesh[0] != ispec.iv.t or path.mesh[-1] != ispec.iv.T:
        raise ArgumentError(
            f"path covers [{path.mesh[0]}, {path.mesh[-1]}], spec wants [{ispec.iv.t}, {ispec.iv.T}]"
        )
    if max(ispec.indices) > path.m:
        raise ArgumentError(f"path has {path.m} components, need {max(ispec.indices)}")


def discretize_ito(ispec: IntegralSpec, path: MeshPath) -> float | np.ndarray:
    """Prelimit nested sum over strictly increasing mesh indices, left endpoints."""
    _check_path(ispec, path)
    t = ispec.iv.t
    left = path.mesh[:-1]
    acc = None
    for psi, i_l in zip(ispec.spec.weights, ispec.indices):
        layer = np.asarray(psi.value(left, t)) * path.increments[..., i_l, :]
        if acc is not None:
            # Exclusive prefix sum enforces j_{l-1} < j_l across levels.
            prefix = np.empty_like(acc)
            prefix[..., 0] = 0.0
            np.cumsum(acc[..., :-1], axis=-1, out=prefix[..., 1:])
            layer = layer * prefix
        acc = layer
    total = np.sum(acc, axis=-1)
    return float(total) if total.ndim == 0 else total


def strat_reference(ispec: IntegralSpec, path: MeshPath) -> float | np.ndarray:
    """Ito discretization plus, per adjacent pair i_l == i_{l+1} != 0, half the
    reference with that pair merged into one dt level of weight psi_l psi_{l+1}."""
    return _strat(ispec, path, 0)


def _strat(ispec: IntegralSpec, path: MeshPath, start: int) -> float | np.ndarray:
    # Merging only pairs from `start` on counts each set once (Kloeden & Platen 5.2).
    w, idx, iv = ispec.spec.weights, ispec.indices, ispec.iv
    if start and len(w) == 1:  # a merged pair alone: exact Gauss rule
        rule = gauss_rule(w[0].degree // 2 + 1, iv)
        return rule.integrate(np.asarray(w[0].value(rule.nodes, iv.t)))
    total = discretize_ito(ispec, path)
    for l in range(start, len(w) - 1):
        if idx[l] == idx[l + 1] != 0:
            psi = WeightPoly(tuple(float(c) for c in nppoly.polymul(w[l].coeffs, w[l + 1].coeffs)))
            merged = WeightSpec((*w[:l], psi, *w[l + 2 :]))
            reduced = replace(ispec, spec=merged, indices=(*idx[:l], 0, *idx[l + 2 :]))
            total += 0.5 * _strat(reduced, path, l + 1)
    return total
