"""Independent references: mesh discretization, midpoint corrections, exact moments."""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, replace

import numpy as np
from numpy.polynomial import polynomial as nppoly

from .basis import BasisKind, Interval, basis_integrals, gauss_rule, phi_matrix
from .coefficients import CoeffTensor
from .errors import ArgumentError, CapabilityError
from .kernel import WeightPoly, WeightSpec
from .rng import DOMAIN_PATH, normal_stream
from .sampler import GaussianTable, IntegralSpec, TruncationOrders

__all__ = [
    "MeshPath",
    "PairPartition",
    "draw_path",
    "coarsen_path",
    "table_from_path",
    "discretize_ito",
    "strat_reference",
    "enumerate_pair_partitions",
    "truncated_moment",
]


@dataclass(frozen=True, eq=False)
class MeshPath:
    """Uniformish mesh t = tau_0 < ... < tau_N = T with increments; row 0 is dtau."""

    mesh: np.ndarray
    increments: np.ndarray

    def __post_init__(self) -> None:
        if self.mesh.ndim != 1 or self.mesh.size < 2:
            raise ArgumentError("mesh needs at least two points")
        if not np.all(np.diff(self.mesh) > 0):
            raise ArgumentError("mesh must be strictly increasing")
        if self.increments.shape != (self.increments.shape[0], self.mesh.size - 1):
            raise ArgumentError("increments must have one column per mesh step")
        if not np.array_equal(self.increments[0], np.diff(self.mesh)):
            raise ArgumentError("increment row 0 must equal mesh differences exactly")
        self.mesh.setflags(write=False)
        self.increments.setflags(write=False)

    @property
    def m(self) -> int:
        return self.increments.shape[0] - 1

    @property
    def steps(self) -> int:
        return self.mesh.size - 1

    def interval(self) -> Interval:
        return Interval(float(self.mesh[0]), float(self.mesh[-1]))


@dataclass(frozen=True)
class PairPartition:
    """Partition of {1..k} into disordered pairs plus leftover singles."""

    pairs: tuple[tuple[int, int], ...]
    singles: tuple[int, ...]


def draw_path(m: int, n_steps: int, iv: Interval, seed: int, stream: int = 0) -> MeshPath:
    """Wiener increments of m components on a uniform n_steps mesh over [t, T]."""
    if m < 1:
        raise ArgumentError(f"need m >= 1 components, got {m}")
    if n_steps < 1:
        raise ArgumentError(f"need n_steps >= 1, got {n_steps}")
    mesh = iv.t + iv.length() * (np.arange(n_steps + 1) / n_steps)
    mesh[0], mesh[-1] = iv.t, iv.T
    dtau = np.diff(mesh)
    increments = np.empty((m + 1, n_steps))
    increments[0] = dtau
    root = np.sqrt(dtau)
    for i in range(1, m + 1):
        increments[i] = root * normal_stream(seed, stream, i, n_steps, DOMAIN_PATH)
    return MeshPath(mesh=mesh, increments=increments)


def coarsen_path(path: MeshPath, factor: int) -> MeshPath:
    """Merge groups of `factor` consecutive steps; Wiener rows sum bit-exactly."""
    if factor < 1 or path.steps % factor != 0:
        raise ArgumentError(f"factor {factor} must divide the {path.steps} steps")
    mesh = path.mesh[::factor].copy()
    cuts = np.arange(0, path.steps, factor)
    increments = np.add.reduceat(path.increments, cuts, axis=1)
    # Row 0 must stay exactly the mesh differences, not their rounded sums.
    increments[0] = np.diff(mesh)
    return MeshPath(mesh=mesh, increments=increments)


def table_from_path(
    path: MeshPath, max_j: int, basis: BasisKind, phi: np.ndarray | None = None
) -> GaussianTable:
    """Couple a table to a path: zeta_j = sum_l phi_j(tau_l) dw_l, left endpoints.

    Pass phi = phi_matrix(basis, max_j, path.mesh[:-1], iv) to amortize the
    basis evaluation across many paths on a shared mesh.
    """
    iv = path.interval()
    if phi is None:
        phi = phi_matrix(basis, max_j, path.mesh[:-1], iv)
    if phi.shape != (max_j + 1, path.steps):
        raise ArgumentError(f"phi must have shape {(max_j + 1, path.steps)}, got {phi.shape}")
    values = np.empty((path.m + 1, max_j + 1))
    values[0] = basis_integrals(basis, iv, max_j)
    values[1:] = path.increments[1:] @ phi.T
    return GaussianTable(m=path.m, max_j=max_j, values=values, basis=basis, iv=iv, seed=0)


def _check_path(ispec: IntegralSpec, path: MeshPath) -> None:
    if path.mesh[0] != ispec.iv.t or path.mesh[-1] != ispec.iv.T:
        raise ArgumentError(
            f"path covers [{path.mesh[0]}, {path.mesh[-1]}], spec wants [{ispec.iv.t}, {ispec.iv.T}]"
        )
    if max(ispec.indices) > path.m:
        raise ArgumentError(f"path has {path.m} components, need {max(ispec.indices)}")


def discretize_ito(ispec: IntegralSpec, path: MeshPath) -> float:
    """Prelimit nested sum over strictly increasing mesh indices, left endpoints."""
    _check_path(ispec, path)
    t = ispec.iv.t
    left = path.mesh[:-1]
    acc = None
    for psi, i_l in zip(ispec.spec.weights, ispec.indices):
        layer = np.asarray(psi.value(left, t)) * path.increments[i_l]
        if acc is not None:
            # Exclusive prefix sum enforces j_{l-1} < j_l across levels.
            prefix = np.empty_like(acc)
            prefix[0] = 0.0
            np.cumsum(acc[:-1], out=prefix[1:])
            layer = layer * prefix
        acc = layer
    return float(np.sum(acc))


def strat_reference(ispec: IntegralSpec, path: MeshPath) -> float:
    """Ito discretization plus, per adjacent pair i_l == i_{l+1} != 0, half the
    reference with that pair merged into one dt level of weight psi_l psi_{l+1}."""
    return _strat(ispec, path, 0)


def _strat(ispec: IntegralSpec, path: MeshPath, start: int) -> float:
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


def enumerate_pair_partitions(k: int, r: int) -> list[PairPartition]:
    """All partitions of {1..k} into r disordered pairs and k - 2r singles.

    Each (k, r) up to k = _MAX_TOTAL_K is enumerated once per process; every
    call returns a fresh list of the same (frozen) partitions.
    """
    if k < 0 or r < 0 or 2 * r > k:
        raise ArgumentError(f"need 0 <= 2r <= k, got k={k}, r={r}")
    if k <= _MAX_TOTAL_K:
        return list(_pair_partitions(k, r))
    return list(_pair_partitions.__wrapped__(k, r))


@functools.cache
def _pair_partitions(k: int, r: int) -> tuple[PairPartition, ...]:
    out: list[PairPartition] = []

    def rec(
        remaining: tuple[int, ...],
        pairs: tuple[tuple[int, int], ...],
        singles: tuple[int, ...],
    ) -> None:
        if len(pairs) == r:
            out.append(PairPartition(pairs=pairs, singles=singles + remaining))
            return
        if len(remaining) < 2 * (r - len(pairs)):
            return
        first, rest = remaining[0], remaining[1:]
        # The smallest free index is either paired with each later one or kept
        # single, so every partition appears exactly once, pairs sorted.
        for pos in range(len(rest)):
            rec(rest[:pos] + rest[pos + 1 :], pairs + ((first, rest[pos]),), singles)
        rec(rest, pairs, singles + (first,))

    rec(tuple(range(1, k + 1)), (), ())
    return tuple(out)


_LABELS = "abcdefgh"  # one per pair or dt axis
_MAX_TOTAL_K = len(_LABELS)  # the largest total multiplicity of truncated_moment


def truncated_moment(
    ispecs: IntegralSpec | list[IntegralSpec],
    tensors: CoeffTensor | list[CoeffTensor],
    orders: TruncationOrders | list[TruncationOrders],
) -> float:
    """Exact E[X] or E[X Y] of truncated expansions via pair-partition matching.

    Isserlis' rule pairs only axes of one Wiener component, so the matchings
    are the products of each component's own pairings.
    """
    single = [isinstance(ispecs, IntegralSpec), isinstance(tensors, CoeffTensor),
              isinstance(orders, TruncationOrders)]
    if any(single):
        if not all(single):
            raise ArgumentError("pass one spec, tensor and orders, or a list of each")
        ispecs, tensors, orders = [ispecs], [tensors], [orders]
    ispecs, tensors, orders = list(ispecs), list(tensors), list(orders)
    if len(ispecs) not in (1, 2) or len(tensors) != len(ispecs) or len(orders) != len(ispecs):
        raise ArgumentError("need one or two specs with matching tensors and orders")
    basis, iv = ispecs[0].basis, ispecs[0].iv
    if any(s.basis is not basis for s in ispecs) or any(s.iv != iv for s in ispecs):
        raise ArgumentError("specs must share basis and interval")
    total_k = sum(s.spec.k for s in ispecs)
    if total_k > _MAX_TOTAL_K:
        raise CapabilityError(f"total multiplicity {total_k} > {_MAX_TOTAL_K} not supported")
    for ispec, tensor, o in zip(ispecs, tensors, orders):
        if tensor.kind is not basis or tensor.spec != ispec.spec or tensor.iv != iv:
            raise ArgumentError("tensor does not match its spec")
        if len(o.p) != ispec.spec.k or any(p > q for p, q in zip(o.p, tensor.orders)):
            raise ArgumentError(f"orders {o.p} exceed tensor orders {tensor.orders}")

    # The axes of all operands in one row; spans[op] is the slice of op's axes.
    comps = [c for ispec in ispecs for c in ispec.indices]
    tops = [p for o in orders for p in o.p]
    ends = list(itertools.accumulate(len(ispec.indices) for ispec in ispecs))
    spans = list(zip([0, *ends], ends))
    groups: dict[int, list[int]] = {}
    for n, comp in enumerate(comps):
        groups.setdefault(comp, []).append(n)
    dt_pos = groups.pop(0, [])
    if any(len(group) % 2 for group in groups.values()):
        return 0.0
    pairings = {n: enumerate_pair_partitions(n, n // 2) for n in {len(g) for g in groups.values()}}
    per_group = [
        [[(group[a - 1], group[b - 1]) for a, b in m.pairs] for m in pairings[len(group)]]
        for group in groups.values()
    ]
    # Pairs take the first labels in order of their first axis and dt axes the
    # next ones, as in one matching of all Gaussian axes; that fixes each einsum
    # string and so its bits.
    n_pairs = (len(comps) - len(dt_pos)) // 2
    dt_labels = list(_LABELS[n_pairs : n_pairs + len(dt_pos)])
    labels = [""] * len(comps)
    dt_operands = []
    if dt_pos:
        dt_values = basis_integrals(basis, iv, max(tops[n] for n in dt_pos))
        for n, lab in zip(dt_pos, dt_labels):
            labels[n] = lab
            dt_operands.append(dt_values[: tops[n] + 1])

    contributions = []
    for choice in itertools.product(*per_group):
        trims = list(tops)
        for lab, (na, nb) in zip(_LABELS, sorted(itertools.chain.from_iterable(choice))):
            labels[na] = labels[nb] = lab
            trims[na] = trims[nb] = min(tops[na], tops[nb])
        operands = [t.data[tuple(slice(0, p + 1) for p in trims[lo:hi])]
                    for t, (lo, hi) in zip(tensors, spans)]
        terms = ["".join(labels[lo:hi]) for lo, hi in spans] + dt_labels
        contributions.append(float(np.einsum(",".join(terms) + "->", *operands, *dt_operands)))
    return math.fsum(contributions)
