"""Exact moments of truncated expansions: pair partitions and Isserlis' rule."""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .basis import basis_integrals
from .coefficients import CoeffTensor
from .errors import ArgumentError, CapabilityError
from .sampler import IntegralSpec, TruncationOrders, _provenance_error, _same

# normal_stream, phi_matrix and gauss_rule are unused here but stay module
# attributes, where perfbench/tracer.py wraps them: it reads each traced name
# from the module's own namespace.
from .basis import gauss_rule, phi_matrix  # noqa: F401
from .rng import normal_stream  # noqa: F401

__all__ = [
    "PairPartition",
    "enumerate_pair_partitions",
    "truncated_moment",
]


@dataclass(frozen=True)
class PairPartition:
    """Partition of {1..k} into disordered pairs plus leftover singles."""

    pairs: tuple[tuple[int, int], ...]
    singles: tuple[int, ...]


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
    are the products of each component's own pairings. They are compiled once
    per structure (component indices and orders) by _moment_plan; a call
    checks its arguments, then slices, runs one einsum per matching and sums
    the contributions with math.fsum.
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
    if any(s.basis is not basis for s in ispecs) or not all(_same(s.iv, iv) for s in ispecs):
        raise ArgumentError("specs must share basis and interval")
    total_k = sum(s.spec.k for s in ispecs)
    if total_k > _MAX_TOTAL_K:
        raise CapabilityError(f"total multiplicity {total_k} > {_MAX_TOTAL_K} not supported")
    for ispec, tensor, o in zip(ispecs, tensors, orders):
        if _provenance_error(ispec, tensor, basis, iv):
            raise ArgumentError("tensor does not match its spec")
        if len(o.p) != ispec.spec.k or (o.p != tensor.orders
                                        and any(p > q for p, q in zip(o.p, tensor.orders))):
            raise ArgumentError(f"orders {o.p} exceed tensor orders {tensor.orders}")

    plan = _moment_plan(tuple(s.indices for s in ispecs), tuple(o.p for o in orders))
    if plan is None:
        return 0.0
    dt_operands = []
    if plan.dt_tops:
        dt_values = basis_integrals(basis, iv, max(plan.dt_tops))
        dt_operands = [dt_values[: top + 1] for top in plan.dt_tops]
    datas = [t.data for t in tensors]
    return math.fsum([
        float(np.einsum(subscripts, *[d[s] for d, s in zip(datas, slices)], *dt_operands))
        for subscripts, slices in plan.matchings
    ])


class _MomentPlan(NamedTuple):
    """Per matching, the einsum subscripts and each operand's slice tuple; and
    the top index of each dt axis, in the order of its einsum operand."""

    matchings: tuple[tuple[str, tuple[tuple[slice, ...], ...]], ...]
    dt_tops: tuple[int, ...]


@functools.lru_cache(maxsize=256)
def _moment_plan(indices_per_operand: tuple[tuple[int, ...], ...],
                 orders_per_operand: tuple[tuple[int, ...], ...]) -> _MomentPlan | None:
    """The matchings of truncated_moment for operands with these component
    indices and truncation orders, or None when a component appears an odd
    number of times. It keys on structure alone and holds no array, so one
    plan serves every basis, interval and tensor of that structure."""
    # The axes of all operands in one row; spans[op] is the slice of op's axes.
    comps = [c for indices in indices_per_operand for c in indices]
    tops = [p for orders in orders_per_operand for p in orders]
    ends = list(itertools.accumulate(len(indices) for indices in indices_per_operand))
    spans = list(zip([0, *ends], ends))
    groups: dict[int, list[int]] = {}
    for n, comp in enumerate(comps):
        groups.setdefault(comp, []).append(n)
    dt_pos = groups.pop(0, [])
    if any(len(group) % 2 for group in groups.values()):
        return None
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
    for n, lab in zip(dt_pos, dt_labels):
        labels[n] = lab

    matchings = []
    for choice in itertools.product(*per_group):
        trims = list(tops)
        for lab, (na, nb) in zip(_LABELS, sorted(itertools.chain.from_iterable(choice))):
            labels[na] = labels[nb] = lab
            trims[na] = trims[nb] = min(tops[na], tops[nb])
        slices = tuple(tuple(slice(0, p + 1) for p in trims[lo:hi]) for lo, hi in spans)
        terms = ["".join(labels[lo:hi]) for lo, hi in spans] + dt_labels
        matchings.append((",".join(terms) + "->", slices))
    return _MomentPlan(tuple(matchings), tuple(tops[n] for n in dt_pos))
