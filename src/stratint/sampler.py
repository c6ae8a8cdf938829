"""Gaussian tables and truncated-expansion samplers, generic and closed-form."""

from __future__ import annotations

import functools
import math
import operator
import threading
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .basis import BasisKind, Interval, basis_integrals
from .coefficients import CoeffTensor, _read_only
from .errors import ArgumentError, DomainError
from .kernel import WeightSpec
from .rng import DOMAIN_TABLE, normal_stream

__all__ = [
    "GaussianTable",
    "IntegralSpec",
    "TruncationOrders",
    "draw_table",
    "sample_truncated",
    "sample_closed_form",
    "sample_batch",
    "CLOSED_FORM_NAMES",
    "CLOSED_FORM_EXPONENTS",
]

_BATCH_CHUNK = 256
# sample_truncated contracts a batch this many support terms at a time (one
# row at least), so its transient arrays stay near one row's size whatever n is
_CONTRACT_TERMS = 16384
# a sub-block of fewer rows is summed by math.fsum row by row: below this the
# vectorised sum's fixed cost per call exceeds the per-row fsum it saves
_CERTIFY_ROWS = 8
# terms whose magnitudes sum below this overflow no partial sum of the TwoSum
# tree or of math.fsum (whose partials stay within a few times that sum)
_SAFE_MAGNITUDE = 2.0**1020


@dataclass(frozen=True, eq=False)
class GaussianTable:
    """Variates zeta_j^(i) in rows 1..m; row 0 holds the deterministic dt column int phi_j.

    `values` is (m + 1, max_j + 1) for one stream, or (n, m + 1, max_j + 1)
    for a batch, where `stream` holds the n stream numbers.
    """

    m: int
    max_j: int
    values: np.ndarray
    basis: BasisKind
    iv: Interval
    seed: int
    stream: int | Sequence[int] = 0

    def __post_init__(self) -> None:
        self.values.setflags(write=False)


@dataclass(frozen=True)
class IntegralSpec:
    """One iterated integral: weights, component indices (0 means dt), basis, interval."""

    spec: WeightSpec
    indices: tuple[int, ...]
    basis: BasisKind
    iv: Interval

    def __post_init__(self) -> None:
        if len(self.indices) != self.spec.k:
            raise ArgumentError(
                f"need {self.spec.k} component indices, got {len(self.indices)}"
            )
        if min(self.indices) < 0:
            raise ArgumentError(f"component indices must be >= 0, got {self.indices}")


@dataclass(frozen=True)
class TruncationOrders:
    """Per-axis index bounds p_1..p_k of the truncated expansion."""

    p: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "p", tuple(self.p))  # part of a plan's cache key
        if not self.p or min(self.p) < 0:
            raise ArgumentError(f"truncation orders must be >= 0, got {self.p}")

    @staticmethod
    def uniform(k: int, p: int) -> "TruncationOrders":
        return TruncationOrders((p,) * k)


def _draw(m: int, max_j: int, seed: int, stream: int | Sequence[int]) -> np.ndarray:
    """The variates of the tables of `stream`: components 1..m, indices 0..max_j."""
    if m < 1:
        raise ArgumentError(f"need m >= 1 Wiener components, got {m}")
    if max_j < 0:
        raise ArgumentError(f"need max_j >= 0, got {max_j}")
    # one draw of components 1..m, whose leading axes are the batch shape
    # normal_stream gives `stream`
    return normal_stream(seed, stream, range(1, m + 1), max_j + 1, DOMAIN_TABLE)


def _table_rows(dt: np.ndarray, z: np.ndarray, pad: bool) -> np.ndarray:
    """The values of the tables of the draw z (..., m, max_j + 1), each as one
    flat row: the dt row, components 1..m, then a slot holding 1.0 if pad."""
    *lead, m, width = z.shape
    size = (m + 1) * width
    rows = np.empty((*lead, size + pad))
    rows[..., :width] = dt
    rows[..., width:size] = z.reshape(*lead, m * width)
    if pad:
        rows[..., size] = 1.0
    return rows


def draw_table(
    m: int,
    max_j: int,
    basis: BasisKind,
    iv: Interval,
    seed: int,
    stream: int | Sequence[int] = 0,
) -> GaussianTable:
    """Deterministic table for (seed, stream): m rows of N(0,1) plus the dt row.

    A sequence or range of streams gives a batch of shape (n, m + 1, max_j + 1)
    whose row r is the table of stream[r].
    """
    z = _draw(m, max_j, seed, stream)
    values = _table_rows(basis_integrals(basis, iv, max_j), z, False)
    return GaussianTable(m=m, max_j=max_j, values=values.reshape(*z.shape[:-2], m + 1, max_j + 1),
                         basis=basis, iv=iv, seed=seed, stream=stream)


def _same(a, b) -> bool:
    """a == b, answered by identity first: the same spec or interval object is
    usually passed on every call, and dataclass equality costs microseconds."""
    return a is b or a == b


def _provenance_error(ispec: IntegralSpec, tensor: CoeffTensor, basis: BasisKind,
                      iv: Interval) -> str | None:
    """Why the spec does not match its tensor and a table of basis and iv, or None."""
    if tensor.kind is not ispec.basis or basis is not ispec.basis:
        return "basis mismatch between spec, tensor and table"
    if not _same(tensor.spec, ispec.spec):
        return "weight mismatch between spec and tensor"
    if not (_same(tensor.iv, ispec.iv) and _same(iv, ispec.iv)):
        return "interval mismatch between spec, tensor and table"
    return None


def _overflow(ispec: IntegralSpec) -> DomainError:
    return DomainError(f"a sample of components {ispec.indices} on [{ispec.iv.t!r}, "
                       f"{ispec.iv.T!r}] overflows double precision")


class _Plan(NamedTuple):
    """The support terms of one or more specs, concatenated: per axis, where
    each term's factor sits in a flat table row, component * width + j; the
    coefficients; each spec's segment [a, b) of the terms; whether an axis
    beyond a spec's multiplicity reads a slot holding 1.0, one past the end
    of the row; the bytes the plan keeps alive in the cache, its arrays and
    the data of its key's tensors; and the basis, interval, max_j and dt row
    of the tables it reads."""

    gather: tuple[np.ndarray, ...]
    coeffs: np.ndarray
    bounds: tuple[tuple[int, int], ...]
    padded: bool
    nbytes: int
    basis: BasisKind
    iv: Interval
    max_j: int
    dt: np.ndarray


# the sampler's plans, oldest out first, keyed by _plan_key; a key holds its
# tensors, whose data never change. The cache keeps at most _PLAN_CACHE_SIZE
# plans, and at most _PLAN_CACHE_BYTES of their nbytes unless the newest alone
# holds more (a tensor in several keys counts in each). The `sample` benchmark
# workload asks for 12 keys, 58 kB in all: 6 Legendre and 4 trigonometric
# one-spec plans and one joint plan of each basis
_PLANS: dict[tuple, _Plan] = {}
_PLAN_CACHE_SIZE = 16
_PLAN_CACHE_BYTES = 64 * 2**20  # eight Legendre (1,0,2) o=64 plans, 7.5 MB each
_PLANS_LOCK = threading.Lock()


def _plan_key(tensors: list[CoeffTensor], ps: tuple[tuple[int, ...], ...],
              ispecs: list[IntegralSpec], max_j: int, m: int) -> tuple:
    """The _PLANS key of the plan of the specs' tensors at orders ps in tables
    of m components and indices up to max_j."""
    return (tuple(tensors), ps, tuple(s.indices for s in ispecs), max_j, m)


def _plan(ispecs: list[IntegralSpec], tensors: list[CoeffTensor],
          orders: list[TruncationOrders], m: int, max_j: int, basis: BasisKind,
          iv: Interval) -> _Plan:
    """The plan of the specs' support terms in rows of the tables of m
    components, indices 0..max_j, basis and iv, each axis padded to the
    largest k.

    Every check but provenance depends on the key alone, so a cached plan
    re-checks provenance only; a new one passes every check first.
    """
    key = _plan_key(tensors, tuple(o.p for o in orders), ispecs, max_j, m)
    for ispec, tensor in zip(ispecs, tensors):
        if error := _provenance_error(ispec, tensor, basis, iv):
            raise ArgumentError(error)
    plan = _PLANS.get(key)
    if plan is not None:
        return plan
    k = max(s.spec.k for s in ispecs)
    width = max_j + 1
    slot = (m + 1) * width
    axes, coeffs, bounds, end = [], [], [], 0
    for ispec, tensor, o in zip(ispecs, tensors, orders):
        p = o.p
        if len(p) != ispec.spec.k:
            raise ArgumentError(f"need {ispec.spec.k} truncation orders, got {len(p)}")
        if p != tensor.orders and any(q > t for q, t in zip(p, tensor.orders)):
            raise ArgumentError(f"orders {p} exceed tensor orders {tensor.orders}")
        if max(p) > max_j:
            raise ArgumentError(f"table holds indices up to {max_j}, need {max(p)}")
        if max(ispec.indices) > m:
            raise ArgumentError(f"table has {m} components, need {max(ispec.indices)}")
        support = tensor.support(p)
        pad = np.full(len(support.coeffs), slot, dtype=np.intp)
        axes.append(tuple(i * width + a for i, a in zip(ispec.indices, support.axes))
                    + (pad,) * (k - ispec.spec.k))
        coeffs.append(support.coeffs)
        bounds.append((end, end + len(support.coeffs)))
        end += len(support.coeffs)
    gather = tuple(_read_only(np.concatenate(a)) for a in zip(*axes))
    coeffs = _read_only(np.concatenate(coeffs))
    dt = _read_only(basis_integrals(basis, iv, max_j))
    held = {id(t): t.data.nbytes for t in tensors}
    nbytes = sum(g.nbytes for g in gather) + coeffs.nbytes + dt.nbytes + sum(held.values())
    plan = _Plan(gather, coeffs, tuple(bounds), any(s.spec.k < k for s in ispecs), nbytes,
                 basis, iv, max_j, dt)
    with _PLANS_LOCK:
        total = sum(p.nbytes for p in _PLANS.values())
        while _PLANS and (len(_PLANS) >= _PLAN_CACHE_SIZE
                          or total + plan.nbytes > _PLAN_CACHE_BYTES):
            total -= _PLANS.pop(next(iter(_PLANS))).nbytes
        _PLANS[key] = plan
    return plan


def _fsum_or_inf(terms: memoryview) -> float:
    try:
        return math.fsum(terms)
    except (OverflowError, ValueError):  # a partial sum past the range, or inf - inf
        return math.inf


def _segment_sums(rows: np.ndarray, plan: _Plan, ispecs: Sequence[IntegralSpec],
                  out: np.ndarray) -> None:
    """math.fsum of each table's terms C * ((zeta_a * zeta_b) * zeta_c), one
    sum per spec segment, into out[row, segment].

    Each table is one flat row, which holds the slot of 1.0 when the plan is
    padded: 1-D fancy indexing is numpy's fast path, and a padded axis
    multiplies a term by 1.0, which leaves it exact. Raises DomainError for
    the first spec with a sum that is not finite, after the rest have been
    summed.
    """
    first, *rest = plan.gather
    bad = len(plan.bounds)
    for r, z in enumerate(rows):
        terms = z[first]
        for g in rest:
            terms *= z[g]
        terms *= plan.coeffs
        flat = memoryview(terms)
        try:
            sums = [math.fsum(flat[a:b]) for a, b in plan.bounds]
        except (OverflowError, ValueError):
            sums = [_fsum_or_inf(flat[a:b]) for a, b in plan.bounds]
        if not all(map(math.isfinite, sums)):
            bad = min(bad, [math.isfinite(x) for x in sums].index(False))
        out[r] = sums
    if bad < len(plan.bounds):
        raise _overflow(ispecs[bad])


# an overflow raises DomainError, without a warning from numpy first; as a
# decorator, np.errstate costs half what a with-statement does on each call
@np.errstate(over="ignore", invalid="ignore")
def sample_truncated(
    ispec: IntegralSpec,
    tensor: CoeffTensor,
    table: GaussianTable,
    orders: TruncationOrders,
) -> float | np.ndarray:
    """Box-truncated expansion sum C_{j_k..j_1} prod zeta, exactly rounded.

    Each value equals math.fsum of the row's nonzero terms C * ((zeta_a *
    zeta_b) * zeta_c), so it does not depend on summation order. A batched
    table gives one value per row, each equal to the value of that row's own
    table. Every sub-block gathers only the coefficient support's factors
    from the table; sub-blocks hold _CONTRACT_TERMS support terms (one row at
    least). One of _CERTIFY_ROWS rows or more is summed by a certified
    vectorised sum, with a per-row math.fsum for the rows it cannot certify;
    a smaller one sums each row by math.fsum, as sample_batch sums a small
    block of several specs. The terms are gathered by a plan from the
    sampler's plan cache (_plan). Raises DomainError when a value overflows
    double precision.
    """
    plan = _plan([ispec], [tensor], [orders], table.m, table.max_j, table.basis, table.iv)
    values = table.values if table.values.ndim == 3 else table.values[None]
    step = max(1, _CONTRACT_TERMS // max(1, len(plan.coeffs)))
    sums = np.empty(len(values))
    for lo in range(0, len(values), step):
        block = values[lo:lo + step]
        if len(block) < _CERTIFY_ROWS:
            rows = block.reshape(len(block), -1)
            _segment_sums(rows, plan, (ispec,), sums[lo:lo + step, None])
            continue
        # one contiguous copy with the rows last, so one term's values over
        # the rows are contiguous
        z = np.ascontiguousarray(block.reshape(len(block), -1).T)
        terms = z[plan.gather[0]]
        for g in plan.gather[1:]:
            terms *= z[g]
        terms *= plan.coeffs[:, None]
        try:
            sums[lo:lo + step] = _column_sums(terms)
        except (OverflowError, ValueError):  # from math.fsum
            raise _overflow(ispec) from None
        if not np.isfinite(sums[lo:lo + step]).all():
            raise _overflow(ispec)
    return float(sums[0]) if table.values.ndim == 2 else sums


@np.errstate(over="ignore", invalid="ignore")
def _joint_sums(plan: _Plan, ispecs: list[IntegralSpec], z: np.ndarray, out: np.ndarray) -> None:
    """Every spec's sample of each table of a small block's draw z, into out[row, spec]."""
    _segment_sums(_table_rows(plan.dt, z, plan.padded), plan, ispecs, out)


def _fsum_rows(terms: np.ndarray) -> list[float]:
    """math.fsum of each row, fed from a slice of a contiguous memoryview.

    The slices hand fsum one float at a time, so no list of Python floats is
    built.
    """
    width = terms.shape[1]
    flat = memoryview(np.ascontiguousarray(terms).reshape(-1))
    return [math.fsum(flat[i:i + width]) for i in range(0, len(flat), width)]


def _certify(r: np.ndarray, t: np.ndarray, bound: np.ndarray) -> np.ndarray:
    """Columns whose exact sum r + t + d, with |d| <= bound, rounds to r.

    A bound of 0 means r is the rounded exact sum. Otherwise the exact sum
    must lie strictly inside half the gap from r toward zero, which is the
    smaller gap when |r| is a power of two. A zero r is left to math.fsum,
    which gives every exact zero sum as +0.0.
    """
    half_gap = (np.abs(r) - np.nextafter(np.abs(r), 0.0)) / 2
    return (r != 0) & ((bound == 0) | (np.abs(t) + bound < half_gap))


def _column_sums(terms: np.ndarray) -> np.ndarray:
    """math.fsum of each column of a (terms, columns) array, bit for bit.

    A TwoSum tree that folds the terms in halves gives each column's rounded
    sum and its m = n - 1 exact rounding errors, a + b = s + e (Knuth; Ogita,
    Rump and Oishi, SIAM J. Sci. Comput. 26(6), 2005). Any floating sum of
    the errors differs from their exact sum by at most gamma_{m-1} = (m - 1)
    u / (1 - (m - 1) u) times their absolute sum, so the compensated sum r
    is the exactly rounded sum whenever that bound and r's own rounding
    error keep the exact sum inside r's rounding cell. Columns that _certify
    rejects, and every column of a block whose terms could overflow a
    partial sum, go to math.fsum. One or two terms that cannot overflow
    need no tree: their floating sum is the exactly rounded one.
    """
    n, cols = terms.shape
    if n == 0:
        return np.zeros(cols)
    if not max(terms.max(), -terms.min()) < _SAFE_MAGNITUDE / n:
        return np.array(_fsum_rows(terms.T))
    if n <= 2:
        # one rounding of the exact sum, and + 0.0 turns a zero sum into +0.0
        return (terms[0] + terms[1] if n == 2 else terms[0]) + 0.0
    x = terms.copy()
    errors = np.empty((n - 1, cols))
    done = 0
    while len(x) > 1:
        half = len(x) // 2
        a, b = x[:half], x[len(x) - half:]
        s = a + b
        bv = s - a
        # e = (a - (s - bv)) + (b - bv), computed in place: temporaries of
        # this size cost more to allocate than to fill
        e = np.subtract(s, bv, out=errors[done:done + half])
        np.subtract(a, e, out=e)
        e += np.subtract(b, bv, out=bv)
        done += half
        a[...] = s  # an odd middle term stays in place for the next fold
        x = x[:len(x) - half]
    total = x[0]
    est = errors.sum(axis=0)
    abs_sum = np.abs(errors, out=errors).sum(axis=0)
    # 2 (m - 1) u >= gamma_{m-1} / (1 - gamma_{m-1}), which also covers the
    # rounding of abs_sum; nextafter covers the rounding of the product and
    # keeps a bound that underflows above zero. One error (n = 2) is its own
    # exact sum.
    scale = 2 * max(n - 2, 0) * 2.0**-53
    bound = np.where((abs_sum == 0) | (scale == 0), 0.0,
                     np.nextafter(scale * abs_sum, np.inf))
    r = total + est
    rv = r - total
    t = (total - (r - rv)) + (est - rv)
    ok = _certify(r, t, bound)
    if not ok.all():
        bad = ~ok
        r[bad] = _fsum_rows(terms.T[bad])
    return r


def _band(x: np.ndarray, y: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Sum over the last axis of x * y * w, for a whole batch in one call.

    A batch row has the bytes of the same sum over one table. In a probe of
    546 cases (numpy 2.4, AVX-512), the BLAS form (x * y) @ w broke that in
    190 of the 210 cases that tried it, and no two-operand einsum layout did.
    The three-operand form stays because the closed-form digests record its
    bytes.
    """
    return np.einsum("...q,...q,q->...", x, y, w)


def _leg_k1(a: np.ndarray, length: float, p: int, kind: str) -> float:
    if kind == "I0":
        return np.sqrt(length) * a[..., 0]
    if kind == "I1":
        s = a[..., 0] + (a[..., 1] / math.sqrt(3.0) if p >= 1 else 0.0)
        return -0.5 * length**1.5 * s
    if kind == "I2":
        s = a[..., 0] + (0.5 * math.sqrt(3.0) * a[..., 1] if p >= 1 else 0.0)
        s += a[..., 2] / (2.0 * math.sqrt(5.0)) if p >= 2 else 0.0
        return length**2.5 / 3.0 * s
    s = a[..., 0] + (0.6 * math.sqrt(3.0) * a[..., 1] if p >= 1 else 0.0)
    s += ((a[..., 2] / math.sqrt(5.0) if p >= 2 else 0.0)
          + (a[..., 3] / (5.0 * math.sqrt(7.0)) if p >= 3 else 0.0))
    return -0.25 * length**3.5 * s


def _i00_band(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """The band difference of J_(i,j), sum_i (a_(i-1) b_i - b_(i-1) a_i) /
    sqrt(4 i^2 - 1), as one band per direction. Swapping a and b negates it
    exactly, and with a == b it is exactly +0.0."""
    i = np.arange(1, p + 1)
    w = 1.0 / np.sqrt(4.0 * i * i - 1.0)
    return _band(a[..., :p], b[..., 1:p + 1], w) - _band(b[..., :p], a[..., 1:p + 1], w)


def _i00(a: np.ndarray, b: np.ndarray, length: float | np.ndarray, p: int) -> float:
    """The Levy area J_(i,j): a and b broadcast against each other, and so
    does length against the result. The band difference comes first, so with
    a == b it is exactly zero and the value is length / 2 * a0 * a0."""
    s = _i00_band(a, b, p)
    s += a[..., 0] * b[..., 0]
    s *= 0.5 * length
    return s


def _i01(a: np.ndarray, b: np.ndarray, length: float, p: int) -> float:
    br = a[..., 0] * b[..., 1] / math.sqrt(3.0) if p >= 1 else 0.0
    if p >= 2:
        i = np.arange(p - 1)
        d = 1.0 / (np.sqrt((2.0 * i + 1) * (2 * i + 5)) * (2 * i + 3))
        br += (_band(a[..., :p - 1], b[..., 2:p + 1], (i + 2) * d)
               - _band(a[..., 2:p + 1], b[..., :p - 1], (i + 1) * d))
    i = np.arange(p + 1)
    br -= _band(a[..., :p + 1], b[..., :p + 1], 1.0 / ((2.0 * i - 1) * (2 * i + 3)))
    return -0.5 * length * _i00(a, b, length, p) - 0.25 * length**2 * br


def _shuffled(a: np.ndarray, b: np.ndarray, length: float, p: int, kind: str,
              mirror: Callable) -> float:
    """I_(l,0)(a, b) = I_l(a) I_0(b) - I_(0,l)(b, a), by the Stratonovich product
    rule; exact at every truncation, as C^(l0)_(j1 j2) + C^(0l)_(j2 j1) = c^l_j1 c^0_j2."""
    return _leg_k1(a, length, p, kind) * _leg_k1(b, length, p, "I0") - mirror(b, a, length, p)


_i10 = functools.partial(_shuffled, kind="I1", mirror=_i01)


def _i02(a: np.ndarray, b: np.ndarray, length: float, p: int) -> float:
    br = a[..., 0] * b[..., 0] / 3.0
    br += 2.0 * b[..., 2] * a[..., 0] / (3.0 * math.sqrt(5.0)) if p >= 2 else 0.0
    if p >= 3:
        i = np.arange(p - 2)
        d = 1.0 / (np.sqrt((2.0 * i + 1) * (2 * i + 7)) * (2 * i + 3) * (2 * i + 5))
        br += (_band(b[..., 3:p + 1], a[..., :p - 2], (i + 2.0) * (i + 3) * d)
               - _band(b[..., :p - 2], a[..., 3:p + 1], (i + 1.0) * (i + 2) * d))
    if p >= 1:
        i = np.arange(p)
        d = 1.0 / (np.sqrt((2.0 * i + 1) * (2 * i + 3)) * (2 * i - 1) * (2 * i + 5))
        br += (_band(b[..., 1:p + 1], a[..., :p], (i * i + i - 3.0) * d)
               - _band(b[..., :p], a[..., 1:p + 1], (i * i + 3.0 * i - 1) * d))
    return (
        -0.25 * length**2 * _i00(a, b, length, p)
        - length * _i01(a, b, length, p)
        + 0.125 * length**3 * br
    )


_i20 = functools.partial(_shuffled, kind="I2", mirror=_i02)


def _i11(a: np.ndarray, b: np.ndarray, length: float, p: int) -> float:
    br = a[..., 1] * b[..., 1] / 3.0 if p >= 1 else 0.0
    if p >= 3:
        i = np.arange(p - 2)
        w = (i + 1.0) * (i + 3) / (np.sqrt((2.0 * i + 1) * (2 * i + 7)) * (2 * i + 3) * (2 * i + 5))
        br += _band(b[..., 3:p + 1], a[..., :p - 2], w) - _band(b[..., :p - 2], a[..., 3:p + 1], w)
    if p >= 1:
        i = np.arange(p)
        w = (i + 1.0) ** 2 / (np.sqrt((2.0 * i + 1) * (2 * i + 3)) * (2 * i - 1) * (2 * i + 5))
        br += _band(b[..., 1:p + 1], a[..., :p], w) - _band(b[..., :p], a[..., 1:p + 1], w)
    return (
        -0.25 * length**2 * _i00(a, b, length, p)
        - 0.5 * length * (_i10(a, b, length, p) + _i01(a, b, length, p))
        + 0.125 * length**3 * br
    )


def _i1t(a: np.ndarray, length: float, p: int) -> float:
    r = np.arange(1, p + 1)
    s = a[..., 0] - _band(a[..., 1:2 * p:2], 1.0 / r, np.full(p, math.sqrt(2.0) / math.pi))
    return -0.5 * length**1.5 * s


def _i2t(a: np.ndarray, length: float, p: int) -> float:
    r = np.arange(1, p + 1)
    odd, even = slice(1, 2 * p, 2), slice(2, 2 * p + 1, 2)  # indices 2r - 1 and 2r
    s = a[..., 0] / 3.0
    s += _band(a[..., even], 1.0 / (r * r), np.full(p, 1.0 / (math.sqrt(2.0) * math.pi**2)))
    s -= _band(a[..., odd], 1.0 / r, np.full(p, 1.0 / (math.sqrt(2.0) * math.pi)))
    return length**2.5 * s


def _i00t(a: np.ndarray, b: np.ndarray, length: float, p: int) -> float:
    r = np.arange(1, p + 1)
    odd, even = slice(1, 2 * p, 2), slice(2, 2 * p + 1, 2)
    w = 1.0 / (math.pi * r)
    s = _band(a[..., even], b[..., odd], w) - _band(a[..., odd], b[..., even], w)
    c = np.full(p, math.sqrt(2.0) / math.pi)
    s += b[..., 0] * _band(a[..., odd], 1.0 / r, c) - a[..., 0] * _band(b[..., odd], 1.0 / r, c)
    s += a[..., 0] * b[..., 0]
    s *= 0.5 * length
    return s


# name -> (basis, weight exponents l_1.. innermost first, evaluator on the
# table rows of its component indices); the digits in the name are the exponents
_CLOSED_FORMS = {
    "I0": (BasisKind.LEGENDRE, (0,), functools.partial(_leg_k1, kind="I0")),
    "I1": (BasisKind.LEGENDRE, (1,), functools.partial(_leg_k1, kind="I1")),
    "I2": (BasisKind.LEGENDRE, (2,), functools.partial(_leg_k1, kind="I2")),
    "I3": (BasisKind.LEGENDRE, (3,), functools.partial(_leg_k1, kind="I3")),
    "I00": (BasisKind.LEGENDRE, (0, 0), _i00),
    "I01": (BasisKind.LEGENDRE, (0, 1), _i01),
    "I10": (BasisKind.LEGENDRE, (1, 0), _i10),
    "I02": (BasisKind.LEGENDRE, (0, 2), _i02),
    "I20": (BasisKind.LEGENDRE, (2, 0), _i20),
    "I11": (BasisKind.LEGENDRE, (1, 1), _i11),
    "I1t": (BasisKind.TRIGONOMETRIC, (1,), _i1t),
    "I2t": (BasisKind.TRIGONOMETRIC, (2,), _i2t),
    "I00t": (BasisKind.TRIGONOMETRIC, (0, 0), _i00t),
}
CLOSED_FORM_EXPONENTS = {name: exps for name, (_, exps, _) in _CLOSED_FORMS.items()}
CLOSED_FORM_NAMES = {name: (basis, len(exps)) for name, (basis, exps, _) in _CLOSED_FORMS.items()}


@np.errstate(over="ignore", invalid="ignore")
def sample_closed_form(
    name: str,
    table: GaussianTable,
    iv: Interval,
    p: int,
    indices: tuple[int, ...] | None = None,
) -> float | np.ndarray:
    """Evaluate one of the printed series at truncation p (all indices <= p; trig <= 2p).

    Chained names substitute their referenced sub-integrals truncated at the
    same p, so the value is a pure function of (table, p). A batched table
    gives one value per row, each equal to the value of that row's own table.
    Raises DomainError when a value overflows double precision.
    """
    if name not in _CLOSED_FORMS:
        raise ArgumentError(f"unknown closed form {name!r}")
    basis, exps, evaluate = _CLOSED_FORMS[name]
    k = len(exps)
    if p < 0:
        raise ArgumentError(f"truncation order must be >= 0, got {p}")
    if table.basis is not basis:
        raise ArgumentError(f"{name} needs the {basis.value} basis, table has {table.basis.value}")
    if table.iv != iv:
        raise ArgumentError("interval mismatch between table and request")
    needed = 2 * p if basis is BasisKind.TRIGONOMETRIC else p
    if table.max_j < needed:
        raise ArgumentError(f"table holds indices up to {table.max_j}, need {needed}")
    if indices is None:
        indices = (1,) if k == 1 else (1, 2)
    if len(indices) != k:
        raise ArgumentError(f"{name} needs {k} component indices, got {len(indices)}")
    if any(not 1 <= i <= table.m for i in indices):
        raise ArgumentError(f"component indices must be in 1..{table.m}, got {indices}")
    rows = [table.values[..., i, :] for i in indices]
    try:
        value = evaluate(*rows, iv.length(), p)
    except OverflowError:  # from the Python float arithmetic of a power of the length
        value = math.inf
    if not np.isfinite(value).all():
        raise DomainError(f"{name} of components {indices} on [{iv.t!r}, {iv.T!r}] "
                          f"overflows double precision")
    return value


def _normalize_orders(
    ispecs: list[IntegralSpec], orders: TruncationOrders | list[TruncationOrders]
) -> list[TruncationOrders]:
    if isinstance(orders, TruncationOrders):
        orders = [orders] * len(ispecs)
    if len(orders) != len(ispecs):
        raise ArgumentError(f"need {len(ispecs)} truncation orders, got {len(orders)}")
    return list(orders)


def _whole(name: str, value: object) -> int:
    """value as an int, or ArgumentError for anything but an integer."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ArgumentError(f"{name} must be an integer, got {value!r}")


def _cached_plan(ispecs: list[IntegralSpec], tensors: list[CoeffTensor], m: int,
                 orders: TruncationOrders | list[TruncationOrders], n: int,
                 threads: int) -> _Plan | None:
    """The cached plan of a valid call of 1 to _CERTIFY_ROWS - 1 rows, or None.

    The plan is looked up by its _plan_key, built from the arguments. The key
    pins every check but those of n, threads and each spec's provenance,
    made here, and those of m and the seed, which the draw makes; a call
    that fails a check here, or whose plan is not cached, gets None and
    goes through every check in order.
    """
    if not (type(n) is int and 0 < n < _CERTIFY_ROWS and type(m) is int
            and type(threads) is int and threads > 0):
        return None
    ps = ((orders.p,) * len(ispecs) if isinstance(orders, TruncationOrders)
          else tuple(o.p for o in orders))
    plan = _PLANS.get(_plan_key(tensors, ps, ispecs, max(map(max, ps), default=-1), m))
    if plan is None or any(_provenance_error(s, t, plan.basis, plan.iv)
                           for s, t in zip(ispecs, tensors)):
        return None
    return plan


def sample_batch(
    ispecs: list[IntegralSpec],
    tensors: list[CoeffTensor],
    m: int,
    orders: TruncationOrders | list[TruncationOrders],
    seed: int,
    n: int,
    threads: int = 1,
) -> np.ndarray:
    """n joint samples of all ispecs, one fresh table per row, keyed by (seed, row).

    Tables are drawn as one batch per block of rows, and row r reads the
    table of stream r, so row r is a pure function of (seed, r). A block of
    _CERTIFY_ROWS rows or more is contracted by one sample_truncated call
    per spec; a smaller one, such as the one row of a solver's step, sums
    all specs' support terms in one gather chain, with the bytes of those
    calls. Both read their plans from the sampler's plan cache.

    A call of fewer than _CERTIFY_ROWS rows looks its plan up before it
    draws: when the plan is cached, only the checks the plan's key does not
    pin are made again. `threads` is checked and accepted for
    compatibility; it changes neither the output nor the work done.
    """
    plan = _cached_plan(ispecs, tensors, m, orders, n, threads)
    if plan is not None:
        out = np.empty((n, len(ispecs)))
        _joint_sums(plan, ispecs, _draw(m, plan.max_j, seed, range(n)), out)
        return out
    if not ispecs:
        raise ArgumentError("need at least one integral spec")
    if len(tensors) != len(ispecs):
        raise ArgumentError(f"need {len(ispecs)} tensors, got {len(tensors)}")
    n = _whole("n", n)
    if n < 0:
        raise ArgumentError(f"need n >= 0, got {n}")
    threads = _whole("threads", threads)
    if threads < 1:
        raise ArgumentError(f"need threads >= 1, got {threads}")
    basis, iv = ispecs[0].basis, ispecs[0].iv
    if any(s.basis is not basis or not _same(s.iv, iv) for s in ispecs):
        raise ArgumentError("all specs in a batch must share basis and interval")
    m = _whole("m", m)
    if any(max(s.indices) > m for s in ispecs):
        raise ArgumentError(f"m={m} components cannot cover indices {[s.indices for s in ispecs]}")
    per_spec = _normalize_orders(ispecs, orders)
    max_j = max(max(o.p) for o in per_spec)
    out = np.empty((n, len(ispecs)))
    for lo in range(0, n, _BATCH_CHUNK):
        hi = min(lo + _BATCH_CHUNK, n)
        if hi - lo < _CERTIFY_ROWS:
            z = _draw(m, max_j, seed, range(lo, hi))
            plan = _plan(ispecs, tensors, per_spec, m, max_j, basis, iv)
            _joint_sums(plan, ispecs, z, out[lo:hi])
            continue
        block = draw_table(m, max_j, basis, iv, seed, stream=range(lo, hi))
        for c, (ispec, tensor, o) in enumerate(zip(ispecs, tensors, per_spec)):
            out[lo:hi, c] = sample_truncated(ispec, tensor, block, o)
    return out
