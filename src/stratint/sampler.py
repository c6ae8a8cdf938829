"""Gaussian tables and truncated-expansion samplers, generic and closed-form."""

from __future__ import annotations

import concurrent.futures
import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .basis import BasisKind, Interval, basis_integrals
from .coefficients import CoeffTensor
from .errors import ArgumentError
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


@dataclass(frozen=True)
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
        if any(i < 0 for i in self.indices):
            raise ArgumentError(f"component indices must be >= 0, got {self.indices}")


@dataclass(frozen=True)
class TruncationOrders:
    """Per-axis index bounds p_1..p_k of the truncated expansion."""

    p: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.p or any(q < 0 for q in self.p):
            raise ArgumentError(f"truncation orders must be >= 0, got {self.p}")

    @staticmethod
    def uniform(k: int, p: int) -> "TruncationOrders":
        return TruncationOrders((p,) * k)


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
    if m < 1:
        raise ArgumentError(f"need m >= 1 Wiener components, got {m}")
    if max_j < 0:
        raise ArgumentError(f"need max_j >= 0, got {max_j}")
    noise = [normal_stream(seed, stream, i, max_j + 1, DOMAIN_TABLE) for i in range(1, m + 1)]
    dt = np.broadcast_to(basis_integrals(basis, iv, max_j), noise[0].shape)
    values = np.stack([dt, *noise], axis=-2)
    return GaussianTable(m=m, max_j=max_j, values=values, basis=basis, iv=iv,
                         seed=seed, stream=stream)


def _check_provenance(ispec: IntegralSpec, tensor: CoeffTensor, table: GaussianTable) -> None:
    if tensor.kind is not ispec.basis or table.basis is not ispec.basis:
        raise ArgumentError("basis mismatch between spec, tensor and table")
    if tensor.spec != ispec.spec:
        raise ArgumentError("weight mismatch between spec and tensor")
    if tensor.iv != ispec.iv or table.iv != ispec.iv:
        raise ArgumentError("interval mismatch between spec, tensor and table")


def sample_truncated(
    ispec: IntegralSpec,
    tensor: CoeffTensor,
    table: GaussianTable,
    orders: TruncationOrders,
) -> float:
    """Box-truncated expansion sum C_{j_k..j_1} prod zeta, exactly rounded.

    Terms are accumulated with math.fsum, so the result does not depend on
    summation order; the canonical order is j_k outermost.
    """
    k = ispec.spec.k
    _check_provenance(ispec, tensor, table)
    if table.values.ndim != 2:
        raise ArgumentError("sample_truncated takes the table of one stream, not a batch")
    if len(orders.p) != k:
        raise ArgumentError(f"need {k} truncation orders, got {len(orders.p)}")
    if any(p > o for p, o in zip(orders.p, tensor.orders)):
        raise ArgumentError(f"orders {orders.p} exceed tensor orders {tensor.orders}")
    if max(orders.p) > table.max_j:
        raise ArgumentError(f"table holds indices up to {table.max_j}, need {max(orders.p)}")
    if max(ispec.indices) > table.m:
        raise ArgumentError(f"table has {table.m} components, need {max(ispec.indices)}")
    box = tensor.data[tuple(slice(0, p + 1) for p in orders.p)]
    factor = np.array([1.0])
    for i_l, p_l in zip(ispec.indices, orders.p):
        factor = np.multiply.outer(factor, table.values[i_l, : p_l + 1])
    terms = box * factor.reshape(factor.shape[1:])
    return math.fsum(np.ravel(terms, order="F").tolist())


def _gate(cond: bool, value: float) -> float:
    return value if cond else 0.0


def _rowsum(terms: np.ndarray) -> np.ndarray:
    """np.sum of each 1-D row along the last axis.

    A batch row then has the bytes of the same series summed from one table.
    np.sum(axis=-1) does not: the terms come out of `a[..., idx]` column-major,
    and numpy then adds across rows in a grouping that differs from the 1-D
    pairwise sum once a row has 8 or more terms.
    """
    if terms.ndim == 1:
        return np.sum(terms)
    rows = terms.reshape(math.prod(terms.shape[:-1]), terms.shape[-1])
    return np.array([np.sum(row) for row in rows]).reshape(terms.shape[:-1])


def _leg_k1(a: np.ndarray, length: float, p: int, kind: str) -> float:
    if kind == "I0":
        return np.sqrt(length) * a[..., 0]
    if kind == "I1":
        s = a[..., 0] + _gate(p >= 1, a[..., 1] / math.sqrt(3.0))
        return -0.5 * length**1.5 * s
    if kind == "I2":
        s = a[..., 0] + _gate(p >= 1, 0.5 * math.sqrt(3.0) * a[..., 1])
        s += _gate(p >= 2, a[..., 2] / (2.0 * math.sqrt(5.0)))
        return length**2.5 / 3.0 * s
    s = a[..., 0] + _gate(p >= 1, 0.6 * math.sqrt(3.0) * a[..., 1])
    s += (_gate(p >= 2, a[..., 2] / math.sqrt(5.0))
          + _gate(p >= 3, a[..., 3] / (5.0 * math.sqrt(7.0))))
    return -0.25 * length**3.5 * s


def _i00(a: np.ndarray, b: np.ndarray, length: float | np.ndarray, p: int) -> float:
    i = np.arange(1, p + 1)
    band = _rowsum(
        (a[..., i - 1] * b[..., i] - a[..., i] * b[..., i - 1]) / np.sqrt(4.0 * i * i - 1.0)
    )
    return 0.5 * length * (a[..., 0] * b[..., 0] + band)


def _i01(a: np.ndarray, b: np.ndarray, length: float, p: int) -> float:
    br = _gate(p >= 1, a[..., 0] * b[..., 1] / math.sqrt(3.0))
    if p >= 2:
        i = np.arange(p - 1)
        br += _rowsum(
            ((i + 2) * a[..., i] * b[..., i + 2] - (i + 1) * a[..., i + 2] * b[..., i])
            / (np.sqrt((2.0 * i + 1) * (2 * i + 5)) * (2 * i + 3))
        )
    i = np.arange(p + 1)
    br -= _rowsum(a[..., i] * b[..., i] / ((2.0 * i - 1) * (2 * i + 3)))
    return -0.5 * length * _i00(a, b, length, p) - 0.25 * length**2 * br


def _i10(a: np.ndarray, b: np.ndarray, length: float, p: int) -> float:
    br = _gate(p >= 1, b[..., 0] * a[..., 1] / math.sqrt(3.0))
    if p >= 2:
        i = np.arange(p - 1)
        br += _rowsum(
            ((i + 1) * b[..., i + 2] * a[..., i] - (i + 2) * b[..., i] * a[..., i + 2])
            / (np.sqrt((2.0 * i + 1) * (2 * i + 5)) * (2 * i + 3))
        )
    i = np.arange(p + 1)
    br += _rowsum(a[..., i] * b[..., i] / ((2.0 * i - 1) * (2 * i + 3)))
    return -0.5 * length * _i00(a, b, length, p) - 0.25 * length**2 * br


def _i02(a: np.ndarray, b: np.ndarray, length: float, p: int) -> float:
    br = a[..., 0] * b[..., 0] / 3.0
    br += _gate(p >= 2, 2.0 * b[..., 2] * a[..., 0] / (3.0 * math.sqrt(5.0)))
    if p >= 3:
        i = np.arange(p - 2)
        br += _rowsum(
            ((i + 2.0) * (i + 3) * b[..., i + 3] * a[..., i]
             - (i + 1.0) * (i + 2) * b[..., i] * a[..., i + 3])
            / (np.sqrt((2.0 * i + 1) * (2 * i + 7)) * (2 * i + 3) * (2 * i + 5))
        )
    if p >= 1:
        i = np.arange(p)
        br += _rowsum(
            ((i * i + i - 3.0) * b[..., i + 1] * a[..., i]
             - (i * i + 3.0 * i - 1) * b[..., i] * a[..., i + 1])
            / (np.sqrt((2.0 * i + 1) * (2 * i + 3)) * (2 * i - 1) * (2 * i + 5))
        )
    return (
        -0.25 * length**2 * _i00(a, b, length, p)
        - length * _i01(a, b, length, p)
        + 0.125 * length**3 * br
    )


def _i20(a: np.ndarray, b: np.ndarray, length: float, p: int) -> float:
    br = a[..., 0] * b[..., 0] / 3.0
    br += _gate(p >= 2, 2.0 * b[..., 0] * a[..., 2] / (3.0 * math.sqrt(5.0)))
    if p >= 3:
        i = np.arange(p - 2)
        br += _rowsum(
            ((i + 1.0) * (i + 2) * b[..., i + 3] * a[..., i]
             - (i + 2.0) * (i + 3) * b[..., i] * a[..., i + 3])
            / (np.sqrt((2.0 * i + 1) * (2 * i + 7)) * (2 * i + 3) * (2 * i + 5))
        )
    if p >= 1:
        i = np.arange(p)
        br += _rowsum(
            ((i * i + 3.0 * i - 1) * b[..., i + 1] * a[..., i]
             - (i * i + i - 3.0) * b[..., i] * a[..., i + 1])
            / (np.sqrt((2.0 * i + 1) * (2 * i + 3)) * (2 * i - 1) * (2 * i + 5))
        )
    return (
        -0.25 * length**2 * _i00(a, b, length, p)
        - length * _i10(a, b, length, p)
        + 0.125 * length**3 * br
    )


def _i11(a: np.ndarray, b: np.ndarray, length: float, p: int) -> float:
    br = _gate(p >= 1, a[..., 1] * b[..., 1] / 3.0)
    if p >= 3:
        i = np.arange(p - 2)
        br += _rowsum(
            (i + 1.0) * (i + 3) * (b[..., i + 3] * a[..., i] - b[..., i] * a[..., i + 3])
            / (np.sqrt((2.0 * i + 1) * (2 * i + 7)) * (2 * i + 3) * (2 * i + 5))
        )
    if p >= 1:
        i = np.arange(p)
        br += _rowsum(
            (i + 1.0) ** 2 * (b[..., i + 1] * a[..., i] - b[..., i] * a[..., i + 1])
            / (np.sqrt((2.0 * i + 1) * (2 * i + 3)) * (2 * i - 1) * (2 * i + 5))
        )
    return (
        -0.25 * length**2 * _i00(a, b, length, p)
        - 0.5 * length * (_i10(a, b, length, p) + _i01(a, b, length, p))
        + 0.125 * length**3 * br
    )


def _i1t(a: np.ndarray, length: float, p: int) -> float:
    r = np.arange(1, p + 1)
    s = a[..., 0] - math.sqrt(2.0) / math.pi * _rowsum(a[..., 2 * r - 1] / r)
    return -0.5 * length**1.5 * s


def _i2t(a: np.ndarray, length: float, p: int) -> float:
    r = np.arange(1, p + 1)
    s = a[..., 0] / 3.0
    s += _rowsum(a[..., 2 * r] / (r * r)) / (math.sqrt(2.0) * math.pi**2)
    s -= _rowsum(a[..., 2 * r - 1] / r) / (math.sqrt(2.0) * math.pi)
    return length**2.5 * s


def _i00t(a: np.ndarray, b: np.ndarray, length: float, p: int) -> float:
    s = a[..., 0] * b[..., 0]
    if p >= 1:
        r = np.arange(1, p + 1)
        a0, b0 = a[..., :1], b[..., :1]
        s += _rowsum(
            (a[..., 2 * r] * b[..., 2 * r - 1] - a[..., 2 * r - 1] * b[..., 2 * r]
             + math.sqrt(2.0) * (a[..., 2 * r - 1] * b0 - a0 * b[..., 2 * r - 1])) / r
        ) / math.pi
    return 0.5 * length * s


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
    return evaluate(*rows, iv.length(), p)


def _normalize_orders(
    ispecs: list[IntegralSpec], orders: TruncationOrders | list[TruncationOrders]
) -> list[TruncationOrders]:
    if isinstance(orders, TruncationOrders):
        orders = [orders] * len(ispecs)
    if len(orders) != len(ispecs):
        raise ArgumentError(f"need {len(ispecs)} truncation orders, got {len(orders)}")
    return list(orders)


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

    Row r is a pure function of (seed, r), so the output is byte-identical for
    any thread count.
    """
    if not ispecs:
        raise ArgumentError("need at least one integral spec")
    if len(tensors) != len(ispecs):
        raise ArgumentError(f"need {len(ispecs)} tensors, got {len(tensors)}")
    if n < 0:
        raise ArgumentError(f"need n >= 0, got {n}")
    if threads < 1:
        raise ArgumentError(f"need threads >= 1, got {threads}")
    basis, iv = ispecs[0].basis, ispecs[0].iv
    if any(s.basis is not basis for s in ispecs) or any(s.iv != iv for s in ispecs):
        raise ArgumentError("all specs in a batch must share basis and interval")
    if any(max(s.indices) > m for s in ispecs):
        raise ArgumentError(f"m={m} components cannot cover indices {[s.indices for s in ispecs]}")
    per_spec = _normalize_orders(ispecs, orders)
    max_j = max(max(o.p) for o in per_spec)
    out = np.empty((n, len(ispecs)))

    def fill(lo: int, hi: int) -> None:
        for r in range(lo, hi):
            table = draw_table(m, max_j, basis, iv, seed, stream=r)
            for c, (ispec, tensor, o) in enumerate(zip(ispecs, tensors, per_spec)):
                out[r, c] = sample_truncated(ispec, tensor, table, o)

    chunks = [(lo, min(lo + _BATCH_CHUNK, n)) for lo in range(0, n, _BATCH_CHUNK)]
    if threads == 1 or len(chunks) <= 1:
        for lo, hi in chunks:
            fill(lo, hi)
    else:
        with concurrent.futures.ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(lambda c: fill(*c), chunks))
    return out
