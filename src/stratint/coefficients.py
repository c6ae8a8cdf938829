"""Fourier coefficient tensors of weighted simplex kernels, plus a binary cache."""

from __future__ import annotations

import math
import os
import struct
import tempfile
from dataclasses import dataclass

import numpy as np

from .basis import (
    MAX_LEGENDRE_ORDER,
    BasisKind,
    Interval,
    _integration_matrix,
    gauss_rule,
    phi_matrix,
)
from .errors import ArgumentError, CacheFormatError, CapabilityError, StaleCacheError
from .kernel import WeightSpec

__all__ = [
    "MAX_MULTIPLICITY",
    "CoeffTensor",
    "compute_coeff",
    "compute_tensor",
    "cache_store",
    "cache_load",
]

MAX_MULTIPLICITY = 4
# Rough peak memory of one tensor build; larger requests raise CapabilityError.
MAX_TENSOR_BYTES = 2 * 2**30

_CACHE_MAGIC = b"STCF"
_CACHE_VERSION = 1
_BASIS_TAG = {BasisKind.LEGENDRE: 0, BasisKind.TRIGONOMETRIC: 1}


@dataclass(frozen=True)
class CoeffTensor:
    """Box of coefficients data[j_1, ..., j_k], index j_1 on the innermost factor."""

    kind: BasisKind
    spec: WeightSpec
    iv: Interval
    orders: tuple[int, ...]
    data: np.ndarray

    def __post_init__(self) -> None:
        self.data.setflags(write=False)


def _validate(kind: BasisKind, spec: WeightSpec, orders: tuple[int, ...]) -> None:
    if spec.k > MAX_MULTIPLICITY:
        raise CapabilityError(f"multiplicity {spec.k} not supported, max is {MAX_MULTIPLICITY}")
    if len(orders) != spec.k:
        raise ArgumentError(f"need {spec.k} orders, got {len(orders)}")
    if any(o < 0 for o in orders):
        raise ArgumentError(f"orders must be >= 0, got {orders}")
    if kind is BasisKind.LEGENDRE and max(orders) > MAX_LEGENDRE_ORDER:
        raise CapabilityError(f"Legendre orders supported up to {MAX_LEGENDRE_ORDER}, got {orders}")


def _nodes(kind: BasisKind, spec: WeightSpec, orders: tuple[int, ...]) -> int:
    """Gauss node count N for the collocation in _tensor.

    Legendre: inner integrands have degree < N, where the integration matrix is
    exact, and the last one degree <= 2N - 1, where the rule is. Trigonometric:
    in z on [-1, 1] the deepest integrand is a polynomial of degree sum deg psi_l
    + k - 1 times terms of angular frequency up to pi * sum (o_l + 1) // 2; its
    Legendre series is at rounding level once N passes both by a margin.
    """
    degree = sum(w.degree for w in spec.weights) + spec.k
    if kind is BasisKind.LEGENDRE:
        return sum(orders) + degree
    return math.ceil(math.pi * sum((o + 1) // 2 for o in orders)) + degree + 16


def _tensor(
    kind: BasisKind, spec: WeightSpec, iv: Interval, orders: tuple[int, ...], n: int
) -> np.ndarray:
    """Nested integration by collocation at the n nodes of one Gauss-Legendre rule.

    F_l = int_t^x psi_l phi_{j_l} F_{l-1} is held by its values at the nodes,
    shape (o_1 + 1, ..., o_l + 1, n); each level is one product with the spectral
    integration matrix, the outermost level is the rule itself. C depends on [t, T]
    only through T - t; nodes on [0, T - t] keep rounding of order eps * |t| out.
    """
    iv = Interval(0.0, iv.length())
    rule = gauss_rule(n, iv)

    def level_rows(level: int) -> np.ndarray:
        """psi_level * phi_j at the nodes for every j of that level, shape (o + 1, n)."""
        psi = spec.weights[level].value(rule.nodes, 0.0)
        return psi * phi_matrix(kind, orders[level], rule.nodes, iv)

    f = np.ones(n)
    for level in range(spec.k - 1):  # inside the loop: k = 1 needs no integration matrix
        to_nodes = 0.5 * iv.length() * _integration_matrix(n).T
        f = (f[..., None, :] * level_rows(level)) @ to_nodes
    return f @ (level_rows(spec.k - 1) * rule.weights).T


def _structural_zeros(spec: WeightSpec, orders: tuple[int, ...]) -> np.ndarray:
    """Mask of the Legendre coefficients that vanish by degree and parity alone.

    Each nested integral in z on [-1, 1] is tracked by the span lo..hi of its
    Legendre series and its parity (0 even, 1 odd, 2 mixed). P_j P_m spans
    |j - m|..j + m with parity j + m; a weight of degree d >= 1 widens the span
    by d and mixes the parity; int_{-1}^z P_m = (P_{m+1} - P_{m-1}) / (2m + 1)
    flips the parity for m >= 1, while P_0 integrates to P_1 + P_0. The outer
    integral keeps only the P_0 entry: zero when lo > 0 or the parity is odd.
    """
    lo = hi = par = np.zeros((), dtype=np.int64)
    for level, (w, o) in enumerate(zip(spec.weights, orders)):
        j = np.arange(o + 1)
        lo, hi, par = lo[..., None], hi[..., None], par[..., None]
        lo, hi = np.maximum(np.maximum(lo - j, j - hi), 0), hi + j
        par = np.where(par == 2, 2, (par + j) % 2)
        if w.degree:
            lo, hi, par = np.maximum(lo - w.degree, 0), hi + w.degree, np.full_like(par, 2)
        if level < spec.k - 1:
            par = np.where((par == 2) | ((lo == 0) & (par == 0)), 2, 1 - par)
            lo, hi = np.maximum(lo - 1, 0), hi + 1
    return (lo > 0) | (par == 1)


def compute_tensor(
    kind: BasisKind, spec: WeightSpec, iv: Interval, orders: tuple[int, ...]
) -> CoeffTensor:
    """Every coefficient with j_l <= orders[l-1], as one read-only array."""
    orders = tuple(int(o) for o in orders)
    _validate(kind, spec, orders)
    n = _nodes(kind, spec, orders)
    # the deepest level's two work arrays, the result (no larger) and the N x N matrices
    work = math.prod(o + 1 for o in orders[:-1]) * n
    if 8 * (3 * work + n * n) > MAX_TENSOR_BYTES:
        raise CapabilityError(f"orders {orders} need over {MAX_TENSOR_BYTES >> 30} GiB to build")
    data = _tensor(kind, spec, iv, orders, n)
    if kind is BasisKind.LEGENDRE:
        data[_structural_zeros(spec, orders)] = 0.0
    return CoeffTensor(kind=kind, spec=spec, iv=iv, orders=orders, data=data)


def compute_coeff(
    kind: BasisKind, spec: WeightSpec, iv: Interval, js: tuple[int, ...]
) -> float:
    """Single coefficient at multi-index (j_1, ..., j_k)."""
    tensor = compute_tensor(kind, spec, iv, tuple(js))
    return float(tensor.data[tuple(int(j) for j in js)])


def cache_store(path: str, tensor: CoeffTensor) -> None:
    """Write a tensor to `path` atomically in the versioned binary layout."""
    k = tensor.spec.k
    blob = bytearray()
    blob += _CACHE_MAGIC
    blob += struct.pack("<IBB", _CACHE_VERSION, _BASIS_TAG[tensor.kind], k)
    blob += struct.pack(f"<{k}I", *tensor.orders)
    blob += struct.pack("<dd", tensor.iv.t, tensor.iv.T)
    for w in tensor.spec.weights:
        blob += struct.pack("<I", len(w.coeffs))
        blob += struct.pack(f"<{len(w.coeffs)}d", *w.coeffs)
    flat = np.ascontiguousarray(tensor.data, dtype="<f8")
    blob += struct.pack("<Q", flat.size)
    blob += flat.tobytes()
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".stcf.tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(bytes(blob))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def cache_load(
    path: str, kind: BasisKind, spec: WeightSpec, iv: Interval, orders: tuple[int, ...]
) -> CoeffTensor:
    """Read a cached tensor and check it matches the requested parameters."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != _CACHE_MAGIC:
        raise CacheFormatError(f"{path}: bad magic {raw[:4]!r}")
    offset = 4

    def take(fmt: str) -> tuple:
        nonlocal offset
        size = struct.calcsize(fmt)
        if offset + size > len(raw):
            raise CacheFormatError(f"{path}: truncated at byte {offset}")
        out = struct.unpack_from(fmt, raw, offset)
        offset += size
        return out

    version, tag, k = take("<IBB")
    if version != _CACHE_VERSION:
        raise CacheFormatError(f"{path}: version {version}, expected {_CACHE_VERSION}")
    stored_orders = take(f"<{k}I")
    stored_t, stored_T = take("<dd")
    stored_weights = []
    for _ in range(k):
        (ncoeff,) = take("<I")
        stored_weights.append(take(f"<{ncoeff}d"))
    (count,) = take("<Q")
    expected = 1
    for o in stored_orders:
        expected *= o + 1
    if count != expected:
        raise CacheFormatError(f"{path}: element count {count} does not match orders")
    if offset + 8 * count != len(raw):
        raise CacheFormatError(f"{path}: payload length mismatch")
    data = np.frombuffer(raw, dtype="<f8", count=count, offset=offset).copy()

    orders = tuple(int(o) for o in orders)
    wanted = (
        _BASIS_TAG[kind],
        spec.k,
        orders,
        iv.t,
        iv.T,
        tuple(w.coeffs for w in spec.weights),
    )
    stored = (tag, k, tuple(stored_orders), stored_t, stored_T, tuple(stored_weights))
    if stored != wanted:
        raise StaleCacheError(f"{path}: cached parameters {stored} differ from request {wanted}")
    return CoeffTensor(
        kind=kind, spec=spec, iv=iv, orders=orders,
        data=data.reshape(tuple(o + 1 for o in orders)),
    )
