"""Fourier coefficient tensors of weighted simplex kernels, plus a binary cache."""

from __future__ import annotations

import math
import os
import struct
import tempfile
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import legendre as npleg

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


def _poly_u_to_leg(coeffs_u: tuple[float, ...], half: float) -> np.ndarray:
    """Legendre series in z of a polynomial in u = half * (z + 1), Horner form."""
    u_leg = np.array([half, half])
    acc = np.array([float(coeffs_u[-1])])
    for c in coeffs_u[-2::-1]:
        acc = npleg.legadd(npleg.legmul(acc, u_leg), [float(c)])
    return acc


def _legendre_tensor(spec: WeightSpec, iv: Interval, orders: tuple[int, ...]) -> np.ndarray:
    """Exact nested integration in Legendre-series space on z in [-1, 1]."""
    length = iv.length()
    half = 0.5 * length
    k = spec.k
    psi_leg = [_poly_u_to_leg(w.coeffs, half) for w in spec.weights]
    scales = [np.sqrt((2.0 * np.arange(o + 1) + 1.0) / length) for o in orders]
    data = np.zeros(tuple(o + 1 for o in orders))

    def rec(level: int, series: np.ndarray, idx: tuple[int, ...]) -> None:
        if level == k - 1:
            # Against an orthonormal phi_j the outer integral reads off one
            # series entry: int P_j * W = W[j] * 2 / (2j + 1).
            w = npleg.legmul(psi_leg[level], series)
            n = min(orders[level] + 1, len(w))
            j = np.arange(n)
            data[idx + (slice(0, n),)] = half * scales[level][:n] * w[:n] * (2.0 / (2.0 * j + 1.0))
            return
        for j in range(orders[level] + 1):
            phi = np.zeros(j + 1)
            phi[j] = scales[level][j]
            inner = npleg.legmul(psi_leg[level], npleg.legmul(phi, series))
            rec(level + 1, half * npleg.legint(inner, lbnd=-1), idx + (j,))

    rec(0, np.array([1.0]), ())
    return data


def _trig_nodes(spec: WeightSpec, orders: tuple[int, ...]) -> int:
    """Gauss node count N for the trigonometric tensor.

    In z on [-1, 1] the deepest integrand is a polynomial of degree
    sum deg psi_l + k - 1 times trigonometric terms of angular frequency at most
    pi * sum r_l, where r_l = (o_l + 1) // 2. Its Legendre series has decayed to
    rounding level once the degree passes both by a margin.
    """
    freq = math.pi * sum((o + 1) // 2 for o in orders)
    return math.ceil(freq) + sum(w.degree for w in spec.weights) + spec.k + 16


def _trig_tensor(spec: WeightSpec, iv: Interval, orders: tuple[int, ...], n: int) -> np.ndarray:
    """Nested integration by collocation at the n nodes of one Gauss-Legendre rule.

    F_l = int_t^x psi_l phi_{j_l} F_{l-1} is held by its values at the nodes,
    shape (o_1 + 1, ..., o_l + 1, n); each level is one product with the
    spectral integration matrix, and the outermost level is the rule itself.
    """
    rule = gauss_rule(n, iv)
    to_nodes = 0.5 * iv.length() * _integration_matrix(n).T

    def level_rows(level: int) -> np.ndarray:
        """psi_level * phi_j at the nodes for every j of that level, shape (o + 1, n)."""
        psi = spec.weights[level].value(rule.nodes, iv.t)
        return psi * phi_matrix(BasisKind.TRIGONOMETRIC, orders[level], rule.nodes, iv)

    f = np.ones(n)
    for level in range(spec.k - 1):
        f = (f[..., None, :] * level_rows(level)) @ to_nodes
    return f @ (level_rows(spec.k - 1) * rule.weights).T


def compute_tensor(
    kind: BasisKind, spec: WeightSpec, iv: Interval, orders: tuple[int, ...]
) -> CoeffTensor:
    """Every coefficient with j_l <= orders[l-1], as one read-only array."""
    orders = tuple(int(o) for o in orders)
    _validate(kind, spec, orders)
    if kind is BasisKind.LEGENDRE:
        data = _legendre_tensor(spec, iv, orders)
    else:
        data = _trig_tensor(spec, iv, orders, _trig_nodes(spec, orders))
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
