"""Fourier coefficient tensors of weighted simplex kernels, plus a binary cache."""

from __future__ import annotations

import functools
import math
import os
import struct
import tempfile
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .basis import (
    MAX_LEGENDRE_ORDER,
    BasisKind,
    Interval,
    _base_gauss,
    _integration_matrix,
    _legendre_rows,
    gauss_rule,
)
# phi_matrix is unused here but stays a module attribute, where
# perfbench/tracer.py wraps it: it reads each traced name from the module's
# own namespace.
from .basis import phi_matrix  # noqa: F401
from .errors import (
    ArgumentError,
    CacheFormatError,
    CapabilityError,
    DomainError,
    StaleCacheError,
)
from .kernel import WeightPoly, WeightSpec

__all__ = [
    "MAX_MULTIPLICITY",
    "CoeffTensor",
    "compute_tensor",
    "cache_store",
    "cache_load",
]

MAX_MULTIPLICITY = 4
# The package's one memory bound: the rough peak of one tensor build, or of
# the working arrays of one block of rows or paths; check_bytes refuses more.
MAX_TENSOR_BYTES = 2 * 2**30

_CACHE_MAGIC = b"STCF"
# 3: trigonometric tensors come from the closed form; 4: Legendre tensors
# come from the fewest exact nodes and an interval-free table of P_j
_CACHE_VERSION = 4
_BASIS_TAG = {BasisKind.LEGENDRE: 0, BasisKind.TRIGONOMETRIC: 1}


class Support(NamedTuple):
    """The nonzero entries of one truncation box, in C order."""

    axes: tuple[np.ndarray, ...]  # the index j_l of each entry on each axis l
    coeffs: np.ndarray


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class CoeffTensor:
    """Box of coefficients data[j_1, ..., j_k], index j_1 on the innermost factor.

    A plain immutable value: `data` is read-only and owns its memory (a view
    is copied), so what is derived from a tensor never goes stale. Tensors
    compare and hash by identity.
    """

    kind: BasisKind
    spec: WeightSpec
    iv: Interval
    orders: tuple[int, ...]
    data: np.ndarray

    def __post_init__(self) -> None:
        if self.data.base is not None:  # a view: its base could still be written
            object.__setattr__(self, "data", self.data.copy())
        self.data.setflags(write=False)

    def support(self, p: tuple[int, ...]) -> Support:
        """Nonzero entries of the box data[:p_1 + 1, ..., :p_k + 1], with np.intp axes."""
        if len(p) != len(self.orders) or any(not 0 <= q <= o for q, o in zip(p, self.orders)):
            raise ArgumentError(f"box {p} is not inside tensor orders {self.orders}")
        box = self.data[tuple(slice(0, q + 1) for q in p)]
        nonzero = np.nonzero(box)
        return Support(nonzero, box[nonzero])


def _validate(kind: BasisKind, spec: WeightSpec, orders: tuple[int, ...]) -> None:
    if spec.k > MAX_MULTIPLICITY:
        raise CapabilityError(f"multiplicity {spec.k} not supported, max is {MAX_MULTIPLICITY}")
    if len(orders) != spec.k:
        raise ArgumentError(f"need {spec.k} orders, got {len(orders)}")
    if any(o < 0 for o in orders):
        raise ArgumentError(f"orders must be >= 0, got {orders}")
    if kind is BasisKind.LEGENDRE and max(orders) > MAX_LEGENDRE_ORDER:
        raise CapabilityError(f"Legendre orders supported up to {MAX_LEGENDRE_ORDER}, got {orders}")


def _nodes(spec: WeightSpec, orders: tuple[int, ...]) -> int:
    """The fewest Gauss nodes N at which _tensor is exact, up to rounding:
    N = ceil(sum_m b_m / 2), where psi_m phi_{j_m} has at most b_m = o_m + d_m + 1
    coefficients, d_m the degree of the weight.

    Take the pivot level s where b_1 + ... + b_s first reaches sum_m b_m / 2.
    Levels m < s are exact: their integrands have degree < b_1 + ... + b_m < N,
    where the integration matrix is exact. The others are exact from the rule
    inward. For m > s the rule sums g F_{m-1} at the nodes, g with
    b_m + ... + b_k <= N coefficients (first g = psi_k phi_{j_k}), and the
    F_{m-1} the matrix gives has degree <= N. So the sum is int g F_{m-1}; by
    parts, int G h_{m-1}, G = int_x^1 g of degree <= N and h_{m-1} the
    integrand of level m - 1; and that is the rule's sum of G h_{m-1}, as the
    matrix integrates the interpolant of h_{m-1}, of degree < N, which has its
    values at the nodes. That is the same sum one level in, with
    g = G psi_{m-1} phi_{j_{m-1}}. At the pivot the rule sums g F_{s-1}, both
    exact, of degree sum_m b_m - 1 <= 2N - 1.
    """
    return -(-(sum(orders) + sum(w.degree for w in spec.weights) + spec.k) // 2)


# Tables larger than this are rebuilt on every call rather than kept; each
# cache below keeps at most 16 of them.
_KEPT_BYTES = 2**22


def _kept(cached, nbytes: int):
    """The lru-cached function `cached` when its result of nbytes may be kept,
    the function itself otherwise."""
    return cached if nbytes <= _KEPT_BYTES else cached.__wrapped__


@functools.lru_cache(maxsize=16)
def _legendre_table(top: int, n: int) -> np.ndarray:
    """sqrt(2j + 1) P_j at the n Gauss nodes on [-1, 1] for j <= top, shape (top + 1, n):
    phi_j on [0, L] at the mapped nodes, times sqrt(L)."""
    rows = _legendre_rows(top, _base_gauss(n)[0])
    rows *= np.sqrt(2.0 * np.arange(top + 1) + 1.0)[:, None]
    return _read_only(rows)


def _tensor(spec: WeightSpec, iv: Interval, orders: tuple[int, ...], n: int) -> np.ndarray:
    """Legendre coefficients by collocation at the n nodes of one Gauss-Legendre rule.

    F_l = int_t^x psi_l phi_{j_l} F_{l-1} is held by its values at the nodes,
    shape (o_1 + 1, ..., o_l + 1, n); each level is one product with the spectral
    integration matrix, the outermost level is the rule itself. C depends on [t, T]
    only through T - t; nodes on [0, T - t] keep rounding of order eps * |t| out.
    phi_j comes from _legendre_table, which holds no interval: the factors
    1 / sqrt(L), and L / 2 of the matrix or the rule's weights, go on psi.
    """
    length = iv.length()
    rule = gauss_rule(n, Interval(0.0, length))
    top = max(orders)
    table = _kept(_legendre_table, 8 * (top + 1) * n)(top, n)

    def level_rows(level: int, factor: float | np.ndarray) -> np.ndarray:
        """psi_level * phi_j * factor at the nodes for every j of that level, shape (o + 1, n)."""
        psi = spec.weights[level].value(rule.nodes, 0.0) * (factor / math.sqrt(length))
        return psi * table[: orders[level] + 1]

    f = np.ones(n)
    if spec.k > 1:  # k = 1 needs no integration matrix
        to_nodes = _integration_matrix(n).T
    for level in range(spec.k - 1):
        f = (f[..., None, :] * level_rows(level, 0.5 * length)) @ to_nodes
    return f @ level_rows(spec.k - 1, rule.weights).T


def _legendre_bytes(spec: WeightSpec, orders: tuple[int, ...], n: int) -> int:
    """Peak bytes that a Legendre build holds at once, caches cold, from its shapes."""
    prefix, work = 1, 0
    for o in orders[:-1]:  # f, the psi phi rows, their product and the next f
        work = max(work, (prefix + o + 1 + 2 * prefix * (o + 1)) * n)
        prefix *= o + 1
    result = prefix * (orders[-1] + 1)
    outer = (prefix + orders[-1] + 1) * n + result
    matrix = n * n if spec.k > 1 else 0  # held through the levels, made in 5x that
    table = (max(orders) + 1) * n
    # the zero mask, up to three booleans an entry, and the finite check come
    # after f is freed: n >= (o_k + 1) / 2 puts them below the outer level
    return 2**20 + 8 * (table + max(5 * matrix, matrix + work, matrix + outer))


@functools.lru_cache(maxsize=16)
def _structural_zeros(degrees: tuple[int, ...], orders: tuple[int, ...]) -> np.ndarray:
    """Read-only mask of the Legendre coefficients that vanish by degree and parity
    alone, for weights of these degrees.

    Each nested integral in z on [-1, 1] is tracked by the span lo..hi of its
    Legendre series and its parity (0 even, 1 odd, 2 mixed). P_j P_m spans
    |j - m|..j + m with parity j + m; a weight of degree d >= 1 widens the span
    by d and mixes the parity; int_{-1}^z P_m = (P_{m+1} - P_{m-1}) / (2m + 1)
    flips the parity for m >= 1, while P_0 integrates to P_1 + P_0. The outer
    integral keeps only the P_0 entry: zero when lo > 0 or the parity is odd.
    """
    lo = hi = par = np.zeros((), dtype=np.int64)
    for d, o in zip(degrees[:-1], orders[:-1]):
        j = np.arange(o + 1)
        lo, hi, par = lo[..., None], hi[..., None], par[..., None]
        lo, hi = np.maximum(np.maximum(lo - j, j - hi), 0), hi + j
        par = np.where(par == 2, 2, (par + j) % 2)
        if d:
            lo, hi, par = np.maximum(lo - d, 0), hi + d, np.full_like(par, 2)
        par = np.where((par == 2) | ((lo == 0) & (par == 0)), 2, 1 - par)
        lo, hi = np.maximum(lo - 1, 0), hi + 1
    # the outer level, as booleans only: P_j times the span, widened by d, misses
    # P_0 when lo - d > j or hi + d < j; with d = 0 it is odd when par + j is
    d, j = degrees[-1], np.arange(orders[-1] + 1)
    zero = np.greater.outer(lo - d, j) | np.less.outer(hi + d, j)
    if not d:
        zero |= np.equal.outer(par, (j + 1) % 2)
    return _read_only(zero)


@functools.lru_cache(maxsize=16)
def _primitives(nu_len: int, a_len: int) -> np.ndarray:
    """p[nu, a, b] with int_0^x y^a e(nu y) dy = sum_b p[nu, a, b] x^b e(nu x) + const,
    e(y) = exp(2 pi i y): by parts, -i i^(a-b) a!/b! / (2 pi nu)^(a-b+1) for nu > 0
    and b <= a, and x^(a+1) / (a+1) for nu = 0."""
    a, b = np.arange(a_len)[:, None], np.arange(a_len + 1)
    fact = np.cumprod([1.0, *range(1, a_len + 1)])
    step = np.where(a >= b, np.array([-1j, 1, 1j, -1])[(a - b) % 4] * fact[a] / fact[b], 0)
    out = np.zeros((nu_len, a_len, a_len + 1), dtype=complex)
    inv = 0.5 / math.pi / np.arange(1, nu_len)[:, None, None]  # 1 / (2 pi nu)
    out[1:] = step * inv ** np.maximum(a - b + 1, 1)
    out[0, a[:, 0], a[:, 0] + 1] = 1.0 / (a[:, 0] + 1)
    return _read_only(out)


def _times_phi(z: np.ndarray, o: int, count: int, zero: float, sign: int) -> np.ndarray:
    """f_j / 2 (g[nu - sign r_j] + s_j g[nu + sign r_j]) as (nu < count, j <= o, ., .),
    g[nu] = z[nu], g[-nu] = conj z[nu], g[0] = zero z[0]: phi_j = sqrt 2 cos(2 pi r_j x)
    has f_j, s_j = sqrt 2, 1, sqrt 2 sin has -i sqrt 2, -1, and phi_0 = 1 has 1, 1."""
    j = np.arange(o + 1)[:, None, None]
    r = sign * ((j[:, 0, 0] + 1) // 2)
    off = max(len(z), count + (o + 1) // 2) - 1  # g[nu] sits at g[off + nu]
    g = np.zeros((2 * off + 1, *z.shape[1:]), dtype=complex)
    g[off + 1 - len(z):off + len(z)] = np.concatenate([z[:0:-1].conj(), z[:1] * zero, z[1:]])
    out, hi = g[off + np.arange(count)[:, None] - r], g[off + np.arange(count)[:, None] + r]
    hi *= 1 - 2 * (j % 2)
    out += hi
    out *= np.where(j == 0, 0.5, np.where(j % 2, -1j, 1) * math.sqrt(0.5))
    return out


def _trig_bytes(spec: WeightSpec, orders: tuple[int, ...]) -> int:
    """Peak bytes that _trig_tensor holds at once, worked out from its shapes."""
    nu_len, prefix, a_len, peak = 1, 1, 1, 0
    for level, (w, o) in enumerate(zip(spec.weights, orders)):
        peak = max(peak, 16 * nu_len * prefix * (2 * a_len + w.degree))  # old and new state
        a_len += w.degree
        state, r = 16 * nu_len * prefix * a_len, (o + 1) // 2
        if level < spec.k - 1:  # state, two-sided copy, two products; or an integral
            peak = max(peak, 3 * state + 3 * 16 * (nu_len + r) * (o + 1) * prefix * a_len)
            nu_len, prefix, a_len = nu_len + r, prefix * (o + 1), a_len + 1
    # the outer table (with its primitives and per-j factors) and its products,
    # the state's copy, or the result and its transpose
    table = 16 * nu_len * a_len * (o + 1) + 48 * (nu_len + r) * a_len + 64 * (o + 1)
    result = 8 * prefix * (o + 1)
    return 2**20 + max(peak, state + table + max(state, table, result) + result)


def _trig_tensor(spec: WeightSpec, length: float, orders: tuple[int, ...]) -> np.ndarray:
    """Trigonometric coefficients in closed form, on x = (s - t) / L in [0, 1].

    phi_j is L^(-1/2) times 1, sqrt 2 sin(2 pi r x) (j odd) or sqrt 2 cos(2 pi r x)
    (j even), r = (j + 1) // 2. Each nested integral is Re sum z[nu, a] x^a e(nu x),
    held per multi-index prefix, newest index first, as z[nu, prefix, a]. A weight
    raises a; phi_j moves nu to nu + r and |nu - r|, conjugated below 0; int_0^x
    maps each nu by _primitives, less the value at x = 0; the outer int_0^1 is the
    primitive at 1, where e(nu) = 1, less that at 0. An entry no term reaches is 0.0.
    """
    length = np.float64(length)  # c_d L^d overflows to inf, not OverflowError
    z = np.ones((1, 1, 1), dtype=complex)
    for level, (w, o) in enumerate(zip(spec.weights, orders)):
        if w.coeffs != (1.0,):  # degree a + d gains c_d L^d z[..., a]
            z = z @ sum(c * length**d * np.eye(z.shape[2], z.shape[2] + w.degree, d)
                        for d, c in enumerate(w.coeffs) if c)
        (nu_len, prefix, a_len), r = z.shape, (o + 1) // 2
        if level == spec.k - 1:
            break
        z = _times_phi(z, o, nu_len + r, 2.0, 1).reshape(nu_len + r, (o + 1) * prefix, a_len)
        z[0] *= 0.5  # nu = 0 keeps one of its two halves
        z = z @ _primitives(nu_len + r, a_len)
        z[0, :, 0] -= z[1:, :, 0].real.sum(axis=0)
    prims = _primitives if (nu_len + r) * a_len**2 <= 2**14 else _primitives.__wrapped__
    ends = prims(nu_len + r, a_len)[:, None, :, 1:].sum(axis=-1)  # a large one is not kept
    table = _times_phi(ends * length ** (spec.k / 2), o, nu_len, 1.0, -1)[:, :, 0]
    # L^(k/2) int_0^1 x^a e(nu x) phi_j, conjugated: real pairs dot z's to Re(z . table)
    table = np.conj(table.transpose(1, 0, 2), order="C").view(np.float64).reshape(o + 1, -1)
    data = z.transpose(1, 0, 2).reshape(prefix, -1).view(np.float64) @ table.T
    data += 0.0  # -0.0 to +0.0
    data = data.reshape(tuple(q + 1 for q in orders[-2::-1]) + (o + 1,))
    return np.ascontiguousarray(data.transpose(*range(spec.k - 2, -1, -1), spec.k - 1))


def check_bytes(need: int, what: str) -> None:
    """Raise CapabilityError, before anything is allocated, when `what` needs
    more than MAX_TENSOR_BYTES bytes."""
    if need > MAX_TENSOR_BYTES:
        raise CapabilityError(f"{what} need over {MAX_TENSOR_BYTES >> 30} GiB")


def compute_tensor(
    kind: BasisKind, spec: WeightSpec, iv: Interval, orders: tuple[int, ...]
) -> CoeffTensor:
    """Every coefficient with j_l <= orders[l-1], as one read-only array.

    Legendre entries that _structural_zeros proves zero are exact 0.0, those it
    misses are rounding noise; trigonometric entries no term reaches are 0.0 too.
    Raises DomainError when a coefficient is not finite: the interval is too
    long, or the weights too large, for double precision.
    """
    orders = tuple(int(o) for o in orders)
    _validate(kind, spec, orders)
    n = _nodes(spec, orders)
    need = (_legendre_bytes(spec, orders, n) if kind is BasisKind.LEGENDRE
            else _trig_bytes(spec, orders))
    check_bytes(need, f"orders {orders}")
    with np.errstate(all="ignore"):  # an overflow is reported below, not warned of
        if kind is BasisKind.LEGENDRE:
            data = _tensor(spec, iv, orders, n)
            degrees = tuple(w.degree for w in spec.weights)
            data[_kept(_structural_zeros, data.size)(degrees, orders)] = 0.0
        else:
            data = _trig_tensor(spec, iv.length(), orders)
    if not np.isfinite(data).all():
        raise DomainError(f"{kind.value} coefficients of orders {orders} on "
                          f"[{iv.t!r}, {iv.T!r}] overflow double precision")
    return CoeffTensor(kind=kind, spec=spec, iv=iv, orders=orders, data=data)


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
    """Read a cached tensor and check it matches the requested parameters.

    Raises CacheFormatError for a file that is not a whole cache, or whose
    payload holds a value that is not finite, and StaleCacheError for one
    built with other parameters.
    """
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
    data = np.frombuffer(raw, dtype="<f8", count=count, offset=offset)
    if not np.isfinite(data).all():  # compute_tensor stores no such tensor
        raise CacheFormatError(f"{path}: payload holds a value that is not finite")

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
        data=data.reshape(tuple(o + 1 for o in orders)).copy(),
    )
