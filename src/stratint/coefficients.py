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
    _integration_matrix,
    gauss_rule,
    phi_matrix,
)
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
# Rough peak memory of one tensor build; larger requests raise CapabilityError.
MAX_TENSOR_BYTES = 2 * 2**30

_CACHE_MAGIC = b"STCF"
_CACHE_VERSION = 2  # 2: trigonometric tensors carry the exact zeros of _trig_structural_zeros
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


@functools.lru_cache(maxsize=32)
def _trig_structural_zeros(spec: WeightSpec, orders: tuple[int, ...]) -> np.ndarray:
    """Read-only mask of the trigonometric coefficients that vanish by frequency
    and degree alone; it depends on the weights' degrees and the orders only,
    so a process that builds one case on many intervals finds it once.

    On x = u / L in [0, 1], phi_j is cos (j even) or sin (j odd) of 2 pi r x,
    r = (j + 1) // 2. Each nested integral is tracked, per multi-index prefix, by
    the monomials x^a T(2 pi nu x) it may hold: a bool array over (prefix, a,
    T, nu), T 0 for cos and 1 for sin. A weight degree d and phi_j send (a, T,
    nu) to a + d at nu + r and |nu - r|, of type cos when T matches phi_j's and
    sin otherwise; sin at nu = 0 drops out. int_0^x of x^a maps nu = 0 to
    (a + 1, cos, 0), and nu > 0 to degrees a..0 at nu whose types alternate
    from the flipped one, plus the constant when degree 0 is a cos. int_0^1
    keeps cos at nu = 0, cos at a >= 2 and sin at a >= 1; the outer level
    applies that test to the products directly, without forming them.
    """
    def times_weight(state: np.ndarray, w: WeightPoly) -> np.ndarray:
        """Raise the degrees by each degree of w with a nonzero coefficient."""
        degrees = [d for d, c in enumerate(w.coeffs) if c != 0.0]
        *prefix, a_len, _, nu_len = state.shape
        out = np.zeros((*prefix, a_len + max(degrees, default=0), 2, nu_len), dtype=bool)
        for d in degrees:
            out[..., d:d + a_len, :, :] |= state
        return out

    state = np.zeros((1, 2, 1), dtype=bool)  # (a, T, nu); the prefix axes come first
    state[0, 0, 0] = True
    for w, o in zip(spec.weights[:-1], orders[:-1]):
        shifted = times_weight(state, w)
        *prefix, a_len, _, nu_len = shifted.shape
        r, tau = np.arange(1, o + 2) // 2, np.arange(o + 1) % 2
        # on the mirror image E[nu] = shifted[|nu|], nu + r and |nu - r| read
        # E[nu' - r] and E[nu' + r]: two sets of windows of one padded array
        top, width = r[-1], nu_len + r[-1]
        mirror = np.zeros((*prefix, a_len, 2, width + 2 * top), dtype=bool)  # nu at nu + top
        mirror[..., top:top + nu_len] = shifted
        m = min(top, nu_len - 1)
        mirror[..., top - m:top + 1] |= shifted[..., m::-1]
        window = np.lib.stride_tricks.sliding_window_view(mirror, width, axis=-1)
        by_r = window[..., top::-1, :] | window[..., top:, :]  # (prefix, a, T, r, nu')
        mixed = np.take(np.moveaxis(by_r, -2, len(prefix)), r, axis=len(prefix))
        mixed = np.where(tau[:, None, None, None] == 1, mixed[..., ::-1, :], mixed)
        mixed[..., 1, 0] = False
        # int_0^x: degree m from degree a >= m flips the type a - m + 1 times,
        # so swap the types of odd a, OR the suffixes over a, swap even m back
        odd = (np.arange(a_len) % 2 == 1)[:, None, None]
        upper = mixed[..., 1:]
        suffix = np.logical_or.accumulate(
            np.where(odd, upper[..., ::-1, :], upper)[..., ::-1, :, :], axis=-3)[..., ::-1, :, :]
        state = np.zeros((*prefix, o + 1, a_len + 1, 2, width), dtype=bool)
        state[..., 1:, 0, 0] = mixed[..., 0, 0]
        state[..., :-1, :, 1:] = np.where(odd, suffix, suffix[..., ::-1, :])
        state[..., 0, 0, 0] |= state[..., 0, 0, 1:].any(axis=-1)

    shifted = times_weight(state, spec.weights[-1])
    *prefix, a_len, _, nu_len = shifted.shape
    o = orders[-1]
    r, tau = np.arange(1, o + 2) // 2, np.arange(o + 1) % 2
    a = np.arange(a_len)
    a_hi = np.where(shifted.any(axis=-1), a[:, None], -2).max(axis=-2)  # (prefix, T)
    freqs = np.zeros((*prefix, 2, nu_len + 1), dtype=bool)  # r >= nu_len reads False
    freqs[..., :nu_len] = shifted.any(axis=-3)
    keep = (a_hi[..., tau] >= 2) | (a_hi[..., 1 - tau] >= 1)
    keep |= freqs[..., tau, np.minimum(r, nu_len)]
    # j = 0 multiplies by a constant: cos at nu > 0 needs a >= 2 as above
    cos_hi = np.where(shifted[..., 0, 1:].any(axis=-1), a, -2).max(axis=-1)
    keep[..., 0] = freqs[..., 0, 0] | (cos_hi >= 2) | (a_hi[..., 1] >= 1)
    return _read_only(~keep)


def compute_tensor(
    kind: BasisKind, spec: WeightSpec, iv: Interval, orders: tuple[int, ...]
) -> CoeffTensor:
    """Every coefficient with j_l <= orders[l-1], as one read-only array.

    The entries that the basis's zero rule proves zero (_structural_zeros,
    _trig_structural_zeros) are exact 0.0; zeros a rule misses come out as
    rounding noise. Raises DomainError when a coefficient is not finite: the
    interval is too long, or the weights too large, for double precision.
    """
    orders = tuple(int(o) for o in orders)
    _validate(kind, spec, orders)
    n = _nodes(kind, spec, orders)
    # the deepest level's two work arrays, the result (no larger) and the N x N matrices
    work = math.prod(o + 1 for o in orders[:-1]) * n
    if 8 * (3 * work + n * n) > MAX_TENSOR_BYTES:
        raise CapabilityError(f"orders {orders} need over {MAX_TENSOR_BYTES >> 30} GiB to build")
    with np.errstate(all="ignore"):  # an overflow is reported below, not warned of
        data = _tensor(kind, spec, iv, orders, n)
    zeros = _structural_zeros if kind is BasisKind.LEGENDRE else _trig_structural_zeros
    data[zeros(spec, orders)] = 0.0
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
