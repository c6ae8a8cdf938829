"""Orthonormal bases on [t, T] and Gauss-Legendre quadrature support."""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, CapabilityError, DomainError, _real, _whole, check_bytes

__all__ = [
    "MAX_LEGENDRE_ORDER",
    "BasisKind",
    "Interval",
    "QuadratureRule",
    "phi_matrix",
    "gauss_rule",
    "basis_integrals",
]

# Upward Legendre recurrence is forward-stable on [-1, 1] with error growth of
# order j*eps; this cap bounds supported expansion orders with a wide margin.
MAX_LEGENDRE_ORDER = 512


class BasisKind(enum.Enum):
    """Complete orthonormal system used for the expansions."""

    LEGENDRE = "legendre"
    TRIGONOMETRIC = "trigonometric"


@dataclass(frozen=True)
class Interval:
    """Integration interval [t, T] with T > t, both endpoints finite floats."""

    t: float
    T: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "t", _real("t", self.t))
        object.__setattr__(self, "T", _real("T", self.T))
        if not self.T > self.t:
            raise ArgumentError(f"need T > t, got [{self.t}, {self.T}]")

    def length(self) -> float:
        return self.T - self.t


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Nodes and positive weights of a quadrature rule on some [t, T]."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        self.nodes.setflags(write=False)
        self.weights.setflags(write=False)

    def integrate(self, values: np.ndarray) -> float:
        """Apply the rule to integrand values sampled at the nodes."""
        return float(self.weights @ values)


def _legendre_rows(max_j: int, x: np.ndarray) -> np.ndarray:
    """P_0..P_max_j at the points x via the three-term recurrence, shape (max_j+1, len(x))."""
    out = np.empty((max_j + 1, x.size))
    out[0] = 1.0
    if max_j >= 1:
        out[1] = x
    for k in range(2, max_j + 1):
        out[k] = ((2 * k - 1) * x * out[k - 1] - (k - 1) * out[k - 2]) / k
    return out


def _check_kind(name: str, kind: object) -> None:
    """ArgumentError unless kind is a BasisKind member: a string is refused too."""
    if not isinstance(kind, BasisKind):
        raise ArgumentError(f"{name} must be a BasisKind member, got {kind!r}")


def _check_order(kind: BasisKind, max_j: int) -> int:
    """max_j as an int, after the checks of kind and max_j."""
    _check_kind("kind", kind)
    max_j = _whole("max_j", max_j, 0)
    if kind is BasisKind.LEGENDRE and max_j > MAX_LEGENDRE_ORDER:
        raise CapabilityError(
            f"Legendre recurrence supported up to order {MAX_LEGENDRE_ORDER}, got {max_j}"
        )
    return max_j


def phi_matrix(kind: BasisKind, max_j: int, x: np.ndarray, iv: Interval) -> np.ndarray:
    """All basis values phi_0..phi_max_j at the points x, shape (max_j+1, len(x)).

    The points must lie inside [t, T]; callers feed exact quadrature nodes.
    """
    max_j = _check_order(kind, max_j)
    x = np.asarray(x, dtype=float)
    if x.size and (x.min() < iv.t or x.max() > iv.T):
        raise DomainError(f"evaluation points outside [{iv.t}, {iv.T}]")
    length = iv.length()
    if kind is BasisKind.LEGENDRE:
        z = (x - 0.5 * (iv.T + iv.t)) * (2.0 / length)
        rows = _legendre_rows(max_j, z)
        scale = np.sqrt((2.0 * np.arange(max_j + 1) + 1.0) / length)
        return rows * scale[:, None]
    out = np.empty((max_j + 1, x.size))
    out[0] = 1.0 / math.sqrt(length)
    amp = math.sqrt(2.0 / length)
    theta = 2.0 * math.pi * (x - iv.t) / length
    for j in range(1, max_j + 1):
        r = (j + 1) // 2
        out[j] = amp * (np.sin(r * theta) if j % 2 == 1 else np.cos(r * theta))
    return out


@functools.lru_cache(maxsize=None)
def _base_gauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights on [-1, 1] by Newton iteration on P_n roots."""
    k = np.arange(1, n + 1)
    x = np.cos(math.pi * (k - 0.25) / (n + 0.5))
    for _ in range(100):
        p_prev, p_n = _legendre_rows(n, x)[n - 1 :]
        dpn = n * (x * p_n - p_prev) / (x * x - 1.0)
        dx = p_n / dpn
        x = x - dx
        if np.max(np.abs(dx)) < 1e-15:
            break
    p_prev, p_n = _legendre_rows(n, x)[n - 1 :]
    dpn = n * (x * p_n - p_prev) / (x * x - 1.0)
    w = 2.0 / ((1.0 - x * x) * dpn * dpn)
    order = np.argsort(x)
    x, w = x[order], w[order]
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def gauss_rule(n: int, iv: Interval) -> QuadratureRule:
    """Gauss-Legendre rule with n nodes mapped to [t, T]; exact to degree 2n - 1."""
    n = _whole("n", n, 1)
    check_bytes(8 * (n + 1) * n, f"n = {n} Gauss nodes")  # _base_gauss's rows of P_j
    x, w = _base_gauss(n)
    half = 0.5 * iv.length()
    mid = 0.5 * (iv.t + iv.T)
    return QuadratureRule(nodes=mid + half * x, weights=half * w)


# an entry holds n * n doubles; only Legendre tensors use it, at one n per
# build, through coefficients._kept
@functools.lru_cache(maxsize=16)
def _integration_matrix(n: int) -> np.ndarray:
    """S with (S @ f)[i] = int_{-1}^{x_i} f for f sampled at the n Gauss nodes x on [-1, 1].

    Values go to Legendre coefficients c_m = (2m + 1)/2 sum_i w_i P_m(x_i) f_i,
    then int_{-1}^x P_m = (P_{m+1} - P_{m-1}) / (2m + 1), with P_{-1} := -P_0 so
    that m = 0 gives x + 1. Exact for polynomials of degree < n. At most three
    n x n arrays are live: the rows of P_m, the weighted rows and S.
    """
    x, w = _base_gauss(n)
    rows = _legendre_rows(n, x)
    weighted = rows[:n] * w
    # rows 1..n become P_{m+1} - P_{m-1}, halved: numpy reads an overlapping
    # input as it was before the write, and 0.5 scales exactly
    rows[2:] -= rows[: n - 1]
    rows[1] += rows[0]
    rows[1:] *= 0.5
    s = rows[1:].T @ weighted
    s.setflags(write=False)
    return s


def basis_integrals(kind: BasisKind, iv: Interval, max_j: int) -> np.ndarray:
    """The integrals of phi_0..phi_max_j over [t, T]: sqrt(T - t) and then zeros.

    phi_0 = 1/sqrt(T - t) is constant and every other phi_j is orthogonal to it.
    """
    max_j = _check_order(kind, max_j)
    out = np.zeros(max_j + 1)
    out[0] = math.sqrt(iv.length())
    return out
