"""Weighted simplex kernels K and K* for iterated integrals of multiplicity k."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError

__all__ = [
    "WeightPoly",
    "WeightSpec",
    "monomial_weight",
    "eval_K",
    "eval_K_star",
]


@dataclass(frozen=True)
class WeightPoly:
    """Polynomial weight in u = s - t, stored as coefficients of 1, u, u^2, ..."""

    coeffs: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.coeffs:
            raise ArgumentError("weight polynomial needs at least one coefficient")
        if len(self.coeffs) > 1 and self.coeffs[-1] == 0.0:
            raise ArgumentError("trailing zero coefficient; trim the tuple")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def value(self, s: np.ndarray | float, t: float) -> np.ndarray | float:
        """Evaluate at time s for an interval starting at t."""
        u = np.asarray(s, dtype=float) - t
        acc = np.full_like(u, self.coeffs[-1])
        for c in self.coeffs[-2::-1]:
            acc = acc * u + c
        return acc if acc.shape else float(acc)


def monomial_weight(exponent: int) -> WeightPoly:
    """Weight psi(s) = (t - s)^exponent, i.e. (-u)^exponent in u = s - t."""
    if exponent < 0:
        raise ArgumentError(f"exponent must be >= 0, got {exponent}")
    coeffs = [0.0] * exponent + [float((-1) ** exponent)]
    return WeightPoly(tuple(coeffs))


@dataclass(frozen=True)
class WeightSpec:
    """Ordered weights (psi_1, ..., psi_k), innermost integration first."""

    weights: tuple[WeightPoly, ...]

    def __post_init__(self) -> None:
        if not self.weights:
            raise ArgumentError("need at least one weight")

    @property
    def k(self) -> int:
        return len(self.weights)

    @staticmethod
    def from_exponents(exponents: tuple[int, ...]) -> "WeightSpec":
        """Monomial weights (t - s)^l for each exponent, innermost first."""
        return WeightSpec(tuple(monomial_weight(l) for l in exponents))


def eval_K(spec: WeightSpec, times: tuple[float, ...], t: float) -> float:
    """Ordered-product kernel prod psi_l(t_l) on t < t_1 < ... < t_k, else 0."""
    if len(times) != spec.k:
        raise ArgumentError(f"need {spec.k} time points, got {len(times)}")
    prev = t
    prod = 1.0
    for psi, s in zip(spec.weights, times):
        if spec.k > 1 and not s > prev:
            return 0.0
        prev = s
        prod *= float(psi.value(s, t))
    return prod


def eval_K_star(spec: WeightSpec, times: tuple[float, ...], t: float) -> float:
    """Symmetrized kernel: the product with factor 1/2 at each tied pair t_l = t_{l+1}.

    Square partial sums of the expansion (p_1 = ... = p_k) converge to it off
    ties and where ties are isolated pairs only. Where r >= 3 consecutive
    times tie they converge elsewhere: at a full tie to psi_1 ... psi_k / k!
    (exactly 1/k! for constant weights), where this kernel gives the product
    times 2^-(k-1).
    """
    if len(times) != spec.k:
        raise ArgumentError(f"need {spec.k} time points, got {len(times)}")
    prev = t
    prod = 1.0
    halves = 0
    for idx, (psi, s) in enumerate(zip(spec.weights, times)):
        if spec.k > 1 and idx > 0:
            if s < prev:
                return 0.0
            if s == prev:
                halves += 1
        prev = s
        prod *= float(psi.value(s, t))
    return prod * 0.5**halves
