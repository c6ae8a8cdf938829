"""Closed-form coefficient tables that `stratint verify --suite golden` checks against.

The test suite keeps its own formulas in tests/oracles.py on purpose.
"""

from __future__ import annotations

import math

import numpy as np

from .basis import Interval

__all__ = ["legendre_k1", "legendre_k2", "trigonometric"]


def legendre_k1(iv: Interval) -> list[tuple[str, np.ndarray]]:
    """Legendre k=1 coefficients for weight exponents 1, 2 and 3, j <= 12."""
    length = iv.length()
    i1 = np.zeros(13)
    i1[0] = -0.5 * length**1.5
    i1[1] = -0.5 * length**1.5 / math.sqrt(3.0)
    i2 = np.zeros(13)
    i2[0] = length**2.5 / 3.0
    i2[1] = length**2.5 * math.sqrt(3.0) / 6.0
    i2[2] = length**2.5 / (6.0 * math.sqrt(5.0))
    i3 = np.zeros(13)
    i3[0] = -0.25 * length**3.5
    i3[1] = -0.15 * math.sqrt(3.0) * length**3.5
    i3[2] = -0.25 * length**3.5 / math.sqrt(5.0)
    i3[3] = -0.05 * length**3.5 / math.sqrt(7.0)
    return [("1", i1), ("2", i2), ("3", i3)]


def legendre_k2(iv: Interval, top: int) -> np.ndarray:
    """Legendre k=2 coefficients for weight exponents (0, 0), j_1, j_2 <= top."""
    length = iv.length()
    want = np.zeros((top + 1, top + 1))
    want[0, 0] = 0.5 * length
    for i in range(1, top + 1):
        mag = 0.5 * length / math.sqrt(4.0 * i * i - 1.0)
        want[i - 1, i] = mag
        want[i, i - 1] = -mag
    return want


def trigonometric(iv: Interval, r_top: int) -> list[tuple[str, tuple[int, ...], np.ndarray]]:
    """Trigonometric coefficients for weight exponents (1,), (2,) and (0, 0), j <= 2 * r_top."""
    length = iv.length()
    top = 2 * r_top
    t1 = np.zeros(top + 1)
    t1[0] = -0.5 * length**1.5
    t2 = np.zeros(top + 1)
    t2[0] = length**2.5 / 3.0
    pair = np.zeros((top + 1, top + 1))
    pair[0, 0] = 0.5 * length
    for r in range(1, r_top + 1):
        t1[2 * r - 1] = length**1.5 * math.sqrt(2.0) / (2.0 * math.pi * r)
        t2[2 * r - 1] = -(length**2.5) / (math.sqrt(2.0) * math.pi * r)
        t2[2 * r] = length**2.5 / (math.sqrt(2.0) * math.pi**2 * r * r)
        pair[2 * r, 2 * r - 1] = 0.5 * length / (math.pi * r)
        pair[2 * r - 1, 2 * r] = -0.5 * length / (math.pi * r)
        pair[2 * r - 1, 0] = math.sqrt(2.0) * 0.5 * length / (math.pi * r)
        pair[0, 2 * r - 1] = -math.sqrt(2.0) * 0.5 * length / (math.pi * r)
    return [("1", (1,), t1), ("2", (2,), t2), ("00", (0, 0), pair)]
