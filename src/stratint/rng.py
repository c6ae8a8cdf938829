"""Counter-based Gaussian streams with stable coordinates (seed, stream, component)."""

from __future__ import annotations

import numpy as np
from scipy.special import ndtri

from .errors import ArgumentError

__all__ = [
    "DOMAIN_TABLE",
    "DOMAIN_PATH",
    "normal_stream",
]

# Counter word 3 separates usage domains so table draws and path draws with the
# same (seed, stream, component) never overlap.
DOMAIN_TABLE = 0
DOMAIN_PATH = 1

_INV_2POW53 = 2.0**-53


def normal_stream(
    seed: int, stream: int, component: int, count: int, domain: int = DOMAIN_TABLE
) -> np.ndarray:
    """First `count` standard normals of the stream at (seed, stream, component, domain).

    Values are a pure function of the coordinates: any prefix of a stream is
    reproducible regardless of how many variates other calls consumed.
    """
    if count < 0:
        raise ArgumentError(f"count must be >= 0, got {count}")
    if not 0 <= seed < 2**64:
        raise ArgumentError(f"seed must fit in 64 bits, got {seed}")
    if stream < 0 or component < 0 or domain < 0:
        raise ArgumentError("stream, component and domain must be >= 0")
    # A uint64 array keeps seeds >= 2**63 exact; a plain list would pass through float64.
    key = np.array([seed, stream], dtype=np.uint64)
    bits = np.random.Philox(key=key, counter=[0, 0, component, domain])
    gen = np.random.Generator(bits)
    words = gen.integers(0, 2**64, size=count, dtype=np.uint64)
    # Top 53 bits give a uniform on (0, 1) bounded away from both endpoints.
    u = ((words >> np.uint64(11)).astype(np.float64) + 0.5) * _INV_2POW53
    return ndtri(u)
