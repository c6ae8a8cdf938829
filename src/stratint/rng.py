"""Counter-based Gaussian streams with stable coordinates (seed, stream, component)."""

from __future__ import annotations

import operator
import threading
from collections.abc import Iterable

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
# Largest double below 1; the all-ones 53-bit word would otherwise round to 1.0.
_U_MAX = np.nextafter(1.0, 0.0)

# One Philox per thread, re-keyed for every stream: its state is overwritten
# in full before each use, so no draw depends on an earlier one. The state set
# is that of a fresh Philox(key=(seed, stream), counter=(0, 0, component,
# domain)), whose raw words Generator.integers(0, 2**64, dtype=uint64) also
# returns; a re-key skips the OS entropy that each construction draws.
_local = threading.local()


def _coordinate(name: str, value: object) -> int:
    try:
        value = operator.index(value)
    except TypeError:
        raise ArgumentError(f"{name} must be an integer, got {value!r}") from None
    if not 0 <= value < 2**64:
        raise ArgumentError(f"{name} must be in [0, 2**64), got {value}")
    return value


def _normals(words: np.ndarray) -> np.ndarray:
    """Standard normals from raw 64-bit words: top 53 bits -> uniform on (0, 1) -> ndtri."""
    u = ((words >> np.uint64(11)).astype(np.float64) + 0.5) * _INV_2POW53
    # Only the all-ones top word rounds up to 1.0 (ndtri would give +inf).
    np.minimum(u, _U_MAX, out=u)
    return ndtri(u)


def normal_stream(
    seed: int,
    stream: int | Iterable[int],
    component: int,
    count: int,
    domain: int = DOMAIN_TABLE,
) -> np.ndarray:
    """First `count` standard normals of the stream at (seed, stream, component, domain).

    `stream` is one integer (result shape (count,)) or a sequence or range of
    them (shape (len, count), one row per stream). Every coordinate is an
    integer in [0, 2**64). The Philox4x64 key is (seed, stream) and the
    counter starts at (0, 0, component, domain). Values are a pure function
    of the coordinates: any prefix of a stream is reproducible regardless of
    how many variates other calls consumed, and a row of a batch equals the
    single draw of its stream.
    """
    try:
        count = operator.index(count)
    except TypeError:
        raise ArgumentError(f"count must be an integer, got {count!r}") from None
    if count < 0:
        raise ArgumentError(f"count must be >= 0, got {count}")
    seed = _coordinate("seed", seed)
    component = _coordinate("component", component)
    domain = _coordinate("domain", domain)
    batched = isinstance(stream, Iterable) and not isinstance(stream, (str, bytes))
    if batched:
        streams = [_coordinate("stream", s) for s in stream]
    else:
        streams = [_coordinate("stream", stream)]
    bits = getattr(_local, "bits", None)
    if bits is None:
        bits = _local.bits = np.random.Philox(0)
    words = np.empty((len(streams), count), dtype=np.uint64)
    for row, s in zip(words, streams):
        bits.state = {
            "bit_generator": "Philox",
            "state": {"counter": (0, 0, component, domain), "key": (seed, s)},
            "buffer": (0, 0, 0, 0),
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        row[:] = bits.random_raw(count)
    z = _normals(words)
    return z if batched else z[0]
