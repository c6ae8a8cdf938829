"""Counter-based Gaussian streams with stable coordinates (seed, stream, component)."""

from __future__ import annotations

import operator
import threading
from collections.abc import Iterable, Sequence

import numpy as np

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

# One Philox per thread, re-keyed for every (stream, component) through one
# reused state dict: its state is overwritten in full before each use, so no
# draw depends on an earlier one. The state set is that of a fresh
# Philox(key=(seed, stream), counter=(0, 0, component, domain)), whose raw
# words Generator.integers(0, 2**64, dtype=uint64) also returns; a re-key
# skips the OS entropy that each construction draws.
_local = threading.local()

# scipy.special.ndtri, imported by the first draw: importing scipy.special
# costs more than the rest of the package, and only draws need it. A numpy
# port of Cephes ndtri is a dead end: it keeps scipy's bits only with libm's
# log, not np.log (1247 of 20 M draws differ), and is 4-75x slower at every
# size (61.5 against 0.8 us for a one-row table, 16.3 against 3.75 ms for 180 k).
_ndtri = None


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
    global _ndtri
    if _ndtri is None:
        # the import lock makes a first draw on several threads at once safe
        from scipy.special import ndtri as _ndtri
    # one new array for the shifted words and one for the uniforms, which the
    # steps after the conversion update in place; `words` is left as it is
    u = (words >> np.uint64(11)).astype(np.float64)
    u += 0.5
    u *= _INV_2POW53
    # Only the all-ones top word rounds up to 1.0 (ndtri would give +inf).
    np.minimum(u, _U_MAX, out=u)
    return _ndtri(u)


def _coordinates(name: str, value: object) -> tuple[Sequence[int], bool]:
    """(coordinates, batched): one integer, or a sequence or range of them.

    A range of unit step is checked by its bounds, anything else element by
    element. A range is tested for first: the ABC check of Iterable costs
    more than the rest of a one-row call's checks.
    """
    if type(value) is range and value.step == 1:
        if value and not (value.start >= 0 and value.stop <= 2**64):
            raise ArgumentError(f"{name} must be in [0, 2**64), got {value}")
        return value, True
    if not isinstance(value, Iterable) or isinstance(value, (str, bytes)):
        return (_coordinate(name, value),), False
    return [_coordinate(name, v) for v in value], True


def normal_stream(
    seed: int,
    stream: int | Iterable[int],
    component: int | Iterable[int],
    count: int,
    domain: int = DOMAIN_TABLE,
) -> np.ndarray:
    """First `count` standard normals of the stream at (seed, stream, component, domain).

    `stream` is one integer (result shape (count,)) or a sequence or range of
    them (shape (len, count), one row per stream); `component` likewise adds
    a component axis after the stream axis, so a sequence of both gives shape
    (streams, components, count). Every coordinate is an integer in
    [0, 2**64). The Philox4x64 key is (seed, stream) and the counter starts
    at (0, 0, component, domain). Values are a pure function of the
    coordinates: any prefix of a stream is reproducible regardless of how
    many variates other calls consumed, and each (stream, component) row of
    a batch equals the single draw of its coordinates.
    """
    try:
        count = operator.index(count)
    except TypeError:
        raise ArgumentError(f"count must be an integer, got {count!r}") from None
    if count < 0:
        raise ArgumentError(f"count must be >= 0, got {count}")
    seed = _coordinate("seed", seed)
    streams, batched = _coordinates("stream", stream)
    components, per_component = _coordinates("component", component)
    domain = _coordinate("domain", domain)
    state = getattr(_local, "state", None)
    if state is None:
        _local.bits = np.random.Philox(0)
        state = _local.state = {
            "bit_generator": "Philox",
            "state": {"counter": None, "key": None},
            "buffer": (0, 0, 0, 0),
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
    bits, philox = _local.bits, state["state"]
    words = np.empty((len(streams), len(components), count), dtype=np.uint64)
    # an integer index sets a row without the view that iterating rows makes
    rows = words.reshape(len(streams) * len(components), count)
    i = 0
    for s in streams:
        philox["key"] = (seed, s)
        for c in components:
            philox["counter"] = (0, 0, c, domain)
            bits.state = state
            rows[i] = bits.random_raw(count)
            i += 1
    z = _normals(words)
    if not per_component:
        z = z[:, 0]
    return z if batched else z[0]
