"""Exception types, and the package's one integer check, real number check and memory bound."""

import contextlib
import math
import numbers
import operator

__all__ = [
    "ArgumentError",
    "CapabilityError",
    "DomainError",
    "StaleCacheError",
    "CacheFormatError",
]


# The package's one memory bound: the rough peak of one tensor build or Gauss
# rule, or of the working arrays of one block of rows or paths.
MAX_TENSOR_BYTES = 2 * 2**30


class ArgumentError(ValueError):
    """Inconsistent or invalid arguments (lengths, provenance, ranges)."""


class DomainError(ValueError):
    """Evaluation point outside the integration interval, or a result that
    does not fit in double precision."""


class CapabilityError(NotImplementedError):
    """Request beyond a declared limit of the implementation."""


class StaleCacheError(RuntimeError):
    """Cache file is well formed but describes different inputs."""


class CacheFormatError(RuntimeError):
    """Cache file is corrupt, truncated, or has an unknown layout."""


def _whole(name: str, value: object, least: int | None = None) -> int:
    """value as an int: ArgumentError for anything but a Python or numpy
    integer (a bool, float, str or None included), or for one below least."""
    if type(value) is not int:  # a bool is an int, but not of type int
        try:
            if isinstance(value, bool):
                raise TypeError
            value = operator.index(value)
        except TypeError:
            raise ArgumentError(f"{name} must be an integer, got {value!r}") from None
    if least is not None and value < least:
        raise ArgumentError(f"need {name} >= {least}, got {value}")
    return value


def _real(name: str, value: object) -> float:
    """value as a float: ArgumentError for anything but a finite real number
    (a bool, str, None, complex, nan or inf included)."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        with contextlib.suppress(OverflowError):  # an int past the float range
            if math.isfinite(number := float(value)):
                return number
    raise ArgumentError(f"{name} must be a finite real number, got {value!r}")


def check_bytes(need: int, what: str) -> None:
    """Raise CapabilityError, before anything is allocated, when `what` needs
    more than MAX_TENSOR_BYTES bytes."""
    if need > MAX_TENSOR_BYTES:
        raise CapabilityError(f"{what} need over {MAX_TENSOR_BYTES >> 30} GiB")
