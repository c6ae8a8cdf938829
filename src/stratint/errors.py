"""Exception types shared across the package, and its one integer check."""

import operator

__all__ = [
    "ArgumentError",
    "CapabilityError",
    "DomainError",
    "StaleCacheError",
    "CacheFormatError",
]


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
