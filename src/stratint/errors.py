"""Exception types shared across the package."""

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
