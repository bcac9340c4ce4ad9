"""Exception types shared across the package, and the numeric-argument checks."""

import math
from numbers import Integral


class QwasserError(Exception):
    """Base class for every error raised by this package."""


class ContractViolation(QwasserError):
    """An internal call received a value outside its documented contract."""


class DomainError(QwasserError, ValueError):
    """User-supplied input lies outside the mathematical domain."""


class InternalConsistencyError(QwasserError):
    """A quantity that must come out real or consistent did not."""


class SolverAccuracyError(QwasserError):
    """The optimizer did not reach the accuracy a derived result requires."""


def require_integer(name: str, value, minimum: int) -> None:
    """DomainError unless `value` is an int or numpy integer (not a bool) >= minimum."""
    if isinstance(value, bool) or not isinstance(value, Integral) or value < minimum:
        raise DomainError(f"{name} must be an integer >= {minimum}, got {value!r}")


def require_positive(name: str, value) -> None:
    """DomainError unless 0 < value < inf, so NaN is rejected too."""
    if not 0.0 < value < math.inf:
        raise DomainError(f"{name} must be positive and finite, got {value}")


def require_finite(name: str, value) -> None:
    """DomainError unless `value` is a finite number (not NaN or +-inf)."""
    if not math.isfinite(value):
        raise DomainError(f"{name} must be finite, got {value}")
