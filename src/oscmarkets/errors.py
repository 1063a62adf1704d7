"""Semantic exception hierarchy shared by every module in the package,
and the value rules that raise it: each is spelled here once."""

import math


class OscMarketsError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(OscMarketsError, ValueError):
    """A numeric argument violates an operation's domain contract."""


class DataError(OscMarketsError, ValueError):
    """Input data fails parsing, validation, or windowing constraints."""


def finite(name: str, value) -> float:
    """`value` as a float; DomainError unless it is finite."""
    value = float(value)
    if not math.isfinite(value):
        raise DomainError(f"{name} must be finite, got {value!r}")
    return value


def positive(name: str, value) -> float:
    """`value` as a float; DomainError unless it is finite and > 0."""
    value = float(value)
    if not (math.isfinite(value) and value > 0.0):
        raise DomainError(f"{name} must be finite and > 0, got {value!r}")
    return value


def at_least(name: str, value: int, low: int) -> int:
    """`value`; DataError unless it is >= `low`."""
    if value < low:
        raise DataError(f"{name} must be >= {low}, got {value}")
    return value


def uint64(name: str, value: int) -> int:
    """`value`; DataError unless it fits in 64 unsigned bits."""
    if not 0 <= value < 2 ** 64:
        raise DataError(f"{name} must be a 64-bit unsigned int, got {value}")
    return value
