"""Semantic exception hierarchy shared by every module in the package."""

import math


class OscMarketsError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(OscMarketsError, ValueError):
    """A numeric argument violates an operation's domain contract."""


class DataError(OscMarketsError, ValueError):
    """Input data fails parsing, validation, or windowing constraints."""


def positive(name: str, value) -> float:
    """`value` as a float; DomainError unless it is finite and > 0."""
    value = float(value)
    if not (math.isfinite(value) and value > 0.0):
        raise DomainError(f"{name} must be finite and > 0, got {value!r}")
    return value
