"""Closed-form oscillator model of weekly price displacements.

A week's price move x = x_B/x_A - 1 is treated as half an oscillation of a
harmonic oscillator with inertial coefficient m, where R is the extreme
(amplitude) displacement ratio and phi the phase accumulated over the
week, x = R sin(phi). Everything downstream is a function of m and the
elapsed time t (trading weeks, default 1):

    action          S = m x^2 / (2 t) = (2 pi sin phi)^2
    tail law        Pr(|x| >= X) = erfc(X sqrt(m / (2 t)))^2
    extreme         R = pi sqrt(8 t / m)

The tail law is the empirically testable output; the estimator in
`oscmarkets.estimate` inverts it week by week.

All functions are pure and operate on scalars; the estimator keeps its own
vectorized path. Angles are radians throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, positive
from .specfun import erfc

__all__ = [
    "OscillatorParams",
    "action",
    "action_from_phase",
    "prob_at_least",
    "extreme_displacement",
]

_TWO_PI = 2.0 * math.pi


def _require_finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise DomainError(f"{name} must be finite, got {value!r}")
    return value


@dataclass(frozen=True)
class OscillatorParams:
    """Per-asset inertial coefficient m and elapsed time t in week units."""

    m: float
    t: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "m", positive("m", self.m))
        object.__setattr__(self, "t", positive("t", self.t))


def action(params: OscillatorParams, x: float) -> float:
    """Action of the week's move, S = m x^2 / (2 t)."""
    x = _require_finite("x", x)
    return 0.5 * params.m * x * x / params.t


def action_from_phase(phi: float) -> float:
    """Action in phase form, S = (2 pi sin phi)^2 = u^2."""
    phi = _require_finite("phi", phi)
    if abs(phi) > math.pi / 2.0 + 1e-12:
        raise DomainError(f"phase {phi} outside [-pi/2, pi/2]")
    u = _TWO_PI * math.sin(phi)
    return u * u


def prob_at_least(params: OscillatorParams, x_min: float) -> float:
    """Tail probability Pr(|x| >= x_min) = erfc(x_min sqrt(m/(2t)))^2.

    Callers pass the magnitude; negative thresholds are rejected rather
    than silently folded.
    """
    x_min = _require_finite("x_min", x_min)
    if x_min < 0.0:
        raise DomainError(f"threshold must be >= 0, got {x_min}")
    e = erfc(x_min * math.sqrt(params.m / (2.0 * params.t)))
    return e * e


def extreme_displacement(params: OscillatorParams) -> float:
    """Extreme displacement ratio R = pi sqrt(8 t / m); DomainError when
    t / m is so far out of range that R overflows or underflows."""
    return positive("extreme displacement R",
                    math.pi * math.sqrt(8.0 * params.t / params.m))
