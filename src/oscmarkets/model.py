"""Closed-form oscillator model of weekly price displacements.

A week's price move x = x_B/x_A - 1 is treated as half an oscillation of a
harmonic oscillator with inertial coefficient m, where R is the extreme
(amplitude) displacement ratio and phi the phase accumulated over the
week, x = R sin(phi). Everything downstream is a function of m and the
elapsed time t (trading weeks, default 1):

    phase           phi = asin(x / R)
    action          S   = m x^2 / (2 t)          = (2 pi sin phi)^2
    normalization   Q_psi = 1/sqrt(pi),  Q_x = sqrt(m / (2 pi t))
    densities       Pr(psi) = exp(-phi^2) Q_psi,  Pr(x) = (Q_x exp(-S))^2
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

from .errors import DomainError
from .specfun import erfc

__all__ = [
    "OscillatorParams",
    "phase_from_ratio",
    "action",
    "action_from_phase",
    "normalization_constants",
    "prob_psi",
    "prob_x",
    "prob_at_least",
    "extreme_displacement",
]

_SQRT_PI = math.sqrt(math.pi)
_TWO_PI = 2.0 * math.pi

# slack allowed when |x| exceeds R by floating-point noise only
_CLAMP_TOL = 1e-9


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
        m = _require_finite("m", self.m)
        t = _require_finite("t", self.t)
        if m <= 0.0:
            raise DomainError(f"inertial coefficient m must be > 0, got {m}")
        if t <= 0.0:
            raise DomainError(f"elapsed time t must be > 0, got {t}")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "t", t)


def phase_from_ratio(x: float, amplitude: float) -> float:
    """Invert x = R sin(phi) on the principal branch, phi in [-pi/2, pi/2].

    |x| may exceed the amplitude by at most a 1e-9 relative margin (treated
    as numerical noise and clamped); larger excursions are domain errors
    because the model admits no displacement beyond the extreme R.
    """
    x = _require_finite("x", x)
    amplitude = _require_finite("amplitude", amplitude)
    if amplitude <= 0.0:
        raise DomainError(f"amplitude must be > 0, got {amplitude}")
    u = x / amplitude
    if abs(u) > 1.0:
        if abs(u) - 1.0 > _CLAMP_TOL:
            raise DomainError(
                f"|x|={abs(x)} exceeds extreme displacement {amplitude}"
            )
        u = math.copysign(1.0, u)
    return math.asin(u)


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


def normalization_constants(params: OscillatorParams) -> tuple[float, float]:
    """(Q_psi, Q_x) = (1/sqrt(pi), sqrt(m/(2 pi t)))."""
    q_psi = 1.0 / _SQRT_PI
    q_x = math.sqrt(params.m / (_TWO_PI * params.t))
    return q_psi, q_x


def prob_psi(phi: float) -> float:
    """Gaussian phase density Pr(psi) = exp(-phi^2)/sqrt(pi)."""
    phi = _require_finite("phi", phi)
    return math.exp(-phi * phi) / _SQRT_PI


def prob_x(params: OscillatorParams, x: float) -> float:
    """Squared-wave displacement density, (Q_x exp(-S))^2."""
    x = _require_finite("x", x)
    _, q_x = normalization_constants(params)
    amp = q_x * math.exp(-action(params, x))
    return amp * amp


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
    """Extreme displacement ratio R = pi sqrt(8 t / m)."""
    return math.pi * math.sqrt(8.0 * params.t / params.m)
