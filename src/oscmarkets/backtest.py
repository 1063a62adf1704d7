"""Crash-week backtest: fit on an early window, bound a later extreme.

The protocol fits the inertial coefficient on a training window of weekly
displacements, converts the implied extreme ratio R = pi sqrt(8t/m_hat)
into price points through the crash week's opening price (which equals the
prior week's close), and reports whether the realized move exceeded the
bound. Crash weeks are specified by week-end date; nothing here detects
crashes automatically, and nothing predicts their timing.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import DataError, DomainError, at_least, positive
from .estimate import EstimationResult, GridSpec, fit_m_hat
from .ingest import PriceSeries, to_displacements, window
from .model import OscillatorParams, extreme_displacement

__all__ = [
    "BacktestConfig",
    "BacktestReport",
    "predict_extreme_points",
    "run_backtest",
]

DAYS_PER_YEAR = 365.25


@dataclass(frozen=True)
class BacktestConfig:
    crash_week_end: dt.date
    train_start_index: int = 0
    train_count: int = 100
    t: float = 1.0

    def __post_init__(self):
        if not isinstance(self.crash_week_end, dt.date):
            raise DataError(
                f"crash_week_end must be a date, got {self.crash_week_end!r}"
            )
        at_least("train_start_index", self.train_start_index, 0)
        at_least("train_count", self.train_count, 1)
        positive("t", self.t)


@dataclass(frozen=True)
class BacktestReport:
    asset_id: str
    m_hat: float
    r2: float
    prior_close: float
    predicted_extreme_ratio: float
    predicted_extreme_points: float
    actual_points: float
    actual_ratio: float
    violated: bool
    years_from_train_to_crash: float
    fit: Optional[EstimationResult] = field(default=None, repr=False,
                                            compare=False)

    def __post_init__(self):
        implied = self.predicted_extreme_ratio * self.prior_close
        if abs(self.predicted_extreme_points - implied) > 1e-10 * implied:
            raise DomainError(
                "predicted_extreme_points inconsistent with ratio and "
                "prior close"
            )
        if self.violated != (self.actual_points > self.predicted_extreme_points):
            raise DomainError("violated flag inconsistent with point values")


def predict_extreme_points(m_hat: float, t: float, prior_close: float) -> float:
    """Extreme weekly move in price points: pi sqrt(8t/m_hat) * prior_close."""
    prior_close = positive("prior_close", prior_close)
    params = OscillatorParams(m=m_hat, t=t)  # validates m_hat, t
    return positive("predicted_extreme_points",
                    extreme_displacement(params) * prior_close)


def run_backtest(series: PriceSeries, config: BacktestConfig,
                 grid_spec: Optional[GridSpec] = None) -> BacktestReport:
    """Fit on the configured window and test the configured crash week."""
    displacements = to_displacements(series)
    hits = np.flatnonzero(
        displacements.week_end == np.datetime64(config.crash_week_end, "D"))
    if not hits.size:
        raise DataError(
            f"no week ending {config.crash_week_end} in series "
            f"{series.asset_id!r}"
        )
    crash_index = int(hits[0])
    train_end = config.train_start_index + config.train_count
    if crash_index < train_end:
        raise DataError(
            f"crash week (index {crash_index}) does not strictly follow "
            f"the training window [{config.train_start_index}, {train_end})"
        )
    train = window(displacements, config.train_start_index,
                   config.train_count)
    fit = fit_m_hat(train, t=config.t, grid_spec=grid_spec)

    prior_close, close, crash_ratio = (
        float(c[crash_index]) for c in (displacements.x_a, displacements.x_b,
                                        displacements.ratio))
    ratio = extreme_displacement(OscillatorParams(m=fit.m_hat, t=config.t))
    predicted_points = predict_extreme_points(fit.m_hat, config.t, prior_close)
    actual_points = abs(close - prior_close)
    actual_ratio = abs(crash_ratio)
    elapsed = displacements.week_end[crash_index] - train.week_end[-1]
    elapsed_days = elapsed.item().days
    return BacktestReport(
        asset_id=series.asset_id,
        m_hat=fit.m_hat,
        r2=fit.r2,
        prior_close=prior_close,
        predicted_extreme_ratio=ratio,
        predicted_extreme_points=predicted_points,
        actual_points=actual_points,
        actual_ratio=actual_ratio,
        violated=actual_points > predicted_points,
        years_from_train_to_crash=round(elapsed_days / DAYS_PER_YEAR, 1),
        fit=fit,
    )

