"""Oscillator-based model of weekly asset price displacements.

Weekly moves x = close/prior_close - 1 follow a harmonic-oscillator law
with per-asset inertial coefficient m: survival Pr(|x| >= X) =
erfc(X sqrt(m/(2t)))^2 and extreme weekly ratio R = pi sqrt(8t/m). The
modules cover the closed-form model, CSV ingestion, coefficient
estimation, synthetic sampling, crash-week backtesting, and a CLI. Price
and displacement series are read-only numpy columns, validated once when
a series is built.
"""

from .backtest import BacktestConfig, BacktestReport, predict_extreme_points, run_backtest
from .errors import DataError, DomainError, OscMarketsError
from .estimate import EstimationResult, GridSpec, fit_m_hat, m_week
from .ingest import (
    DisplacementSeries,
    PriceSeries,
    parse_displacements,
    parse_prices,
    to_displacements,
    window,
)
from .model import OscillatorParams, extreme_displacement, prob_at_least
from .specfun import erfc, erfc_inv
from .synth import SynthSpec, sample_displacements

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "OscMarketsError",
    "DataError",
    "DomainError",
    "erfc",
    "erfc_inv",
    "OscillatorParams",
    "prob_at_least",
    "extreme_displacement",
    "PriceSeries",
    "DisplacementSeries",
    "parse_prices",
    "parse_displacements",
    "to_displacements",
    "window",
    "GridSpec",
    "EstimationResult",
    "m_week",
    "fit_m_hat",
    "SynthSpec",
    "sample_displacements",
    "BacktestConfig",
    "BacktestReport",
    "predict_extreme_points",
    "run_backtest",
]
