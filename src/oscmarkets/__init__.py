"""Oscillator-based model of weekly asset price displacements.

Weekly moves x = close/prior_close - 1 follow a harmonic-oscillator law
with per-asset inertial coefficient m: survival Pr(|x| >= X) =
erfc(X sqrt(m/(2t)))^2 and extreme weekly ratio R = pi sqrt(8t/m). The
modules cover the closed-form model, CSV ingestion, coefficient
estimation, synthetic sampling, crash-week backtesting, and a CLI. Price
and displacement series are read-only numpy columns, validated once when
a series is built.

Library code imports from the submodules (``oscmarkets.estimate.fit_m_hat``,
``oscmarkets.ingest.parse_prices``, ``oscmarkets.specfun.erfc``); each
module's ``__all__`` is its public surface.
"""

__version__ = "0.1.0"
