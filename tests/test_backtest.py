"""Backtest: point predictions, fixture runs, and report invariants.

The price fixtures under tests/data/ were generated by
scripts/make_backtest_fixtures.py: a 100-week training ladder at m0=900
followed two years later by a crash week sized at 0.64x (quiet) or 1.10x
(crash) of the fitted extreme. They are frozen inputs, made with an
earlier fit, so the quiet predicted/actual ratio is 1.5625 only to within
the current fit's noise band (test_quiet_fixture_not_violated); the script
must not be rerun to refresh them.
"""

import datetime as dt
import json
import math
from pathlib import Path

import numpy as np
import pytest

from oscmarkets.backtest import (
    BacktestConfig,
    BacktestReport,
    predict_extreme_points,
    run_backtest,
)
from oscmarkets.cli import main
from oscmarkets.errors import DataError, DomainError
from oscmarkets.ingest import parse_prices

DATA = Path(__file__).parent / "data"
CRASH_DATE = dt.date(2004, 12, 6)


def load(name):
    return parse_prices((DATA / name).read_text(), asset_id=name)


def cli_backtest(capsys, *argv):
    """(exit code, stdout, stderr) of a backtest of the quiet fixture."""
    code = main(["backtest", "--input", str(DATA / "backtest_quiet.csv"),
                 "--crash-week", CRASH_DATE.isoformat(), *argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPredictExtremePoints:
    def test_spx_figure(self):
        assert predict_extreme_points(977.73, 1.0, 1099.23) == pytest.approx(
            312.37, abs=0.05)

    def test_dow_figure(self):
        assert predict_extreme_points(982.21, 1.0, 10325.38) == pytest.approx(
            2927.51, abs=0.5)

    def test_unit_identity(self):
        m_unit = 8.0 * math.pi ** 2
        assert predict_extreme_points(m_unit, 1.0, 543.21) == pytest.approx(
            543.21, rel=1e-14)

    def test_strictly_decreasing_in_m(self):
        vals = [predict_extreme_points(m, 1.0, 1000.0)
                for m in (100.0, 300.0, 900.0, 2700.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("m, p", [(0.0, 100.0), (-1.0, 100.0),
                                      (100.0, 0.0), (100.0, -5.0)])
    def test_domain(self, m, p):
        with pytest.raises(DomainError):
            predict_extreme_points(m, 1.0, p)


class TestRunBacktest:
    CONFIG = BacktestConfig(crash_week_end=CRASH_DATE, train_start_index=0,
                            train_count=100)

    def test_quiet_fixture_not_violated(self):
        report = run_backtest(load("backtest_quiet.csv"), self.CONFIG)
        assert not report.violated
        assert report.m_hat == pytest.approx(900.0, rel=1e-4)
        ratio = report.predicted_extreme_points / report.actual_points
        # the fixture pins the ratio only as far as the fit resolves m:
        # over the trace points whose r^2 is within 8 ulp of the best, the
        # ratio (proportional to m^-1/2) spans an interval that must hold
        # 1.5625 and be narrower than acceptance criterion 7's 1e-6
        fit = report.fit
        band = fit.grid.m[fit.grid.r2 >= fit.r2 - 8 * math.ulp(fit.r2)]
        lo, hi = ratio * np.sqrt(report.m_hat / band[[-1, 0]])
        assert lo <= 1.5625 <= hi
        assert hi - lo < 1e-6

    def test_crash_fixture_violated(self):
        report = run_backtest(load("backtest_crash.csv"), self.CONFIG)
        assert report.violated
        ratio = report.actual_points / report.predicted_extreme_points
        assert ratio == pytest.approx(1.10, abs=1e-9)

    def test_report_unit_consistency(self):
        report = run_backtest(load("backtest_quiet.csv"), self.CONFIG)
        assert report.actual_ratio * report.prior_close == pytest.approx(
            report.actual_points, rel=1e-10)
        assert report.predicted_extreme_ratio * report.prior_close == (
            pytest.approx(report.predicted_extreme_points, rel=1e-12))

    def test_years_elapsed(self):
        report = run_backtest(load("backtest_quiet.csv"), self.CONFIG)
        assert report.years_from_train_to_crash == 2.0

    def test_prior_close_is_weeks_opening(self):
        series = load("backtest_quiet.csv")
        report = run_backtest(series, self.CONFIG)
        assert report.prior_close == series.close[-2]

    def test_crash_week_absent(self):
        config = BacktestConfig(crash_week_end=dt.date(2004, 12, 7))
        with pytest.raises(DataError, match="no week ending"):
            run_backtest(load("backtest_quiet.csv"), config)

    def test_overlapping_window_rejected(self):
        series = load("backtest_quiet.csv")
        inside = series.week_end[50].item()
        config = BacktestConfig(crash_week_end=inside, train_start_index=0,
                                train_count=100)
        with pytest.raises(DataError, match="strictly follow"):
            run_backtest(series, config)

    def test_crash_adjacent_to_window_ok(self):
        # the crash week may be the first week after the training window
        series = load("backtest_quiet.csv")
        config = BacktestConfig(crash_week_end=series.week_end[60].item(),
                                train_start_index=0, train_count=59)
        report = run_backtest(series, config)
        assert report.prior_close == series.close[59]

    def test_determinism(self, capsys):
        series = load("backtest_quiet.csv")
        a = run_backtest(series, self.CONFIG)
        b = run_backtest(series, self.CONFIG)
        assert a == b
        for fmt in ("text", "csv", "structured"):
            runs = [cli_backtest(capsys, "--format", fmt) for _ in range(2)]
            assert runs[0][0] == 0 and runs[0] == runs[1]


class TestReportSurface:
    def make_report(self):
        return run_backtest(load("backtest_quiet.csv"),
                            BacktestConfig(crash_week_end=CRASH_DATE))

    def test_text_format(self, capsys):
        report = self.make_report()
        code, out, _ = cli_backtest(capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("# config: ")
        assert lines[1] == "asset: backtest_quiet"
        assert "violated: no" in lines
        assert ("predicted_extreme_points: "
                f"{report.predicted_extreme_points:.2f}") in lines

    def test_record_round_trip_fields(self, capsys):
        report = self.make_report()
        code, out, _ = cli_backtest(capsys, "--format", "structured")
        assert code == 0
        rec = json.loads(out)["result"]
        assert rec["violated"] is False
        assert rec["m_hat"] == report.m_hat
        assert set(rec) == {
            "asset_id", "m_hat", "r2", "prior_close",
            "predicted_extreme_ratio", "predicted_extreme_points",
            "actual_points", "actual_ratio", "violated",
            "years_from_train_to_crash",
        }

    def test_inconsistent_points_rejected(self):
        with pytest.raises(DomainError, match="inconsistent"):
            BacktestReport(asset_id="x", m_hat=900.0, r2=1.0,
                           prior_close=100.0, predicted_extreme_ratio=0.3,
                           predicted_extreme_points=35.0, actual_points=10.0,
                           actual_ratio=0.1, violated=False,
                           years_from_train_to_crash=1.0)

    def test_inconsistent_flag_rejected(self):
        with pytest.raises(DomainError, match="violated"):
            BacktestReport(asset_id="x", m_hat=900.0, r2=1.0,
                           prior_close=100.0, predicted_extreme_ratio=0.3,
                           predicted_extreme_points=30.0, actual_points=40.0,
                           actual_ratio=0.4, violated=False,
                           years_from_train_to_crash=1.0)


class TestConfigValidation:
    def test_bad_date(self):
        with pytest.raises(DataError):
            BacktestConfig(crash_week_end="2004-12-06")

    def test_bad_indices(self):
        with pytest.raises(DataError):
            BacktestConfig(crash_week_end=CRASH_DATE, train_start_index=-1)
        with pytest.raises(DataError):
            BacktestConfig(crash_week_end=CRASH_DATE, train_count=0)

    def test_bad_time(self):
        with pytest.raises(DomainError):
            BacktestConfig(crash_week_end=CRASH_DATE, t=0.0)
