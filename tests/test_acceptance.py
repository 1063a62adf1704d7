"""Acceptance gate: eight criteria, each one test with pinned tolerances.

`pytest -v` renders one pass/fail line per criterion; each test also
prints a `criterion N PASS` line carrying the measured figures (visible
under -s, or on failure for the failing criterion). Stated runtime
budgets are asserted where the criterion pins one.
"""

import csv
import datetime as dt
import math
import time
from pathlib import Path

import numpy as np
import pytest

from oscmarkets.backtest import BacktestConfig, run_backtest
from oscmarkets.backtest import predict_extreme_points
from oscmarkets.estimate import fit_m_hat, m_week
from oscmarkets.ingest import parse_prices
from oscmarkets.model import (
    OscillatorParams,
    action,
    action_from_phase,
    prob_at_least,
)
from oscmarkets.specfun import erfc, erfc_inv
from oscmarkets.synth import SynthSpec, sample_displacements

DATA = Path(__file__).parent / "data"


def _line(num: int, detail: str) -> None:
    print(f"criterion {num} PASS  {detail}")


def test_criterion_1_special_function_accuracy():
    start = time.perf_counter()
    with (DATA / "erfc_oracle.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) >= 200
    z = np.array([float(r["z"]) for r in rows])
    ref = np.array([float(r["erfc"]) for r in rows])
    assert z.min() <= -6.0 + 1e-12 and z.max() >= 6.0 - 1e-12
    rel = np.abs(erfc(z) - ref) / ref
    assert rel.max() <= 1e-12

    grid = np.linspace(0.0, 5.0, 5001)
    round_trip = np.abs(erfc_inv(erfc(grid)) - grid) / np.maximum(1.0, grid)
    assert round_trip.max() <= 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _line(1, f"erfc max rel err {rel.max():.2e} over {len(rows)} oracle "
             f"points; inverse round trip {round_trip.max():.2e}; "
             f"{elapsed:.2f}s")


def test_criterion_2_extreme_point_regression():
    spx = predict_extreme_points(977.73, 1.0, 1099.23)
    dow = predict_extreme_points(982.21, 1.0, 10325.38)
    assert spx == pytest.approx(312.37, abs=0.05)
    assert dow == pytest.approx(2927.51, abs=0.5)
    _line(2, f"312.37 -> {spx:.4f}; 2927.51 -> {dow:.4f}")


def test_criterion_3_tail_law_inversion():
    worst = 0.0
    for m in (10.0, 100.0, 1000.0):
        for x in (0.01, 0.05, 0.2):
            for t in (1.0, 2.0):
                rho = prob_at_least(OscillatorParams(m=m, t=t), x)
                err = abs(m_week(rho, x, t) - m) / m
                worst = max(worst, err)
    assert worst <= 1e-8
    _line(3, f"worst relative inversion error {worst:.2e} over 3x3x2 grid")


def test_criterion_4_action_identity():
    start = time.perf_counter()
    phis = np.linspace(-math.pi / 2.0, math.pi / 2.0, 10_000)
    worst = 0.0
    for m in (10.0, 977.73, 8.0 * math.pi ** 2):
        params = OscillatorParams(m=m, t=1.0)
        amp = math.pi * math.sqrt(8.0 / m)
        for phi in phis:
            s_phase = action_from_phase(float(phi))
            s_x = action(params, amp * math.sin(phi))
            worst = max(worst, abs(s_x - s_phase) / max(1.0, s_phase))
    assert worst <= 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _line(4, f"worst normalized action gap {worst:.2e} on 10^4-point "
             f"phi grid x 3 m; {elapsed:.2f}s")


def test_criterion_5_estimator_closed_loop():
    start = time.perf_counter()
    details = []
    for m_true in (355.92, 977.73, 2513.76):
        for n, tol in ((100, 0.10), (1000, 0.04)):
            m_hats, r2s = [], []
            for seed in range(50):
                sample = sample_displacements(SynthSpec(m=m_true, n=n,
                                                        seed=seed))
                fit = fit_m_hat(sample)
                m_hats.append(fit.m_hat)
                r2s.append(fit.r2)
            med = float(np.median(m_hats))
            bias = med / m_true - 1.0
            assert abs(bias) <= tol, (
                f"median m_hat {med:.2f} vs true {m_true} at N={n}: "
                f"bias {bias:+.4f} exceeds {tol}")
            if n == 100:
                med_r2 = float(np.median(r2s))
                assert med_r2 >= 0.99, f"median r2 {med_r2:.4f} < 0.99"
            details.append(f"m={m_true} N={n} bias {bias:+.3f}")
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _line(5, "; ".join(details) + f"; {elapsed:.1f}s")


def test_criterion_6_sampler_distribution():
    start = time.perf_counter()
    n = 100_000
    worst_overall = 0.0
    for m, seed in ((100.0, 1), (977.73, 2), (2500.0, 3)):
        sample = sample_displacements(SynthSpec(m=m, n=n, seed=seed))
        abs_x = np.sort(np.abs(np.asarray(sample.ratio)))
        params = OscillatorParams(m=m)
        worst = 0.0
        for x in np.linspace(0.0, abs_x[-1], 50):
            emp = 1.0 - np.searchsorted(abs_x, x, side="left") / n
            worst = max(worst, abs(emp - prob_at_least(params, float(x))))
        assert worst <= 0.02, f"sup-gap {worst:.4f} at m={m}"
        worst_overall = max(worst_overall, worst)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _line(6, f"sup-gap {worst_overall:.4f} <= 0.02 at N=10^5; {elapsed:.1f}s")


def test_criterion_7_backtest_fixtures():
    config = BacktestConfig(crash_week_end=dt.date(2004, 12, 6),
                            train_start_index=0, train_count=100)
    quiet = run_backtest(
        parse_prices((DATA / "backtest_quiet.csv").read_text()), config)
    assert quiet.violated is False
    ratio = quiet.predicted_extreme_points / quiet.actual_points
    assert ratio == pytest.approx(1.5625, abs=1e-6)

    crash = run_backtest(
        parse_prices((DATA / "backtest_crash.csv").read_text()), config)
    assert crash.violated is True
    _line(7, f"quiet fixture predicted/actual {ratio:.10f}, violated "
             f"{quiet.violated}; crash fixture violated {crash.violated}")


def test_criterion_8_reproduction_documented():
    readme = Path(__file__).parents[1] / "README.md"
    assert readme.is_file(), "README.md missing"
    text = readme.read_text(encoding="utf-8")
    assert "estimate --input spx_weekly.csv --window 0:100 --t 1" in text, (
        "README must document the exact reproduction command")
    assert "977.73" in text
    assert "0.99" in text and "0.9977" in text and "0.9998" in text, (
        "README must state the expected r2 level and historical range")
    _line(8, "README documents the reproduction command and expected r2 "
             "range for user-supplied data")
