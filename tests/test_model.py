"""Closed-form model: point values, identities, and domain contracts.

Non-trivial expected values were produced offline with mpmath at 40
digits (scripts/gen_oracle_values.py) and are frozen here.
"""

import math

import numpy as np
import pytest

from oscmarkets.errors import DataError, DomainError
from oscmarkets.ingest import (
    DisplacementSeries,
    PriceSeries,
    to_displacements,
)
from oscmarkets.model import (
    OscillatorParams,
    action,
    action_from_phase,
    extreme_displacement,
    prob_at_least,
)
from oscmarkets.specfun import erfc_inv

# mpmath oracles, 40 dps
SPX_CRASH_RATIO = -0.1819546409759559  # 899.22/1099.23 - 1
ACTION_SPX_5PCT = 1.2221625  # 977.73*0.05^2/2
FOUR_PI_SQ = 39.47841760435743
PI_SQ = 9.869604401089358
ERFC1_SQ = 0.024743040538648471  # erfc(1)^2
R_SPX = 0.28417469051903148  # pi*sqrt(8/977.73)
R_DOW = 0.28352586917004161  # pi*sqrt(8/982.21)


class TestParams:
    def test_defaults(self):
        p = OscillatorParams(m=977.73)
        assert p.t == 1.0

    @pytest.mark.parametrize("m, t", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0),
                                      (1.0, -2.0), (float("nan"), 1.0),
                                      (1.0, float("inf"))])
    def test_invalid(self, m, t):
        with pytest.raises(DomainError):
            OscillatorParams(m=m, t=t)


def week(x_a, x_b, ratio=None):
    """One-week displacement series; without a ratio, the one derived
    from the two closes x_a, x_b."""
    if ratio is None:
        prices = PriceSeries("x", ["2001-01-05", "2001-01-12"], [x_a, x_b])
        return to_displacements(prices)
    return DisplacementSeries("x", ["2001-01-12"], [x_a], [x_b], [ratio])


class TestDisplacement:
    # the ratio x = x_b/x_a - 1 and its rules, as the series type keeps them
    def test_direct_ratio(self):
        assert week(90.0, 100.0).ratio[0] == pytest.approx(1.0 / 9.0,
                                                           rel=1e-15)

    def test_no_move(self):
        assert week(123.4, 123.4).ratio[0] == 0.0

    def test_spx_crash_week(self):
        assert week(1099.23, 899.22).ratio[0] == pytest.approx(
            SPX_CRASH_RATIO, rel=1e-14)

    @pytest.mark.parametrize("x_a, x_b", [(0.0, 1.0), (-5.0, 1.0), (1.0, 0.0),
                                          (1.0, -1.0)])
    def test_nonpositive_prices(self, x_a, x_b):
        with pytest.raises(DataError, match="positive"):
            week(x_a, x_b, ratio=0.5)

    def test_ratio_must_exceed_minus_one(self):
        with pytest.raises(DataError, match="exceed -1"):
            week(1e20, 1.0, ratio=1.0 / 1e20 - 1.0)

    def test_inconsistent_ratio_rejected(self):
        with pytest.raises(DataError, match="inconsistent"):
            week(100.0, 110.0, ratio=0.2)


class TestActionAndStiffness:
    def test_action_zero(self):
        assert action(OscillatorParams(m=977.73), 0.0) == 0.0

    def test_action_hand_value(self):
        s = action(OscillatorParams(m=977.73, t=1.0), 0.05)
        assert s == pytest.approx(ACTION_SPX_5PCT, rel=1e-14)

    def test_action_unit(self):
        assert action(OscillatorParams(m=2.0, t=1.0), 1.0) == 1.0

    def test_phase_form(self):
        assert action_from_phase(0.0) == 0.0
        assert action_from_phase(math.pi / 2) == pytest.approx(FOUR_PI_SQ,
                                                               rel=1e-14)
        assert action_from_phase(math.pi / 6) == pytest.approx(PI_SQ,
                                                               rel=1e-14)

    @pytest.mark.parametrize("phi", [math.pi / 2 + 1e-9, -2.0])
    def test_phase_outside_quarter_turn_rejected(self, phi):
        with pytest.raises(DomainError, match="outside"):
            action_from_phase(phi)

    def test_action_consistency_identity(self):
        # with R the unit-time extreme, S(R sin phi) = (2 pi sin phi)^2
        for m in (355.92, 977.73, 2513.76):
            p = OscillatorParams(m=m, t=1.0)
            r = extreme_displacement(p)
            for phi in np.linspace(-math.pi / 2, math.pi / 2, 101):
                s_x = action(p, r * math.sin(phi))
                s_phi = action_from_phase(float(phi))
                assert abs(s_x - s_phi) <= 1e-12 * max(1.0, s_phi)


class TestTailLaw:
    def test_certainty_at_zero(self):
        assert prob_at_least(OscillatorParams(m=977.73), 0.0) == 1.0

    def test_erfc_one_squared(self):
        p = OscillatorParams(m=2.0, t=1.0)
        assert prob_at_least(p, 1.0) == pytest.approx(ERFC1_SQ, rel=1e-14)

    def test_vanishes_in_the_limit(self):
        assert prob_at_least(OscillatorParams(m=2.0), 50.0) == 0.0

    def test_strictly_decreasing(self):
        p = OscillatorParams(m=977.73)
        vals = [prob_at_least(p, x) for x in np.linspace(0.0, 0.25, 60)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_negative_threshold_rejected(self):
        with pytest.raises(DomainError):
            prob_at_least(OscillatorParams(m=2.0), -0.1)

    def test_estimator_round_trip(self):
        # 2t (erfc_inv(sqrt(Pr))/X)^2 recovers m: the per-week inversion
        for m, t in ((355.92, 1.0), (977.73, 1.0), (2513.76, 2.0)):
            p = OscillatorParams(m=m, t=t)
            for x_min in (0.005, 0.02, 0.08):
                pr = prob_at_least(p, x_min)
                back = 2.0 * t * (erfc_inv(math.sqrt(pr)) / x_min) ** 2
                assert abs(back - m) <= 1e-8 * m


class TestExtremeDisplacement:
    def test_unit_construction(self):
        p = OscillatorParams(m=8.0 * math.pi ** 2, t=1.0)
        assert extreme_displacement(p) == pytest.approx(1.0, rel=1e-15)

    def test_spx_value(self):
        r = extreme_displacement(OscillatorParams(m=977.73))
        assert r == pytest.approx(R_SPX, rel=1e-14)
        assert r * 1099.23 == pytest.approx(312.37, abs=0.05)

    def test_dow_value(self):
        r = extreme_displacement(OscillatorParams(m=982.21))
        assert r == pytest.approx(R_DOW, rel=1e-14)
        assert r * 10325.38 == pytest.approx(2927.51, abs=0.5)

    def test_squared_identity_at_unit_time(self):
        for m in (355.92, 977.73):
            r = extreme_displacement(OscillatorParams(m=m, t=1.0))
            assert r * r == pytest.approx(8.0 * math.pi ** 2 / m, rel=1e-14)
