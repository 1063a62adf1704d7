"""Sampler: determinism, the documented algorithm, and distributional fit."""

import datetime as dt
import io
import math

import numpy as np
import pytest

from oscmarkets.errors import DataError, DomainError
from oscmarkets.ingest import parse_displacements, write_displacements
from oscmarkets.model import OscillatorParams, prob_at_least
from oscmarkets.specfun import erfc_inv
from oscmarkets.synth import SynthSpec, sample_displacements

# mpmath oracle, 40 dps: erfc(0.05*sqrt(977.73/2))^2
SURVIVAL_SPX_5PCT = 0.013912347297226846


class TestSpecValidation:
    @pytest.mark.parametrize("kw", [dict(m=0.0), dict(m=-5.0),
                                    dict(m=1.0, t=0.0),
                                    dict(m=1.0, t=float("nan"))])
    def test_bad_params(self, kw):
        with pytest.raises(DomainError):
            SynthSpec(**kw)

    @pytest.mark.parametrize("kw", [dict(m=1.0, n=0),
                                    dict(m=1.0, seed=-1),
                                    dict(m=1.0, seed=2 ** 64)])
    def test_bad_counts(self, kw):
        with pytest.raises(DataError):
            SynthSpec(**kw)


class TestDeterminism:
    def test_fixed_seed_reproduces(self):
        a = sample_displacements(SynthSpec(m=977.73, n=500, seed=42))
        b = sample_displacements(SynthSpec(m=977.73, n=500, seed=42))
        assert a.asset_id == b.asset_id
        for name in ("week_end", "x_a", "x_b", "ratio"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes()

    def test_seeds_differ(self):
        a = sample_displacements(SynthSpec(m=977.73, n=500, seed=42))
        b = sample_displacements(SynthSpec(m=977.73, n=500, seed=43))
        assert a.ratio.tolist() != b.ratio.tolist()

    def test_documented_algorithm(self):
        # the contract: Philox(seed); magnitude stream first, then signs;
        # |x| = sqrt(2t/m) erfc_inv(sqrt(u)) with u = 1 - random in (0, 1]
        spec = SynthSpec(m=500.0, t=2.0, n=64, seed=123)
        rng = np.random.Generator(np.random.Philox(123))
        u = 1.0 - rng.random(64)
        mags = math.sqrt(2.0 * 2.0 / 500.0) * erfc_inv(np.sqrt(u))
        signs = np.where(rng.random(64) < 0.5, -1.0, 1.0)
        expected = (signs * mags).tolist()
        assert sample_displacements(spec).ratio.tolist() == expected


class TestSeriesShape:
    def test_fabricated_endpoints(self):
        s = sample_displacements(SynthSpec(m=977.73, n=20, seed=1))
        assert (s.x_a == 100.0).all()
        assert s.x_b == pytest.approx(100.0 * (1.0 + s.ratio), rel=1e-14)

    def test_weekly_friday_dates(self):
        s = sample_displacements(SynthSpec(m=977.73, n=5, seed=1))
        dates = s.week_end.tolist()
        assert dates[0] == dt.date(2000, 1, 7)
        assert all((b - a).days == 7 for a, b in zip(dates, dates[1:]))
        assert all(d.isoweekday() == 5 for d in dates)

    def test_count(self):
        assert len(sample_displacements(SynthSpec(m=100.0, n=37, seed=9))) == 37

    def test_csv_round_trip(self):
        s = sample_displacements(SynthSpec(m=977.73, n=50, seed=5))
        buf = io.StringIO()
        write_displacements(s, buf)
        again = parse_displacements(buf.getvalue(), asset_id=s.asset_id)
        assert again.asset_id == s.asset_id
        for name in ("week_end", "x_a", "x_b", "ratio"):
            assert getattr(again, name).tobytes() == getattr(s, name).tobytes()

    def test_tiny_m_cannot_fabricate_prices(self):
        with pytest.raises(DomainError, match="too small"):
            sample_displacements(SynthSpec(m=0.1, n=50, seed=0))


class TestDistribution:
    def test_survival_check_spx(self):
        s = sample_displacements(SynthSpec(m=977.73, n=100_000, seed=42))
        emp = np.mean(np.abs(s.ratio) >= 0.05)
        assert emp == pytest.approx(SURVIVAL_SPX_5PCT, abs=2e-3)

    @pytest.mark.parametrize("m, seed", [(100.0, 1), (977.73, 2), (2500.0, 3)])
    def test_ks_style_statistic(self, m, seed):
        n = 100_000
        s = sample_displacements(SynthSpec(m=m, n=n, seed=seed))
        abs_x = np.sort(np.abs(np.asarray(s.ratio)))
        params = OscillatorParams(m=m)
        thresholds = np.linspace(0.0, abs_x[-1], 50)
        worst = 0.0
        for x in thresholds:
            emp = 1.0 - np.searchsorted(abs_x, x, side="left") / n
            worst = max(worst, abs(emp - prob_at_least(params, float(x))))
        assert worst <= 0.02

    def test_sign_symmetry(self):
        s = sample_displacements(SynthSpec(m=977.73, n=100_000, seed=7))
        ratios = np.asarray(s.ratio)
        positive = float((ratios > 0).mean())
        assert 0.48 <= positive <= 0.52

    def test_magnitudes_shrink_with_m(self):
        small = sample_displacements(SynthSpec(m=100.0, n=5000, seed=11))
        large = sample_displacements(SynthSpec(m=2500.0, n=5000, seed=11))
        assert np.abs(small.ratio).mean() > np.abs(large.ratio).mean()
