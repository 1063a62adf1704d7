"""Estimator: frequencies, per-week inversion, r^2, and the grid fit."""

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oscmarkets.estimate as estimate
from oscmarkets.errors import DataError, DomainError
from oscmarkets.estimate import (
    DEFAULT_GRID_POINTS,
    _block_count,
    _centred,
    _columns,
    _depth,
    _frequencies,
    _grid_workspace,
    _score_grid,
    _score_rows,
    _tail_matrix,
    EstimationResult,
    GridSpec,
    fit_m_hat,
    m_week,
)
from oscmarkets.cli import main
from oscmarkets.ingest import DisplacementSeries, write_displacements
from oscmarkets.model import OscillatorParams, prob_at_least
from oscmarkets.specfun import _workspace, erfc_inv
from oscmarkets.synth import SynthSpec, sample_displacements

# mpmath oracle, 40 dps: 2*(erfc_inv(sqrt(0.25))/0.03)^2
M_WEEK_QUARTER = 505.48491457730306


def series_from_ratios(ratios):
    ratios = np.asarray(ratios, dtype=np.float64)
    week_end = np.datetime64("2001-01-05") + 7 * np.arange(ratios.size)
    return DisplacementSeries("test", week_end, np.full(ratios.size, 100.0),
                              100.0 * (1.0 + ratios), ratios)


def cli_estimate(capsys, path, *argv):
    """stdout of `oscmarkets estimate --input path ...`, which must succeed."""
    assert main(["estimate", "--input", str(path), *argv]) == 0
    return capsys.readouterr().out


def write_sample(path, series):
    with open(path, "w", encoding="utf-8") as fh:
        write_displacements(series, fh)
    return path


def ladder_series(m0, n, t=1.0):
    """Sample whose empirical survival equals the tail law at m0 exactly.

    The k-th magnitude is the (N-k+1)/N survival quantile, so at every
    distinct nonzero threshold rho coincides with pr(m0) up to erfc_inv
    round-trip error; k=1 contributes a zero displacement.
    """
    scale = math.sqrt(2.0 * t / m0)
    ratios = []
    for k in range(1, n + 1):
        u = (n - k + 1) / n
        mag = 0.0 if u == 1.0 else scale * erfc_inv(math.sqrt(u))
        ratios.append(mag if k % 2 else -mag)
    return series_from_ratios(ratios)


class TestRelativeFrequency:
    SAMPLE = series_from_ratios([0.01, -0.02, 0.03])

    @staticmethod
    def freq(sample, x_min):
        return _frequencies(np.sort(np.abs(sample.ratio)), x_min)

    def test_zero_threshold(self):
        assert self.freq(self.SAMPLE, 0.0) == 1.0

    def test_direct_count(self):
        assert self.freq(self.SAMPLE, 0.02) == pytest.approx(2 / 3)

    def test_above_max(self):
        assert self.freq(self.SAMPLE, 0.5) == 0.0

    def test_non_increasing(self):
        sample = series_from_ratios([0.01, -0.02, 0.03, 0.0, -0.015, 0.07])
        vals = self.freq(sample, np.linspace(0.0, 0.1, 40))
        assert (vals[1:] <= vals[:-1]).all()


class TestMWeek:
    def test_certainty_gives_zero(self):
        assert m_week(1.0, 0.05) == 0.0

    def test_round_trip_identity(self):
        rho = prob_at_least(OscillatorParams(m=500.0, t=1.0), 0.02)
        assert m_week(rho, 0.02, 1.0) == pytest.approx(500.0, rel=1e-8)

    def test_hand_value(self):
        assert m_week(0.25, 0.03, 1.0) == pytest.approx(M_WEEK_QUARTER,
                                                        rel=1e-12)

    def test_sign_of_displacement_irrelevant(self):
        assert m_week(0.25, -0.03) == m_week(0.25, 0.03)

    def test_inversion_identity_grid(self):
        for m in (10.0, 100.0, 1000.0):
            for x in (0.01, 0.05, 0.2):
                for t in (1.0, 2.0):
                    rho = prob_at_least(OscillatorParams(m=m, t=t), x)
                    assert abs(m_week(rho, x, t) - m) <= 1e-8 * m

    def test_zero_rho_rejected(self):
        with pytest.raises(DomainError, match="infinite"):
            m_week(0.0, 0.05)

    def test_zero_displacement_rejected(self):
        with pytest.raises(DomainError):
            m_week(0.5, 0.0)

    @pytest.mark.parametrize("rho", [-0.1, 1.1])
    def test_rho_out_of_range(self, rho):
        with pytest.raises(DomainError):
            m_week(rho, 0.05)

    def test_bad_time(self):
        with pytest.raises(DomainError):
            m_week(0.5, 0.05, t=0.0)

    # a tiny x_w overflows m_w; the suite's filterwarnings turns a numpy
    # overflow warning on the way into a failure
    @pytest.mark.parametrize("x_w, t, name", [
        (0.03, math.nan, "t"), (0.03, math.inf, "t"),
        (math.inf, 1.0, "x_w"), (math.nan, 1.0, "x_w"),
        (1e-300, 1.0, "m_w"), (-1e-160, 1.0, "m_w")])
    def test_non_finite_rejected(self, x_w, t, name):
        with pytest.raises(DomainError, match=f"^{name} must be finite"):
            m_week(0.5, x_w, t=t)


class TestRSquared:
    """_score_rows: the squared Pearson correlation of each row."""

    @staticmethod
    def r2(predicted, observed):
        return _score_rows(np.array([predicted], dtype=np.float64),
                           *_centred(np.array(observed, dtype=np.float64)))[0]

    def test_perfect(self):
        assert self.r2([0.1, 0.2, 0.4], [0.1, 0.2, 0.4]) == pytest.approx(1.0)

    def test_affine_invariance(self):
        p = [0.1, 0.25, 0.4, 0.9]
        o = [3.0 * v + 0.7 for v in p]
        assert self.r2(p, o) == pytest.approx(1.0, abs=1e-12)

    def test_hand_pearson_value(self):
        assert self.r2([1, 2, 3], [1, 2, 2]) == pytest.approx(0.75,
                                                              rel=1e-12)

    def test_constant_predicted(self):
        # a flat row scores 0, the others as they would alone; pr is 1 or
        # 0 at every threshold for a candidate far off the data's scale
        scores = _score_rows(np.array([[5.0] * 3, [1.0] * 3, [0.0] * 3,
                                       [1.0, 2.0, 3.0]]),
                             *_centred(np.array([1.0, 2.0, 2.0])))
        assert scores.tolist() == [0.0, 0.0, 0.0,
                                   self.r2([1, 2, 3], [1, 2, 2])]


class TestGridSpec:
    def test_defaults(self):
        g = GridSpec()
        assert g.lo is None and g.hi is None and g.n == 2000

    @pytest.mark.parametrize("lo, hi, n", [(10.0, None, 100),
                                           (None, 10.0, 100),
                                           (10.0, 5.0, 100),
                                           (0.0, 5.0, 100),
                                           (1.0, 2.0, 1),
                                           (100.0, math.inf, 50),
                                           (100.0, math.nan, 50),
                                           (1.0, 2.0, 10 ** 13)])
    def test_invalid(self, lo, hi, n):
        # n = 10^13 must raise before any grid is allocated
        with pytest.raises(DataError):
            GridSpec(lo=lo, hi=hi, n=n)


class TestFitMHat:
    def test_constructed_fixed_point(self):
        m0 = 900.0
        result = fit_m_hat(ladder_series(m0, 100))
        assert result.m_hat == pytest.approx(m0, rel=1e-4)
        assert result.r2 >= 1.0 - 1e-8
        assert result.sample_size == 100
        assert len(result.table) == 99  # the zero week carries no threshold

    def test_closed_loop_synthetic(self):
        sample = sample_displacements(SynthSpec(m=977.73, n=100, seed=42))
        result = fit_m_hat(sample)
        assert result.m_hat == pytest.approx(977.73, rel=0.25)
        assert result.r2 >= 0.98

    def test_table_matches_relative_frequency(self):
        sample = sample_displacements(SynthSpec(m=500.0, n=60, seed=7))
        result = fit_m_hat(sample)
        for row in result.table:
            assert row.rho == np.mean(np.abs(sample.ratio) >= row.x)
            assert row.pr == pytest.approx(
                prob_at_least(OscillatorParams(m=result.m_hat), row.x),
                rel=1e-12)

    def test_table_sorted_and_r2_is_trace_max(self):
        result = fit_m_hat(sample_displacements(SynthSpec(m=800.0, n=50,
                                                          seed=3)))
        xs = [r.x for r in result.table]
        assert xs == sorted(xs)
        assert result.r2 == max(r for _, r in result.grid)

    def test_sample_left_alone(self):
        sample = sample_displacements(SynthSpec(m=977.73, n=1000, seed=5))
        before = sample.ratio.copy()
        fit_m_hat(sample)
        assert np.array_equal(bits(sample.ratio), bits(before))

    def test_zero_displacements_kept_in_counts(self):
        ratios = [0.0, 0.0, 0.01, -0.02, 0.03, 0.04, -0.05, 0.06, 0.07, 0.08]
        result = fit_m_hat(series_from_ratios(ratios))
        assert result.table[0].x > 0.0
        assert result.table[0].rho == pytest.approx(0.8)

    def test_determinism_byte_for_byte(self, capsys, tmp_path):
        sample = sample_displacements(SynthSpec(m=977.73, n=80, seed=11))
        path = write_sample(tmp_path / "s.csv", sample)

        def render():
            # the csv carries `# result: m_hat=<repr> r2=<repr>` too
            return [cli_estimate(capsys, path, "--format", "csv",
                                 "--emit", emit) for emit in ("grid", "table")]

        assert render() == render()

    def test_explicit_bounds_honored(self):
        sample = sample_displacements(SynthSpec(m=977.73, n=100, seed=42))
        result = fit_m_hat(sample, grid_spec=GridSpec(lo=100.0, hi=5000.0,
                                                      n=500))
        ms = [m for m, _ in result.grid]
        assert min(ms) >= 100.0 * (1.0 - 1e-12)
        assert max(ms) <= 5000.0 * (1.0 + 1e-12)
        assert result.m_hat == pytest.approx(977.73, rel=0.25)

    def test_refinement_points_in_trace(self):
        result = fit_m_hat(sample_displacements(SynthSpec(m=500.0, n=50,
                                                          seed=1)),
                           grid_spec=GridSpec(n=200))
        m, r2 = result.grid.m, result.grid.r2
        assert (m[1:] >= m[:-1]).all()
        candidates = np.geomspace(m[0], m[-1], 200)
        on_grid = np.isin(m, candidates)
        assert np.array_equal(m[on_grid], candidates)
        best = int(np.argmax(r2[on_grid]))
        assert 0 < best < 199
        extra = m[~on_grid]
        # every refinement point lies strictly inside the best cell pair,
        # and the pass ends once that log bracket shrinks below 1e-9
        assert candidates[best - 1] < extra.min()
        assert extra.max() < candidates[best + 1]
        width = math.log(candidates[best + 1] / candidates[best - 1])
        steps = math.ceil(math.log(1e-9 / width)
                          / math.log((math.sqrt(5.0) - 1.0) / 2.0))
        assert len(extra) in (steps + 1, steps + 2, steps + 3)
        assert result.r2 >= r2[on_grid].max()
        assert result.r2 == r2.max() and result.m_hat == m[np.argmax(r2)]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_tail_underflow_outlier_week(self, seed):
        # at m = 2.5e5 a +10% week sits at z = 0.1 sqrt(m/2) ~ 35, where
        # pr = erfc(z)^2 underflows to 0.0; the fit must still complete
        x = sample_displacements(SynthSpec(m=2.5e5, n=100, seed=seed)).ratio
        x = x.copy()
        x[50] = 0.10
        result = fit_m_hat(series_from_ratios(x))
        prs = [row.pr for row in result.table]
        assert prs.count(0.0) == 1 and prs[-1] == 0.0
        assert result.r2 >= 0.99
        assert result.m_hat == pytest.approx(2.5e5, rel=0.25)

    def test_too_few_weeks(self):
        with pytest.raises(DataError, match="at least 10"):
            fit_m_hat(series_from_ratios([0.01, -0.02, 0.03]))

    def test_degenerate_sample(self):
        with pytest.raises(DataError, match="degenerate"):
            fit_m_hat(series_from_ratios([0.01] * 12))
        with pytest.raises(DataError, match="degenerate"):
            fit_m_hat(series_from_ratios([0.0] * 12))

    def test_bad_time(self):
        with pytest.raises(DomainError):
            fit_m_hat(ladder_series(900.0, 20), t=-1.0)

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_non_finite_time(self, t):
        with pytest.raises(DomainError, match="^t must be finite and > 0"):
            fit_m_hat(ladder_series(900.0, 20), t=t)

    def test_huge_time_overflows_bracket(self):
        with pytest.raises(DomainError,
                           match=r"^t=1e\+308 puts the auto-bracketed grid"):
            fit_m_hat(ladder_series(900.0, 20), t=1e308)

    @pytest.mark.parametrize("lo, hi", [(1e-300, 1e-290), (1e290, 1e300)])
    def test_every_curve_flat(self, lo, hi):
        # pr is 1 at every threshold below the data's scale and 0 (erfc^2
        # underflows) above it, so every candidate scores r^2 = 0
        with pytest.raises(DomainError,
                           match="^no grid candidate fits the sample$"):
            fit_m_hat(ladder_series(900.0, 20),
                      grid_spec=GridSpec(lo=lo, hi=hi, n=50))


class TestFitMatchesDefinitions:
    """A fit's r2 is the squared Pearson correlation of its table's pr and
    rho columns, and rho is the direct count of |x| >= X over n."""

    @settings(max_examples=10, deadline=None)
    @given(st.data())
    def test_r2_and_rho(self, data):
        n = data.draw(st.integers(10, 200))
        m = data.draw(st.sampled_from((355.92, 977.73, 2513.76)))
        seed = data.draw(st.integers(0, 2 ** 32 - 1))
        sample = sample_displacements(SynthSpec(m=m, n=n, seed=seed))
        fit = fit_m_hat(sample)
        table = fit.table
        pearson = np.corrcoef(table.pr, table.rho)[0, 1]
        assert abs(fit.r2 - pearson * pearson) <= 1e-12
        counts = (np.abs(sample.ratio)[:, None] >= table.x).sum(axis=0)
        assert np.array_equal(table.rho, counts / n)


class TestExactInvariance:
    """A fit sees only the multiset of |x|, so it is bit-identical under
    any reordering of the weeks and any sign flips."""

    @settings(max_examples=10, deadline=None)
    @given(st.data())
    def test_permutation_and_sign_flips(self, data):
        n = data.draw(st.integers(10, 200))
        m = data.draw(st.sampled_from((355.92, 977.73, 2513.76)))
        seed = data.draw(st.integers(0, 2 ** 32 - 1))
        x = sample_displacements(SynthSpec(m=m, n=n, seed=seed)).ratio
        order = data.draw(st.permutations(range(n)))
        flips = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
        y = np.where(flips, -x[order], x[order])
        a = fit_m_hat(series_from_ratios(x))
        b = fit_m_hat(series_from_ratios(y))
        assert (a.m_hat, a.r2) == (b.m_hat, b.r2)
        for name in ("x", "rho", "pr"):
            assert np.array_equal(a.table[name], b.table[name])
        for name in ("m", "r2"):
            assert np.array_equal(a.grid[name], b.grid[name])


class TestScaleEquivariance:
    """Scaling every x by c scales the fit's m_hat by 1/c^2: the tail law
    depends on X sqrt(m) only. The grid is rebuilt from the scaled data,
    so the match is close (2.8e-7 worst in 300 draws), not bit for bit."""

    @settings(max_examples=10, deadline=None)
    @given(st.data())
    def test_scaled_sample(self, data):
        n = data.draw(st.integers(100, 200))
        m = data.draw(st.sampled_from((355.92, 977.73, 2513.76)))
        seed = data.draw(st.integers(0, 2 ** 32 - 1))
        c = data.draw(st.floats(0.25, 4.0))
        x = sample_displacements(SynthSpec(m=m, n=n, seed=seed)).ratio
        assume((c * np.abs(x)).max() < 0.9)
        a = fit_m_hat(series_from_ratios(x))
        b = fit_m_hat(series_from_ratios(c * x))
        assert b.m_hat * c * c == pytest.approx(a.m_hat, rel=1e-6)


class TestGridEdge:
    """The fit records an m_hat on the first or last candidate."""

    @staticmethod
    def sample():
        return sample_displacements(SynthSpec(m=977.73, n=100, seed=1))

    @pytest.mark.parametrize("lo, hi, m_hat", [(10.0, 100.0, 100.0),
                                               (5000.0, 9000.0, 5000.0)])
    def test_optimum_outside_grid(self, lo, hi, m_hat):
        result = fit_m_hat(self.sample(), grid_spec=GridSpec(lo=lo, hi=hi,
                                                             n=50))
        assert result.at_grid_edge
        assert (result.grid.m[0], result.grid.m[-1]) == (lo, hi)
        assert result.m_hat == pytest.approx(m_hat, rel=1e-6)

    def test_refined_inside_last_cell(self):
        # the last candidate scores best, but the refinement moves m_hat
        # well inside the last cell: log(5000 / m_hat) is about 0.166
        sample = sample_displacements(SynthSpec(m=4500.0, n=200, seed=1))
        result = fit_m_hat(sample, grid_spec=GridSpec(lo=100.0, hi=5000.0,
                                                      n=7))
        assert not result.at_grid_edge
        assert 2605.0 < result.m_hat < 5000.0 / 1.1

    def test_interior_optimum(self):
        result = fit_m_hat(self.sample())
        assert not result.at_grid_edge
        lo, hi = result.grid.m[[0, -1]]
        assert (lo, hi) == (result.grid[0][0], result.grid[-1][0])
        assert lo < result.m_hat < hi
        # the refinement stays strictly inside the bracket of candidates
        assert lo < result.grid.m[1] and result.grid.m[-2] < hi


class TestBlockScoring:
    """Grid rows scored in blocks equal one-shot scoring bit for bit."""

    @staticmethod
    def block_rows(n, n_thresholds):
        """The row count of each block that scores an n-candidate grid."""
        blocks = np.array_split(np.arange(n), _block_count(n, n_thresholds))
        assert np.array_equal(np.concatenate(blocks), np.arange(n))
        return np.array([block.size for block in blocks])

    @pytest.mark.parametrize("n_thresholds", [1, 3, 100, 1000, 8193, 9000])
    def test_block_rows(self, n_thresholds):
        # round(n T / 2^16) near-equal blocks, one row at least, cover every
        # grid row once, in order, none above 1.5 x 2^16 tail elements
        for n in (2, 7, 17, 208, 1999, 2000, 2001, 10 ** 6):
            rows = self.block_rows(n, n_thresholds)
            assert rows.min() >= 1 and rows.max() - rows.min() <= 1
            assert rows.size == min(n, max(1, round(
                n * n_thresholds / 2 ** 16)))
            assert rows.max() * n_thresholds <= 1.5 * 2 ** 16
        assert _block_count(2000, 100) == 3

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 5 * 10 ** 5), st.integers(2, 10 ** 6))
    def test_block_elements_bounded(self, n_thresholds, n):
        # a block of more than 1.5 x 2^16 elements holds one or two rows,
        # and only when a row is more than 3/4 of 2^16 elements
        blocks = _block_count(n, n_thresholds)
        longest = -(-n // blocks)  # np.array_split's longest block
        assert 1 <= blocks <= n
        assert longest * n_thresholds <= 1.5 * 2 ** 16 or (
            longest <= 2 and n_thresholds > 3 * 2 ** 14)

    @staticmethod
    def grid(n, n_thresholds):
        """Candidates, thresholds and empirical curve of a test grid whose
        arguments z span every erfc branch, so blocks are all-small and
        mixed."""
        rng = np.random.default_rng(n_thresholds)
        thresholds = np.unique(np.abs(rng.standard_normal(n_thresholds)))
        thresholds *= 0.03
        assert thresholds.size == n_thresholds
        rho = np.arange(n_thresholds, 0, -1) / (n_thresholds + 1.0)
        return np.geomspace(20.0, 2e5, n), thresholds, rho

    @staticmethod
    def assert_one_shot(scores, candidates, thresholds, rho):
        ws = _workspace(candidates.size * thresholds.size)
        one_shot = _score_rows(_tail_matrix(candidates, thresholds, 1.0, ws),
                               *_centred(rho))
        assert np.array_equal(bits(scores), bits(one_shot))

    @pytest.mark.parametrize("n, n_thresholds", [
        (2000, 3),
        (2000, 100),
        (2000, 1000),
        (208, 9000),  # 29 blocks of 7 or 8 rows
        (17, 9000),  # 2 blocks of 8 and 9 rows
    ])
    def test_equals_one_shot(self, n, n_thresholds):
        candidates, thresholds, rho = self.grid(n, n_thresholds)
        blocked = _score_grid(candidates, thresholds, *_centred(rho), 1.0,
                              _grid_workspace(n, n_thresholds))
        self.assert_one_shot(blocked, candidates, thresholds, rho)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_row_bits_independent_of_batch(self, data):
        # a row's r^2 has the same bits whatever rows are scored with it,
        # in whatever order, and wherever the batch starts in memory
        n_thresholds = data.draw(st.integers(3, 300), label="n_thresholds")
        n = data.draw(st.integers(1, 48), label="n")
        candidates, thresholds, rho = self.grid(n, n_thresholds)
        curve = _centred(rho)
        whole = _score_rows(_tail_matrix(candidates, thresholds, 1.0,
                                         _workspace(n * n_thresholds)), *curve)
        start = data.draw(st.integers(0, n - 1), label="start")
        stop = data.draw(st.integers(start + 1, n), label="stop")
        order = data.draw(st.permutations(range(start, stop)), label="order")
        offset = data.draw(st.integers(0, 7), label="offset")
        floats, masks = _workspace(n * n_thresholds + offset)
        ws = floats[:, offset:], masks[:, offset:]
        part = _score_rows(_tail_matrix(candidates[order], thresholds, 1.0,
                                        ws), *curve)
        assert np.array_equal(bits(part), bits(whole[order]))

    def test_reused_workspace(self):
        # one workspace, NaN and True where unwritten, serves grids of every
        # block shape in turn, as later fits reuse freed pages
        shapes = [(2000, 3), (2000, 100), (197, 1000), (17, 9000), (2000, 100)]
        floats, masks = ws = max(
            (_grid_workspace(*shape) for shape in shapes),
            key=lambda w: w[0].size)
        floats.fill(np.nan)
        masks.fill(True)
        for n, n_thresholds in shapes:
            candidates, thresholds, rho = self.grid(n, n_thresholds)
            kept = thresholds.copy(), rho.copy()
            blocked = _score_grid(candidates, thresholds, *_centred(rho),
                                  1.0, ws)
            self.assert_one_shot(blocked, candidates, thresholds, rho)
            assert all(map(np.array_equal, kept, (thresholds, rho)))

    def test_fit_memory_bounded(self):
        # one-shot scoring of the 2000 x 10^4 tail matrix peaked near 0.9 GB
        sample = sample_displacements(SynthSpec(m=977.73, n=10_000, seed=2))
        tracemalloc.start()
        try:
            fit_m_hat(sample)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2 ** 20


def reference_trace(sample, t, lo, hi, n):
    """The sorted (m, r2) trace of fit_m_hat(sample, t) on an n-candidate
    grid from lo to hi, and the best candidate's index, with the
    golden-section pass scoring one point per tail matrix, in order."""
    abs_x = np.abs(sample.ratio)
    thresholds = np.unique(abs_x[abs_x > 0.0])
    rho = _frequencies(np.sort(abs_x), thresholds)
    with np.errstate(over="ignore"):
        candidates = np.geomspace(lo, hi, n)
        ws = _grid_workspace(n, thresholds.size)
        curve = _centred(rho)
        scores = _score_grid(candidates, thresholds, *curve, t, ws)
        best = int(np.argmax(scores))
        extra_m, extra_r2 = [], []

        def evaluate(log_m):
            m = math.exp(log_m)
            r2 = float(_score_grid(np.array([m]), thresholds, *curve, t,
                                   ws)[0])
            extra_m.append(m)
            extra_r2.append(r2)
            return r2

        invphi = (math.sqrt(5.0) - 1.0) / 2.0
        a = math.log(candidates[max(best - 1, 0)])
        b = math.log(candidates[min(best + 1, n - 1)])
        c = b - invphi * (b - a)
        d = a + invphi * (b - a)
        fc, fd = evaluate(c), evaluate(d)
        while b - a > 1e-9:
            if fc >= fd:
                b, d, fd = d, c, fc
                c = b - invphi * (b - a)
                fc = evaluate(c)
            else:
                a, c, fc = c, d, fd
                d = a + invphi * (b - a)
                fd = evaluate(d)
    m_all = np.concatenate([candidates, extra_m])
    order = np.argsort(m_all, kind="stable")
    return m_all[order], np.concatenate([scores, extra_r2])[order], best


class TestBatchedRefinement:
    """The refinement scores golden-section points ahead, a tree of them
    per tail matrix, and keeps only the points the sequential pass scores:
    its trace equals the one-point-at-a-time pass bit for bit."""

    @staticmethod
    def assert_trace(result, m, r2):
        assert np.array_equal(bits(result.grid.m), bits(m))
        assert np.array_equal(bits(result.grid.r2), bits(r2))
        assert result.r2 == r2.max()

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_equals_sequential(self, data):
        n = data.draw(st.integers(10, 1500))
        m_true = data.draw(st.sampled_from((355.92, 977.73, 2513.76)))
        seed = data.draw(st.integers(0, 2 ** 32 - 1))
        t = data.draw(st.sampled_from((0.25, 1.0, 2.5)))
        grid_n = data.draw(st.sampled_from((2000, 50, 7)))
        sample = sample_displacements(SynthSpec(m=m_true, n=n, seed=seed))
        result = fit_m_hat(sample, t, GridSpec(n=grid_n))
        # the first and last rows of the trace are the bracket ends
        lo, hi = result.grid.m[[0, -1]]
        m, r2, _ = reference_trace(sample, t, lo, hi, grid_n)
        self.assert_trace(result, m, r2)

    @pytest.mark.parametrize("lo, hi, edge", [(5000.0, 9000.0, 0),
                                              (10.0, 100.0, 49)])
    @pytest.mark.parametrize("n, t", [(10, 1.0), (100, 0.5), (1500, 2.0)])
    def test_best_at_grid_edge(self, lo, hi, edge, n, t):
        sample = sample_displacements(SynthSpec(m=977.73, n=n, seed=1))
        # scale the bracket with t, which scales every m_w by t
        result = fit_m_hat(sample, t, GridSpec(lo=lo * t, hi=hi * t, n=50))
        m, r2, best = reference_trace(sample, t, lo * t, hi * t, 50)
        assert best == edge
        self.assert_trace(result, m, r2)

    @pytest.mark.parametrize("n", [10, 100, 1000])
    def test_tail_matrices_per_point(self, n, monkeypatch):
        rows = []

        def counted(m_values, thresholds, t, ws):
            rows.append(m_values.size)
            return tail(m_values, thresholds, t, ws)

        tail = estimate._tail_matrix
        monkeypatch.setattr(estimate, "_tail_matrix", counted)
        sample = sample_displacements(SynthSpec(m=977.73, n=n, seed=4))
        result = fit_m_hat(sample)
        n_thresholds = len(result.table)
        depth = _depth(n_thresholds)
        # the grid's blocks, the refinement's batches, the table's pr
        blocks = [block.size for block in np.array_split(
            np.arange(DEFAULT_GRID_POINTS),
            _block_count(DEFAULT_GRID_POINTS, n_thresholds))]
        assert rows[:len(blocks)] == blocks and rows[-1] == 1
        batches = rows[len(blocks):-1]
        # a batch is at most one tree; the first holds c and d and the
        # points of depth - 1 steps, each later one a point and depth steps
        assert max(batches) <= 2 ** (depth + 1) - 1
        assert (2 ** (depth + 1) - 1) * n_thresholds <= 2 ** 12 or depth == 1
        points = len(result.grid) - DEFAULT_GRID_POINTS
        assert points > 20
        assert len(batches) <= math.ceil(points / (depth + 1))
        assert sum(batches) >= points
        if n == 100:
            assert (depth, len(rows)) == (4, 11)
        if n == 1000:
            assert (depth, max(batches)) == (1, 3)

def bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def result_with_table(x, rho, pr, r2=0.9):
    """An EstimationResult over the given table columns and a 2-point grid."""
    return EstimationResult(
        m_hat=100.0, r2=r2,
        table=_columns(x=np.array(x), rho=np.array(rho), pr=np.array(pr)),
        grid=_columns(m=np.array([100.0, 200.0]), r2=np.array([0.9, 0.1])),
        sample_size=10)


class TestResultSurface:
    def test_result_invariant_enforced(self):
        with pytest.raises(DomainError, match="best r2"):
            result_with_table([0.01], [0.5], [0.5], r2=0.5)
        with pytest.raises(DomainError, match="sorted"):
            result_with_table([0.02, 0.01], [0.5, 0.4], [0.5, 0.4])

    def test_threshold_row_validation(self):
        # an out-of-range rho or pr sits in the last row, after a valid one
        with pytest.raises(DomainError, match="threshold"):
            result_with_table([-0.02, -0.01], [0.5, 0.5], [0.5, 0.5])
        with pytest.raises(DomainError, match="rho"):
            result_with_table([0.01, 0.02], [0.5, 1.5], [0.5, 0.5])
        with pytest.raises(DomainError, match="pr"):
            result_with_table([0.01, 0.02], [0.5, 0.5], [0.5, -0.1])
        with pytest.raises(DomainError, match="pr"):
            result_with_table([0.01, 0.02], [0.5, 0.5], [0.5, 1.5])
        # erfc(z)^2 underflows to 0.0 far in the tail: a legitimate value
        result = result_with_table([0.01, 0.02], [0.5, 0.5], [0.5, 0.0])
        assert result.table.pr[-1] == 0.0

    def test_columns_read_only(self):
        result = fit_m_hat(ladder_series(900.0, 30))
        assert result.table.dtype.names == ("x", "rho", "pr")
        assert result.grid.dtype.names == ("m", "r2")
        for column in (result.table.x, result.table.pr, result.grid.r2):
            assert column.dtype == np.float64
            with pytest.raises(ValueError):
                column[0] = 1.0

    def test_serializations(self, capsys, tmp_path):
        sample = ladder_series(900.0, 30)
        result = fit_m_hat(sample)
        path = write_sample(tmp_path / "ladder.csv", sample)

        text = cli_estimate(capsys, path).splitlines()
        assert text[0].startswith("# config: ")
        assert text[1] == f"m_hat: {result.m_hat:.10g}"
        assert f"r2: {result.r2:.6f}" in text and "X" in text[7]

        lines = cli_estimate(capsys, path, "--format", "csv",
                             "--emit", "grid").splitlines()
        assert lines[2] == "m_candidate,r2"
        assert len(lines) == len(result.grid) + 3

        lines = cli_estimate(capsys, path, "--format", "csv").splitlines()
        assert lines[2] == "X,rho,pr"
        assert len(lines) == len(result.table) + 3

        rec = json.loads(cli_estimate(capsys, path, "--format",
                                      "structured"))["result"]
        assert rec["m_hat"] == result.m_hat
        assert len(rec["table"]) == len(result.table)
        assert rec["grid"][0]["m_candidate"] == result.grid[0][0]
