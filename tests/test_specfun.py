"""Special-function contracts: accuracy, round trips, domains.

Reference values were computed offline with mpmath at 40 digits
(scripts/gen_oracle_values.py); the table fixture carries 30 digits.
"""

import csv
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oscmarkets import specfun
from oscmarkets.errors import DomainError
from oscmarkets.specfun import _erfc_core, _workspace, erfc, erfc_inv

DATA = Path(__file__).parent / "data"

# mpmath oracles, 40 dps
ERFC_1 = 0.15729920705028513
ERFC_07 = 0.32219880616258153
ERFC_2 = 0.004677734981047266
ERFC_NEG3 = 1.9999779095030014
ERFCINV_HALF = 0.4769362762044699
ERFCINV_1E12 = 5.042029745639059


def load_oracle_table():
    with (DATA / "erfc_oracle.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    z = np.array([float(r["z"]) for r in rows])
    ref = np.array([float(r["erfc"]) for r in rows])
    return z, ref


class TestErfc:
    def test_zero_is_one(self):
        assert erfc(0.0) == 1.0

    @pytest.mark.parametrize(
        "z, expected",
        [(1.0, ERFC_1), (0.7, ERFC_07), (2.0, ERFC_2), (-3.0, ERFC_NEG3)],
    )
    def test_frozen_points(self, z, expected):
        assert erfc(z) == pytest.approx(expected, rel=1e-14)

    def test_oracle_table_accuracy(self):
        z, ref = load_oracle_table()
        rel = np.abs(erfc(z) - ref) / ref
        assert rel.max() <= 1e-12

    def test_reflection_identity(self):
        z = np.linspace(-6.0, 6.0, 2401)
        assert np.abs(erfc(z) + erfc(-z) - 2.0).max() <= 1e-14

    def test_strictly_decreasing(self):
        # in the far negative tail adjacent values tie at float64
        # resolution (increments fall below ulp(2.0) near z = -5.5 for
        # this grid step), so strictness is only tested inside [-5, 5]
        z = np.linspace(-5.0, 5.0, 5001)
        assert (np.diff(erfc(z)) < 0.0).all()

    def test_non_increasing_wide(self):
        z = np.linspace(-8.0, 8.0, 1601)
        assert (np.diff(erfc(z)) <= 0.0).all()

    def test_range(self):
        z = np.linspace(-8.0, 8.0, 1601)
        v = erfc(z)
        assert (v > 0.0).all() and (v <= 2.0).all()
        assert (erfc(np.linspace(-5.8, 5.8, 1601)) < 2.0).all()

    def test_scalar_array_parity(self):
        z = np.array([-4.0, -0.3, 0.0, 0.9, 1.3, 5.5])
        assert erfc(z) == pytest.approx([erfc(float(x)) for x in z], rel=0, abs=0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_nonfinite_rejected(self, bad):
        with pytest.raises(DomainError):
            erfc(bad)
        with pytest.raises(DomainError):
            erfc(np.array([0.5, bad]))


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


class TestErfcCore:
    """The in-place kernel on inputs of any split, shape and size."""

    def test_bits_do_not_depend_on_blocks(self):
        # the same values, alone or shuffled among others, give the same bits
        rng = np.random.default_rng(5)
        small = rng.uniform(0.0, 0.84375, 4000)
        others = rng.uniform(0.84375, 30.0, 1000)
        mixed = np.concatenate([small, others])
        order = rng.permutation(mixed.size)
        general = _erfc_core(mixed[order])
        back = np.empty_like(general)
        back[order] = general
        assert np.array_equal(bits(_erfc_core(small)), bits(back[:4000]))
        assert np.array_equal(bits(_erfc_core(others)), bits(back[4000:]))

    @pytest.mark.parametrize("value", [0.0, 0.3, 0.9, 2.0, 5.0, 30.0])
    def test_zero_dimensional(self, value):
        got = _erfc_core(np.array(value))
        assert got.shape == ()
        assert got == _erfc_core(np.array([value]))[0]

    @pytest.mark.parametrize("shape", [(0,), (0, 3), (3, 0)])
    def test_empty(self, shape):
        assert _erfc_core(np.empty(shape)).shape == shape

    @pytest.mark.parametrize("hi", [0.8, 30.0])
    def test_two_dimensional(self, hi):
        a = np.random.default_rng(6).uniform(0.0, hi, (37, 53))
        got = _erfc_core(a)
        assert got.shape == a.shape
        assert np.array_equal(bits(got), bits(_erfc_core(a.ravel())).reshape(
            a.shape))

    def test_input_left_unchanged(self):
        a = np.linspace(0.0, 30.0, 1001)
        before = a.copy()
        _erfc_core(a)
        _erfc_core(a[:20])  # a view, wholly in the small branch
        assert np.array_equal(a, before)


def polyval(coeffs, x):
    """Horner's scheme as first written, one fresh buffer per call."""
    acc = np.multiply(x, coeffs[0])
    acc += coeffs[1]
    for c in coeffs[2:]:
        acc *= x
        acc += c
    return acc


def erfc_small(x):
    """The small-argument formula as first written, on fresh arrays."""
    z = x * x
    y = polyval(specfun._PP, z)
    y /= polyval(specfun._QQ, z)
    xy = x * y
    return np.where(x >= 0.25, 0.5 - ((x - 0.5) + xy), 1.0 - (x + xy))


def gathered_erfc_core(a):
    """_erfc_core as first written: every branch gathers its own elements
    and scatters them back, and no branch sees another's elements."""
    a = np.asarray(a)
    if a.ndim == 0:
        return gathered_erfc_core(a.reshape(1)).reshape(())
    if a.size and a.max() < 0.84375:
        return erfc_small(a)
    out = np.empty_like(a)
    small = a < 0.84375
    if small.any():
        out[small] = erfc_small(a[small])
    mid = (a >= 0.84375) & (a < 1.25)
    if mid.any():
        s = a[mid]
        s -= 1.0
        y = polyval(specfun._PA, s)
        y /= polyval(specfun._QA, s)
        out[mid] = np.subtract(1.0 - specfun._ERX, y, out=y)
    large = (a >= 1.25) & (a < 28.0)
    if large.any():
        x = a[large]
        s = x * x
        np.divide(1.0, s, out=s)
        near = x < (1.0 / 0.35)
        ratio = np.empty_like(x)
        for sel, num, den in ((near, specfun._RA, specfun._SA),
                              (~near, specfun._RB, specfun._SB)):
            if sel.any():
                ss = s[sel]
                y = polyval(num, ss)
                y /= polyval(den, ss)
                ratio[sel] = y
        e = np.negative(x, out=s)
        e *= x
        e -= 0.5625
        e += ratio
        np.exp(e, out=e)
        e /= x
        out[large] = e
    out[a >= 28.0] = 0.0
    return out


# each branch edge, its two neighbouring doubles, and values past the
# point where x * x overflows in the small-argument formula
EDGES = [0.0, 0.25, 0.84375, 1.25, 1.0 / 0.35, 28.0]
BOUNDARY = np.unique(np.concatenate(
    [EDGES, np.nextafter(EDGES, -1.0)[1:], np.nextafter(EDGES, 3e1),
     [5e-324, 1e-300, 1e154, 1e200, np.finfo(np.float64).max]]))


def mostly_small(a):
    """Pad `a` with small arguments until at most a quarter is >= 0.84375,
    as in most blocks of a fit's tail matrix."""
    fill = np.linspace(0.0, 0.84, 3 * a.size)
    return np.concatenate([a, fill])


class TestErfcCoreMatchesGathered:
    """The small formula run over the whole input, then overwritten where
    a >= 0.84375, equals per-branch gathering bit for bit, and the
    overwritten elements' overflows raise no warning, whatever the share
    of arguments >= 0.84375."""

    @staticmethod
    def assert_same(a):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _erfc_core(a)
        want = gathered_erfc_core(a)
        assert got.shape == want.shape
        assert np.array_equal(bits(got), bits(want))

    def test_boundaries(self):
        assert set(EDGES) <= set(BOUNDARY.tolist())
        for a in (BOUNDARY, mostly_small(BOUNDARY)):
            self.assert_same(a)
            self.assert_same(a[::-1].reshape(-1, 1) * np.ones(3))

    @pytest.mark.parametrize("value", BOUNDARY.tolist())
    def test_zero_dimensional(self, value):
        self.assert_same(np.array(value))

    @pytest.mark.parametrize("shape", [(0,), (0, 3), (3, 0)])
    def test_empty(self, shape):
        self.assert_same(np.empty(shape))

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.one_of(st.floats(0.0, 30.0), st.sampled_from(
        BOUNDARY.tolist())), min_size=1, max_size=300), st.booleans())
    def test_mixed_arrays(self, values, pad):
        a = np.array(values)
        self.assert_same(mostly_small(a) if pad else a)


# the arrays of TestErfcCoreMatchesGathered: mostly large and mostly
# small arguments, 2-D, 0-d and empty
ARRAYS = [BOUNDARY, mostly_small(BOUNDARY),
          mostly_small(BOUNDARY)[::-1].reshape(-1, 1) * np.ones(3),
          np.array(0.9), np.array(30.0), np.empty(0), np.empty((3, 0))]


class TestInputsLeftAlone:
    """The kernel writes in place, into its workspace only: the caller's
    arrays are left as they were, and a dirty, reused workspace gives the
    same bits as a fresh one."""

    @staticmethod
    def assert_left_alone(call, a):
        before = a.copy()
        call(a)
        assert np.array_equal(bits(a), bits(before))

    @pytest.mark.parametrize("a", ARRAYS)
    def test_erfc(self, a):
        self.assert_left_alone(erfc, a)
        self.assert_left_alone(erfc, -a)

    @pytest.mark.parametrize("a", ARRAYS)
    def test_erfc_inv(self, a):
        p = np.asarray(erfc(np.minimum(a, 26.0)))  # in (0, 1]
        self.assert_left_alone(erfc_inv, p)
        self.assert_left_alone(erfc_inv, 2.0 - p[p > 0.5])

    def test_core_in_dirty_workspace(self):
        floats, masks = ws = _workspace(max(a.size for a in ARRAYS))
        floats.fill(np.nan)
        masks.fill(True)
        for a in ARRAYS + ARRAYS[::-1]:
            fresh = _erfc_core(a)
            self.assert_left_alone(lambda a: _erfc_core(a, ws), a)
            assert np.array_equal(bits(_erfc_core(a, ws)), bits(fresh))


class TestErfcInv:
    def test_one_maps_to_zero(self):
        assert erfc_inv(1.0) == 0.0

    def test_frozen_points(self):
        assert erfc_inv(0.5) == pytest.approx(ERFCINV_HALF, rel=1e-14)
        assert erfc_inv(1.5) == pytest.approx(-ERFCINV_HALF, rel=1e-14)
        assert erfc_inv(1e-12) == pytest.approx(ERFCINV_1E12, rel=1e-12)

    def test_round_trip_from_z(self):
        z = np.arange(0.0, 5.0 + 1e-12, 1e-3)
        err = np.abs(erfc_inv(erfc(z)) - z) / np.maximum(1.0, z)
        assert err.max() <= 1e-9

    def test_round_trip_from_p(self):
        p = np.linspace(1e-12, 2.0 - 1e-12, 20001)
        back = erfc(erfc_inv(p))
        assert np.abs(back / p - 1.0).max() <= 1e-9

    @pytest.mark.parametrize("side", [-1.0, 1.0])
    def test_relative_accuracy_near_one(self, side):
        # the sampler's smallest draw of seed 12100089: erfc_inv(sqrt(u))
        # for u = 0.999999981188475, 5.3e-9 relative off before the series
        p = np.append(1.0 + side * np.geomspace(1e-17, 1e-3, 50),
                      np.sqrt(0.999999981188475))
        with mpmath.workdps(30):
            for pi, got in zip(p.tolist(), erfc_inv(p).tolist()):
                want = mpmath.erfinv(1 - mpmath.mpf(pi))
                assert abs(got - want) <= 1e-10 * abs(want), pi

    def test_strictly_decreasing(self):
        p = np.linspace(1e-6, 2.0 - 1e-6, 4001)
        assert (np.diff(erfc_inv(p)) < 0.0).all()

    @pytest.mark.parametrize("bad", [0.0, 2.0, -0.1, 2.1, float("nan"),
                                     float("inf"), float("-inf")])
    def test_domain_rejected(self, bad):
        with pytest.raises(DomainError):
            erfc_inv(bad)


@given(st.floats(min_value=0.0, max_value=5.0))
def test_round_trip_property(z):
    assert abs(erfc_inv(erfc(z)) - z) <= 1e-9 * max(1.0, z)


@given(st.floats(min_value=-6.0, max_value=6.0))
def test_reflection_property(z):
    assert abs(erfc(z) + erfc(-z) - 2.0) <= 1e-14


@settings(max_examples=100, deadline=None)
@given(st.floats(min_value=-6.0, max_value=26.0))
def test_erfc_matches_mpmath(z):
    # up to z = 26, erfc(z) is a normal double (about 6e-296)
    with mpmath.workdps(30):
        want = mpmath.erfc(mpmath.mpf(z))
        assert abs(mpmath.mpf(erfc(z)) - want) <= 1e-12 * want


@settings(max_examples=100, deadline=None)
@given(st.floats(min_value=1e-290, max_value=2.0, exclude_max=True))
def test_erfc_inv_round_trip_mpmath(p):
    # the oracle's erfc of the inverse recovers p (1.8e-13 worst measured)
    with mpmath.workdps(30):
        back = mpmath.erfc(mpmath.mpf(erfc_inv(p)))
        assert abs(back - p) <= 1e-12 * p
