"""Special-function contracts: accuracy, round trips, domains.

Reference values were computed offline with mpmath at 40 digits
(scripts/gen_oracle_values.py); the table fixture carries 30 digits.
"""

import csv
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oscmarkets.errors import DomainError
from oscmarkets.specfun import _erfc_core, erfc, erfc_inv

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
    """The in-place kernel: the all-small fast path and the general path."""

    def test_fast_path_matches_general_path(self):
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
