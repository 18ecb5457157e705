"""The three value domains and their semiring-like operations."""

import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, strategies as st

from gburge.arrays import ShapedArray
from gburge.values import (
    DOMAINS,
    GEOMETRIC_FLOAT,
    GEOMETRIC_LANES,
    GEOMETRIC_RATIONAL,
    TROPICAL,
    DomainError,
    domain_by_name,
)

positive_rationals = st.fractions(min_value=Fraction(1, 50), max_value=50)


def test_registry():
    assert domain_by_name("geom-rational") is GEOMETRIC_RATIONAL
    assert set(DOMAINS) == {"geom-rational", "geom-float", "tropical"}
    with pytest.raises(DomainError):
        domain_by_name("boolean")


def test_constants():
    for dom in (GEOMETRIC_RATIONAL, GEOMETRIC_FLOAT):
        assert dom.corner * 2 == dom.one
        assert dom.zero == 0
    assert TROPICAL.corner == 0.0
    assert TROPICAL.zero == -math.inf
    assert TROPICAL.one == 0.0


def test_geometric_ops_exact():
    dom = GEOMETRIC_RATIONAL
    assert dom.oplus(Fraction(1, 2), Fraction(1, 3)) == Fraction(5, 6)
    assert dom.otimes(Fraction(2, 3), Fraction(3, 4)) == Fraction(1, 2)
    assert dom.odiv(Fraction(1, 2), Fraction(1, 3)) == Fraction(3, 2)
    assert dom.hsum(Fraction(4), Fraction(1)) == Fraction(4, 5)


def test_tropical_ops():
    assert TROPICAL.oplus(1.0, 3.0) == 3.0
    assert TROPICAL.otimes(1.0, 3.0) == 4.0
    assert TROPICAL.odiv(1.0, 3.0) == -2.0
    assert TROPICAL.hsum(1.0, 3.0) == 1.0
    assert TROPICAL.oplus(-math.inf, 2.0) == 2.0
    assert TROPICAL.otimes(-math.inf, 2.0) == -math.inf


@given(positive_rationals, positive_rationals)
def test_hsum_is_a_harmonic_sum(x, y):
    assert GEOMETRIC_RATIONAL.hsum(x, y) == 1 / (1 / x + 1 / y)


@given(positive_rationals, positive_rationals, positive_rationals)
def test_geometric_op_laws(x, y, z):
    dom = GEOMETRIC_RATIONAL
    assert dom.hsum(x, y) == dom.hsum(y, x)
    assert dom.odiv(dom.otimes(x, y), y) == x
    assert dom.otimes(x, dom.oplus(y, z)) == dom.oplus(dom.otimes(x, y), dom.otimes(x, z))


def test_division_by_the_additive_zero_fails():
    with pytest.raises(DomainError):
        GEOMETRIC_RATIONAL.odiv(Fraction(1), Fraction(0))
    with pytest.raises(DomainError):
        TROPICAL.odiv(1.0, -math.inf)


def test_hsum_needs_positive_operands():
    with pytest.raises(DomainError):
        GEOMETRIC_RATIONAL.hsum(Fraction(1), Fraction(0))
    with pytest.raises(DomainError):
        GEOMETRIC_FLOAT.hsum(1.0, -2.0)


def test_coerce_rational_rejects_floats():
    dom = GEOMETRIC_RATIONAL
    assert dom.coerce(3) == Fraction(3)
    assert dom.coerce(Fraction(1, 2)) == Fraction(1, 2)
    with pytest.raises(DomainError):
        dom.coerce(0.5)
    with pytest.raises(DomainError):
        dom.coerce(Fraction(-1, 2))


def test_coerce_float_domain():
    dom = GEOMETRIC_FLOAT
    assert dom.coerce(2) == 2.0
    assert dom.coerce(Fraction(1, 4)) == 0.25
    with pytest.raises(DomainError):
        dom.coerce(-1.0)
    # high-precision floats pass through untouched
    x = mp.mpf("1.25")
    assert dom.coerce(x) is x
    assert dom.hsum(mp.mpf(4), mp.mpf(1)) == mp.mpf("0.8")


def test_coerce_tropical():
    assert TROPICAL.coerce(3) == 3.0
    assert TROPICAL.coerce(-math.inf) == -math.inf
    with pytest.raises(DomainError):
        TROPICAL.coerce(math.inf)
    with pytest.raises(DomainError):
        TROPICAL.coerce(math.nan)


def test_isclose_semantics():
    assert GEOMETRIC_RATIONAL.isclose(Fraction(1, 3), Fraction(1, 3))
    assert not GEOMETRIC_RATIONAL.isclose(Fraction(1, 3), Fraction(1, 3) + Fraction(1, 10**30))
    assert GEOMETRIC_FLOAT.isclose(1.0, 1.0 + 1e-13)
    assert not GEOMETRIC_FLOAT.isclose(1.0, 1.001)
    assert TROPICAL.isclose(-math.inf, -math.inf)
    assert not TROPICAL.isclose(-math.inf, 0.0)


def test_scalar_json_round_trip():
    dom = GEOMETRIC_RATIONAL
    assert dom.scalar_to_json(Fraction(3, 7)) == "3/7"
    assert dom.scalar_from_json("3/7") == Fraction(3, 7)
    with pytest.raises(DomainError):
        dom.scalar_from_json(0.5)
    assert TROPICAL.scalar_to_json(-math.inf) == "-inf"
    assert TROPICAL.scalar_from_json("-inf") == -math.inf
    assert GEOMETRIC_FLOAT.scalar_from_json(1.5) == 1.5


# -- the lane domain -------------------------------------------------------------


def test_lane_ops_are_the_float_ops_lane_by_lane():
    rng = np.random.default_rng(5)
    x, y = np.exp(rng.uniform(-5, 5, 500)), np.exp(rng.uniform(-5, 5, 500))
    L, F = GEOMETRIC_LANES, GEOMETRIC_FLOAT
    for op in ("oplus", "otimes", "odiv", "hsum"):
        lane = getattr(L, op)(x, y)
        scalar = [getattr(F, op)(a, b) for a, b in zip(x.tolist(), y.tolist())]
        assert lane.tolist() == scalar, op
    # the constants stay scalars and broadcast against lanes
    assert L.odiv(L.one, x).tolist() == [1.0 / a for a in x.tolist()]
    assert L.oplus(L.corner, L.corner) == L.one
    assert "geom-lanes" not in DOMAINS


def test_lane_hsum_names_the_first_nonpositive_lane():
    x = np.array([1.0, 2.0, 0.0, -1.0])
    y = np.ones(4)
    with pytest.raises(DomainError, match="in lane 2"):
        GEOMETRIC_LANES.hsum(x, y)
    with pytest.raises(DomainError, match="in lane 1"):
        GEOMETRIC_LANES.hsum(y, np.array([1.0, math.nan, 1.0, 1.0]))


def test_lane_odiv_names_the_first_zero_divisor_lane():
    with pytest.raises(DomainError, match="division by zero in lane 3"):
        GEOMETRIC_LANES.odiv(np.ones(5), np.array([1.0, 2.0, 3.0, 0.0, 0.0]))


@pytest.mark.parametrize("bad", [math.inf, math.nan, 0.0, -2.0])
def test_lane_coerce_names_the_first_bad_lane(bad):
    x = np.ones(6)
    x[4] = bad
    with pytest.raises(DomainError, match="in lane 4"):
        GEOMETRIC_LANES.coerce(x)
    with pytest.raises(DomainError, match="1-D"):
        GEOMETRIC_LANES.coerce(np.ones((2, 2)))
    assert GEOMETRIC_LANES.coerce([1, 2]).tolist() == [1.0, 2.0]


def test_check_finite_rejects_float_overflow_only():
    def box(r, k):
        return r + 1, k + 2

    for bad in (math.inf, math.nan):
        with pytest.raises(DomainError, match=r"box \(2,3\).*log-space"):
            GEOMETRIC_FLOAT.check_finite([[1.0, 2.0], [3.0, bad]], box)
    lanes = np.array([1.0, math.inf, math.nan])
    with pytest.raises(DomainError, match=r"box \(1,3\).*lane 1.*log-space"):
        GEOMETRIC_LANES.check_finite([[np.ones(3), lanes]], box)
    # exact, high-precision and finite values pass untouched
    GEOMETRIC_FLOAT.check_finite([[1e300, mp.mpf("1e400")]], box)
    GEOMETRIC_RATIONAL.check_finite([[Fraction(10) ** 400]], box)
    TROPICAL.check_finite([[-math.inf, 0.0]], box)
    GEOMETRIC_LANES.check_finite([[np.array([1e300, 1e-300])]], box)


# -- lane arrays refuse what needs scalar entries -----------------------------------


def _lane_array():
    return ShapedArray.from_rows([[np.array([1.0, 2.0])]], GEOMETRIC_LANES)


def test_lane_array_hash_raises_a_domain_error():
    with pytest.raises(DomainError, match="hash needs scalar entries; geom-lanes holds arrays"):
        hash(_lane_array())


def test_lane_array_to_json_raises_a_domain_error():
    with pytest.raises(DomainError, match="to_json needs scalar entries; geom-lanes holds arrays"):
        _lane_array().to_json()


def test_lane_array_allclose_raises_a_domain_error():
    with pytest.raises(DomainError, match="allclose needs scalar entries; geom-lanes holds arrays"):
        _lane_array().allclose(_lane_array())
