"""The three value domains and their semiring-like operations."""

import math
import re
import unittest.mock
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gburge import values
from gburge.arrays import ShapedArray
from gburge.correspondences import gburge
from gburge.values import (
    DOMAINS,
    GEOMETRIC_FLOAT,
    GEOMETRIC_LANES,
    GEOMETRIC_RATIONAL,
    TROPICAL,
    DomainError,
    LogDomain,
    _coprime,
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


@given(
    st.one_of(st.integers(1, 10**6), st.fractions(min_value=Fraction(1, 10**6))),
    st.one_of(st.integers(1, 10**6), st.fractions(min_value=Fraction(1, 10**6))),
)
def test_rational_hsum_is_the_fraction_xy_over_x_plus_y(x, y):
    got = GEOMETRIC_RATIONAL.hsum(x, y)
    want = Fraction(x) * y / (x + y)
    assert type(got) is Fraction
    assert (got.numerator, got.denominator) == (want.numerator, want.denominator)


@pytest.mark.parametrize(
    "x, y",
    [(Fraction(0), Fraction(1, 3)), (Fraction(2, 5), 0), (Fraction(-1, 2), 3), (4, Fraction(-7, 3)), (0, 0)],
    ids=repr,
)
def test_rational_hsum_of_a_nonpositive_argument_names_both(x, y):
    with pytest.raises(DomainError, match=re.escape(f"got {x!r}, {y!r}")):
        GEOMETRIC_RATIONAL.hsum(x, y)


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


# The rational op table builds its results without Fraction's own
# normalization, and an unreduced result breaks == against the reduced
# Fraction, and hash.  So every op is pinned to the fractions operator
# (numerator, denominator, hash and str) on operands well past 2**200, on
# operands sharing large factors and on the domain's constants.
_big = st.integers(1, 2**260)
_constants = st.sampled_from([Fraction(1, 2), Fraction(1)])  # the corner and the one
rationals = st.one_of(
    _constants,
    st.builds(Fraction, _big, _big),
    st.builds(Fraction, st.integers(1, 30), st.integers(1, 30)),
    st.builds(lambda n, d, k: Fraction(n * k, d * k**2), _big, _big, st.integers(2, 2**70)),
)
rationals_or_zero = st.one_of(st.just(Fraction(0)), rationals)

_RATIONAL_OPS = {
    "oplus": (rationals_or_zero, rationals_or_zero, lambda x, y: x + y),
    "otimes": (rationals_or_zero, rationals_or_zero, lambda x, y: x * y),
    "odiv": (rationals_or_zero, rationals, lambda x, y: x / y),
    "hsum": (rationals, rationals, lambda x, y: x * y / (x + y)),
}


def _exactly(got, want):
    assert type(got) is Fraction
    assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
    assert hash(got) == hash(want) and str(got) == str(want) and got == want


@pytest.mark.parametrize("op", sorted(_RATIONAL_OPS))
@settings(max_examples=150)
@given(data=st.data())
def test_rational_ops_are_the_fraction_operators(op, data):
    xs, ys, want = _RATIONAL_OPS[op]
    x, y = data.draw(xs, label="x"), data.draw(ys, label="y")
    _exactly(getattr(GEOMETRIC_RATIONAL, op)(x, y), want(x, y))


@pytest.mark.parametrize("op", sorted(_RATIONAL_OPS))
def test_rational_ops_take_the_constants_on_either_side(op):
    dom = GEOMETRIC_RATIONAL
    want = _RATIONAL_OPS[op][2]
    big = Fraction(2**201 + 1, 3**130)
    consts = [dom.corner, dom.one] + ([dom.zero] if op != "hsum" else [])
    for c in consts:
        _exactly(getattr(dom, op)(c, big), want(c, big))
        if op != "odiv" or c != 0:
            _exactly(getattr(dom, op)(big, c), want(big, c))
        for d in consts:
            if op != "odiv" or d != 0:
                _exactly(getattr(dom, op)(c, d), want(c, d))


@pytest.mark.parametrize("op", sorted(_RATIONAL_OPS))
@given(x=st.integers(1, 2**210), y=st.one_of(st.integers(1, 2**210), rationals))
def test_rational_ops_take_int_operands(op, x, y):
    want = _RATIONAL_OPS[op][2]
    _exactly(getattr(GEOMETRIC_RATIONAL, op)(x, y), want(Fraction(x), y))
    _exactly(getattr(GEOMETRIC_RATIONAL, op)(y, x), want(Fraction(y), x))


@given(x=rationals_or_zero)
def test_rational_square_takes_no_gcd_and_is_the_fraction_square(x):
    # otimes(x, x) builds a*a/(b*b) with no gcd, since the square of a reduced
    # fraction is reduced; an equal but distinct operand takes the gcd path
    copy = Fraction(x.numerator, x.denominator)
    assert copy is not x
    with unittest.mock.patch.object(values, "_gcd", wraps=math.gcd) as gcd:
        square = GEOMETRIC_RATIONAL.otimes(x, x)
        assert gcd.call_count == 0
        product = GEOMETRIC_RATIONAL.otimes(x, copy)
        assert gcd.call_count == 2
    _exactly(square, x * x)
    _exactly(product, x * x)


@pytest.mark.parametrize("zero", [Fraction(0), 0], ids=repr)
@pytest.mark.parametrize("x", [Fraction(0), Fraction(1, 2), Fraction(2**205 + 3, 7), 5], ids=repr)
def test_rational_odiv_by_zero_is_a_domain_error(x, zero):
    with pytest.raises(DomainError, match="geometric division by zero"):
        GEOMETRIC_RATIONAL.odiv(x, zero)


@given(st.integers(0, 2**260), st.integers(1, 2**260))
def test_coprime_is_the_reduced_fraction(n, d):
    g = math.gcd(n, d)
    n, d = n // g, d // g
    _exactly(_coprime(n, d), Fraction(n, d))


def test_rational_coerce_keeps_a_positive_fraction_and_parses_the_rest():
    dom = GEOMETRIC_RATIONAL
    x = Fraction(2**201 + 1, 3)
    assert dom.coerce(x) is x
    for raw, want in ((3, Fraction(3)), ("6/4", Fraction(3, 2)), (True, Fraction(1))):
        got = dom.coerce(raw)
        assert type(got) is Fraction and got == want
    for bad in (Fraction(0), Fraction(-1, 3), 0, "-1/2"):
        with pytest.raises(DomainError, match="positive"):
            dom.coerce(bad)
    with pytest.raises(DomainError, match="rejects floats"):
        dom.coerce(1.5)


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
    assert TROPICAL.coerce(-1e308) == -1e308
    for bad in (-math.inf, math.inf, math.nan):
        with pytest.raises(DomainError, match="^tropical interior entries must be finite real numbers"):
            TROPICAL.coerce(bad)


def test_coerce_tropical_stores_real_numbers_as_floats():
    for x, want in ((Fraction(2, 4), 0.5), (np.float64(1.5), 1.5), (True, 1.0)):
        got = TROPICAL.coerce(x)
        assert type(got) is float and got == want


@pytest.mark.parametrize("big", [10**400, Fraction(10**400), -(10**400)], ids=["int", "Fraction", "neg"])
@pytest.mark.parametrize("dom", [GEOMETRIC_FLOAT, TROPICAL], ids=lambda d: d.name)
def test_coerce_beyond_the_double_range_is_a_domain_error(dom, big):
    # float() of these raises OverflowError; coerce turns it into a DomainError
    with pytest.raises(DomainError):
        dom.coerce(big)
    with pytest.raises(DomainError):
        ShapedArray.from_rows([[1, big]], dom)


@pytest.mark.parametrize("bad", ["x", "2", None, 1 + 0j, [1.0]], ids=repr)
@pytest.mark.parametrize(
    "dom", [TROPICAL, GEOMETRIC_FLOAT, GEOMETRIC_RATIONAL, LogDomain(0.1)], ids=lambda d: d.name
)
def test_coerce_rejects_what_is_not_a_real_number(dom, bad):
    if dom is GEOMETRIC_RATIONAL and bad == "2":
        assert dom.coerce(bad) == 2  # 'p/q' strings are rational entries
        return
    with pytest.raises(DomainError, match=re.escape(f"got {bad!r}")):
        dom.coerce(bad)


@pytest.mark.parametrize("dom", [TROPICAL, GEOMETRIC_FLOAT, GEOMETRIC_RATIONAL], ids=lambda d: d.name)
def test_a_json_entry_that_is_not_a_number_raises_a_value_error(dom):
    # the CLI reports a ValueError (DomainError is one) on one line and exits 2
    for bad in (None, "x", [1]):
        with pytest.raises(ValueError):
            ShapedArray.from_json_obj({"shape": [1], "domain": dom.name, "rows": [[bad]]})
    with pytest.raises(DomainError):
        ShapedArray.from_json_obj({"shape": [1], "domain": dom.name, "rows": [[None]]})


def test_a_bad_tropical_entry_fails_when_the_array_is_built():
    msg = r"^box \(1,2\): tropical interior entries must be finite real numbers, got "
    with pytest.raises(DomainError, match=msg + "'x'$"):
        ShapedArray.from_rows([[1.0, "x"]], TROPICAL)
    with pytest.raises(DomainError, match=msg + "-inf$"):
        ShapedArray.from_rows([[1.0, -math.inf]], TROPICAL)


def test_isclose_semantics():
    assert GEOMETRIC_RATIONAL.isclose(Fraction(1, 3), Fraction(1, 3))
    assert not GEOMETRIC_RATIONAL.isclose(Fraction(1, 3), Fraction(1, 3) + Fraction(1, 10**30))
    assert GEOMETRIC_FLOAT.isclose(1.0, 1.0 + 1e-13)
    assert not GEOMETRIC_FLOAT.isclose(1.0, 1.001)
    assert TROPICAL.isclose(-math.inf, -math.inf)
    assert not TROPICAL.isclose(-math.inf, 0.0)
    # every finite value is within rel_tol * inf of an infinity, so an
    # infinite scale compares with ==: the log zero -inf, and a float +inf
    assert not LogDomain(1.0).isclose(-math.inf, 0.0)
    for dom in (TROPICAL, LogDomain(1.0), GEOMETRIC_FLOAT):
        for inf in (-math.inf, math.inf):
            assert not dom.isclose(inf, 1.0)
            assert not dom.isclose(1.0, inf)
            assert dom.isclose(inf, inf)


def test_scalar_json_round_trip():
    dom = GEOMETRIC_RATIONAL
    assert dom.scalar_to_json(Fraction(3, 7)) == "3/7"
    assert TROPICAL.scalar_to_json(-2.5) == -2.5


# -- the log domain --------------------------------------------------------------


def _mp_log_sum(eps, *terms):
    """eps * log(sum of exp(t/eps)) at 100 bits."""
    with mp.workprec(100):
        return float(eps * mp.log(mp.fsum(mp.exp(mp.mpf(t) / eps) for t in terms)))


@pytest.mark.parametrize("eps", [1.0, 0.1, 0.001])
def test_log_ops_are_the_geometric_ops_in_eps_log_coordinates(eps):
    dom = LogDomain(eps)
    rng = np.random.default_rng(7)
    for x, y in rng.uniform(-20, 20, (200, 2)).tolist():
        assert math.isclose(dom.oplus(x, y), _mp_log_sum(eps, x, y), rel_tol=1e-14, abs_tol=1e-14)
        assert math.isclose(dom.hsum(x, y), -_mp_log_sum(eps, -x, -y), rel_tol=1e-14, abs_tol=1e-14)
        assert dom.oplus(x, y) == dom.oplus(y, x) and dom.hsum(x, y) == dom.hsum(y, x)
        assert dom.otimes(x, y) == x + y and dom.odiv(x, y) == x - y
    assert math.isclose(dom.corner, eps * math.log(0.5))
    assert dom.zero == -math.inf and dom.one == 0.0
    assert dom.oplus(dom.corner, dom.corner) == dom.one
    assert dom.oplus(dom.zero, 3.0) == dom.oplus(3.0, dom.zero) == 3.0
    assert dom.otimes(dom.zero, 3.0) == dom.zero


def test_log_ops_tend_to_the_tropical_ops():
    for x, y in ((1.0, 3.0), (-2.5, 4.0), (2.0, 2.0)):
        for op in ("oplus", "hsum"):
            gap = abs(getattr(LogDomain(1e-3), op)(x, y) - getattr(TROPICAL, op)(x, y))
            assert gap <= 1e-3 * math.log(2) + 1e-15


def test_log_hsum_and_odiv_reject_the_zero_element():
    dom = LogDomain(0.5)
    for x, y in ((-math.inf, 1.0), (1.0, -math.inf), (-math.inf, -math.inf)):
        with pytest.raises(DomainError, match="hsum needs positive arguments"):
            dom.hsum(x, y)
    with pytest.raises(DomainError, match="division by zero"):
        dom.odiv(1.0, -math.inf)


def test_log_coerce_takes_finite_reals_only():
    dom = LogDomain(0.1)
    for x, want in ((3, 3.0), (Fraction(-1, 4), -0.25), (np.float64(1.5), 1.5), (-2.0, -2.0)):
        got = dom.coerce(x)
        assert type(got) is float and got == want
    for bad in (math.inf, -math.inf, math.nan, 10**400, Fraction(-(10**400), 3)):
        with pytest.raises(DomainError, match="finite real numbers"):
            dom.coerce(bad)


def test_log_check_finite_names_the_box():
    dom = LogDomain(1.0)
    dom.check_finite([[-1e300, 0.0], [1e300]])
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(DomainError, match=r"box \(2,1\)"):
            dom.check_finite([[0.0, 1.0], [bad]])


@pytest.mark.parametrize("eps", [0.0, -1.0, math.inf, math.nan])
def test_log_domain_needs_a_positive_finite_temperature(eps):
    with pytest.raises(DomainError, match="temperature"):
        LogDomain(eps)


def test_log_domains_are_not_named_domains():
    assert LogDomain(0.1).name == "log-0.1"
    assert not any(isinstance(d, LogDomain) for d in DOMAINS.values())


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
    for bad in (math.inf, math.nan):
        with pytest.raises(DomainError, match=r"box \(2,2\).*log-space"):
            GEOMETRIC_FLOAT.check_finite([[1.0, 2.0], [3.0, bad]])
    lanes = np.array([1.0, math.inf, math.nan])
    with pytest.raises(DomainError, match=r"box \(1,2\).*lane 1.*log-space"):
        GEOMETRIC_LANES.check_finite([[np.ones(3), lanes]])
    # exact, high-precision and finite values pass untouched
    GEOMETRIC_FLOAT.check_finite([[1e300, mp.mpf("1e400")]])
    GEOMETRIC_RATIONAL.check_finite([[Fraction(10) ** 400]])
    TROPICAL.check_finite([[-1e308, 0.0]])
    GEOMETRIC_LANES.check_finite([[np.array([1e300, 1e-300])]])


@pytest.mark.parametrize("bad", [math.inf, math.nan, -math.inf], ids=str)
def test_check_finite_names_the_first_bad_box_in_a_later_row(bad):
    # the rows before it pass on their sum; a finite row whose sum overflows
    # is searched entry by entry and passes too
    rows = [[1.0, 2.0, 3.0], [1e308, 1e308], [4.0, bad, math.inf]]
    with pytest.raises(DomainError, match=rf"^float overflow at box \(3,2\) of the map's output: {bad!r};"):
        GEOMETRIC_FLOAT.check_finite(rows)
    with pytest.raises(DomainError, match=r"box \(2,1\)"):
        TROPICAL.check_finite([[-1.0, 0.0], [bad, -math.inf]])
    # a row that does not start with a float is searched entry by entry
    with pytest.raises(DomainError, match=r"box \(1,2\)"):
        GEOMETRIC_FLOAT.check_finite([[mp.mpf(1), bad]])


def test_check_finite_passes_a_finite_row_whose_sum_overflows():
    GEOMETRIC_FLOAT.check_finite([[1e308, 1e308]])
    GEOMETRIC_FLOAT.check_finite([[-1e308, 1e308, 1e308], [1e308, -1e308, 1e308]])
    TROPICAL.check_finite([[1e308, 1e308], [-1e308, -1e308]])


def test_check_finite_still_names_the_overflow_of_a_map():
    huge = ShapedArray.from_rows([[1e200, 1e200], [1e200, 1e200]], GEOMETRIC_FLOAT)
    with pytest.raises(DomainError, match=r"^float overflow at box \(1,1\) of the map's output: inf;"):
        gburge(huge)


def test_rational_check_finite_reads_no_entry():
    # a Fraction is never nan or inf, so the rational domain skips the check
    GEOMETRIC_RATIONAL.check_finite([[math.nan, math.inf]])


# -- lane arrays refuse what needs scalar entries -----------------------------------


def _lane_array():
    return ShapedArray.from_rows([[np.array([1.0, 2.0])]], GEOMETRIC_LANES)


def test_lane_array_hash_raises_a_domain_error():
    with pytest.raises(DomainError, match="hash needs scalar entries; geom-lanes holds arrays"):
        hash(_lane_array())


def test_lane_array_equality_raises_a_domain_error():
    for compare in (lambda a, b: a == b, lambda a, b: a != b):
        with pytest.raises(DomainError, match="== needs scalar entries; geom-lanes holds arrays"):
            compare(_lane_array(), _lane_array())


def test_lane_array_to_json_raises_a_domain_error():
    with pytest.raises(DomainError, match="to_json needs scalar entries; geom-lanes holds arrays"):
        _lane_array().to_json()


def test_lane_array_allclose_raises_a_domain_error():
    with pytest.raises(DomainError, match="allclose needs scalar entries; geom-lanes holds arrays"):
        _lane_array().allclose(_lane_array())
