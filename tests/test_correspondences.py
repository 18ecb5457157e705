"""The correspondences, the involution, and the exact identities tying them together."""

import math
import random
import warnings
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gburge.arrays import ShapedArray, UpperArray, random_array, random_symmetric_array, symmetrize
from gburge.correspondences import (
    IDENTITY_NAMES,
    admissible_commutation_boxes,
    admissible_composition_params,
    commutation_sides,
    composition_of_21,
    gburge,
    gburge_up,
    grsk,
    gschutz,
    gschutz_upper,
    inv_gburge,
    inv_grsk,
    rho,
    sigma,
    tau,
    tropical_limit_check,
    tropical_limit_errors,
    verify_identity,
)
from gburge.shapes import Shape, ShapeError, all_shapes, rectangle, symmetric_closure
from gburge.values import (
    GEOMETRIC_FLOAT,
    GEOMETRIC_LANES,
    GEOMETRIC_RATIONAL,
    TROPICAL,
    DomainError,
)

R = GEOMETRIC_RATIONAL
seeds = st.integers(0, 10_000)
shapes_to_6 = st.sampled_from(list(all_shapes(6)))
domains = st.sampled_from([R, TROPICAL])


def rand(shape, seed, domain=R):
    return random_array(shape, domain, random.Random(seed))


# -- frozen small cases ---------------------------------------------------------------


def test_grsk_2x2():
    w = ShapedArray.from_rows([[1, 2], [3, 4]], R)
    assert grsk(w).to_lists() == [[Fraction(6, 5), 2], [3, 20]]


def test_gburge_2x2():
    w = ShapedArray.from_rows([[2, 1], [4, 3]], R)
    assert gburge(w).to_lists() == [[Fraction(6, 5), 2], [8, 20]]


def test_single_row_closed_form():
    w = ShapedArray.from_rows([[2, 3, 4]], R)
    expected = [[2, 6, 24]]
    assert grsk(w).to_lists() == expected
    assert gburge(w).to_lists() == expected


def test_schutz_single_row_closed_form():
    # on one row t the involution gives (t_n/t_{n-1}, ..., t_n/t_1, t_n)
    t = ShapedArray.from_rows([[2, 6, 24]], R)
    assert gschutz(t).to_lists() == [[4, 12, 24]]


def test_schutz_fixes_the_main_antidiagonal_corner_diagonal():
    t = grsk(ShapedArray.from_rows([[1, 2, 3], [4, 5, 6]], R))
    s = gschutz(t)
    # the diagonal through the bottom-right corner is fixed
    assert t.diagonal(1) == s.diagonal(1)
    assert t.diagonal(2) == s.diagonal(2)


def test_tropical_grsk_2x2():
    w = ShapedArray.from_rows([[0.0, 1.0], [2.0, 3.0]], TROPICAL)
    assert grsk(w).to_lists() == [[1.0, 1.0], [2.0, 5.0]]


def test_all_ones_output():
    w = ShapedArray.from_rows([[1, 1], [1, 1]], R)
    expected = [[Fraction(1, 2), 1], [1, 2]]
    assert grsk(w).to_lists() == expected
    assert gburge(w).to_lists() == expected


def test_gburge_up_all_ones():
    up = UpperArray.from_rows([[1, 1], [1]], R)
    out = gburge_up(up)
    assert out.get(1, 1) == Fraction(1, 2)
    assert out.get(1, 2) == 1
    assert out.get(2, 2) == 2


# -- structural properties -------------------------------------------------------------


@given(shapes_to_6, seeds, domains)
def test_correspondences_invert(shape, seed, dom):
    w = rand(shape, seed, dom)
    assert inv_grsk(grsk(w)) == w
    assert inv_gburge(gburge(w)) == w
    assert grsk(inv_grsk(w)) == w
    assert gburge(inv_gburge(w)) == w


@given(seeds, st.integers(1, 3), st.integers(1, 3), domains)
def test_schutz_is_an_involution(seed, m, n, dom):
    t = rand(rectangle(m, n), seed, dom)
    assert gschutz(gschutz(t)) == t
    assert gschutz_upper(gschutz_upper(t)) == t


def test_schutz_needs_a_rectangle():
    with pytest.raises(ShapeError):
        gschutz(ShapedArray.from_rows([[1, 2], [3]], R))


@given(shapes_to_6, seeds)
def test_order_independence_exhaustively(shape, seed):
    from gburge.shapes import all_growth_sequences

    w = rand(shape, seed)
    ref_k, ref_b = grsk(w), gburge(w)
    for seq in all_growth_sequences(shape):
        assert grsk(w, seq) == ref_k
        assert gburge(w, seq) == ref_b


def test_invalid_order_rejected():
    w = ShapedArray.from_rows([[1, 2], [3, 4]], R)
    with pytest.raises(ShapeError):
        grsk(w, [(1, 1), (2, 2), (1, 2), (2, 1)])


@given(seeds, st.integers(2, 4))
def test_symmetric_route_agrees(seed, n):
    rng = random.Random(seed)
    shape = symmetric_closure(Shape(tuple(sorted((rng.randint(1, n) for _ in range(n)), reverse=True))))
    w = random_symmetric_array(shape, R, rng)
    t = gburge(w)
    assert t.is_symmetric()
    assert symmetrize(gburge_up(w.restrict_upper())) == t


def test_single_diagonal_maps_match_whole_map_on_one_box():
    w = ShapedArray.from_rows([[Fraction(5, 3)]], R)
    assert rho(w, 1, 1) == grsk(w)
    assert tau(w, 1, 1) == gburge(w)
    assert sigma(ShapedArray.from_rows([[2, 6]], R), 1, 1).to_lists() == [[3, 6]]


# -- admissibility bookkeeping ----------------------------------------------------------


def test_admissible_commutation_boxes():
    assert admissible_commutation_boxes(Shape((3, 2))) == [(2, 1)]
    assert admissible_commutation_boxes(Shape((2, 2))) == [(2, 1)]
    assert admissible_commutation_boxes(Shape((3,))) == []
    assert set(admissible_commutation_boxes(Shape((3, 3, 3)))) == {(2, 1), (2, 2), (3, 1), (3, 2)}


def test_admissible_composition_params():
    assert admissible_composition_params(Shape((4, 4, 4, 4))) == [(1, 3)]
    assert set(admissible_composition_params(Shape((5, 5, 5, 5, 5)))) == {(1, 3), (1, 4), (2, 3)}
    assert admissible_composition_params(Shape((3, 3, 3))) == []


def test_composition_rejects_bad_params():
    w = rand(rectangle(4, 4), 0)
    with pytest.raises(ShapeError):
        composition_of_21(w, 0, 3)
    with pytest.raises(ShapeError):
        composition_of_21(w, 1, 2)
    with pytest.raises(ShapeError):
        composition_of_21(w, 2, 3)


@given(seeds, domains)
def test_commutation_relation_small(seed, dom):
    w = rand(Shape((3, 3)), seed, dom)
    for p, q in admissible_commutation_boxes(w.shape):
        lhs, rhs = commutation_sides(w, p, q)
        assert lhs == rhs


@given(seeds, domains)
@settings(max_examples=25)
def test_composition_of_21_is_the_identity(seed, dom):
    w = rand(rectangle(4, 4), seed, dom)
    assert composition_of_21(w, 1, 3) == w


# -- the verification driver -------------------------------------------------------------


def test_identity_names_are_stable():
    assert set(IDENTITY_NAMES) == {
        "thm3.2",
        "thm3.4-C",
        "thm3.4-R",
        "prop3.3",
        "appendix-C-identity",
        "order-independence",
        "recursion",
        "transpose-equivariance",
        "prop5.1",
    }


# The tropical and float maps run the same kernels on another operation table.
# Rational cases keep the bare identity name as their test id.
_IDENTITY_CASES = [pytest.param(n, GEOMETRIC_RATIONAL, id=n) for n in sorted(IDENTITY_NAMES)] + [
    pytest.param(n, d, id=f"{n}-{d.name}")
    for d in (TROPICAL, GEOMETRIC_FLOAT)
    for n in sorted(IDENTITY_NAMES)
]


@pytest.mark.parametrize("name, domain", _IDENTITY_CASES)
def test_verify_identity_passes(name, domain):
    tol = 1e-9 if domain is GEOMETRIC_FLOAT else 1e-12
    if name == "prop5.1" and domain is TROPICAL:
        # the restricted symmetric map is defined geometrically only
        with pytest.raises(DomainError):
            verify_identity(name, max_size=3, trials=5, seed=7, domain=domain)
        return
    rep = verify_identity(name, max_size=3, trials=5, seed=7, tol=tol, domain=domain)
    assert rep["identity"] == name
    assert rep["trials"] == 5
    assert rep["failures"] == 0
    assert "first_counterexample" not in rep


def test_verify_identity_unknown_name():
    with pytest.raises(ValueError):
        verify_identity("thm9.9")


def test_verify_identity_thread_count_does_not_change_the_report():
    a = verify_identity("thm3.4-C", max_size=3, trials=6, seed=3, threads=1)
    b = verify_identity("thm3.4-C", max_size=3, trials=6, seed=3, threads=4)
    assert a == b


def test_verify_identity_reports_a_counterexample_when_broken():
    # an involution check on a map that is not an involution would fail;
    # simulate by running with an impossible tolerance on the float domain
    from gburge.values import GEOMETRIC_FLOAT

    rep = verify_identity("thm3.2", max_size=3, trials=3, seed=0, domain=GEOMETRIC_FLOAT, tol=-1.0)
    assert rep["failures"] >= 1
    cex = rep["first_counterexample"]
    assert set(cex) == {"input", "lhs", "rhs"}
    assert cex["input"]["domain"] == "geom-float"


# -- degeneration to the tropical maps ----------------------------------------------------


def test_tropical_limit_error_bound_concrete():
    w = ShapedArray.from_rows([[1.0, -2.0, 0.0], [3.0, 1.0, -1.0], [0.0, 2.0, 1.0]], TROPICAL)
    errs = [tropical_limit_errors(w, "rsk", eps) for eps in (0.1, 0.01, 0.001)]
    for eps, err in zip((0.1, 0.01, 0.001), errs):
        assert err <= 100 * eps
    assert errs[0] >= errs[1] >= errs[2]
    # this input has an exact two-way tie, so the gap is eps * log 2 on the nose
    assert math.isclose(errs[2], 0.001 * math.log(2))


def test_tropical_limit_check_passes():
    rep = tropical_limit_check(max_boxes=6, trials=6, seed=11)
    assert rep["failures"] == 0
    assert set(rep["max_error_by_eps"]) == {"0.1", "0.01", "0.001"}


def test_tropical_limit_unknown_map():
    w = ShapedArray.from_rows([[0.0]], TROPICAL)
    with pytest.raises(ValueError):
        tropical_limit_errors(w, "shuffle", 0.1)


# -- float overflow is caught where the map hands back its output -------------------------


def test_float_overflow_from_finite_entries_raises():
    huge = ShapedArray.from_rows([[1e200, 1e200], [1e200, 1e200]], GEOMETRIC_FLOAT)
    for f in (gburge, grsk, inv_gburge):
        with pytest.raises(DomainError, match=r"float overflow at box \(\d,\d\).*log-space"):
            f(huge)
    with pytest.raises(DomainError, match=r"float overflow at box \(1,1\)"):
        gburge_up(huge.restrict_upper())
    # the same entries in exact or high-precision arithmetic map without error
    exact = ShapedArray.from_rows([[10**200, 10**200], [10**200, 10**200]], R)
    assert gburge(exact).get(2, 2) > 0
    with mp.workprec(150):
        wide = huge.map_entries(mp.mpf)
        assert gburge(wide).get(2, 2) > 0


def test_lane_overflow_names_the_box_and_the_lane():
    rows = [[np.array([1.0, 1e200]), np.ones(2)], [np.ones(2), np.array([1.0, 1e200])]]
    lanes = ShapedArray.from_rows(rows, GEOMETRIC_LANES)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DomainError, match=r"box \(\d,\d\).*in lane 1;"):
            gburge(lanes)
    first_lane = gburge(lanes.map_entries(lambda x: x[:1]))
    ones = gburge(ShapedArray.from_rows([[1.0, 1.0], [1.0, 1.0]], GEOMETRIC_FLOAT))
    assert first_lane.get(2, 2).tolist() == [ones.get(2, 2)]


def test_lane_overflow_raises_without_numpy_warnings():
    big = np.array([1.0, 1e200])
    lanes = ShapedArray.from_rows([[big, np.ones(2)], [np.ones(2), big]], GEOMETRIC_LANES)
    upper = UpperArray.from_rows([[big, np.ones(2)], [big]], GEOMETRIC_LANES)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for f in (gburge, grsk, inv_gburge):
            with pytest.raises(DomainError, match=r"box \(\d,\d\).*in lane 1;"):
                f(lanes)
        with pytest.raises(DomainError, match=r"box \(\d,\d\).*in lane 1;"):
            gburge_up(upper)
    # the lane errstate does not leak out of the map call
    with pytest.warns(RuntimeWarning, match="overflow"):
        np.array([1e200]) * np.array([1e200])
