"""Shaped arrays."""

import json
import math
import random
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gburge.arrays import ShapedArray, random_array, random_symmetric_array
from gburge.shapes import Shape, ShapeError, all_shapes, rectangle, symmetric_closure
from gburge.values import (
    DOMAINS,
    GEOMETRIC_FLOAT,
    GEOMETRIC_LANES,
    GEOMETRIC_RATIONAL,
    TROPICAL,
    DomainError,
    LogDomain,
)

R = GEOMETRIC_RATIONAL

shapes_to_6 = st.sampled_from(list(all_shapes(6)))
seeds = st.integers(0, 10_000)


def rand(shape, seed, domain=R):
    return random_array(shape, domain, random.Random(seed))


def test_row_validation():
    ShapedArray.from_rows([[1, 2, 3], [4]], R)
    with pytest.raises(ShapeError):
        ShapedArray.from_rows([[1], [2, 3]], R)
    with pytest.raises(ShapeError):
        ShapedArray(Shape((2, 1)), [[1, 2], [3, 4]], R)
    with pytest.raises(DomainError):
        ShapedArray.from_rows([[0.5]], R)


def test_float_entries_must_be_finite():
    with pytest.raises(DomainError):
        ShapedArray.from_rows([[math.inf, 1.0], [1.0, 1.0]], GEOMETRIC_FLOAT)
    with pytest.raises(DomainError):
        ShapedArray.from_rows([[math.nan]], GEOMETRIC_FLOAT)


@pytest.mark.parametrize("domain, bad, message", [
    (R, 0.5, "rational domain rejects floats (got 0.5); pass Fraction, int or 'p/q'"),
    (GEOMETRIC_FLOAT, -1.0, "geometric interior entries must be positive and finite, got -1.0"),
    (TROPICAL, -math.inf, "tropical interior entries must be finite real numbers, got -inf"),
    (GEOMETRIC_LANES, np.array([1.0, 0.0]),
     "geometric interior entries must be positive and finite, got 0.0 in lane 1"),
], ids=["rational", "float", "tropical", "lanes"])
def test_a_rejected_entry_names_its_box(domain, bad, message):
    one = np.ones(2) if domain.holds_arrays else 1
    with pytest.raises(DomainError, match=f"^{re.escape(f'box (2,2): {message}')}$"):
        ShapedArray.from_rows([[one, one, one], [one, bad, bad]], domain)


def test_get_and_indexing():
    a = ShapedArray.from_rows([[1, 2], [3]], R)
    assert a.get(1, 2) == 2
    assert a[(2, 1)] == 3
    with pytest.raises(ShapeError):
        a.get(2, 2)


def test_boundary_conventions():
    a = ShapedArray.from_rows([[1, 2], [3]], R)
    assert a.get_with_boundary(0, 1) == Fraction(1, 2)
    assert a.get_with_boundary(1, 0) == Fraction(1, 2)
    assert a.get_with_boundary(0, 2) == 0
    assert a.get_with_boundary(2, 0) == 0
    assert a.get_with_boundary(1, 1) == 1
    with pytest.raises(ShapeError):
        a.get_with_boundary(2, 2)
    with pytest.raises(ShapeError):
        a.get_with_boundary(-1, 0)
    t = ShapedArray.from_rows([[1.0]], TROPICAL)
    assert t.get_with_boundary(0, 1) == 0.0
    assert t.get_with_boundary(0, 2) == -math.inf


def test_with_entries():
    a = ShapedArray.from_rows([[1, 2], [3]], R)
    b = a.with_entries({(1, 1): Fraction(9)})
    assert b.get(1, 1) == 9 and a.get(1, 1) == 1
    with pytest.raises(ShapeError):
        a.with_entries({(2, 2): Fraction(1)})


@pytest.mark.parametrize("domain, bad, message", [
    (TROPICAL, -math.inf, "tropical interior entries must be finite real numbers, got -inf"),
    (GEOMETRIC_FLOAT, 0.0, "geometric interior entries must be positive and finite, got 0.0"),
], ids=["tropical", "float"])
def test_with_entries_names_the_box_of_a_rejected_value(domain, bad, message):
    # the same prefix as construction gives: the replica and persymmetric
    # oracles build their arrays through with_entries
    a = ShapedArray.from_rows([[1.0, 2.0], [3.0, 4.0]], domain)
    with pytest.raises(DomainError, match=f"^{re.escape(f'box (1,2): {message}')}$"):
        a.with_entries({(1, 1): 5.0, (1, 2): bad})


@given(shapes_to_6, seeds)
def test_transpose_is_an_involution(shape, seed):
    a = rand(shape, seed)
    assert a.transpose().transpose() == a
    assert a.transpose().shape == shape.conjugate()


@given(seeds, st.integers(1, 4), st.integers(1, 4))
def test_reversals_are_involutions_and_commute(seed, m, n):
    a = rand(rectangle(m, n), seed)
    assert a.reverse_rows().reverse_rows() == a
    assert a.reverse_cols().reverse_cols() == a
    assert a.reverse_rows().reverse_cols() == a.reverse_cols().reverse_rows()


def test_reversals_need_rectangles():
    a = ShapedArray.from_rows([[1, 2], [3]], R)
    with pytest.raises(ShapeError):
        a.reverse_rows()
    with pytest.raises(ShapeError):
        a.reverse_cols()


def test_reverse_rows_values():
    a = ShapedArray.from_rows([[1, 2], [3, 4]], R)
    assert a.reverse_rows().to_lists() == [[3, 4], [1, 2]]
    assert a.reverse_cols().to_lists() == [[2, 1], [4, 3]]


def test_json_round_trip_rational():
    a = ShapedArray.from_rows([[Fraction(1, 3), 2], [3]], R)
    obj = a.to_json_obj()
    assert obj["domain"] == "geom-rational"
    assert obj["shape"] == [2, 1]
    assert obj["rows"][0][0] == "1/3"
    assert ShapedArray.from_json_obj(obj) == a
    assert ShapedArray.from_json_obj(json.loads(a.to_json())) == a


def test_json_round_trip_tropical():
    a = ShapedArray.from_rows([[1.0, -2.5], [0.5]], TROPICAL)
    obj = json.loads(a.to_json())
    assert obj["rows"][0][1] == -2.5
    assert ShapedArray.from_json_obj(obj) == a
    # there is no "-inf" token: max-plus entries are finite reals
    obj["rows"][0][1] = "-inf"
    with pytest.raises(DomainError, match=r"^box \(1,2\): tropical interior entries must be finite"):
        ShapedArray.from_json_obj(obj)


def test_json_round_trip_of_every_named_domain_and_none_of_a_log_domain():
    # every JSON array is read into a named domain, so only those are written:
    # a LogDomain(eps) array wrote "log-0.5", which from_json could not read
    for domain in DOMAINS.values():
        a = random_array(rectangle(2, 3), domain, random.Random(5))
        assert ShapedArray.from_json(a.to_json()) == a
    log = ShapedArray.from_rows([[1.0, -2.5], [0.5]], LogDomain(0.5))
    with pytest.raises(DomainError, match=r"^to_json: log-0\.5 is not a named domain"):
        log.to_json()


def test_map_entries_domain_change():
    a = ShapedArray.from_rows([[1, 4]], R)
    b = a.map_entries(lambda x: float(x) / 2, GEOMETRIC_FLOAT)
    assert b.domain is GEOMETRIC_FLOAT
    assert b.to_lists() == [[0.5, 2.0]]


def test_symmetry():
    a = ShapedArray.from_rows([[1, 2, 3], [2, 4, 5], [3, 5, 6]], R)
    assert a.is_symmetric()
    a.require_symmetric("m")
    assert not a.with_entries({(3, 2): 7}).is_symmetric()
    assert not ShapedArray.from_rows([[1, 2], [2]], R).with_entries({(1, 2): 3}).is_symmetric()


@pytest.mark.parametrize("rows, fault", [
    ([[1, 2], [3, 4]], "box (1,2) differs from its mirror box (2,1)"),
    ([[1, 2, 3], [2, 4, 5], [3, 6, 6]], "box (2,3) differs from its mirror box (3,2)"),
    ([[1, 2], [2], [3]], "box (3,1) has no mirror box (1,3) in shape (2, 1, 1)"),
    ([[1, 2, 3]], "box (1,2) has no mirror box (2,1) in shape (3,)"),
])
def test_require_symmetric_names_the_map_and_the_first_faulty_box(rows, fault):
    a = ShapedArray.from_rows(rows, R)
    assert not a.is_symmetric()
    with pytest.raises(ShapeError, match=f"^{re.escape(f'm needs a symmetric array: {fault}')}$"):
        a.require_symmetric("m")


def test_lane_symmetry_compares_lane_by_lane():
    big = np.array([1.0, 1e200])
    sym = ShapedArray.from_rows([[big, np.ones(2)], [np.ones(2), big]], GEOMETRIC_LANES)
    assert sym.is_symmetric()
    skew = sym.with_entries({(2, 1): np.array([1.0, 2.0])})
    assert not skew.is_symmetric()
    with pytest.raises(ShapeError, match=r"box \(1,2\) differs from its mirror box \(2,1\)"):
        skew.require_symmetric("m")


@given(shapes_to_6, seeds)
def test_random_symmetric_array_mirrors_the_upper_part_of_random_array(shape, seed):
    sym = symmetric_closure(shape)
    a = random_symmetric_array(sym, R, random.Random(seed))
    full = random_array(sym, R, random.Random(seed))
    assert a.is_symmetric()
    assert all(a.get(i, j) == full.get(i, j) for i, j in sym.upper_part())


@given(shapes_to_6, seeds, st.sampled_from(["geom-rational", "geom-float", "tropical"]))
def test_random_array_respects_domain(shape, seed, domain_name):
    from gburge.values import domain_by_name

    dom = domain_by_name(domain_name)
    a = random_array(shape, dom, random.Random(seed))
    assert a.shape == shape
    assert a.domain is dom
    if dom.is_exact:
        assert all(isinstance(x, Fraction) for row in a.rows for x in row)
