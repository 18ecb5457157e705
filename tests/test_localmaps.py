"""Local birational maps and their piecewise-linear shadows."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from gburge.arrays import ShapedArray, random_array
from gburge.localmaps import (
    apply_a,
    apply_b,
    apply_c,
    apply_c_up,
    apply_d,
    apply_d_up,
    apply_e,
    inv_c,
    inv_d,
)
from gburge.shapes import ShapeError, rectangle
from gburge.values import GEOMETRIC_RATIONAL, TROPICAL, DomainError

R = GEOMETRIC_RATIONAL
seeds = st.integers(0, 10_000)
domains = st.sampled_from([R, TROPICAL])


def rand(shape, seed, domain=R):
    return random_array(shape, domain, random.Random(seed))


@given(seeds, domains)
def test_a_is_an_involution(seed, dom):
    w = rand(rectangle(3, 3), seed, dom)
    for box in [(1, 1), (1, 2), (2, 1), (2, 2)]:
        assert apply_a(apply_a(w, *box), *box) == w


@given(seeds, domains)
def test_b_is_an_involution(seed, dom):
    w = rand(rectangle(3, 3), seed, dom)
    for box in [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (3, 2)]:
        assert apply_b(apply_b(w, *box), *box) == w


@given(seeds, domains)
def test_c_inverts(seed, dom):
    w = rand(rectangle(3, 3), seed, dom)
    for box in [(1, 1), (2, 2), (3, 3), (1, 3)]:
        assert inv_c(apply_c(w, *box), *box) == w
        assert apply_c(inv_c(w, *box), *box) == w


@given(seeds, domains)
def test_d_inverts(seed, dom):
    w = rand(rectangle(3, 3), seed, dom)
    for ij, kl in [((1, 1), (3, 3)), ((1, 1), (2, 2)), ((2, 1), (3, 3)), ((1, 2), (3, 3))]:
        assert inv_d(apply_d(w, ij, kl), ij, kl) == w
        assert apply_d(inv_d(w, ij, kl), ij, kl) == w


def test_a_needs_both_forward_neighbours():
    w = rand(rectangle(2, 2), 0)
    with pytest.raises(ShapeError):
        apply_a(w, 2, 2)
    with pytest.raises(ShapeError):
        apply_a(w, 1, 2)


def test_b_needs_the_right_neighbour():
    w = rand(rectangle(2, 2), 0)
    apply_b(w, 2, 1)
    with pytest.raises(ShapeError):
        apply_b(w, 2, 2)


def test_d_needs_distinct_boxes():
    w = rand(rectangle(3, 3), 0)
    with pytest.raises(ShapeError):
        apply_d(w, (1, 1), (1, 1))


def test_a_tropical_example():
    w = ShapedArray.from_rows([[0.0, 1.0], [2.0, 3.0]], TROPICAL)
    # A = max(0, 0) = 0, H = min(2, 1) = 1, new value = 0 + 1 - 0
    assert apply_a(w, 1, 1).get(1, 1) == 1.0


def test_c_tropical_example():
    w = ShapedArray.from_rows([[0.0, 1.0], [2.0, 3.0]], TROPICAL)
    assert apply_c(w, 2, 2).get(2, 2) == 5.0


def test_d_rational_example():
    w = ShapedArray.from_rows([[2, 1], [4, 3]], R)
    out = apply_d(w, (1, 1), (2, 2))
    assert out.get(1, 1) == Fraction(6, 5)
    assert out.get(2, 2) == 1
    assert out.get(1, 2) == 1 and out.get(2, 1) == 4


def test_d_tropical_zeros_are_fixed():
    w = ShapedArray.from_rows([[0.0, 0.0], [0.0, 0.0]], TROPICAL)
    assert apply_d(w, (1, 1), (2, 2)) == w


def test_e_swaps():
    w = ShapedArray.from_rows([[1, 2], [3, 4]], R)
    out = apply_e(w, (1, 1), (2, 2))
    assert out.get(1, 1) == 4 and out.get(2, 2) == 1
    assert apply_e(out, (1, 1), (2, 2)) == w


def test_c_uses_corner_convention_at_the_origin():
    w = ShapedArray.from_rows([[3]], R)
    # A = 1/2 + 1/2 = 1
    assert apply_c(w, 1, 1).get(1, 1) == 3


def test_upper_maps_need_a_geometric_domain():
    up = ShapedArray.from_rows([[1.0, 1.0], [1.0, 1.0]], TROPICAL)
    with pytest.raises(DomainError):
        apply_c_up(up, 1)


def test_c_up_first_diagonal_box():
    up = ShapedArray.from_rows([[Fraction(3), 1], [1, 1]], R)
    # the entry above the first diagonal box counts as 1/2
    assert apply_c_up(up, 1).get(1, 1) == 3


def test_c_up_uses_the_entry_above():
    up = ShapedArray.from_rows([[1, Fraction(5)], [Fraction(5), Fraction(7)]], R)
    assert apply_c_up(up, 2).get(2, 2) == 2 * 5 * 7


def test_d_up_example():
    up = ShapedArray.from_rows([[1, 1], [1, 1]], R)
    out = apply_d_up(up, 1, 2)
    # z*A = 2 * (1/2) * 1 = 1; new w_11 = hsum(1, 1) = 1/2
    assert out.get(1, 1) == Fraction(1, 2)
    # new w_22 = (1/1 + 1/1) * (1/2) = 1
    assert out.get(2, 2) == 1
    assert out.is_symmetric()


def test_upper_maps_need_a_symmetric_array():
    w = ShapedArray.from_rows([[1, 2], [3, 4]], R)
    for call, name in ((lambda: apply_c_up(w, 1), "upper c"), (lambda: apply_d_up(w, 1, 2), "upper d")):
        with pytest.raises(ShapeError, match=rf"^{name} needs a symmetric array: box \(1,2\) differs"):
            call()
