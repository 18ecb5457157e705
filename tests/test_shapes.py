"""Shape, box and growth-sequence combinatorics."""

import random
import re

import pytest
from hypothesis import given, strategies as st

from gburge.shapes import (
    Box,
    Shape,
    ShapeError,
    all_growth_sequences,
    all_shapes,
    growth_sequence_error,
    random_growth_sequence,
    random_shape,
    rectangle,
    shape_from_boxes,
    symmetric_closure,
)

shapes_to_6 = st.sampled_from(list(all_shapes(6)))


def test_parts_must_be_weakly_decreasing_positive():
    Shape((3, 3, 1))
    Shape(())
    with pytest.raises(ShapeError):
        Shape((1, 2))
    with pytest.raises(ShapeError):
        Shape((2, 0))
    with pytest.raises(ShapeError):
        Shape((2, -1))


def test_parts_must_be_integers_not_truncated():
    for parts in ((2.7, "1"), (2, 1.0), ("1",)):
        with pytest.raises(ShapeError, match=re.escape(f"must be integers, got {list(parts)}")):
            Shape(parts)


def test_basic_queries():
    s = Shape((3, 3, 1))
    assert s.n_rows == 3
    assert s.n_cols == 3
    assert s.size == 7
    assert not s.is_rectangular
    assert rectangle(2, 4).is_rectangular
    assert s.row_length(3) == 1
    assert s.row_length(4) == 0
    assert (2, 3) in s
    assert (3, 2) not in s
    assert (0, 1) not in s


def test_boxes_row_major():
    assert list(Shape((2, 1)).boxes()) == [Box(1, 1), Box(1, 2), Box(2, 1)]


def test_border_and_corner_boxes():
    s = Shape((3, 3, 1))
    assert set(s.corner_boxes()) == {Box(2, 3), Box(3, 1)}
    assert Box(1, 3) in s.border_boxes()
    assert Box(2, 2) in s.border_boxes()
    assert Box(1, 2) not in s.border_boxes()


def test_remove_box_only_at_corners():
    s = Shape((3, 3, 1))
    assert s.remove_box((3, 1)) == Shape((3, 3))
    assert s.remove_box((2, 3)) == Shape((3, 2, 1))
    with pytest.raises(ShapeError):
        s.remove_box((1, 3))


def test_conjugate():
    assert Shape((3, 3, 1)).conjugate() == Shape((3, 2, 2))
    assert Shape((3, 2, 2)).is_self_conjugate() is False
    assert Shape((3, 1, 1)).is_self_conjugate()


@given(shapes_to_6)
def test_conjugate_is_an_involution(s):
    assert s.conjugate().conjugate() == s
    assert s.conjugate().size == s.size


@given(shapes_to_6)
def test_symmetric_closure_contains_and_fixed(s):
    c = symmetric_closure(s)
    assert c.is_self_conjugate()
    assert all(b in c for b in s.boxes())
    assert symmetric_closure(c) == c


def test_shape_from_boxes():
    assert shape_from_boxes([(1, 1), (1, 2), (2, 1)]) == Shape((2, 1))
    with pytest.raises(ShapeError):
        shape_from_boxes([(1, 1), (2, 2)])


def test_canonical_growth_sequence_is_valid():
    s = Shape((3, 2))
    seq = [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2)]
    assert growth_sequence_error(s, seq) is None
    assert seq == list(s.boxes())


def test_invalid_growth_sequences_rejected():
    s = Shape((2, 2))
    assert growth_sequence_error(s, [(1, 1), (2, 2), (1, 2), (2, 1)]) is not None
    assert growth_sequence_error(s, [(1, 1), (1, 2), (2, 1)]) is not None
    assert growth_sequence_error(s, [(1, 1), (1, 2), (2, 1), (2, 1)]) is not None


def test_growth_sequence_counts_match_standard_tableaux():
    # one growth sequence per standard filling of the shape
    assert len(list(all_growth_sequences(Shape((2, 2))))) == 2
    assert len(list(all_growth_sequences(Shape((3, 3))))) == 5
    assert len(list(all_growth_sequences(Shape((2, 1))))) == 2
    assert len(list(all_growth_sequences(Shape((4,))))) == 1


def test_growth_sequence_totals_by_size():
    # summed over all shapes of n boxes this counts involutions of {1..n}
    totals = {}
    for s in all_shapes(7):
        totals[s.size] = totals.get(s.size, 0) + len(list(all_growth_sequences(s)))
    assert [totals[n] for n in range(1, 8)] == [1, 2, 4, 10, 26, 76, 232]


def _boxes(digits):
    """'1112 21' -> [(1, 1), (1, 2), (2, 1)]: one box per pair of digits."""
    digits = digits.replace(" ", "")
    return [(int(digits[k]), int(digits[k + 1])) for k in range(0, len(digits), 2)]


def test_all_growth_sequences_order_is_pinned():
    # the enumeration order fixes the order of the order-independence comparisons
    assert list(all_growth_sequences(Shape((3, 2, 1)))) == [_boxes(s) for s in (
        "11 12 13 21 22 31", "11 12 13 21 31 22", "11 12 21 13 22 31", "11 12 21 13 31 22",
        "11 12 21 22 13 31", "11 12 21 22 31 13", "11 12 21 31 13 22", "11 12 21 31 22 13",
        "11 21 12 13 22 31", "11 21 12 13 31 22", "11 21 12 22 13 31", "11 21 12 22 31 13",
        "11 21 12 31 13 22", "11 21 12 31 22 13", "11 21 31 12 13 22", "11 21 31 12 22 13",
    )]
    assert list(all_growth_sequences(Shape((2, 2, 1)))) == [_boxes(s) for s in (
        "11 12 21 22 31", "11 12 21 31 22", "11 21 12 22 31", "11 21 12 31 22", "11 21 31 12 22",
    )]


@pytest.mark.parametrize("parts, seed, want", [
    ((3, 2, 1), 0, "11 21 12 22 31 13"),
    ((4, 4, 2), 7, "11 12 21 31 13 14 22 32 23 24"),
    ((5, 3, 3, 1), 42, "11 12 21 13 14 15 22 23 31 32 33 41"),
])
def test_random_growth_sequence_draws_are_pinned(parts, seed, want):
    assert random_growth_sequence(Shape(parts), random.Random(seed)) == _boxes(want)


def test_all_shapes_counts_partitions():
    by_size = {}
    for s in all_shapes(6):
        by_size[s.size] = by_size.get(s.size, 0) + 1
    assert [by_size[n] for n in range(1, 7)] == [1, 2, 3, 5, 7, 11]


@given(st.integers(0, 10_000))
def test_random_growth_sequence_is_valid(seed):
    rng = random.Random(seed)
    s = random_shape(rng, 4, 4)
    assert 1 <= s.n_rows <= 4 and 1 <= s.n_cols <= 4
    seq = random_growth_sequence(s, rng)
    assert growth_sequence_error(s, seq) is None


def test_upper_part_and_diagonal():
    s = Shape((3, 3, 3))
    assert s.upper_part() == [(1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3)]


@given(shapes_to_6)
def test_upper_part_is_an_order_of_symmetric_diagrams(shape):
    """Each prefix of the upper part, with its mirror boxes, is a Young
    diagram: the growth order of the restricted symmetric map."""
    sym = symmetric_closure(shape)
    seq = sym.upper_part()
    for k in range(1, len(seq) + 1):
        shape_from_boxes({b for (i, j) in seq[:k] for b in ((i, j), (j, i))})
    assert Shape((3, 2, 1)).upper_part() == [(1, 1), (1, 2), (1, 3), (2, 2)]
