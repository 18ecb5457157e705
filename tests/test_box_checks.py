"""Box checks at the entry points of the maps, and the padded grid's boundary.

The kernels test no box: each public map checks its boxes once, and its
ShapeError names the map, the box and, for an order, the step.  On the padded
grid, row 0 holds the boundary and a negative index wraps, so a box that got
past the checks would corrupt data silently; these tests cover index 0 and
negative indices at every entry point.
"""

import random
import re

import pytest

from gburge.arrays import random_array, random_symmetric_array
from gburge.correspondences import (
    commutation_sides,
    composition_of_21,
    gburge,
    gburge_up,
    grsk,
    gschutz,
    gschutz_upper,
    inv_gburge,
    inv_grsk,
)
from gburge.localmaps import Grid, e_at
from gburge.shapes import Shape, ShapeError, rectangle
from gburge.values import GEOMETRIC_FLOAT, GEOMETRIC_RATIONAL, TROPICAL

R = GEOMETRIC_RATIONAL
SQUARE = random_array(rectangle(3, 3), R, random.Random(1))  # shape (3, 3, 3)
BIG = random_array(rectangle(4, 4), R, random.Random(3))
RAGGED = random_array(Shape((3, 2, 2)), R, random.Random(7))
CORNER = random_array(Shape((2, 1)), R, random.Random(8))


def big_but(parts):
    """An array of shape parts: the 4x4 square less some of its boxes."""
    return random_array(Shape(parts), R, random.Random(3))


ARRAY_CASES = [
    # (call, the whole error text)
    (lambda: commutation_sides(SQUARE, 1, 1), "commutation at (1,1) needs box (0,1), missing from shape (3, 3, 3)"),
    (lambda: commutation_sides(SQUARE, 0, 1), "commutation at (0,1): box (0,1) missing from shape (3, 3, 3)"),
    (lambda: commutation_sides(SQUARE, -1, 1), "commutation at (-1,1): box (-1,1) missing from shape (3, 3, 3)"),
    (lambda: commutation_sides(SQUARE, 2, 3), "commutation at (2,3) needs box (2,4), missing from shape (3, 3, 3)"),
    (lambda: commutation_sides(SQUARE, 2, 0), "commutation at (2,0): box (2,0) missing from shape (3, 3, 3)"),
    (lambda: commutation_sides(SQUARE, 4, 1), "commutation at (4,1): box (4,1) missing from shape (3, 3, 3)"),
    (lambda: composition_of_21(BIG, 0, 3), "the composition needs m >= 1 and q >= 3, got (0,3)"),
    (lambda: composition_of_21(BIG, -1, 3), "the composition needs m >= 1 and q >= 3, got (-1,3)"),
    (lambda: composition_of_21(BIG, 1, 2), "the composition needs m >= 1 and q >= 3, got (1,2)"),
    (lambda: composition_of_21(BIG, 2, 3), "the composition at (2,3) needs box (5, 3) in shape (4, 4, 4, 4)"),
    (lambda: composition_of_21(big_but((4, 4, 4, 2)), 1, 3),
     "the composition at (1,3) needs box (4, 3) in shape (4, 4, 4, 2)"),
    (lambda: composition_of_21(big_but((4, 4, 3, 3)), 1, 3),
     "the composition at (1,3) needs box (3, 4) in shape (4, 4, 3, 3)"),
    (lambda: composition_of_21(big_but((4, 4, 4, 3)), 1, 3),
     "the composition at (1,3) needs box (4, 4) in shape (4, 4, 4, 3)"),
    (lambda: commutation_sides(RAGGED, 2, 2), "commutation at (2,2) needs box (2,3), missing from shape (3, 2, 2)"),
    (lambda: commutation_sides(RAGGED, 3, 2), "commutation at (3,2) needs box (3,3), missing from shape (3, 2, 2)"),
    (lambda: commutation_sides(RAGGED, 1, 2), "commutation at (1,2) needs box (0,2), missing from shape (3, 2, 2)"),
    (lambda: commutation_sides(RAGGED, 4, 1), "commutation at (4,1): box (4,1) missing from shape (3, 2, 2)"),
    (lambda: commutation_sides(RAGGED, 2, -1), "commutation at (2,-1): box (2,-1) missing from shape (3, 2, 2)"),
    (lambda: gschutz(RAGGED), "the involution needs a rectangular shape, got (3, 2, 2)"),
    (lambda: gschutz_upper(CORNER), "the involution needs a rectangular shape, got (2, 1)"),
    # its own id: the text is gschutz's, and a repeated id would rename that case
    pytest.param(
        lambda: gschutz_upper(RAGGED), "the involution needs a rectangular shape, got (3, 2, 2)",
        id="gschutz_upper-ragged",
    ),
]


@pytest.mark.parametrize("call, message", ARRAY_CASES)
def test_entry_points_name_the_map_and_the_missing_box(call, message):
    with pytest.raises(ShapeError, match=f"^{re.escape(message)}$"):
        call()


def test_a_two_point_swap_needs_no_forward_neighbours():
    g = Grid.of(SQUARE)
    e_at(g, 3, 3, 1, 1)
    out = g.to_array()
    assert out.get(1, 1) == SQUARE.get(3, 3) and out.get(3, 3) == SQUARE.get(1, 1)


BAD_ORDERS = [
    # (order on the 2x2 square, the fault after the shape)
    ([(0, 1), (1, 1), (1, 2), (2, 1), (2, 2)], r"order\[0\] = \(0,1\) is not in the shape"),
    ([(1, 1), (-1, 1), (1, 2), (2, 1)], r"order\[1\] = \(-1,1\) is not in the shape"),
    ([(1, 1), (1, 2), (2, 2), (2, 1)], r"order\[2\] = \(2,2\) does not extend row 2 by one box"),
    ([(1, 1), (1, 1), (1, 2), (2, 1)], r"order\[1\] = \(1,1\) does not extend row 1 by one box"),
    ([(1, 1), (2, 1), (2, 2), (1, 2)], r"order\[2\] = \(2,2\) overtakes row 1"),
    ([(1, 1), (1, 2), (2, 1)], r"the order stops after 3 of 4 boxes"),
    ([], r"the order stops after 0 of 4 boxes"),
    ([(1, 0), (1, 1), (1, 2), (2, 1), (2, 2)], r"order\[0\] = \(1,0\) is not in the shape"),
    ([(1, 1), (1, -1), (2, 1), (2, 2)], r"order\[1\] = \(1,-1\) is not in the shape"),
    ([(1, 1), (1, 2), (2, 1), (3, 1)], r"order\[3\] = \(3,1\) is not in the shape"),
    ([(1, 1), (1, 2), (1, 3), (2, 1)], r"order\[2\] = \(1,3\) is not in the shape"),
]


@pytest.mark.parametrize("name, fn", [("grsk", grsk), ("gburge", gburge),
                                      ("inv_grsk", inv_grsk), ("inv_gburge", inv_gburge)])
@pytest.mark.parametrize("order, fault", BAD_ORDERS)
def test_an_invalid_order_names_the_map_and_its_first_bad_step(name, fn, order, fault):
    w = random_array(rectangle(2, 2), R, random.Random(5))
    message = rf"{name}: not a valid growth sequence for shape \(2, 2\): {fault}"
    with pytest.raises(ShapeError, match=f"^{message}$"):
        fn(w, order)


# -- the padded grid's boundary ----------------------------------------------------------


@pytest.fixture
def grids(monkeypatch):
    """Every grid handed back as an array during the test, in order."""
    seen = []
    hand_back = Grid.to_array

    def spy(self):
        seen.append(self)
        return hand_back(self)

    monkeypatch.setattr(Grid, "to_array", spy)
    return seen


def assert_boundary_intact(g):
    """Row 0 and column 0 still hold the domain's own corner and zero objects,
    and every row has its box count plus one cell."""
    zero, corner = g.domain.zero, g.domain.corner
    top, left = g.rows[0], [row[0] for row in g.rows]
    for edge in (top, left):
        assert edge[0] is zero and edge[1] is corner
        assert all(x is zero for x in edge[2:])
    assert len(top) == g.shape.n_cols + 1
    assert [len(row) - 1 for row in g.rows[1:]] == list(g.shape.parts)


@pytest.mark.parametrize("domain", [R, GEOMETRIC_FLOAT, TROPICAL], ids=lambda d: d.name)
def test_no_map_writes_into_the_boundary(grids, domain):
    """Every kernel runs here through an entry point: a and c in grsk, c and d
    in gburge, a and c^{-1} in inv_grsk, c^{-1} and d^{-1} in inv_gburge, b
    in gschutz and gschutz_upper, e in commutation_sides, a, d and d^{-1}
    with both A-parts in composition_of_21, and tau_up_at in gburge_up.  Each
    entry point hands back one grid, commutation_sides two."""
    rng = random.Random(6)
    handed_back = 0
    for shape in (Shape((2,)), Shape((4, 2, 1)), rectangle(3, 4), rectangle(4, 4)):
        w = random_array(shape, domain, rng)
        maps = [grsk, gburge, inv_grsk, inv_gburge]
        if shape.is_rectangular:
            maps += [gschutz, gschutz_upper]
        for fn in maps:
            fn(w)
        handed_back += len(maps)
    w = random_array(rectangle(4, 4), domain, rng)
    commutation_sides(w, 3, 2)
    composition_of_21(w, 1, 3)
    handed_back += 3
    # the restricted symmetric map hands back one grid, and its output is symmetric
    up = random_symmetric_array(Shape((4, 3, 2, 1)), domain, rng)
    before = len(grids)
    assert gburge_up(up).is_symmetric()
    assert len(grids) == before + 1
    handed_back += 1
    assert len(grids) == handed_back
    for g in grids:
        assert_boundary_intact(g)
