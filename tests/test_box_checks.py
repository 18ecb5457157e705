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
    rho,
    sigma,
    tau,
    tau_up,
)
from gburge.localmaps import (
    Grid,
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
from gburge.shapes import Shape, ShapeError, rectangle
from gburge.values import GEOMETRIC_FLOAT, GEOMETRIC_RATIONAL, TROPICAL

R = GEOMETRIC_RATIONAL
SQUARE = random_array(rectangle(3, 3), R, random.Random(1))  # shape (3, 3, 3)
WIDE = random_array(rectangle(2, 3), R, random.Random(2))  # shape (3, 3)
BIG = random_array(rectangle(4, 4), R, random.Random(3))
SYMMETRIC = random_symmetric_array(rectangle(3, 3), R, random.Random(4))

ARRAY_CASES = [
    # (call, the whole error text)
    (lambda: apply_a(SQUARE, 3, 1), "a at (3,1) needs box (4,1), missing from shape (3, 3, 3)"),
    (lambda: apply_a(SQUARE, 1, 3), "a at (1,3) needs box (1,4), missing from shape (3, 3, 3)"),
    (lambda: apply_a(SQUARE, 0, 2), "a at (0,2): box (0,2) missing from shape (3, 3, 3)"),
    (lambda: apply_a(SQUARE, -1, 1), "a at (-1,1): box (-1,1) missing from shape (3, 3, 3)"),
    (lambda: apply_b(SQUARE, 2, 3), "b at (2,3) needs box (2,4), missing from shape (3, 3, 3)"),
    (lambda: apply_b(SQUARE, 1, 0), "b at (1,0): box (1,0) missing from shape (3, 3, 3)"),
    (lambda: apply_c(SQUARE, 0, 1), "c at (0,1): box (0,1) missing from shape (3, 3, 3)"),
    (lambda: apply_c(SQUARE, -1, 3), "c at (-1,3): box (-1,3) missing from shape (3, 3, 3)"),
    (lambda: apply_c(SQUARE, 4, 1), "c at (4,1): box (4,1) missing from shape (3, 3, 3)"),
    (lambda: inv_c(SQUARE, 1, 0), "inverse c at (1,0): box (1,0) missing from shape (3, 3, 3)"),
    (lambda: inv_c(SQUARE, -2, -2), "inverse c at (-2,-2): box (-2,-2) missing from shape (3, 3, 3)"),
    (lambda: apply_d(SQUARE, (1, 1), (0, 1)), "d at (1,1) needs box (0,1), missing from shape (3, 3, 3)"),
    (lambda: apply_d(SQUARE, (3, 3), (1, 1)), "d at (3,3) needs box (4,3), missing from shape (3, 3, 3)"),
    (lambda: apply_d(SQUARE, (-1, 1), (2, 2)), "d at (-1,1): box (-1,1) missing from shape (3, 3, 3)"),
    (lambda: apply_d(SQUARE, (2, 2), (2, 2)), "d at (2,2) needs two distinct boxes, got (2,2) twice"),
    (lambda: inv_d(SQUARE, (1, 1), (4, 4)), "inverse d at (1,1) needs box (4,4), missing from shape (3, 3, 3)"),
    (lambda: inv_d(SQUARE, (0, 0), (1, 1)), "inverse d at (0,0): box (0,0) missing from shape (3, 3, 3)"),
    (lambda: inv_d(SQUARE, (1, 1), (1, 1)), "inverse d at (1,1) needs two distinct boxes, got (1,1) twice"),
    (lambda: apply_e(SQUARE, (1, 1), (0, 0)), "e at (1,1) needs box (0,0), missing from shape (3, 3, 3)"),
    (lambda: apply_e(SQUARE, (-3, 1), (1, 1)), "e at (-3,1): box (-3,1) missing from shape (3, 3, 3)"),
    (lambda: apply_e(SQUARE, (3, 3), (3, 3)), "e at (3,3) needs two distinct boxes, got (3,3) twice"),
    (lambda: apply_c_up(SYMMETRIC, 0), "upper c at (0,0): box (0,0) missing from shape (3, 3, 3)"),
    (lambda: apply_c_up(SYMMETRIC, -1), "upper c at (-1,-1): box (-1,-1) missing from shape (3, 3, 3)"),
    (lambda: apply_c_up(SYMMETRIC, 4), "upper c at (4,4): box (4,4) missing from shape (3, 3, 3)"),
    (lambda: apply_d_up(SYMMETRIC, 3, 1), "upper d at (3,3) needs box (4,3), missing from shape (3, 3, 3)"),
    (lambda: apply_d_up(SYMMETRIC, 1, 0), "upper d at (1,1) needs box (0,0), missing from shape (3, 3, 3)"),
    (lambda: apply_d_up(SYMMETRIC, 2, 2), "upper d at (2,2) needs two distinct boxes, got (2,2) twice"),
    (lambda: rho(SQUARE, 0, 1), "rho at (0,1): box (0,1) missing from shape (3, 3, 3)"),
    (lambda: rho(SQUARE, -1, -1), "rho at (-1,-1): box (-1,-1) missing from shape (3, 3, 3)"),
    (lambda: rho(SQUARE, 4, 1), "rho at (4,1): box (4,1) missing from shape (3, 3, 3)"),
    (lambda: sigma(WIDE, 2, 3), "sigma at (2,3) needs box (2,4), missing from shape (3, 3)"),
    (lambda: sigma(WIDE, 0, 0), "sigma at (0,0): box (0,0) missing from shape (3, 3)"),
    (lambda: sigma(WIDE, -1, 2), "sigma at (-1,2): box (-1,2) missing from shape (3, 3)"),
    (lambda: tau(WIDE, 3, 3), "tau at (3,3): box (3,3) missing from shape (3, 3)"),
    (lambda: tau(WIDE, 0, 2), "tau at (0,2): box (0,2) missing from shape (3, 3)"),
    (lambda: tau(WIDE, 2, -1), "tau at (2,-1): box (2,-1) missing from shape (3, 3)"),
    (lambda: tau_up(SYMMETRIC, 0, 1), "upper tau at (0,1): box (0,1) missing from shape (3, 3, 3)"),
    (lambda: tau_up(SYMMETRIC, -1, 2), "upper tau at (-1,2): box (-1,2) missing from shape (3, 3, 3)"),
    (lambda: tau_up(SYMMETRIC, 4, 4), "upper tau at (4,4): box (4,4) missing from shape (3, 3, 3)"),
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
]


@pytest.mark.parametrize("call, message", ARRAY_CASES)
def test_entry_points_name_the_map_and_the_missing_box(call, message):
    with pytest.raises(ShapeError, match=f"^{re.escape(message)}$"):
        call()




def test_a_two_point_swap_needs_no_forward_neighbours():
    out = apply_e(SQUARE, (3, 3), (1, 1))
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
    rng = random.Random(6)
    for shape in (Shape((2,)), Shape((4, 2, 1)), rectangle(3, 4), rectangle(4, 4)):
        w = random_array(shape, domain, rng)
        maps = [grsk, gburge, inv_grsk, inv_gburge]
        if shape.is_rectangular:
            maps += [gschutz, gschutz_upper]
        for fn in maps:
            fn(w)
        k, l = shape.corner_boxes()[-1]
        rho(w, k, l)
        tau(w, k, l)
        sigma(w, 1, 1)
    w = random_array(rectangle(4, 4), domain, rng)
    commutation_sides(w, 3, 2)
    composition_of_21(w, 1, 3)
    apply_a(w, 2, 2)
    apply_b(w, 4, 1)
    apply_c(w, 1, 1)
    inv_c(w, 4, 4)
    apply_d(w, (1, 1), (4, 4))
    inv_d(w, (3, 3), (1, 4))
    apply_e(w, (1, 1), (4, 4))
    if not domain.is_tropical:
        # each restricted symmetric map hands back one grid, and its output is symmetric
        up = random_symmetric_array(Shape((4, 3, 2, 1)), domain, rng)
        before = len(grids)
        for out in (gburge_up(up), tau_up(up, 2, 3), apply_c_up(up, 2), apply_d_up(up, 1, 2)):
            assert out.is_symmetric()
        assert len(grids) == before + 4
    assert len(grids) > 40
    for g in grids:
        assert_boundary_intact(g)
