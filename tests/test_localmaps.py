"""Local birational maps and their piecewise-linear shadows, run as kernels on
a padded grid: the kernels check no box, so each test picks boxes the map
finds."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from gburge.arrays import ShapedArray, random_array
from gburge.correspondences import _left, gburge, gburge_up
from gburge.localmaps import Grid, a_at, b_at, c_at, d_at, e_at, inv_c_at, inv_d_at
from gburge.shapes import ShapeError, rectangle
from gburge.values import GEOMETRIC_FLOAT, GEOMETRIC_RATIONAL, TROPICAL, DomainError, RationalDomain

R = GEOMETRIC_RATIONAL
seeds = st.integers(0, 10_000)
domains = st.sampled_from([R, TROPICAL])


def rand(shape, seed, domain=R):
    return random_array(shape, domain, random.Random(seed))


def run(w, *steps):
    """w after the kernel steps (kernel, *args), in order, on one grid."""
    g = Grid.of(w)
    for kernel, *args in steps:
        kernel(g, *args)
    return g.to_array()


@given(seeds, domains)
def test_a_is_an_involution(seed, dom):
    w = rand(rectangle(3, 3), seed, dom)
    for box in [(1, 1), (1, 2), (2, 1), (2, 2)]:
        assert run(w, (a_at, *box), (a_at, *box)) == w


@given(seeds, domains)
def test_b_is_an_involution(seed, dom):
    w = rand(rectangle(3, 3), seed, dom)
    for box in [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (3, 2)]:
        assert run(w, (b_at, *box), (b_at, *box)) == w


@given(seeds, domains)
def test_c_inverts(seed, dom):
    w = rand(rectangle(3, 3), seed, dom)
    for box in [(1, 1), (2, 2), (3, 3), (1, 3)]:
        assert run(w, (c_at, *box), (inv_c_at, *box)) == w
        assert run(w, (inv_c_at, *box), (c_at, *box)) == w


@given(seeds, domains)
def test_d_inverts(seed, dom):
    w = rand(rectangle(3, 3), seed, dom)
    for ij, kl in [((1, 1), (3, 3)), ((1, 1), (2, 2)), ((2, 1), (3, 3)), ((1, 2), (3, 3))]:
        assert run(w, (d_at, *ij, *kl), (inv_d_at, *ij, *kl)) == w
        assert run(w, (inv_d_at, *ij, *kl), (d_at, *ij, *kl)) == w


def _moves(w, kernel, *args):
    """The boxes around (2,2) of w whose raised value changes the new value
    kernel writes at (2,2)."""
    base = run(w, (kernel, 2, 2, *args)).get(2, 2)
    rows = w.to_lists()
    moved = set()
    for i, j in [(1, 2), (2, 1), (3, 2), (2, 3), (3, 3), (1, 1)]:
        bumped = [list(row) for row in rows]
        bumped[i - 1][j - 1] *= 3
        out = run(ShapedArray.from_rows(bumped, w.domain), (kernel, 2, 2, *args))
        if out.get(2, 2) != base:
            moved.add((i, j))
    return moved


def test_a_needs_both_forward_neighbours():
    # a reads A from the two boxes behind (i,j) and H from the two ahead of it
    w = rand(rectangle(3, 3), 0)
    assert _moves(w, a_at) == {(1, 2), (2, 1), (3, 2), (2, 3)}


def test_b_needs_the_right_neighbour():
    # b reads the box to the right of (i,j), never the one below it
    w = rand(rectangle(3, 3), 0)
    assert _moves(w, b_at) == {(1, 2), (2, 1), (2, 3)}


DOMAINS = [R, GEOMETRIC_FLOAT, TROPICAL]
KERNEL_STEPS = [
    # (kernel, its arguments on a 3x3 square, the boxes it writes)
    (a_at, (2, 2), {(2, 2)}),
    (b_at, (3, 2), {(3, 2)}),
    (c_at, (2, 3), {(2, 3)}),
    (inv_c_at, (3, 1), {(3, 1)}),
    (d_at, (1, 2, 2, 3), {(1, 2), (2, 3)}),
    (inv_d_at, (1, 1, 3, 3), {(1, 1), (3, 3)}),
    (e_at, (1, 3, 3, 1), {(1, 3), (3, 1)}),
]


@pytest.mark.parametrize("dom", DOMAINS, ids=lambda d: d.name)
@pytest.mark.parametrize("kernel, args, written", [pytest.param(*step, id=step[0].__name__) for step in KERNEL_STEPS])
def test_a_kernel_writes_its_own_boxes_and_no_other_cell(kernel, args, written, dom):
    g = Grid.of(rand(rectangle(3, 3), 8, dom))
    before = [list(row) for row in g.rows]
    kernel(g, *args)
    changed = {(i, j) for i, row in enumerate(g.rows) for j, x in enumerate(row) if x != before[i][j]}
    assert changed <= written
    if not dom.is_tropical:
        # a generic geometric input moves every box the kernel writes;
        # a piecewise-linear map may fix one
        assert changed == written


def test_a_tropical_example():
    w = ShapedArray.from_rows([[0.0, 1.0], [2.0, 3.0]], TROPICAL)
    # A = max(0, 0) = 0, H = min(2, 1) = 1, new value = 0 + 1 - 0
    assert run(w, (a_at, 1, 1)).get(1, 1) == 1.0


def test_c_tropical_example():
    w = ShapedArray.from_rows([[0.0, 1.0], [2.0, 3.0]], TROPICAL)
    assert run(w, (c_at, 2, 2)).get(2, 2) == 5.0


def test_d_rational_example():
    w = ShapedArray.from_rows([[2, 1], [4, 3]], R)
    out = run(w, (d_at, 1, 1, 2, 2))
    assert out.get(1, 1) == Fraction(6, 5)
    assert out.get(2, 2) == 1
    assert out.get(1, 2) == 1 and out.get(2, 1) == 4


def test_d_tropical_zeros_are_fixed():
    w = ShapedArray.from_rows([[0.0, 0.0], [0.0, 0.0]], TROPICAL)
    assert run(w, (d_at, 1, 1, 2, 2)) == w


def test_e_swaps():
    w = ShapedArray.from_rows([[1, 2], [3, 4]], R)
    out = run(w, (e_at, 1, 1, 2, 2))
    assert out.get(1, 1) == 4 and out.get(2, 2) == 1
    assert run(out, (e_at, 1, 1, 2, 2)) == w


def test_c_uses_corner_convention_at_the_origin():
    w = ShapedArray.from_rows([[3]], R)
    # A = 1/2 + 1/2 = 1
    assert run(w, (c_at, 1, 1)).get(1, 1) == 3


def test_upper_map_runs_in_max_plus():
    up = ShapedArray.from_rows([[1.0, 2.0], [2.0, -3.0]], TROPICAL)
    assert gburge_up(up) == gburge(up)


def test_upper_maps_need_a_symmetric_array():
    w = ShapedArray.from_rows([[1, 2], [3, 4]], R)
    with pytest.raises(ShapeError, match=r"^gburge_up needs a symmetric array: box \(1,2\) differs"):
        gburge_up(w)


def test_c_up_first_diagonal_box():
    up = ShapedArray.from_rows([[Fraction(3), 1], [1, 1]], R)
    # the entry above the first diagonal box counts as 1/2
    out = run(up, (c_at, 1, 1))
    assert out.get(1, 1) == 3
    assert out.is_symmetric()


def test_c_up_uses_the_entry_above():
    up = ShapedArray.from_rows([[1, Fraction(5)], [Fraction(5), Fraction(7)]], R)
    out = run(up, (c_at, 2, 2))
    assert out.get(2, 2) == 2 * 5 * 7
    assert out.is_symmetric()


def test_d_up_example():
    up = ShapedArray.from_rows([[1, 1], [1, 1]], R)
    out = run(up, (d_at, 1, 1, 2, 2))
    # z*A = 2 * (1/2) * 1 = 1; new w_11 = hsum(1, 1) = 1/2
    assert out.get(1, 1) == Fraction(1, 2)
    # new w_22 = (1/1 + 1/1) * (1/2) = 1
    assert out.get(2, 2) == 1
    assert out.is_symmetric()


# -- d and d^{-1} in ratio form, against their earlier forms -------------------------------


def d_nine_ops(g, i, j, k, l, A=None):
    """d as written before its ratio form, in nine domain ops:
    w'_{k,l} = ((zA odiv w^2) oplus (1 odiv w)) otimes H."""
    dom, r = g.domain, g.rows
    if A is None:
        A = dom.oplus(r[i - 1][j], r[i][j - 1])
    H = dom.hsum(r[i + 1][j], r[i][j + 1])
    w, zA = r[i][j], dom.otimes(r[k][l], A)
    r[i][j] = dom.hsum(w, zA)
    r[k][l] = dom.otimes(dom.oplus(dom.odiv(zA, dom.otimes(w, w)), dom.odiv(dom.one, w)), H)


def inv_d_eight_ops(g, i, j, k, l, A=None):
    """d^{-1} as written before its ratio form, in eight domain ops:
    w_{k,l} = (w' otimes w'_{k,l} otimes w) odiv (A otimes H)."""
    dom, r = g.domain, g.rows
    if A is None:
        A = dom.oplus(r[i - 1][j], r[i][j - 1])
    H = dom.hsum(r[i + 1][j], r[i][j + 1])
    wp, zp = r[i][j], r[k][l]
    r[i][j] = w = dom.oplus(wp, dom.odiv(H, zp))
    r[k][l] = dom.odiv(dom.otimes(dom.otimes(wp, zp), w), dom.otimes(A, H))


# (i,j), (k,l) on a 3x3 square: the chains of tau and the 21-map composition's far box
D_BOXES = [((1, 1), (2, 2)), ((1, 1), (3, 3)), ((2, 2), (3, 3)), ((2, 1), (3, 3)),
           ((1, 2), (3, 3)), ((2, 1), (3, 2))]
PAIRS = [(d_at, d_nine_ops), (inv_d_at, inv_d_eight_ops)]


def grids_after(w, kernels, ij, kl, shifted):
    """The grid rows each kernel leaves from w at (ij, kl); with shifted, every
    kernel takes the 21-map composition's A, the left neighbour alone."""
    out = []
    for kernel in kernels:
        g = Grid.of(w)
        A = _left(g, *ij) if shifted else None
        kernel(g, *ij, *kl, A=A)
        out.append(g.rows)
    return out


@given(seeds, domains, st.booleans())
def test_ratio_forms_equal_the_earlier_forms_over_fractions_and_max_plus(seed, dom, shifted):
    # max-plus entries are integers, so both forms are exact there too
    w = rand(rectangle(3, 3), seed, dom)
    for ij, kl in D_BOXES:
        for pair in PAIRS:
            new, old = grids_after(w, pair, ij, kl, shifted)
            assert new == old


@given(seeds, st.booleans())
def test_ratio_forms_match_the_earlier_forms_on_floats(seed, shifted):
    # entries log-uniform on [1/e, e]; the golden maps moved by at most 1.2e-15
    w = rand(rectangle(3, 3), seed, GEOMETRIC_FLOAT)
    for ij, kl in D_BOXES:
        for pair in PAIRS:
            new, old = grids_after(w, pair, ij, kl, shifted)
            for x, y in zip(sum(new, []), sum(old, [])):
                assert abs(x - y) <= 1e-14 * max(abs(x), abs(y))


class CountingRational(RationalDomain):
    """The rational domain, counting the calls of its four ops."""

    def __init__(self):
        super().__init__("counting-rational", R.corner, R.zero, R.one)
        self.calls = 0

    def oplus(self, x, y):
        self.calls += 1
        return super().oplus(x, y)

    def otimes(self, x, y):
        self.calls += 1
        return super().otimes(x, y)

    def odiv(self, x, y):
        self.calls += 1
        return super().odiv(x, y)

    def hsum(self, x, y):
        self.calls += 1
        return super().hsum(x, y)


@pytest.mark.parametrize(
    "kernel, ops", [(d_at, 7), (inv_d_at, 7), (d_nine_ops, 9), (inv_d_eight_ops, 8)],
    ids=lambda v: getattr(v, "__name__", str(v)),
)
def test_ratio_forms_take_seven_domain_ops(kernel, ops):
    w = rand(rectangle(3, 3), 1)
    dom = CountingRational()
    for ij, kl in D_BOXES:
        for shifted in (False, True):
            g = Grid(w.shape, dom, w.rows)
            A = _left(g, *ij) if shifted else None
            dom.calls = 0
            kernel(g, *ij, *kl, A=A)
            # a given A saves the oplus that reads it
            assert dom.calls == ops - shifted


def test_the_tropical_zero_never_reaches_d_as_an_entry():
    # at zA = -inf, d would divide by w' = min(w, zA) = -inf; the array
    # refuses the entry first, naming its box
    with pytest.raises(DomainError, match=r"^box \(2,2\): tropical interior entries must be finite"):
        ShapedArray.from_rows([[0, 1, 2], [3, -math.inf, 1], [2, 0.5, 1.5]], TROPICAL)
