"""Dual-number arithmetic and log-log Jacobians of the correspondences."""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gburge.arrays import ShapedArray, random_array, random_symmetric_array
from gburge.calculus import Dual, abs_det, loglog_jacobian, verify_jacobians
from gburge.shapes import Shape, ShapeError, all_shapes, rectangle
from gburge.values import GEOMETRIC_FLOAT, GEOMETRIC_RATIONAL, DomainError

seeds = st.integers(0, 10_000)
shapes_to_7 = st.sampled_from(list(all_shapes(7)))


def rand(shape, seed):
    return random_array(shape, GEOMETRIC_FLOAT, random.Random(seed))


def dual(v, grad):
    return Dual(v, np.array(grad, dtype=float))


def test_dual_arithmetic():
    # the gradient is d log v / d log w: x = w_1 and y = w_2 carry e_1 and e_2
    x = dual(2.0, [1, 0])
    y = dual(3.0, [0, 1])
    s = x + y
    assert s.value == 5.0 and list(s.grad) == [2 / 5, 3 / 5]
    p = x * y
    assert p.value == 6.0 and list(p.grad) == [1, 1]
    q = x / y
    assert q.value == 2 / 3 and list(q.grad) == [1, -1]
    r = 1 / x
    assert r.value == 0.5 and list(r.grad) == [-1, 0]
    assert (x + 1).value == 3.0 and list((x + 1).grad) == [2 / 3, 0]
    assert (2 * x).value == 4.0 and list((2 * x).grad) == [1, 0]
    assert (x / 4).value == 0.5 and list((x / 4).grad) == [1, 0]


def test_dual_comparisons():
    x = dual(2.0, [1])
    assert x > 0 and x < 3


@pytest.mark.parametrize("zero", [0, 0.0, -0.0, Fraction(0), np.float64(0.0), False], ids=repr)
def test_dual_plus_zero_keeps_the_value_and_the_gradient(zero):
    # the general rule's factor x/(x + 0) is exactly 1.0, so every zero gives
    # the same bits; a float or int zero returns the Dual itself
    x = dual(1.5, [1.0, -2.0])
    for s in (x + zero, zero + x):
        assert s.value == x.value and s.grad.tobytes() == x.grad.tobytes()
        assert s is x or type(zero) not in (int, float)


def test_dual_harmonic_sum_gradient():
    # h(x,y) = xy/(x+y): d log h / d log x = y/(x+y), d log h / d log y = x/(x+y)
    x = dual(2.0, [1, 0])
    y = dual(4.0, [0, 1])
    h = GEOMETRIC_FLOAT.hsum(x, y)
    assert h.value == pytest.approx(8 / 6)
    assert h.grad[0] == pytest.approx(4 / 6, rel=1e-15)
    assert h.grad[1] == pytest.approx(2 / 6, rel=1e-15)


def _plus(x, y):
    s = x.value + y
    return Dual(s, x.grad * (x.value / s))


# Each operator's result built through the public constructor, from the
# log-gradient rules, by partner kind: with a Dual partner a product or
# quotient gives x.grad +- y.grad and a sum the weighted mean, bit for bit.
_PUBLIC_RESULTS = {
    "+": lambda x, y: Dual(x.value + y.value, x.grad * (x.value / (x.value + y.value))
                           + y.grad * (y.value / (x.value + y.value)))
    if isinstance(y, Dual) else _plus(x, y),
    "*": lambda x, y: Dual(x.value * y.value, x.grad + y.grad)
    if isinstance(y, Dual) else Dual(x.value * y, x.grad),
    "/": lambda x, y: Dual(x.value / y.value, x.grad - y.grad)
    if isinstance(y, Dual) else Dual(x.value / y, x.grad),
    "r+": _plus,
    "r*": lambda x, y: Dual(x.value * y, x.grad),
    "r/": lambda x, y: Dual(y / x.value, -x.grad),
}
_OPERATORS = {
    "+": lambda x, y: x + y,
    "*": lambda x, y: x * y,
    "/": lambda x, y: x / y,
    "r+": lambda x, y: y + x,
    "r*": lambda x, y: y * x,
    "r/": lambda x, y: y / x,
}
_values = st.floats(0.01, 100.0)
_grads = st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=4)
_duals = st.builds(dual, _values, _grads)
_partners = {
    "Dual": _duals,
    "float": _values,
    "int": st.integers(1, 1000),
}


def _same_bits(got, want):
    assert type(got) is Dual
    assert type(got.value) is float and got.value.hex() == want.value.hex()
    assert type(got.grad) is np.ndarray and got.grad.dtype == np.float64
    assert got.grad.tobytes() == want.grad.tobytes()


@pytest.mark.parametrize(
    "op, partner",
    # Dual op Dual never reaches a reflected method
    [(op, p) for op in sorted(_OPERATORS) for p in sorted(_partners) if not (op[0] == "r" and p == "Dual")],
)
@given(data=st.data())
def test_dual_operators_give_a_float_and_a_float64_gradient(op, partner, data):
    # with a Dual, float or int partner an operator skips the public
    # constructor's coercion; its result must equal what that constructor
    # gives from the log-gradient rules
    x = data.draw(_duals, label="x")
    y = data.draw(_partners[partner], label="y")
    if partner == "Dual" and len(y.grad) != len(x.grad):
        y = dual(y.value, np.resize(y.grad, len(x.grad)))
    _same_bits(_OPERATORS[op](x, y), _PUBLIC_RESULTS[op](x, y))


@pytest.mark.parametrize("op", sorted(_OPERATORS))
@pytest.mark.parametrize("y", [Fraction(1, 3), np.float64(0.75), True], ids=repr)
def test_dual_operators_coerce_any_other_partner(op, y):
    # an np.float64 partner makes a numpy scalar value, which the public
    # constructor turns back into a float; a Fraction or bool one a float
    x = dual(1.5, [1.0, -2.0])
    _same_bits(_OPERATORS[op](x, y), _PUBLIC_RESULTS[op](x, y))


def test_dual_compares_with_duals_and_numbers():
    x, y = dual(2.0, [1.0]), dual(3.0, [0.0])
    assert x < y and y > x and not x > y and not y < x
    assert x < 2.5 and x > 1 and not x < Fraction(2) and x > np.float64(1.5)


def test_abs_det_basics():
    assert abs_det(np.eye(4)) == pytest.approx(1.0)
    assert abs_det(np.diag([2.0, 0.5])) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        abs_det(np.ones((2, 3)))


def test_identity_map_jacobian():
    # each entry is seeded with its row of the identity, read back unscaled
    arr = rand(Shape((3, 2)), 1)
    assert np.array_equal(loglog_jacobian("identity", arr), np.eye(5))


def test_unsupported_map_and_domain():
    arr = rand(rectangle(2, 2), 0)
    with pytest.raises(ValueError):
        loglog_jacobian("shuffle", arr)
    exact = random_array(rectangle(2, 2), GEOMETRIC_RATIONAL, random.Random(0))
    with pytest.raises(DomainError):
        loglog_jacobian("grsk", exact)
    with pytest.raises(ValueError):
        loglog_jacobian("grsk", arr, mode="complex-step")


def test_gburge_up_needs_symmetry():
    arr = rand(rectangle(2, 2), 3)
    with pytest.raises(ShapeError, match=r"^gburge_up needs a symmetric array: box \(1,2\) differs"):
        loglog_jacobian("gburge_up", arr)


def test_all_ones_examples():
    ones = ShapedArray.from_rows([[1.0, 1.0], [1.0, 1.0]], GEOMETRIC_FLOAT)
    assert abs_det(loglog_jacobian("gburge", ones)) == pytest.approx(1.0, abs=1e-8)
    sym = ShapedArray.from_rows([[1.0] * 3] * 3, GEOMETRIC_FLOAT)
    jac = loglog_jacobian("gburge_up", sym)
    assert jac.shape == (6, 6)
    assert abs_det(jac) == pytest.approx(1.0, abs=1e-8)


@given(shapes_to_7, seeds, st.sampled_from(["grsk", "gburge"]))
@settings(max_examples=30, deadline=None)
def test_correspondences_are_unimodular(shape, seed, map_name):
    jac = loglog_jacobian(map_name, rand(shape, seed))
    assert abs_det(jac) == pytest.approx(1.0, abs=1e-9)


@given(seeds, st.integers(1, 3))
@settings(max_examples=15, deadline=None)
def test_schutz_is_unimodular(seed, m):
    arr = rand(rectangle(m, m + 1), seed)
    assert abs_det(loglog_jacobian("gschutz", arr)) == pytest.approx(1.0, abs=1e-9)


@given(seeds)
@settings(max_examples=15, deadline=None)
def test_upper_map_is_unimodular(seed):
    rng = random.Random(seed)
    arr = random_symmetric_array(Shape((3, 3, 3)), GEOMETRIC_FLOAT, rng)
    assert abs_det(loglog_jacobian("gburge_up", arr)) == pytest.approx(1.0, abs=1e-9)


def _maps_on(shape):
    return (["grsk", "gburge"] + (["gschutz"] if shape.is_rectangular else [])
            + (["gburge_up"] if shape.is_self_conjugate() else []))


@given(st.sampled_from(list(all_shapes(8))), seeds, st.data())
@settings(max_examples=40, deadline=None)
def test_dual_matches_central_difference(shape, seed, data):
    # every map on the shapes it takes: gschutz on rectangles, gburge_up on
    # self-conjugate shapes (with a symmetric input)
    map_name = data.draw(st.sampled_from(_maps_on(shape)), label="map")
    draw = random_symmetric_array if map_name == "gburge_up" else random_array
    arr = draw(shape, GEOMETRIC_FLOAT, random.Random(seed))
    jd = loglog_jacobian(map_name, arr)
    jf = loglog_jacobian(map_name, arr, mode="central-difference", h=1e-5)
    assert float(np.max(np.abs(jd - jf))) <= 10 * 1e-5**2 + 1e-10
    assert abs(abs_det(jd) - 1.0) <= 1e-12


def test_verify_jacobians_reports():
    rep = verify_jacobians(points=1, seed=2, max_boxes=5)
    assert rep["test"] == "jacobian"
    assert rep["failures"] == 0 and rep["pass"] is True
    rep = verify_jacobians(symmetric=True, points=1, seed=2)
    assert rep["test"] == "jacobian-symmetric"
    assert rep["failures"] == 0 and rep["pass"] is True


def test_verify_jacobians_reports_a_dual_against_difference_gap():
    # a gap is never negative, so a negative fd_tol fails the comparison at point 0
    rep = verify_jacobians(points=1, seed=0, max_boxes=2, fd_tol=-1.0)
    assert rep["failures"] == 1 and rep["pass"] is False
    cex = rep["first_counterexample"]
    assert list(cex) == ["input", "map", "dual_vs_fd_gap"]
    assert cex["map"] == "grsk" and cex["dual_vs_fd_gap"] >= 0
