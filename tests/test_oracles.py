"""Lattice-path enumeration and the path/output identities."""

import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from gburge import oracles
from gburge.arrays import ShapedArray, random_array
from gburge.correspondences import run_trials
from gburge.oracles import (
    EnumerationLimitError,
    enum_nonintersecting,
    enum_paths,
    is_persymmetric,
    path_sum,
    prop4_outcomes,
    prop43_outcomes,
    random_persymmetric_square_weights,
    replica_decomposition_outcomes,
    replica_sum,
)
from gburge.shapes import Shape, all_shapes, rectangle
from gburge.values import GEOMETRIC_RATIONAL, TROPICAL, LogDomain, RationalDomain

R = GEOMETRIC_RATIONAL
seeds = st.integers(0, 10_000)


def rand(shape, seed):
    return random_array(shape, R, random.Random(seed))


def counterexamples(outcomes):
    """The outcomes of a check that are counterexamples (a pass is None)."""
    return [o for o in outcomes if o is not None]


def test_enum_paths_counts():
    assert len(enum_paths(2, 2)) == 2
    assert len(enum_paths(3, 3)) == 6
    assert len(enum_paths(1, 5)) == 1
    assert len(enum_paths(5, 1, dual=True)) == 1
    for m in range(1, 6):
        for n in range(1, 6):
            expected = comb(m + n - 2, m - 1)
            assert len(enum_paths(m, n)) == expected
            assert len(enum_paths(m, n, dual=True)) == expected


def test_paths_are_monotone_with_correct_endpoints():
    for path in enum_paths(3, 4):
        assert path.start == (1, 1) and path.end == (3, 4)
        for (i1, j1), (i2, j2) in zip(path.points, path.points[1:]):
            assert (i2 - i1, j2 - j1) in {(1, 0), (0, 1)}
    for path in enum_paths(3, 4, dual=True):
        assert path.start == (3, 1) and path.end == (1, 4)
        for (i1, j1), (i2, j2) in zip(path.points, path.points[1:]):
            assert (i2 - i1, j2 - j1) in {(-1, 0), (0, 1)}


def test_enumeration_guard():
    with pytest.raises(EnumerationLimitError):
        enum_paths(16, 16)


def test_nonintersecting_counts():
    assert len(enum_nonintersecting(2, 2, 2)) == 1
    assert len(enum_nonintersecting(2, 2, 1, dual=True)) == 2
    # fully packed: every box used, a single tuple
    assert len(enum_nonintersecting(3, 3, 3)) == 1
    assert len(enum_nonintersecting(3, 3, 3, dual=True)) == 1


def test_nonintersecting_tuples_are_disjoint():
    for tup in enum_nonintersecting(4, 4, 2):
        seen = set()
        for path in tup:
            pts = set(path.points)
            assert not (pts & seen)
            seen |= pts


def test_nonintersecting_k_bounds():
    with pytest.raises(ValueError):
        enum_nonintersecting(2, 3, 3)
    with pytest.raises(ValueError):
        enum_nonintersecting(2, 3, 0)


def test_path_sum_examples():
    ones = ShapedArray.from_rows([[1, 1], [1, 1]], R)
    assert path_sum(ones, enum_nonintersecting(2, 2, 1, dual=True)) == 2
    w = ShapedArray.from_rows([[1, 2], [3, 4]], R)
    assert path_sum(w, enum_paths(2, 2)) == 20
    wd = ShapedArray.from_rows([[2, 1], [4, 3]], R)
    assert path_sum(wd, enum_paths(2, 2, dual=True)) == 20


def test_prop4_outcomes_frozen():
    assert prop4_outcomes(ShapedArray.from_rows([[1, 2], [3, 4]], R), "grsk-4.1") == [None, None]
    assert counterexamples(prop4_outcomes(ShapedArray.from_rows([[1, 1], [1, 1]], R), "gburge-4.2")) == []


def test_prop4_outcomes_validates_input():
    staircase = rand(Shape((2, 1)), 0)
    with pytest.raises(ValueError):
        prop4_outcomes(staircase, "grsk-4.1")
    with pytest.raises(ValueError):
        prop4_outcomes(staircase, "prop4.9")


@given(seeds, st.integers(1, 4), st.integers(1, 4))
@settings(max_examples=20, deadline=None)
def test_prop41_random_rectangles(seed, m, n):
    assert counterexamples(prop4_outcomes(rand(rectangle(m, n), seed), "grsk-4.1")) == []


@given(seeds, st.sampled_from([Shape((3, 3, 2)), Shape((4, 2, 1)), Shape((3, 2)), Shape((2, 2, 2))]))
@settings(max_examples=20, deadline=None)
def test_prop42_random_shapes(seed, shape):
    assert counterexamples(prop4_outcomes(rand(shape, seed), "gburge-4.2")) == []


def test_prop43_outcomes_frozen():
    ones = ShapedArray.from_rows([[1, 1], [1, 1]], R)
    assert prop43_outcomes(ones) == [None, None]


def test_prop43_all_ones_value():
    from gburge.correspondences import gburge

    for n in (2, 3, 4):
        ones = ShapedArray.from_rows([[1] * n for _ in range(n)], R)
        assert gburge(ones).get(1, 1) == Fraction(1, n)


@given(st.sampled_from(list(all_shapes(8))), seeds)
@settings(max_examples=30, deadline=None)
def test_prop43_random_shapes(shape, seed):
    assert counterexamples(prop43_outcomes(rand(shape, seed))) == []


def test_persymmetric_detection():
    assert is_persymmetric(ShapedArray.from_rows([[1, 4], [4, 1]], R))
    assert not is_persymmetric(ShapedArray.from_rows([[1, 4], [4, 3]], R))
    assert not is_persymmetric(rand(Shape((2, 1)), 0))
    # persymmetric but not symmetric, symmetric but not persymmetric, and not square
    assert is_persymmetric(ShapedArray.from_rows([[1, 2, 3], [4, 5, 2], [6, 4, 1]], R))
    assert not is_persymmetric(ShapedArray.from_rows([[1, 2], [2, 3]], R))
    assert not is_persymmetric(ShapedArray.from_rows([[1, 1, 1], [1, 1, 1]], R))
    assert not is_persymmetric(ShapedArray.from_rows([[1, 1], [1, 1], [1, 1]], R))


def test_replica_sum_squares_the_sum_to_each_antidiagonal_endpoint():
    # the paths to (1, 2) and (2, 1) cover {a, b} and {a, c}
    a, b, c = Fraction(2), Fraction(3, 5), Fraction(7)
    staircase = ShapedArray.from_rows([[a, b], [c]], R)
    assert replica_sum(staircase) == (a * b) ** 2 + (a * c) ** 2
    square = ShapedArray.from_rows([[a, b], [c, Fraction(11)]], R)
    assert replica_sum(square) == replica_sum(staircase)  # off the staircase is not read


def test_replica_frozen_2x2():
    w = ShapedArray.from_rows([[1, 4], [4, 1]], R)
    assert replica_decomposition_outcomes(w) == [None]


def test_replica_trivial_1x1():
    w = ShapedArray.from_rows([[Fraction(9, 4)]], R)
    assert counterexamples(replica_decomposition_outcomes(w)) == []


def test_replica_rejects_non_persymmetric():
    with pytest.raises(ValueError):
        replica_decomposition_outcomes(ShapedArray.from_rows([[1, 2], [3, 4]], R))


def test_replica_rejects_non_square_antidiagonal():
    w = ShapedArray.from_rows([[1, 3], [3, 1]], R)
    with pytest.raises(ValueError):
        replica_decomposition_outcomes(w)


@given(seeds, st.integers(1, 4))
@settings(max_examples=20, deadline=None)
def test_replica_random_environments(seed, n):
    w = random_persymmetric_square_weights(n, random.Random(seed))
    assert is_persymmetric(w)
    assert counterexamples(replica_decomposition_outcomes(w)) == []


def _persymmetric_integers(n, domain, rng):
    """Random integer n x n weights over domain with w_{i,j} = w_{n-j+1,n-i+1}."""
    rows = [[rng.randint(-10, 10) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n - i, n):  # below the antidiagonal: copy the mirror box
            rows[i][j] = rows[n - 1 - j][n - 1 - i]
    return ShapedArray.from_rows(rows, domain)


def test_replica_max_plus_example():
    # the otimes square root of w is w/2 where otimes is +: lhs and rhs both 13
    w = ShapedArray.from_rows([[1, 2, 4], [3, 2, 2], [5, 3, 1]], TROPICAL)
    assert is_persymmetric(w)
    assert replica_decomposition_outcomes(w) == [None]


@pytest.mark.parametrize("domain", [TROPICAL, LogDomain(1.0)], ids=lambda d: d.name)
def test_replica_random_environments_in_log_coordinates(domain):
    rng = random.Random(36)
    for _ in range(150):
        w = _persymmetric_integers(rng.randint(2, 5), domain, rng)
        assert is_persymmetric(w)
        assert counterexamples(replica_decomposition_outcomes(w)) == []


def test_a_log_domain_replica_mismatch_reports_its_input(monkeypatch):
    # a planted defect in the replica sum: the counterexample carries the
    # LogDomain input, though to_json refuses to write it as an array file
    w = _persymmetric_integers(3, LogDomain(1.0), random.Random(7))
    monkeypatch.setattr(oracles, "replica_sum", lambda m, real=replica_sum: real(m) + 1.0)
    (cex,) = replica_decomposition_outcomes(w)
    assert cex["input"] == {"shape": [3, 3, 3], "domain": "log-1.0", "rows": w.to_lists()}
    assert cex["rhs"] - cex["lhs"] == pytest.approx(1.0)


# -- the oracles see a wrong corner constant ------------------------------------------------

# the rationals with corner 1/3 in place of 1/2: every map through a corner box changes
WRONG_CORNER = RationalDomain("geom-rational", Fraction(1, 3), Fraction(0), Fraction(1))


def _wrong_corner_3x3(rng):
    return random_array(rectangle(3, 3), WRONG_CORNER, rng)


@pytest.mark.parametrize(
    "outcomes, failed, total",
    [
        (lambda w: prop4_outcomes(w, "grsk-4.1"), 3, 3),
        (lambda w: prop4_outcomes(w, "gburge-4.2"), 9, 9),
        (prop43_outcomes, 1, 2),
    ],
    ids=["grsk-4.1", "gburge-4.2", "prop4.3"],
)
def test_the_path_oracles_see_a_wrong_corner(outcomes, failed, total):
    got = outcomes(_wrong_corner_3x3(random.Random(0)))
    assert (len(counterexamples(got)), len(got)) == (failed, total)


def test_a_wrong_corner_fails_the_path_check_report():
    rep = run_trials("prop4.1", lambda rng: prop4_outcomes(_wrong_corner_3x3(rng), "grsk-4.1"),
                     trials=2, seed=0)
    assert rep["pass"] is False and rep["failures"] == 2
    assert list(rep["first_counterexample"]) == ["input", "border_box", "k", "lhs", "rhs"]
    assert rep["first_counterexample"]["border_box"] == [3, 3]
