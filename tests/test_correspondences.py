"""The correspondences, the involution, and the exact identities tying them together."""

import math
import random
import warnings
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gburge import correspondences
from gburge.arrays import ShapedArray, random_array, random_symmetric_array
from gburge.calculus import Dual
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
    inv_rho_at,
    inv_tau_at,
    rho_at,
    run_trials,
    sigma_at,
    tau_at,
    tropical_limit_check,
    tropical_limit_errors,
    verify_identity,
)
from gburge.localmaps import Grid
from gburge.polymer import EnvSpec, Stream, sample_symmetric_env
from gburge.shapes import (
    Shape,
    ShapeError,
    all_shapes,
    rectangle,
    symmetric_closure,
)
from gburge.values import (
    GEOMETRIC_FLOAT,
    GEOMETRIC_LANES,
    GEOMETRIC_RATIONAL,
    TROPICAL,
    DomainError,
    LogDomain,
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


@pytest.mark.parametrize("domain", [R, GEOMETRIC_FLOAT, TROPICAL], ids=lambda d: d.name)
def test_schutz_fixes_the_main_antidiagonal_corner_diagonal(domain):
    # on an m x n rectangle the boxes on and above the diagonal j - i = n - m
    # through the bottom-right corner are fixed; some box below it moves
    moved_below = 0
    for seed in range(200):
        rng = random.Random(seed)
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        t = grsk(random_array(rectangle(m, n), domain, rng))
        s = gschutz(t)
        for i, j in rectangle(m, n).boxes():
            if j - i >= n - m:
                assert s.get(i, j) == t.get(i, j), (seed, i, j)
            else:
                moved_below += s.get(i, j) != t.get(i, j)
    assert moved_below > 0


def test_tropical_grsk_2x2():
    w = ShapedArray.from_rows([[0.0, 1.0], [2.0, 3.0]], TROPICAL)
    assert grsk(w).to_lists() == [[1.0, 1.0], [2.0, 5.0]]


def test_all_ones_output():
    w = ShapedArray.from_rows([[1, 1], [1, 1]], R)
    expected = [[Fraction(1, 2), 1], [1, 2]]
    assert grsk(w).to_lists() == expected
    assert gburge(w).to_lists() == expected


def test_gburge_up_all_ones():
    ones = ShapedArray.from_rows([[1, 1], [1, 1]], R)
    out = gburge_up(ones)
    assert out.get(1, 1) == Fraction(1, 2)
    assert out.get(1, 2) == out.get(2, 1) == 1
    assert out.get(2, 2) == 2


def _skew(domain, entry):
    """A 2x2 array over domain, symmetric but for a different entry at (2,1)."""
    return ShapedArray.from_rows([[entry(1.0), entry(2.0)], [entry(3.0), entry(1.0)]], domain)


@pytest.mark.parametrize("domain, entry", [
    (R, Fraction),
    (GEOMETRIC_FLOAT, float),
    (GEOMETRIC_LANES, lambda v: np.full(2, v)),
    (GEOMETRIC_FLOAT, lambda v: Dual(v, [1.0])),
], ids=["fraction", "float", "lanes", "dual"])
def test_gburge_up_rejects_an_asymmetric_array(domain, entry):
    w = _skew(domain, entry)
    message = r"^gburge_up needs a symmetric array: box \(1,2\) differs from its mirror box \(2,1\)$"
    with pytest.raises(ShapeError, match=message):
        gburge_up(w)


def test_gburge_up_rejects_a_shape_that_is_not_self_conjugate():
    w = ShapedArray.from_rows([[1, 1], [1, 1], [1, 1]], R)
    message = (r"^gburge_up needs a symmetric array: "
               r"box \(3,1\) has no mirror box \(1,3\) in shape \(2, 2, 2\)$")
    with pytest.raises(ShapeError, match=message):
        gburge_up(w)


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


@pytest.mark.parametrize("dom", [R, GEOMETRIC_FLOAT, TROPICAL], ids=lambda d: d.name)
@pytest.mark.parametrize("parts", [(1,), (3, 2), (2, 2, 1), (4, 4, 4, 4)])
def test_default_order_is_the_explicit_row_major_order(parts, dom):
    shape = Shape(parts)
    w = rand(shape, sum(parts), dom)
    row_major = [(i, j) for i, p in enumerate(parts, start=1) for j in range(1, p + 1)]
    for apply_map in (grsk, gburge, inv_grsk, inv_gburge):
        assert apply_map(w) == apply_map(w, row_major)


def test_cached_orders_of_two_shapes_stay_apart():
    # same size, transposed: a borrowed order would read boxes outside the shape
    u, v = rand(Shape((3, 1)), 1), rand(Shape((2, 1, 1)), 2)
    want = {w: (gburge(w, list(w.shape.boxes())), inv_grsk(w, list(w.shape.boxes()))) for w in (u, v)}
    for w in (u, v, u, v, v, u):
        assert (gburge(w), inv_grsk(w)) == want[w]


def test_mutating_the_canonical_sequence_leaves_the_default_order_alone():
    w = rand(Shape((3, 2)), 5)
    before = gburge(w)
    seq = list(w.shape.boxes())
    seq.reverse()
    assert gburge(w) == before
    seq.clear()
    assert gburge(w) == before
    assert list(w.shape.boxes()) == [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2)]


@given(seeds, st.integers(2, 4))
def test_symmetric_route_agrees(seed, n):
    rng = random.Random(seed)
    shape = symmetric_closure(Shape(tuple(sorted((rng.randint(1, n) for _ in range(n)), reverse=True))))
    w = random_symmetric_array(shape, R, rng)
    t = gburge(w)
    assert t.is_symmetric()
    assert gburge_up(w) == t


def test_max_plus_symmetric_route_agrees_on_every_self_conjugate_shape():
    # 20 random integer arrays on each of the 32 self-conjugate shapes of at
    # most 16 boxes: the restricted map runs in max-plus, as gburge does
    rng = random.Random(36)
    shapes = [s for s in all_shapes(16) if s.is_self_conjugate()]
    assert len(shapes) == 32
    for shape in shapes:
        for _ in range(20):
            w = random_symmetric_array(shape, TROPICAL, rng)
            t = gburge_up(w)
            assert t == gburge(w)
            assert t.is_symmetric()


def test_single_diagonal_maps_match_whole_map_on_one_box():
    w = ShapedArray.from_rows([[Fraction(5, 3)]], R)
    for kernel, whole in ((rho_at, grsk), (tau_at, gburge)):
        g = Grid.of(w)
        kernel(g, 1, 1)
        assert g.to_array() == whole(w)
    g = Grid.of(ShapedArray.from_rows([[2, 6]], R))
    sigma_at(g, 1, 1)
    assert g.to_array().to_lists() == [[3, 6]]


@pytest.mark.parametrize("dom", [R, TROPICAL], ids=lambda d: d.name)
@pytest.mark.parametrize("step, inverse", [(rho_at, inv_rho_at), (tau_at, inv_tau_at)], ids=["rho", "tau"])
def test_a_diagonal_step_and_its_inverse_undo_each_other_at_every_box(step, inverse, dom):
    shape = Shape((4, 4, 3, 1))
    w = rand(shape, 12, dom)
    for box in shape.boxes():
        for first, then in ((step, inverse), (inverse, step)):
            g = Grid.of(w)
            first(g, *box)
            then(g, *box)
            assert g.to_array() == w, (first.__name__, box)


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
    # appendix-C-identity needs 4x4 arrays: below that no composition is defined
    max_size = 4 if name == "appendix-C-identity" else 3
    rep = verify_identity(name, max_size=max_size, trials=5, seed=7, tol=tol, domain=domain)
    assert rep == {"test": name, "trials": 5, "seed": 7, "failures": 0, "pass": True}


# below its floor a check would compare nothing: no (m, q) is admissible below
# 4x4, and no shape of one row or one column has a commutation box
@pytest.mark.parametrize(
    "name, bounds, message",
    [
        ("appendix-C-identity", dict(max_size=3), "n >= 4; got max size 3"),
        ("appendix-C-identity", dict(max_rows=5, max_cols=3), "n >= 4; got max size 3"),
        ("prop3.3", dict(max_size=1), "got max size 1x1"),
        ("prop3.3", dict(max_rows=5, max_cols=1), "got max size 5x1"),
        ("prop3.3", dict(max_rows=1), "got max size 1x4"),
    ],
)
def test_verify_identity_below_its_floor_raises(name, bounds, message):
    with pytest.raises(ValueError, match=message):
        verify_identity(name, trials=1, **bounds)


def test_verify_identity_unknown_name():
    with pytest.raises(ValueError):
        verify_identity("thm9.9")


def test_verify_identity_reports_a_counterexample_when_broken():
    # an involution check on a map that is not an involution would fail;
    # simulate by running with an impossible tolerance on the float domain
    from gburge.values import GEOMETRIC_FLOAT

    rep = verify_identity("thm3.2", max_size=3, trials=3, seed=0, domain=GEOMETRIC_FLOAT, tol=-1.0)
    assert rep["failures"] >= 1
    cex = rep["first_counterexample"]
    assert set(cex) == {"input", "lhs", "rhs"}
    assert cex["input"]["domain"] == "geom-float"


def test_run_trials_counts_failed_trials_and_keeps_the_first_counterexample():
    passing = {"test": "x", "trials": 2, "seed": 5, "failures": 0, "pass": True}
    assert run_trials("x", lambda rng: [None, None], 2, 5) == passing
    assert run_trials("x", lambda rng: iter([]), 0, 5) == {**passing, "trials": 0}
    draws = []
    run_trials("x", lambda rng: draws.append(rng.random()) or [None], 3, 6)
    assert draws == [random.Random(6 ^ i).random() for i in range(3)]
    # trial 1 fails twice and trial 3 once; an extra value is read after the last trial
    calls, last = iter(range(4)), {}
    outcomes = {1: [None, {"k": 1}, {"k": 9}], 3: [{"k": 2}]}

    def trial(rng):
        last["trial"] = i = next(calls)
        return outcomes.get(i, [None])

    rep = run_trials("x", trial, 4, 0, worst=last)
    assert list(rep) == [
        "test", "trials", "seed", "failures", "worst", "first_counterexample", "pass"
    ]
    assert rep["trials"] == 4 and rep["failures"] == 2 and rep["first_counterexample"] == {"k": 1}
    assert rep["worst"] == {"trial": 3} and rep["pass"] is False


def test_run_trials_does_not_resume_a_generator_after_its_first_counterexample():
    seen = []

    def trial(rng):
        for k in range(3):
            seen.append(k)
            yield {"k": k} if k == 1 else None

    assert run_trials("x", trial, 1, 0)["first_counterexample"] == {"k": 1}
    assert seen == [0, 1]


# -- degeneration to the tropical maps ----------------------------------------------------


def test_tropical_limit_error_bound_concrete():
    w = ShapedArray.from_rows([[1.0, -2.0, 0.0], [3.0, 1.0, -1.0], [0.0, 2.0, 1.0]], TROPICAL)
    errs = tropical_limit_errors(w, grsk, (0.1, 0.01, 0.001))
    for eps, err in zip((0.1, 0.01, 0.001), errs):
        assert err <= 100 * eps
    assert errs[0] >= errs[1] >= errs[2]
    # this input has an exact two-way tie, so the gap is eps * log 2 on the nose
    assert math.isclose(errs[2], 0.001 * math.log(2))


def test_tropical_limit_check_passes():
    rep = tropical_limit_check(max_boxes=6, trials=6, seed=11)
    assert rep["failures"] == 0
    assert set(rep["max_error_by_eps"]) == {"0.1", "0.01", "0.001"}


def test_tropical_limit_check_reports_a_counterexample_after_its_errors():
    # a gap is never negative, so a negative budget fails every trial; a zero
    # budget would not, as some inputs have an exact gap of zero
    rep = tropical_limit_check(max_boxes=4, trials=2, seed=0, epsilons=(1.0,), bound_constant=-1.0)
    assert list(rep) == [
        "test", "trials", "seed", "failures", "max_error_by_eps", "first_counterexample", "pass"
    ]
    assert rep["pass"] is False
    assert 0 < rep["failures"] <= rep["trials"]
    assert set(rep["first_counterexample"]) == {"input", "map", "errors"}


def test_tropical_limit_check_builds_one_max_plus_image_per_trial_and_map(monkeypatch):
    runs, run = [], correspondences._run

    def counting_run(g, kernel, boxes):
        runs.append(g.domain.name)
        return run(g, kernel, boxes)

    monkeypatch.setattr(correspondences, "_run", counting_run)
    assert tropical_limit_check(max_boxes=4, trials=5, seed=3)["pass"]
    # each map is one _run: one max-plus image, then one log-domain image per eps
    assert runs.count("tropical") >= 10
    assert [runs.count(f"log-{eps}") for eps in (0.1, 0.01, 0.001)] == [runs.count("tropical")] * 3
    assert len(runs) == 4 * runs.count("tropical")


def _oracle_gap(trop_in, apply_map, epsilons):
    """tropical_limit_errors computed the direct way: the geometric map on
    exp(x/eps) in 150-bit mpmath, then eps*log of its output, for each eps."""
    trop_out = apply_map(trop_in)
    gaps = []
    for eps in epsilons:
        with mp.workprec(150):
            geom_out = apply_map(
                trop_in.map_entries(lambda x: mp.exp(mp.mpf(x) / eps), GEOMETRIC_FLOAT)
            )
            scaled = geom_out.map_entries(lambda v: float(eps * mp.log(v)), TROPICAL)
        gaps.append(max(
            abs(x - y) for rx, ry in zip(scaled.rows, trop_out.rows) for x, y in zip(rx, ry)
        ))
    return gaps


def _shape_sweep(max_boxes=9):
    """One random integer tropical input per shape, with the maps each one takes."""
    for i, shape in enumerate(all_shapes(max_boxes)):
        maps = [grsk, gburge] + ([gschutz] if shape.is_rectangular else [])
        yield random_array(shape, TROPICAL, random.Random(i)), maps


def test_tropical_limit_gaps_match_the_mpmath_oracle_on_every_shape_to_9_boxes():
    worst = 0.0
    epsilons = (0.1, 0.01, 0.001)
    for trop_in, maps in _shape_sweep():
        for apply_map in maps:
            got = tropical_limit_errors(trop_in, apply_map, epsilons)
            want = _oracle_gap(trop_in, apply_map, epsilons)
            worst = max(worst, *(abs(g - w) for g, w in zip(got, want)))
    assert worst <= 1e-12


def test_criterion_05_report_matches_the_mpmath_oracle(monkeypatch):
    args = dict(max_boxes=9, trials=20, seed=50)
    rep = tropical_limit_check(**args)
    monkeypatch.setattr(correspondences, "tropical_limit_errors", _oracle_gap)
    oracle = tropical_limit_check(**args)
    assert rep["failures"] == oracle["failures"] == 0
    for eps, err in oracle["max_error_by_eps"].items():
        assert abs(rep["max_error_by_eps"][eps] - err) <= 1e-12, eps


def test_a_planted_log_corner_fails_the_oracle_comparison(monkeypatch):
    class Planted(LogDomain):
        """The geometric corner 1 in place of 1/2."""

        def __init__(self, eps):
            super().__init__(eps)
            self.corner = 0.0

    monkeypatch.setattr(correspondences, "LogDomain", Planted)
    # on one box, A = corner oplus corner moves from 0 to eps*log(2)
    trop_in, _ = next(_shape_sweep())
    epsilons = (0.1, 0.01, 0.001)
    got, want = tropical_limit_errors(trop_in, grsk, epsilons), _oracle_gap(trop_in, grsk, epsilons)
    assert all(abs(g - w) > 1e-12 for g, w in zip(got, want))
    # and most inputs on up to 4 boxes move too
    moved = [
        abs(tropical_limit_errors(t, f, (0.01,))[0] - _oracle_gap(t, f, (0.01,))[0]) > 1e-12
        for t, maps in _shape_sweep(4) for f in maps
    ]
    assert sum(moved) > len(moved) / 2


@pytest.mark.parametrize("n", range(1, 7))
def test_log_domain_gburge_is_the_log_of_float_gburge(n):
    rng = random.Random(n)
    log = LogDomain(1.0)
    for _ in range(5):
        w = random_array(rectangle(n, n), GEOMETRIC_FLOAT, rng)
        want = gburge(w)
        got = gburge(w.map_entries(math.log, log))
        assert got.domain is log
        for rg, rw in zip(got.rows, want.rows):
            for x, y in zip(rg, rw):
                assert math.isclose(math.exp(x), y, rel_tol=1e-12), (x, y)


def test_log_domain_stays_finite_where_float_gburge_raises():
    """The n = 60, alpha = 0.3 environment, where the float map meets a nan."""
    env = sample_symmetric_env(EnvSpec(n=60, alpha=(0.3,) * 60, beta=1.0), Stream(60, 0))
    with pytest.raises(DomainError, match="hsum needs positive arguments"):
        gburge(env)
    out = gburge(env.map_entries(math.log, LogDomain(1.0)))
    assert all(math.isfinite(x) for row in out.rows for x in row)
    # 1/t_11 is the sum of 1/w_ii over the diagonal
    want = -math.log(math.fsum(1 / env.get(i, i) for i in range(1, 61)))
    assert math.isclose(out.get(1, 1), want, rel_tol=1e-12)


# -- float overflow is caught where the map hands back its output -------------------------


def test_float_overflow_from_finite_entries_raises():
    huge = ShapedArray.from_rows([[1e200, 1e200], [1e200, 1e200]], GEOMETRIC_FLOAT)
    for f in (gburge, grsk, inv_gburge):
        with pytest.raises(DomainError, match=r"float overflow at box \(\d,\d\).*log-space"):
            f(huge)
    with pytest.raises(DomainError, match=r"float overflow at box \(1,1\)"):
        gburge_up(huge)
    # the same entries in exact or high-precision arithmetic map without error
    exact = ShapedArray.from_rows([[10**200, 10**200], [10**200, 10**200]], R)
    assert gburge(exact).get(2, 2) > 0
    with mp.workprec(150):
        wide = huge.map_entries(mp.mpf)
        assert gburge(wide).get(2, 2) > 0


def test_max_plus_overflow_from_finite_entries_raises():
    # -1e308 + -1e308 is -inf: an output, not an entry, and it is refused
    low = ShapedArray.from_rows([[-1e308, -1e308], [-1e308, -1e308]], TROPICAL)
    for f in (gburge, gburge_up):
        with pytest.raises(DomainError, match=r"^float overflow at box \(1,2\) of the map's output: -inf$"):
            f(low)


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
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for f in (gburge, grsk, inv_gburge):
            with pytest.raises(DomainError, match=r"box \(\d,\d\).*in lane 1;"):
                f(lanes)
        with pytest.raises(DomainError, match=r"box \(\d,\d\).*in lane 1;"):
            gburge_up(lanes)
    # the lane errstate does not leak out of the map call
    with pytest.warns(RuntimeWarning, match="overflow"):
        np.array([1e200]) * np.array([1e200])
