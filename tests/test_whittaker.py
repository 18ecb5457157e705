"""Whittaker evaluation against closed forms, and the measure checks."""

import itertools
import math
import re
import sys
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from scipy.special import kv

from gburge import whittaker
from gburge.polymer import (
    EnvSpec,
    Stream,
    burge_partition_vector,
    laplace_mc,
    normalization_c,
    sample_symmetric_env,
)
from gburge.whittaker import (
    NonconvergentQuadratureError,
    WhittakerParams,
    _log_bessel_k,
    _log_psi2,
    _measure_predictions,
    _measure_report,
    _panel_nodes,
    _probe_box,
    _times_exp,
    corollary_check,
    energy,
    psi,
    type_vector,
    whittaker_density,
    whittaker_measure_check,
)


def rank2_closed_form(alpha, x):
    """Independent route: the rank-2 integral reduces, by the substitution
    z = sqrt(x1 x2) t, to a modified Bessel function of the second kind."""
    a1, a2 = alpha
    return 2 * (x[0] * x[1]) ** ((a1 + a2) / 2) * kv(a1 - a2, 2 * math.sqrt(x[1] / x[0]))


def rank2_besselk(alpha, x):
    """The same closed form in mpmath at 30 digits."""
    with mpmath.workdps(30):
        a1, a2 = (mpmath.mpf(a) for a in alpha)
        x1, x2 = (mpmath.mpf(v) for v in x)
        k = mpmath.besselk(a1 - a2, 2 * mpmath.sqrt(x2 / x1))
        return float(2 * (x1 * x2) ** ((a1 + a2) / 2) * k)


def rank2_pattern_integral(alpha, u1, u2):
    """Rank-2 Psi at (e^u1, e^u2) from its definition: the integral over the
    free entry e^v of e^{a1 v + a2 (u1 + u2 - v) - e^{u2 - v} - e^{v - u1}}, by
    mpmath at 30 digits.  Ten units beyond the arguments the integrand is below
    e^{-e^10}, so the finite interval loses nothing."""
    a1, a2 = alpha
    with mpmath.workdps(30):

        def f(v):
            return mpmath.exp(a1 * v + a2 * (u1 + u2 - v) - mpmath.exp(u2 - v) - mpmath.exp(v - u1))

        return float(mpmath.quad(f, mpmath.linspace(min(u1, u2) - 10, max(u1, u2) + 10, 8)))


# -- patterns ---------------------------------------------------------------


def test_pattern_validation():
    for fn in (energy, type_vector):
        with pytest.raises(ValueError, match="row 1 must have 1 entries, got 2"):
            fn(((1.0, 2.0),))
        with pytest.raises(ValueError, match="row 2 has a nonpositive entry"):
            fn(((1.0,), (0.0, 2.0)))
        # nan and +inf passed the v <= 0 test: type_vector([[nan]]) returned (nan,),
        # and energy([[1.0], [inf, 1.0]]) returned 1.0
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="^row 1 has an entry that is not finite$"):
                fn(((bad,),))
            with pytest.raises(ValueError, match="^row 2 has an entry that is not finite$"):
                fn(((1.0,), (bad, 1.0)))
        with pytest.raises(ValueError, match="^row 2 has a nonpositive entry$"):
            fn(((1.0,), (1.0, -math.inf)))
        fn(((2.0,), (3.0, 5.0)))


def test_energy_examples():
    assert energy(((4.0,),)) == 0.0
    z = ((2.0,), (3.0, 5.0))
    assert energy(z) == pytest.approx(5.0 / 2.0 + 2.0 / 3.0)
    ones3 = ((1.0,), (1.0, 1.0), (1.0, 1.0, 1.0))
    assert energy(ones3) == 6.0
    # exact on Fractions: 5/2 over 1/3, plus 1/3 over 2/7
    exact = energy(((Fraction(1, 3),), (Fraction(2, 7), Fraction(5, 2))))
    assert type(exact) is Fraction and exact == Fraction(15, 2) + Fraction(7, 6)


def test_type_vector_examples():
    z = ((2.0,), (3.0, 5.0))
    assert type_vector(z) == (2.0, 7.5)
    ones3 = ((1.0,), (1.0, 1.0), (1.0, 1.0, 1.0))
    assert type_vector(ones3) == (1.0, 1.0, 1.0)
    z3 = ((2.0,), (0.5, 3.0), (1.0, 4.0, 0.25))
    assert math.prod(type_vector(z3)) == pytest.approx(math.prod(z3[-1]))
    # exact on Fractions: 1/3, then 2/7 * 5/2 over 1/3
    exact = type_vector(((Fraction(1, 3),), (Fraction(2, 7), Fraction(5, 2))))
    assert exact == (Fraction(1, 3), Fraction(15, 7))
    assert all(type(v) is Fraction for v in exact)


def test_params_validation():
    with pytest.raises(ValueError):
        WhittakerParams(2, (1.0,), (1.0, 1.0))
    with pytest.raises(ValueError, match=r"^x\[1\] must be positive and finite, got -1.0$"):
        WhittakerParams(2, (1.0, 1.0), (1.0, -1.0))
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match=rf"^alpha\[1\] must be finite, got {bad!r}$"):
            WhittakerParams(2, (1.0, bad), (1.0, 1.0))
        with pytest.raises(ValueError, match=rf"^x\[0\] must be positive and finite, got {bad!r}$"):
            WhittakerParams(2, (1.0, 1.0), (bad, 1.0))


# -- evaluation ---------------------------------------------------------------


def test_rank1_is_a_monomial():
    assert psi(WhittakerParams(1, (-2.0,), (3.0,))) == pytest.approx(1.0 / 9.0, rel=1e-15)


def test_rank2_matches_the_bessel_reduction():
    cases = [
        ((-1.0, -1.0), (1.0, 1.0)),
        ((-1.0, -2.0), (2.0, 0.5)),
        ((-0.5, -1.5), (0.3, 4.0)),
        ((1.0, -1.0), (5.0, 0.2)),
    ]
    for alpha, x in cases:
        got = psi(WhittakerParams(2, alpha, x))
        assert got == pytest.approx(rank2_closed_form(alpha, x), rel=1e-12)
    # the unit-argument case is 2 K_0(2)
    assert psi(WhittakerParams(2, (-1.0, -1.0), (1.0, 1.0))) == pytest.approx(
        0.2277877455, rel=1e-9
    )


def test_rank2_parameter_swap_symmetry():
    a = psi(WhittakerParams(2, (-0.5, -1.5), (0.7, 2.0)))
    b = psi(WhittakerParams(2, (-1.5, -0.5), (0.7, 2.0)))
    assert a == pytest.approx(b, rel=1e-12)


def test_rank2_closed_form_grid_matches_the_pattern_integral():
    alpha = (-1.0, -2.0)
    u1 = np.array([-2.0, 0.0, 1.5, 3.0])
    u2 = np.array([-1.0, 0.5])
    grid = np.exp(_log_psi2(alpha, u1[:, None], u2[None, :]))
    assert grid.shape == (4, 2)
    for i, v in enumerate(u1):
        for j, w in enumerate(u2):
            expected = rank2_pattern_integral(alpha, float(v), float(w))
            assert grid[i, j] == pytest.approx(expected, rel=1e-12)


# (alpha, log x): x1 x2 = 1 with log(x2/x1) = 6, 8, 10, where the integrand's
# peak is narrow, and three random points whose log(x2/x1) is near 9
NARROW_PEAKS = [
    (alpha, (-0.5 * t, 0.5 * t)) for alpha in ((-1.0, -2.0), (1.0, 1.0)) for t in (6.0, 8.0, 10.0)
] + [
    ((-2.329, -5.384), (-4.624, 4.716)),
    ((4.132, 0.99), (-4.502, 4.721)),
    ((-3.178, -0.216), (-4.679, 4.245)),
]


@pytest.mark.parametrize("alpha, logx", NARROW_PEAKS)
def test_rank2_matches_besselk_where_the_peak_is_narrow(alpha, logx):
    x = tuple(math.exp(u) for u in logx)
    # abs=0: the values run down to 1e-94, below pytest.approx's default abs
    expected = rank2_besselk(alpha, x)
    assert psi(WhittakerParams(2, alpha, x)) == pytest.approx(expected, rel=1e-12, abs=0)


def test_rank2_closed_form_stays_in_range_at_extreme_bessel_arguments():
    # z = 2 sqrt(x2/x1) = 2 e^{(u2 - u1)/2}: kve returns nan from z ~ 1.3e9,
    # and K_nu overflows at tiny z once |nu| >= 1.5
    big_z = [(0.0, 2 * math.log(1e9)), (-300.0, 300.0), (0.0, 2000.0)]
    small_z = [(2 * math.log(1e201), 0.0), (0.0, -1000.0), (1000.0, -1000.0)]
    for alpha in ((-1.0, -3.0), (-5.0, -8.0), (2.0, -0.5), (-1.0, -1.0), (-100.0, -300.0)):
        for u1, u2 in big_z + small_z:
            value = float(_log_psi2(alpha, u1, u2))
            assert not math.isnan(value) and value != math.inf
    # where the leading terms replace kve they still give log K_nu(z)
    for alpha in ((-1.0, -3.0), (-5.0, -8.0)):
        for u1, u2 in [(0.0, 2 * math.log(1e9)), (2 * math.log(1e201), 0.0)]:
            with mpmath.workdps(30):
                z = 2 * mpmath.exp(mpmath.mpf(u2 - u1) / 2)
                expected = float(
                    mpmath.log(2)
                    + (alpha[0] + alpha[1]) / 2 * (u1 + u2)
                    + mpmath.log(mpmath.besselk(alpha[0] - alpha[1], z))
                )
            assert float(_log_psi2(alpha, u1, u2)) == pytest.approx(expected, rel=1e-12)


def test_rank3_node_count_is_converged(monkeypatch):
    # the d line against the same line on 0.1-wide panels
    alpha = (-1.0, -2.0, -3.0)
    x = (2.0, 0.7, 1.3)
    got = psi(WhittakerParams(3, alpha, x))
    (logf, start), = probed_integrands(monkeypatch, lambda: psi(WhittakerParams(3, alpha, x)))
    (lo, hi), peak = _probe_box(logf, start)
    d, w = fine_panels(lo, hi, (), width=0.1)
    scale = peak + alpha[2] * sum(math.log(v) for v in x)
    assert got == pytest.approx(float(w @ np.exp(logf(d) - peak)) * math.exp(scale), rel=1e-12)


# (alpha, x) points for rank 3: small mixed-sign parameters near the unit
# argument, as in the benchmark, and one with larger parameters
RANK3_POINTS = [
    ((-1.0, -2.0, -3.0), (2.0, 0.7, 1.3)),
    ((-1.0, -2.0, -3.0), (1.0, 1.0, 1.0)),
    ((0.12, 0.24, 0.3), (math.exp(0.7), math.exp(-0.7), 1.0)),
    ((-0.47, -0.03, 0.44), (math.exp(-0.7), math.exp(0.7), math.exp(0.2))),
    ((-0.5, 0.5, -0.25), (math.exp(0.7), math.exp(0.7), math.exp(-0.7))),
]
# wide arguments, where the 2-D grid this line replaced read log Psi 173.18 to
# 186.11 (true 205.958734) and 27.630908 (true 27.630993793409)
WIDE_RANK3_POINTS = [((1.0, 2.0, 3.0), (1e30, 1.0, 1.0)), ((1.0, 2.0, 3.0), (1e6, 1.0, 1e-6))]


def test_rank3_parameter_permutation_symmetry():
    for alpha, x in RANK3_POINTS + WIDE_RANK3_POINTS:
        values = [psi(WhittakerParams(3, perm, x)) for perm in itertools.permutations(alpha)]
        assert max(values) == pytest.approx(min(values), rel=1e-12), alpha


def _walls(*gaps):
    """Sum of e^gap over the gaps, each exponent clipped at 700 to stay finite."""
    return sum(np.exp(np.minimum(gap, 700.0)) for gap in gaps)


def _psi3_logf(alpha, x):
    """The rank-3 log-integrand over the three free entries (u11, u21, u22)
    of the pattern, and a start point for the peak search."""
    a1, a2, a3 = alpha
    l1, l2, l3 = (math.log(v) for v in x)
    lx = l1 + l2 + l3

    def logf(u11, u21, u22):
        walls = _walls(u22 - u11, u11 - u21, l2 - u21, u21 - l1, l3 - u22, u22 - l2)
        return a1 * u11 + a2 * (u21 + u22 - u11) + a3 * (lx - u21 - u22) - walls

    return logf, np.array([0.5 * (l1 + l2), 0.5 * (l1 + l2), 0.5 * (l2 + l3)])


def rank3_monte_carlo_oracle(alpha, x, samples=400_000, strata=8):
    """Independent route: stratified uniform sampling of the three free
    entries over their probed box; lower precision than the grid."""
    logf, centers = _psi3_logf(alpha, x)
    axes, peak = unit_step_probe_box(logf, centers)
    per_cell = max(samples // strata**3, 8)
    lo = np.array([a for a, _ in axes])
    width = np.array([b - a for a, b in axes]) / strata
    rng = np.random.default_rng(0x57A7)
    total = 0.0
    for cell in itertools.product(range(strata), repeat=3):
        u = lo + width * (np.array(cell) + rng.random((per_cell, 3)))
        total += float(np.mean(np.exp(logf(*u.T) - peak)))
    return total * math.prod(width) * math.exp(peak)


def rank3_tensor_oracle(alpha, x, nodes=192, pad=6.0):
    """Independent route: a 3-D Gauss tensor rule over the three free entries,
    on the probed box widened by pad units on every side, summed one u11
    slice at a time; nodes is one count for every axis, or one per axis.  At
    RANK3_POINTS 192 nodes agree with 256 nodes and a 10-unit pad to 4e-14."""
    logf, centers = _psi3_logf(alpha, x)
    axes, peak = unit_step_probe_box(logf, centers)
    points, rules = [], []
    for (lo, hi), count in zip(axes, np.broadcast_to(nodes, 3)):
        base, weights = np.polynomial.legendre.leggauss(int(count))
        lo, hi = lo - pad, hi + pad
        points.append(0.5 * (hi - lo) * base + 0.5 * (hi + lo))
        rules.append(0.5 * (hi - lo) * weights)
    u11, u21, u22 = points
    total = sum(
        w * (rules[1] @ np.exp(logf(v, u21[:, None], u22) - peak) @ rules[2])
        for v, w in zip(u11, rules[0])
    )
    return float(total) * math.exp(peak)


@pytest.mark.parametrize("alpha, x", RANK3_POINTS)
def test_rank3_matches_a_widened_tensor_rule(alpha, x):
    expected = rank3_tensor_oracle(alpha, x)
    assert psi(WhittakerParams(3, alpha, x)) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("alpha, x", WIDE_RANK3_POINTS)
def test_rank3_at_wide_arguments_matches_a_widened_tensor_rule(alpha, x):
    # the oracle in the order (1, 2, 3): its own probe misses at (3, 1, 2).
    # Its box, cut from axis profiles through the peak, is too tight here: at
    # 192 nodes and a 6-unit pad it reads 1.6e-11 and 1.2e-11 low; at (256,
    # 256, 192) nodes and a 10-unit pad the line agrees to 6.6e-13 and 2.4e-15
    expected = rank3_tensor_oracle(alpha, x, nodes=(256, 256, 192), pad=10.0)
    assert psi(WhittakerParams(3, alpha, x)) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("k", [20.0, 50.0, 100.0])
def test_rank3_permutation_symmetry_at_a_large_parameter(k):
    # measured: 1.0e-14, 3.5e-10 and 7.8e-10 (the 2-D grid spread 2.2e-7 at
    # 50 and 5.2% at 100)
    values = [psi(WhittakerParams(3, perm, (1.0, 1.0, 1.0)))
              for perm in itertools.permutations((k, 1.0, 2.0))]
    assert max(values) == pytest.approx(min(values), rel=1e-9)


def test_rank3_scale_covariance():
    # rescaling the argument by c rescales the value by c^(sum alpha)
    alpha = (-1.0, -2.0, -3.0)
    x = (2.0, 0.7, 1.3)
    c = 1.9
    big = psi(WhittakerParams(3, alpha, tuple(c * v for v in x)))
    assert big == pytest.approx(c ** sum(alpha) * psi(WhittakerParams(3, alpha, x)), rel=1e-12)


def test_rank3_monte_carlo_route():
    params = WhittakerParams(3, (-1.0, -2.0, -3.0), (1.0, 1.0, 1.0))
    mc = rank3_monte_carlo_oracle(params.alpha, params.x)
    assert mc == pytest.approx(psi(params), rel=0.03)


@pytest.mark.parametrize(
    "alpha, x, log_psi",
    [
        ((400.0,), (1e300,), 400.0 * math.log(1e300)),
        ((400.0, 1.0), (1e300, 1.0), float(_log_psi2((400.0, 1.0), math.log(1e300), 0.0))),
        ((1.0, 2.0, 3.0), (1e300, 1.0, 1.0), None),  # a line value: only its range is known
    ],
)
def test_psi_overflow_names_rank_alpha_x_and_log_psi(alpha, x, log_psi):
    n = len(alpha)
    head, tail = f"Psi of rank {n} at alpha={alpha}, x={x} = exp(", ") overflows a float"
    with pytest.raises(OverflowError) as raised:
        psi(WhittakerParams(n, alpha, x))
    message = str(raised.value)
    assert message.startswith(head) and message.endswith(tail)
    logged = float(message[len(head):-len(tail)])
    assert logged > math.log(sys.float_info.max)
    if log_psi is not None:
        assert logged == pytest.approx(log_psi, rel=1e-12)


def test_psi3_rescales_a_line_that_rises_past_the_probe_peak():
    # at alpha_1 = 1e6 a node between the probe's unit steps rises further
    # above its peak than exp holds: the line is rescaled by its own maximum,
    # so no numpy overflow comes first and the error names a finite log Psi
    with pytest.raises(OverflowError, match=r"= exp\(([0-9.e+]+)\) overflows") as raised:
        psi(WhittakerParams(3, (1e6, 1.0, 1.0), (1.0, 1.0, 1.0)))
    logged = float(re.search(r"exp\(([^)]*)\)", str(raised.value)).group(1))
    assert logged == pytest.approx(2.5630980e7, rel=1e-6)
    # unrescaled, this line's nodes overflow exp and the value reads nan
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert psi(WhittakerParams(3, (1.0, 2.0, 3.0), (1e-300, 1.0, 1e300))) == 0.0


def test_psi3_line_that_misses_its_peak_names_psi():
    # at alpha_3 = 1e6 every node underflows against the probe's peak
    message = (r"^Psi of rank 3 at alpha=\(1\.0, 1\.0, 1000000\.0\), x=\(1\.0, 1\.0, 1\.0\): "
               "every node underflows against the probe's peak$")
    with pytest.raises(NonconvergentQuadratureError, match=message):
        psi(WhittakerParams(3, (1.0, 1.0, 1e6), (1.0, 1.0, 1.0)))


def test_unsupported_rank():
    params = WhittakerParams(4, (-1.0,) * 4, (1.0,) * 4)
    with pytest.raises(ValueError):
        psi(params)


def test_integrand_fast_path_matches_pattern_definitions():
    # the quadrature's log-integrand must agree with exponent-weighted type
    # products damped by the energy, computed through the public functions
    alpha = (-0.5, -1.25, -2.0)
    x = (1.3, 0.6, 2.2)
    logf, _ = _psi3_logf(alpha, x)
    z = ((0.8,), (1.7, 0.4), x)
    direct = sum(a * math.log(t) for a, t in zip(alpha, type_vector(z))) - energy(z)
    via_fast_path = float(
        logf(
            np.array([math.log(0.8)]),
            np.array([math.log(1.7)]),
            np.array([math.log(0.4)]),
        )[0]
    )
    assert via_fast_path == pytest.approx(direct, rel=1e-12)


def test_probe_box_reports_nonconvergence():
    with pytest.raises(NonconvergentQuadratureError):
        _probe_box(lambda u: np.zeros_like(u), 0.0)


def unit_step_probe_box(logf, start):
    """The box probe as one unit step at a time, on any number of axes: three
    full coordinate-ascent sweeps, then one logf call per (axis, side) over
    all 400 tail steps.  On one axis the chunked _probe_box must return
    exactly its box and peak on a line that is unimodal within the probe's
    reach, start + k for |k| <= 120 (on a line with two modes there the two
    walks may climb to different ones); the oracles take their boxes from it."""
    u = np.array(start, dtype=float)

    def profile(axis, offsets):
        return logf(*(u[k] + offsets if k == axis else u[k] for k in range(len(u))))

    steps = np.arange(-40.0, 41.0)
    for _ in range(3):
        for axis in range(len(u)):
            u[axis] += steps[int(np.argmax(profile(axis, steps)))]
    peak = float(logf(*u))
    if not math.isfinite(peak):
        raise NonconvergentQuadratureError("integrand has no finite peak")
    steps = np.arange(1.0, 401.0)
    axes = []
    for axis in range(len(u)):
        ends = []
        for sign in (-1.0, 1.0):
            below = profile(axis, sign * steps) < peak - 46.0
            if not below.any():
                raise NonconvergentQuadratureError(f"axis {axis} mass did not localize")
            ends.append(u[axis] + sign * steps[int(np.argmax(below))])
        axes.append((ends[0] - 2.0, ends[1] + 2.0))
    return axes, peak


def probed_integrands(monkeypatch, run):
    """The (logf, start) of every _probe_box call that run() makes."""
    probes = []
    real = whittaker._probe_box

    def recording(logf, start):
        probes.append((logf, start))
        return real(logf, start)

    with monkeypatch.context() as patch:
        patch.setattr(whittaker, "_probe_box", recording)
        run()
    return probes


# the integrands of every caller: rank-1 corollaries (the tail at alpha = 0.12
# ends at step 385, in the last chunk), the d lines of the measure predictions,
# cut at every log(t/s), at ((1.5, 2.5), 0.5) and ((1, 1.5), 1) (tails ending
# at steps 33 and 48, past the first chunk), and the rank-3 d lines
PROBED_CALLERS = {
    "rank1-2-3": lambda: corollary_check((2.0,), 3.0),
    "rank1-0.12-1": lambda: corollary_check((0.12,), 1.0),
    **{f"measure-{a1},{a2}-{beta}": (
        lambda a=(a1, a2), b=beta: _measure_predictions(a, b, (0.5, 2.0), (0.3, 4.0), (1.0,)))
       for a1, a2, beta in [(1.5, 2.5, 0.5), (1, 1.5, 1)]},
    **{f"psi3-{i}": (lambda a=alpha, x=x: psi(WhittakerParams(3, a, x)))
       for i, (alpha, x) in enumerate(RANK3_POINTS)},
}


def unit_step_line_box(logf, start):
    """unit_step_probe_box on one axis, in the shape _probe_box returns."""
    (box,), peak = unit_step_probe_box(logf, (start,))
    return box, peak


@pytest.mark.parametrize("caller", PROBED_CALLERS)
def test_probe_box_matches_the_unit_step_walk(monkeypatch, caller):
    (logf, start), = probed_integrands(monkeypatch, PROBED_CALLERS[caller])
    # the unit-step walk is the probe's oracle only on a line unimodal in its reach
    values = logf(start + np.arange(-120.0, 121.0))
    top = int(np.argmax(values))
    assert np.all(values[:top] <= values[1:top + 1]) and np.all(values[top:-1] >= values[top + 1:])
    assert _probe_box(logf, start) == unit_step_line_box(logf, start)


def _slopes(left, right):
    """A 1-D log-integrand peaked at 0 whose two sides fall 46 below the peak
    first at unit steps left and right."""
    return lambda u: np.where(u < 0, 46.0 / (left - 0.5) * u, -46.0 / (right - 0.5) * u)


def test_probe_box_walks_its_tails_to_step_400():
    logf = _slopes(1, 400)
    assert _probe_box(logf, 0.0) == unit_step_line_box(logf, 0.0) == ((-3.0, 402.0), 0.0)
    logf = _slopes(17, 65)  # each end the first step of a later chunk
    assert _probe_box(logf, 0.0) == ((-19.0, 67.0), 0.0)


@pytest.mark.parametrize("logf", [_slopes(1, 401), _slopes(401, 1)])
def test_probe_box_reports_a_side_that_did_not_localize(logf):
    with pytest.raises(NonconvergentQuadratureError, match="^mass did not localize$"):
        _probe_box(logf, 0.0)
    with pytest.raises(NonconvergentQuadratureError, match="^axis 0 mass did not localize$"):
        unit_step_probe_box(logf, (0.0,))


def test_a_rank3_probe_evaluates_at_most_200_points(monkeypatch):
    # the unit-step walk evaluates 1,044: three 81-point sweeps, the peak and
    # 400 steps on each side; the probe's 81-point lattice holds both tails
    alpha, x = RANK3_POINTS[0]
    (logf, start), = probed_integrands(monkeypatch, lambda: psi(WhittakerParams(3, alpha, x)))
    points = []

    def counting(d):
        points.append(np.size(d))
        return logf(d)

    assert _probe_box(counting, start) == unit_step_line_box(logf, start)
    assert sum(points) <= 200


def counted_probe(logf, start):
    """_probe_box(logf, start), and the array of points of each logf call it made."""
    calls = []

    def counting(d):
        calls.append(np.atleast_1d(d).ravel().copy())
        return logf(d)

    return _probe_box(counting, start), calls


# logf calls and points of each caller's probe: the 81-point ascent lattice,
# which holds the peak and every tail that ends within it; then the chunks past
# it (to step 64, then 65-400) on the side still walking
PROBE_COUNTS = {
    "rank1-2-3": (1, 81),
    "rank1-0.12-1": (3, 443),
    "measure-1.5,2.5-0.5": (1, 81),
    "measure-1,1.5-1": (2, 105),
    "psi3-0": (1, 81), "psi3-1": (1, 81), "psi3-2": (1, 81), "psi3-3": (1, 81), "psi3-4": (1, 81),
}


@pytest.mark.parametrize("caller", PROBED_CALLERS)
def test_probe_box_evaluates_each_point_once(monkeypatch, caller):
    (logf, start), = probed_integrands(monkeypatch, PROBED_CALLERS[caller])
    box, calls = counted_probe(logf, start)
    assert box == unit_step_line_box(logf, start)
    assert (len(calls), sum(c.size for c in calls)) == PROBE_COUNTS[caller]
    points = np.concatenate(calls)
    assert np.unique(points).size == points.size


def test_probe_box_evaluates_the_lattice_from_its_start():
    # from 0.3 the peak is 2 steps on: its lattice point 0.3 + 2 is the oracle's
    # u, and its tails end within the 81 points of the one logf call
    logf = lambda u: -((u - 2.3) ** 2)  # noqa: E731
    box, calls = counted_probe(logf, 0.3)
    assert box == unit_step_line_box(logf, 0.3)
    (points,) = calls
    assert np.array_equal(points, 0.3 + np.arange(-40.0, 41.0))


@pytest.mark.parametrize("top, sizes", [
    (80.0, [81, 40, 40]),  # the peak is inside the lattice: it holds both tails
    (130.0, [81, 40, 40, 16, 48]),  # the peak ends the lattice: the right tail walks
    (-80.0, [81, 40, 40]),
    (-130.0, [81, 40, 40, 16, 48]),
])
def test_probe_box_after_three_sweeps(top, sizes):
    # a peak at u = top, both sides falling 46 in 29 unit steps: the lattice
    # extends twice by 40 toward it, and no point is evaluated twice
    logf = lambda u: -1.6 * np.abs(u - top)  # noqa: E731
    box, calls = counted_probe(logf, 0.0)
    assert box == unit_step_line_box(logf, 0.0)
    assert [c.size for c in calls] == sizes
    points = np.concatenate(calls)
    assert np.unique(points).size == points.size


@pytest.mark.parametrize("top", [0.0, 130.0])
def test_probe_box_reports_a_peak_that_is_not_finite(top):
    # the ascent stops on nan at u = top, or still sits on an end on -inf after
    # extending the lattice twice
    logf = lambda u: np.where(u == top, np.nan, -np.inf)  # noqa: E731
    with pytest.raises(NonconvergentQuadratureError, match="^integrand has no finite peak$"):
        _probe_box(logf, 0.0)


# -- the measure ---------------------------------------------------------------


def test_density_rank1_is_inverse_gamma():
    alpha, beta, x = 2.5, 1.5, 0.8
    got = whittaker_density(1, (alpha,), beta, (x,))
    expected = beta**alpha / math.gamma(alpha) * x ** (-alpha) * math.exp(-beta / x) / x
    assert got == pytest.approx(expected, rel=1e-12)
    assert got >= 0


def test_density_rank2_where_the_peak_is_narrow():
    alpha, beta = (1.0, 1.5), 1.0
    x = (math.exp(-4.5), math.exp(4.7))
    expected = (
        math.exp(-beta / x[1])
        * rank2_besselk((-1.0, -1.5), x)
        / (normalization_c(alpha, beta) * x[0] * x[1])
    )
    assert whittaker_density(2, alpha, beta, x) == pytest.approx(expected, rel=1e-12, abs=0)


def test_density_rank2_point_value():
    alpha, beta = (1.0, 1.0), 1.0
    x = (1.3, 0.4)
    c = normalization_c(alpha, beta)
    expected = (
        math.exp(-beta / x[1])
        * psi(WhittakerParams(2, (-1.0, -1.0), x))
        / (c * x[0] * x[1])
    )
    assert whittaker_density(2, alpha, beta, x) == pytest.approx(expected, rel=1e-12)
    with pytest.raises(ValueError):
        whittaker_density(2, (1.0, -1.0), beta, x)


@pytest.mark.parametrize(
    "alpha, beta, message",
    [
        pytest.param((1.0, 0.0), 1.0, "alpha[1] must be positive and finite, got 0.0",
                     id="alpha0-1.0"),
        pytest.param((1.0,), -1.0, "beta must be positive and finite, got -1.0", id="alpha1--1.0"),
        pytest.param((math.nan, 1.0), 1.0, "alpha[0] must be positive and finite, got nan",
                     id="nan-alpha"),
        pytest.param((1.0, 1.0), math.inf, "beta must be positive and finite, got inf",
                     id="inf-beta"),
    ],
)
def test_nonpositive_parameters_fail_before_any_quadrature(alpha, beta, message):
    for call in (lambda: corollary_check(alpha, beta),
                 lambda: whittaker_density(len(alpha), alpha, beta, (1.0,) * len(alpha))):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()


def test_corollary_rank1_is_exact():
    lhs, rhs, relerr = corollary_check((2.0,), 3.0)
    assert rhs == pytest.approx(1.0 / 9.0, rel=1e-14)
    assert relerr < 1e-10


# from the floor up; past alpha = 19 the narrowing peak costs more than 1e-8
# on some alphas (see corollary_check)
@pytest.mark.parametrize("alpha", [0.12, 0.5, 2.0, 10.0, 20.0])
def test_corollary_rank1_sweep(alpha):
    _, _, relerr = corollary_check((alpha,), 1.0)
    assert relerr < 1e-8


def test_corollary_rank1_floor():
    # the 46-unit tail drop of the e^{-alpha u} tail needs 46/alpha steps of
    # the 400 the box probe walks
    with pytest.raises(NonconvergentQuadratureError, match="did not localize"):
        corollary_check((0.115,), 1.0)


def test_corollary_rank2():
    lhs, rhs, relerr = corollary_check((1.0, 1.0), 1.0)
    assert rhs == pytest.approx(1.0, rel=1e-14)
    assert relerr < 1e-6
    lhs, rhs, relerr = corollary_check((0.5, 1.5), 2.0)
    assert rhs == pytest.approx(0.25 * math.gamma(0.5) * math.gamma(1.5), rel=1e-14)
    assert relerr < 1e-6
    with pytest.raises(ValueError):
        corollary_check((1.0, 1.0, 1.0), 1.0)


@pytest.mark.parametrize(
    "alpha, beta",
    [
        ((2.0, 3.0), 1.0),
        ((2.0, 2.0), 2.0),
        ((1.5, 2.5), 0.5),
        ((0.5, 1.5), 1.0),
        ((5.0, 8.0), 0.1),
        ((6.0, 9.0), 10.0),
    ],
)
def test_corollary_rank2_sweep(alpha, beta):
    _, _, relerr = corollary_check(alpha, beta)
    assert relerr < 1e-6


# the rank-2 corollary pairs of the quadrature benchmark
BENCHMARK_PAIRS = [((2.0, 3.0), 1.0), ((2.0, 2.0), 2.0), ((1.5, 2.5), 0.5)]


@pytest.mark.parametrize("alpha, beta", BENCHMARK_PAIRS)
def test_corollary_rank2_is_the_tensor_rule_on_the_product_box(monkeypatch, alpha, beta):
    # the two line rules multiply to the 2-D tensor rule of the rank-2
    # integrand itself, Psi_{-alpha}(e^{u1}, e^{u2}) e^{-beta e^{-u2}}, on the
    # product of their grids in u2 and d = u2 - u1
    lhs = corollary_check(alpha, beta)[0]
    (gamma_side, start2), (bessel_side, start_d) = probed_integrands(
        monkeypatch, lambda: corollary_check(alpha, beta)
    )
    ((lo2, hi2), _), ((lo_d, hi_d), _) = (
        _probe_box(gamma_side, start2), _probe_box(bessel_side, start_d)
    )
    u2, w2 = _panel_nodes(lo2, hi2)
    d, wd = _panel_nodes(lo_d, hi_d)
    u2, d = u2[:, None], d[None, :]
    neg = tuple(-a for a in alpha)
    tensor = float(w2 @ np.exp(_log_psi2(neg, u2 - d, u2) - beta * np.exp(-u2)) @ wd)
    assert lhs == pytest.approx(tensor, rel=1e-12)


@pytest.mark.parametrize(
    "alpha, beta, tol",
    [
        *[(alpha, beta, 1e-12) for alpha, beta in BENCHMARK_PAIRS],
        ((1.0, 1.0), 1.0, 1e-12),
        ((0.5, 1.5), 1.0, 1e-12),
        ((0.5, 1.5), 2.0, 1e-12),
        ((0.3, 0.4), 1.0, 1e-12),
        ((0.2, 0.2), 1.0, 1e-12),
        ((5.0, 8.0), 0.1, 1e-8),
        ((6.0, 9.0), 10.0, 1e-8),
        ((20.0, 30.0), 1.0, 1e-8),
    ],
)
def test_corollary_rank2_accuracy(alpha, beta, tol):
    # measured: at most 3.4e-15 at the 1e-12 pairs; 8.1e-11, 2.2e-11 and
    # 2.6e-9 at the three narrow peaks
    _, _, relerr = corollary_check(alpha, beta)
    assert relerr <= tol


def test_corollary_rank2_narrow_peak_stays_finite():
    # a peak narrower than a panel costs accuracy (relerr 2e-2), but the
    # scales e^-530 and e^718 of the two lines meet in one exponent
    lhs, rhs, relerr = corollary_check((100.0, 100.0), 1000.0)
    assert math.isfinite(lhs) and relerr < 0.05


def test_corollary_value_near_the_double_range_is_finite():
    # c = e^709.5: the two peaks add to 709.86, past exp's range, while the
    # integral itself is a double
    alpha = (20.0, 30.0)
    beta = math.exp((normalization_c(alpha, 1.0, log=True) - 709.5) / 50.0)
    lhs, rhs, relerr = corollary_check(alpha, beta)
    assert math.isfinite(lhs) and relerr < 1e-8


def test_times_exp_names_a_value_beyond_double_range():
    # e^710 alone overflows a float, but e^710 / 2 is one
    assert _times_exp(0.5, 710.0, "v", a=1) == pytest.approx(0.5 * math.exp(10.0) * math.exp(700.0))
    message = r"^v at a=1, b=\(2, 3\) = exp\(710\.19\d*\) overflows a float$"
    with pytest.raises(OverflowError, match=message):
        _times_exp(2.0, 709.5, "v", a=1, b=(2, 3))


@pytest.mark.parametrize(
    "alpha, want",
    [
        (2.0, "0x1.0000000000002p+0"),
        (0.5, "0x1.c5bf891b4ef6ap+0"),
        (0.12, "0x1.f73f836a69c09p+2"),
        (47.0, "0x1.c0d37e36c6eb6p+191"),
    ],
)
def test_corollary_rank1_known_answers(alpha, want):
    assert corollary_check((alpha,), 1.0)[0].hex() == want


D_LINE = "the d line Psi_{-alpha}(e^{-d}, 1)"


@pytest.mark.parametrize(
    "alpha, message",
    [
        ((0.115, 1.0), f"{D_LINE} at alpha=(0.115, 1.0)"),
        ((1.0, 0.115), f"{D_LINE} at alpha=(1.0, 0.115)"),
        ((0.05, 0.06), "the gamma line e^{-a u - beta e^{-u}} at a=0.11, beta=1.0"),
    ],
)
def test_corollary_rank2_floor(alpha, message):
    # the e^{min(alpha) d} tail of the Bessel side needs 46/min(alpha) of the
    # probe's 400 steps, as the gamma side's needs 46/(a1 + a2); the error
    # names the line that did not localize and its parameters
    message = f"^{re.escape(message)}: mass did not localize$"
    with pytest.raises(NonconvergentQuadratureError, match=message):
        corollary_check(alpha, 1.0)


def test_rank3_nonconvergence_names_psi():
    # at alpha = 0 the walls leave the second row flat on a square of side
    # 690, so the d line is nearly flat over 1380 units, past the probe's 400 steps
    message = (r"^Psi of rank 3 at alpha=\(0\.0, 0\.0, 0\.0\), x=\(1e\+300, 1\.0, 1e-300\): "
               "mass did not localize$")
    with pytest.raises(NonconvergentQuadratureError, match=message):
        psi(WhittakerParams(3, (0.0, 0.0, 0.0), (1e300, 1.0, 1e-300)))


@pytest.mark.parametrize(
    "alpha, beta",
    [((2.0, 3.0), 1.0), ((2.0, 2.0), 2.0), ((1.5, 2.5), 0.5), ((0.5, 1.5), 1.0),
     ((5.0, 8.0), 0.1), ((6.0, 9.0), 10.0), ((1.0, 1.5), 1.0)],
)
def test_measure_total_is_c(alpha, beta):
    # Gamma(a) beta^{-a} times the d-line total, over c; measured: at most
    # 2.2e-15 (the 2-D grid this replaced read up to 1.8e-7)
    total_mass = _measure_predictions(alpha, beta, (), (), ())[0]
    assert total_mass == pytest.approx(1.0, rel=1e-12)


def test_measure_total_at_small_alpha_is_one():
    # the 2-D grid's box, cut from axis profiles through the peak, missed
    # 1.9e-3 of the mass along u1 here and reported total_mass 0.99813
    report = whittaker_measure_check((0.2, 0.2), 1.0, samples=2000, seed=1)
    assert report["pass"]
    assert abs(report["total_mass"] - 1.0) <= 1e-12


def test_measure_cdf_is_monotone():
    cuts = (0.5, 1.0, 4.0)
    _, cdf, _, _ = _measure_predictions((1.0, 1.0), 0.5, cuts, cuts, ())
    values = dict(zip(itertools.product(cuts, cuts), cdf))
    assert all(0 <= v <= 1 for v in cdf)
    assert values[1.0, 1.0] <= values[4.0, 1.0] <= values[4.0, 4.0]
    assert values[1.0, 1.0] <= values[1.0, 4.0] <= values[4.0, 4.0]
    # the tail above 1e9 really does carry ~1e-8 of the mass
    _, (far,), _, _ = _measure_predictions((1.0, 1.0), 0.5, (1e9,), (1e9,), ())
    assert far == pytest.approx(1.0, rel=1e-6)


def fine_panels(lo, hi, cuts, width=0.5, nodes=20):
    """Gauss nodes and weights on [lo, hi] in panels of at most width, with a
    boundary at every cut, without _panel_nodes."""
    edges = sorted({lo, hi, *(c for c in cuts if lo < c < hi)})
    base, weights = np.polynomial.legendre.leggauss(nodes)
    u, w = [], []
    for a, b in zip(edges, edges[1:]):
        pieces = max(math.ceil((b - a) / width), 1)
        for k in range(pieces):
            left, right = a + (b - a) * k / pieces, a + (b - a) * (k + 1) / pieces
            u.append(0.5 * (right - left) * base + 0.5 * (right + left))
            w.append(0.5 * (right - left) * weights)
    return np.concatenate(u), np.concatenate(w)


def test_measure_predictions_match_a_tensor_rule_on_the_quadrant():
    # the unsplit integrand e^{-beta e^{-u2}} Psi_{-alpha}(e^{u1}, e^{u2}) on
    # the 2-D probe box widened by 8 per side, 0.5-wide panels cut at every
    # log s and log t: no homogeneity split and no closed-form Q or L;
    # measured: at most 1.7e-15
    alpha, beta, r = (1.0, 1.5), 1.0, 1.0
    points = [(0.3, 0.5), (1.0, 1.2), (3.0, 2.5)]
    neg = tuple(-a for a in alpha)

    def logf(u1, u2):
        return _log_psi2(neg, u1, u2) - beta * np.exp(np.minimum(-u2, 700.0))

    ((lo1, hi1), (lo2, hi2)), peak = unit_step_probe_box(logf, (0.0, 0.0))
    u1, w1 = fine_panels(lo1 - 8.0, hi1 + 8.0, [math.log(s) for s, _ in points])
    u2, w2 = fine_panels(lo2 - 8.0, hi2 + 8.0, [math.log(t) for _, t in points])
    mass = np.zeros((u1.size, u2.size))
    for block in range(0, u2.size, 200):  # in column blocks, to keep the arrays small
        cols = slice(block, block + 200)
        mass[:, cols] = np.exp(logf(u1[:, None], u2[None, cols]) - peak) * np.outer(w1, w2[cols])
    total = mass.sum()
    assert total * math.exp(peak) == pytest.approx(normalization_c(alpha, beta), rel=1e-12)
    for (s, t), got in zip(points, [_measure_predictions(alpha, beta, (s,), (t,), ())[1][0]
                                    for s, t in points]):
        want = mass[np.ix_(u1 < math.log(s), u2 < math.log(t))].sum() / total
        assert got == pytest.approx(want, rel=1e-12, abs=0)
    want = np.exp(-r * np.exp(u1)) @ mass.sum(axis=1) / total
    assert _measure_predictions(alpha, beta, (), (), (r,))[2][0] == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("alpha, beta", [((20.0, 30.0), 1.0), ((100.0, 100.0), 1000.0)])
def test_measure_predictions_at_narrow_peaks_match_fine_panels(monkeypatch, alpha, beta):
    # the report's 28 predictions against the same d line on 0.1-wide panels;
    # measured: 2.1e-12 and 6.3e-9 (the 2-D grid was 3.8e-9 and 1.2e-6 off)
    report = whittaker_measure_check(alpha, beta, samples=2000, seed=1)
    s_cuts = sorted({p["s"] for p in report["cdf_points"]})
    t_cuts = sorted({p["t"] for p in report["cdf_points"]})
    monkeypatch.setattr(whittaker, "_PANEL_WIDTH", 0.1)
    _, cdf, laplace, _ = _measure_predictions(alpha, beta, s_cuts, t_cuts, (0.5, 1.0, 2.0))
    got = [p["predicted"] for p in report["cdf_points"] + report["laplace"]]
    assert np.max(np.abs(np.subtract(got, cdf + laplace))) <= 2e-8


@pytest.mark.parametrize("nu", [50.0, 80.0, 200.0, 1000.0])
def test_log_bessel_k_where_kve_overflows_at_large_order(nu):
    # at order 200 kve overflows up to z/2 = 2.1, where the small-argument
    # leading term is 2% off; Debye's expansion is not
    from scipy.special import kve

    edge = (math.lgamma(nu) - 709.0) / nu  # about where kve overflows
    for log_half_z in (edge - 3.0, edge, edge + 1.0):
        if math.isfinite(kve(nu, 2.0 * math.exp(log_half_z))):
            continue
        with mpmath.workdps(30):
            want = float(mpmath.log(mpmath.besselk(nu, 2 * mpmath.exp(log_half_z))))
        assert float(_log_bessel_k(nu, log_half_z)) == pytest.approx(want, rel=1e-14, abs=1e-11)


def three_branch_log_bessel_k(nu, log_half_z):
    """_log_bessel_k's formula with both fallback ranges always built: the
    large-argument term past z = 1e8, and where kve overflows the small-argument
    term (nu < 50, or -log(z/2) - gamma at nu = 0) or Debye's expansion."""
    from scipy.special import kve

    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        z = 2.0 * np.exp(log_half_z)
        log_k = np.log(kve(nu, z)) - z
        large = 0.5 * (math.log(0.25 * math.pi) - log_half_z) - z
        if nu >= 50:
            log_w = math.log(2.0 / nu) + log_half_z
            s = np.sqrt(1.0 + np.exp(2.0 * np.minimum(log_w, 300.0)))
            series = sum((-1.0 / (nu * s)) ** k * np.polyval(coef, 1.0 / (s * s)) / den
                         for k, (coef, den) in enumerate(whittaker._DEBYE, start=1))
            small = (0.5 * math.log(0.5 * math.pi / nu) - nu * (s + log_w - np.log1p(s))
                     - 0.5 * np.log(s) + np.log1p(series))
        elif nu > 0:
            small = math.lgamma(nu) - math.log(2.0) - nu * log_half_z
        else:
            small = np.log(-log_half_z - np.euler_gamma)
        return np.where(z > 1e8, large, np.where(np.isfinite(log_k), log_k, small))


ORDINARY = np.linspace(-3.0, 3.0, 81)


@pytest.mark.parametrize("nu, log_half_z, fallback", [
    (0.0, ORDINARY, None),
    (2.5, ORDINARY, None),
    (60.0, ORDINARY, None),
    (200.0, ORDINARY + 6.0, None),
    (2.5, np.append(ORDINARY, [-300.0, -700.0]), "kve overflows below order 50"),
    (0.0, np.append(ORDINARY, [-800.0]), "z underflows at order 0"),
    (200.0, np.append(ORDINARY, [0.0, -5.0]), "Debye at order 200"),
    (60.0, np.append(ORDINARY, [-8.0, -10.0]), "Debye at order 60"),
    (1.5, np.append(ORDINARY, [math.log(5.1e7), 700.0]), "z past 1e8"),
    (7.0, np.concatenate([ORDINARY, [-400.0, math.log(5.1e7)]]), "both ranges"),
])
def test_log_bessel_k_fast_path_is_the_three_branch_formula(nu, log_half_z, fallback):
    # bit for bit, on lines where no value needs a fallback and on lines that
    # mix ordinary values with each fallback range, where the plain formula
    # log kve - z is off in at least one bit
    from scipy.special import kve

    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        z = 2.0 * np.exp(log_half_z)
        plain = np.log(kve(nu, z)) - z
    assert (np.isfinite(plain) & (z <= 1e8)).all() == (fallback is None)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = _log_bessel_k(nu, log_half_z)
        scalars = [_log_bessel_k(nu, v) for v in log_half_z[::9]]
    want = three_branch_log_bessel_k(nu, log_half_z)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert (plain.tobytes() == want.tobytes()) == (fallback is None)
    assert [float(v).hex() for v in scalars] == [float(v).hex() for v in want[::9]]


def test_rank2_psi_where_kve_overflows_at_large_order():
    # K_200(2) = e^{857.9}: the small-argument leading term read 0.5% low
    alpha, x = (-100.0, -300.0), (math.exp(2.0), math.exp(2.0))
    assert psi(WhittakerParams(2, alpha, x)) == pytest.approx(rank2_besselk(alpha, x), rel=1e-12)


def test_measure_check_end_to_end():
    report = whittaker_measure_check((1.0, 1.0), 0.5, samples=20_000, seed=7)
    assert report["pass"]
    assert report["total_mass"] == pytest.approx(1.0, abs=1e-6)
    assert report["cdf_max_sigma"] <= 3.0
    assert len(report["cdf_points"]) == 25
    assert [row["r"] for row in report["laplace"]] == [0.5, 1.0, 2.0]
    with pytest.raises(ValueError):
        whittaker_measure_check((1.0, 1.0, 1.0), 0.5, samples=10, seed=0)


class CountingStream(Stream):
    """A scalar Stream that counts its normals: one per gamma proposal."""

    def __init__(self, *keys):
        super().__init__(*keys)
        self.normals = 0

    def normal(self):
        self.normals += 1
        return super().normal()


@pytest.mark.parametrize(
    "alpha, samples, seed", [((1.0, 1.5), 5000, 11), ((1.0, 1.0), 4000, 7)]
)
def test_measure_check_matches_a_report_on_scalar_draws(monkeypatch, alpha, samples, seed):
    # the lane route against sample_symmetric_env and burge_partition_vector
    # one sample at a time, sampler diagnostics included
    spec = EnvSpec(2, alpha, 1.0)
    t11, t22 = [], []
    uniforms = rejections = 0
    for i in range(samples):
        rng = CountingStream(seed, i)
        first, last = burge_partition_vector(sample_symmetric_env(spec, rng))
        t11.append(first)
        t22.append(last)
        uniforms += rng._count
        rejections += rng.normals - 3  # three entries, each one accepted proposal
    want = _measure_report(
        alpha, 1.0, seed, np.asarray(t22), np.asarray(t11), (0.5, 1.0, 2.0),
        {"uniforms": uniforms, "gamma_rejections": rejections},
    )
    got = whittaker_measure_check(alpha, 1.0, samples=samples, seed=seed)
    assert got == want
    assert got["diagnostics"]["gamma_rejections"] > 0
    # d_nodes counts the nodes of the d line, cut at every log(t/s)
    (logf, start), = probed_integrands(
        monkeypatch, lambda: _measure_predictions(alpha, 1.0, (1.0,), (1.0,), ())
    )
    (lo, hi), _ = _probe_box(logf, start)
    cuts = [math.log(p["t"] / p["s"]) for p in got["cdf_points"]]
    assert got["diagnostics"]["d_nodes"] == len(_panel_nodes(lo, hi, cuts)[0])


@pytest.mark.parametrize("samples", [0, -1])
def test_measure_check_needs_a_sample(samples):
    with pytest.raises(ValueError, match="samples must be at least 1"):
        whittaker_measure_check((1.0, 1.0), 1.0, samples=samples, seed=0)


def test_measure_check_needs_two_samples_before_any_draw(monkeypatch):
    # one sample has no standard error: np.std(ddof=1) warned twice and gave nan,
    # which the report could not print
    def unreachable(*args, **kwargs):
        raise AssertionError("drew or integrated before checking samples")

    monkeypatch.setattr(whittaker, "_burge_diagonals", unreachable)
    monkeypatch.setattr(whittaker, "_measure_predictions", unreachable)
    with pytest.raises(ValueError, match="^samples must be at least 2 for the standard errors, got 1$"):
        whittaker_measure_check((1.0, 1.5), 1.0, samples=1, seed=1)


def test_replica_laplace_matches_the_quadrature():
    # the replica partition function has the law of the first density
    # coordinate, so its Laplace transform must match the quadrature
    spec = EnvSpec(2, (1.0, 1.0), 0.5)
    result = laplace_mc(spec, [1.0], samples=30_000, seed=99)[0]
    predicted = _measure_predictions((1.0, 1.0), 0.5, (), (), (1.0,))[2][0]
    assert abs(result.estimate - predicted) <= 3 * result.stderr


# -- bit pins -------------------------------------------------------------------

# float.hex of outputs recorded before the probe reused its last ascent window,
# _log_bessel_k skipped unneeded fallbacks and the quantiles were batched; every
# later change to the line rule must keep them or say why they moved.  Rank-3
# Psi at 4 points drawn as in the benchmark (random.Random(29), rounded to 3
# digits), each at the 6 orders of alpha
PSI3_PINS = {
    ((0.048, -0.154, 0.345), (-0.296, 0.014, -0.219)): (
        "0x1.d25bb4ae0e3cep-7", "0x1.d25bb4ae0e4f3p-7", "0x1.d25bb4ae0e3cep-7",
        "0x1.d25bb4ae0e586p-7", "0x1.d25bb4ae0e4f3p-7", "0x1.d25bb4ae0e586p-7"),
    ((-0.085, 0.474, -0.396), (-0.077, -0.385, -0.211)): (
        "0x1.a297830de9119p-6", "0x1.a297830de90f1p-6", "0x1.a297830de9119p-6",
        "0x1.a297830de905ap-6", "0x1.a297830de90f1p-6", "0x1.a297830de905ap-6"),
    ((0.499, -0.171, 0.108), (-0.113, 0.323, -0.074)): (
        "0x1.0bdac505c4dabp-6", "0x1.0bdac505c4e34p-6", "0x1.0bdac505c4dabp-6",
        "0x1.0bdac505c4ddfp-6", "0x1.0bdac505c4e34p-6", "0x1.0bdac505c4ddfp-6"),
    ((-0.33, -0.066, -0.092), (0.41, 0.088, -0.425)): (
        "0x1.065d2f605b41bp-4", "0x1.065d2f605b466p-4", "0x1.065d2f605b41bp-4",
        "0x1.065d2f605b437p-4", "0x1.065d2f605b466p-4", "0x1.065d2f605b437p-4"),
}


@pytest.mark.parametrize("alpha, log_x", PSI3_PINS)
def test_rank3_psi_is_pinned_bit_for_bit(alpha, log_x):
    x = tuple(math.exp(v) for v in log_x)
    got = [psi(WhittakerParams(3, perm, x)).hex() for perm in itertools.permutations(alpha)]
    assert tuple(got) == PSI3_PINS[alpha, log_x]


# rank-3 Psi at wide arguments, recorded before the probe's ascent became one
# lattice: the peak 35 and 1 steps below the start, where the left tail walks
# past the lattice (logf call sizes [81, 11] and [81, 25]), and 120 and 70
# steps below it, where the lattice extends twice and once ([81, 40, 40, 16,
# 48] and [81, 40, 6, 48])
WIDE_PSI3_PINS = {
    ((3.0, 2.0, 1.0), (1e30, 1.0, 1.0)): "0x1.193cc4a52a66dp+297",
    ((1.0, 2.0, 3.0), (1e60, 1.0, 1e-60)): "0x1.8c8dac6a0343ep+398",
    ((1.0, 2.0, 3.0), (1e60, 1e60, 1e-60)): "0x1.57aa37d074890p+795",
    ((3.0, 2.0, 1.0), (1e60, 1e-30, 1e-60)): "0x1.3e9e4e4c2f315p+199",
}


@pytest.mark.parametrize("alpha, x", WIDE_PSI3_PINS)
def test_rank3_psi_at_wide_arguments_is_pinned_bit_for_bit(alpha, x):
    assert psi(WhittakerParams(3, alpha, x)).hex() == WIDE_PSI3_PINS[alpha, x]


@pytest.mark.parametrize("alpha, log_x", PSI3_PINS)
def test_rank3_psi_makes_4_bessel_calls_on_442_values(monkeypatch, alpha, log_x):
    # at each order: two for the probe's 81-point lattice, two for the 140 nodes
    x = tuple(math.exp(v) for v in log_x)
    sizes = []

    def counting(nu, log_half_z):
        sizes.append(np.size(log_half_z))
        return _log_bessel_k(nu, log_half_z)

    monkeypatch.setattr(whittaker, "_log_bessel_k", counting)
    for perm in itertools.permutations(alpha):
        sizes.clear()
        psi(WhittakerParams(3, perm, x))
        assert (len(sizes), sum(sizes)) == (4, 442)


# (lhs, rhs, relerr) of the benchmark's rank-2 corollary pairs
COROLLARY_PINS = [
    ("0x1.800000000000fp+5", "0x1.7fffffffffff8p+5", "0x1.eaaaaaaaaaab5p-49"),
    ("0x1.8000000000008p-2", "0x1.8000000000003p-2", "0x1.aaaaaaaaaaaa7p-51"),
    ("0x1.c463abeccb2c9p+6", "0x1.c463abeccb2c0p+6", "0x1.45f306dc9c87fp-50"),
]


@pytest.mark.parametrize("pair, pins", list(zip(BENCHMARK_PAIRS, COROLLARY_PINS)))
def test_corollary_is_pinned_bit_for_bit(pair, pins):
    assert tuple(v.hex() for v in corollary_check(*pair)) == pins


def test_measure_predictions_are_pinned_bit_for_bit():
    # the benchmark's measure check: alpha = (1, 1.5), beta = 1, 5000 samples, seed 11
    report = whittaker_measure_check((1.0, 1.5), 1.0, samples=5000, seed=11)
    points = report["cdf_points"]
    assert report["total_mass"].hex() == "0x1.0000000000001p+0"
    assert [p["s"].hex() for p in points[::5]] == [
        "0x1.ae24e4da59168p-4", "0x1.4088453167448p-2", "0x1.6e9dbb1547b20p-1",
        "0x1.bfc165bc07d31p+0", "0x1.1d3c85ca8f346p+3"]
    assert [p["t"].hex() for p in points[:5]] == [
        "0x1.bd1db4e9126dep-3", "0x1.4f17274ea3394p-2", "0x1.d09da262ff3f2p-2",
        "0x1.4f73230efd243p-1", "0x1.334c54f7a8c4cp+0"]
    assert [p["predicted"].hex() for p in points] == [
        "0x1.c7e8f69e9b30dp-6", "0x1.f2a75c2e6937ep-5", "0x1.4e2ef403fa63ap-4",
        "0x1.7f237cd1e733bp-4", "0x1.92e2027715874p-4", "0x1.d15accf1c9d59p-5",
        "0x1.2526cb7bfd504p-3", "0x1.b22863f2d7bfbp-3", "0x1.0ea542e5e5786p-2",
        "0x1.2fc19d2cc6fa0p-2", "0x1.33162b37e3bb1p-4", "0x1.9c6d4fa2b54dep-3",
        "0x1.40c0bf10aac34p-2", "0x1.a3135223522dbp-2", "0x1.ed302b5170c17p-2",
        "0x1.67b6a4d50d93ap-4", "0x1.f7184f9cf53d7p-3", "0x1.943f2f719f6d1p-2",
        "0x1.1108745469947p-1", "0x1.4e1280bbbe9ccp-1", "0x1.9138903c6ba6dp-4",
        "0x1.2183e981de942p-2", "0x1.ddb8075916fcap-2", "0x1.4c0438e9e2843p-1",
        "0x1.a5c6473501972p-1"]
    assert [p["predicted"].hex() for p in report["laplace"]] == [
        "0x1.2ccefd0ae2a62p-1", "0x1.d4f9bd5cee94ep-2", "0x1.4d302243734a0p-2"]
    assert report["diagnostics"]["d_nodes"] == 920


# the same check at alpha = (0.2, 0.2), beta = 0.2 (5000 samples, seed 11),
# whose slow tails take a d line of 2,480 nodes
SMALL_ALPHA_PINS = {
    "total_mass": "0x1.0000000000002p+0",
    "s": ["0x1.6cfe57c28c322p+4", "0x1.de3f17ce686f9p+9", "0x1.7ccadaddd80fcp+14",
          "0x1.8328143932b19p+20", "0x1.5360d86d39d87p+31"],
    "t": ["0x1.6d221643994acp-3", "0x1.f3e7b8620668dp-2", "0x1.603b0570b1146p+0",
          "0x1.323a0ade60074p+2", "0x1.2cc6f755f54d2p+6"],
    "cdf": [
        "0x1.9cab7243146eep-6", "0x1.ee5642b0c582bp-5", "0x1.5ec9926ba660cp-4",
        "0x1.92678d11aca22p-4", "0x1.a0ee31ddeaefep-4", "0x1.9d75f0a6f7ce2p-5",
        "0x1.135a498dd8d49p-3", "0x1.afbcc4790e279p-3", "0x1.1043a94479186p-2",
        "0x1.3547bb5beaf2dp-2", "0x1.1649de08a7c2cp-4", "0x1.815fffd02646dp-3",
        "0x1.3992d5aad8216p-2", "0x1.9b2b7767bd144p-2", "0x1.ee7e0cb1ee38bp-2",
        "0x1.53e8daf240d81p-4", "0x1.e237653c9fe11p-3", "0x1.917d9bd49ac6dp-2",
        "0x1.0db66517d5d7cp-1", "0x1.5176ece6b1e87p-1", "0x1.8765bc896e438p-4",
        "0x1.1a38e2515d544p-2", "0x1.dd51102c4ea35p-2", "0x1.46012dbdaaafdp-1",
        "0x1.a380a5b919e59p-1"],
    "laplace": ["0x1.6f9dfb469220bp-6", "0x1.b3659b0d09cd4p-7", "0x1.da7efcee21773p-8"],
    "d_nodes": 2480,
}


def test_measure_predictions_at_small_alpha_are_pinned_bit_for_bit():
    report = whittaker_measure_check((0.2, 0.2), 0.2, samples=5000, seed=11)
    points = report["cdf_points"]
    got = {
        "total_mass": report["total_mass"].hex(),
        "s": [p["s"].hex() for p in points[::5]],
        "t": [p["t"].hex() for p in points[:5]],
        "cdf": [p["predicted"].hex() for p in points],
        "laplace": [p["predicted"].hex() for p in report["laplace"]],
        "d_nodes": report["diagnostics"]["d_nodes"],
    }
    assert got == SMALL_ALPHA_PINS


def cdf_rows_one_per_point(a, beta, s_cuts, t_cuts, d):
    """Q(a, beta / min(t, s e^d)) at every (s, t), s outer, over the nodes d:
    one gammaincc row per point, the measure's CDF rows before they were
    built from one row per s cut and one value per t cut."""
    from scipy.special import gammaincc

    log_s = np.log(np.repeat(s_cuts, len(t_cuts)))[:, None]
    log_t = np.log(np.tile(t_cuts, len(s_cuts)))[:, None]
    return gammaincc(a, np.exp(np.minimum(math.log(beta) - np.minimum(log_t, log_s + d), 700.0)))


def measure_cdf_rows(monkeypatch, alpha, beta, s_cuts, t_cuts):
    """The CDF rows of _measure_predictions at these cuts, as a function of the
    nodes, and the nodes of its d line."""
    seen = {}
    real = whittaker._d_line

    def recording(alpha, cuts=(), rows=None):
        def recording_rows(d):
            seen["d"] = d
            return rows(d)

        seen["rows"] = rows
        return real(alpha, cuts, recording_rows)

    monkeypatch.setattr(whittaker, "_d_line", recording)
    _measure_predictions(alpha, beta, s_cuts, t_cuts, (1.0,))
    points = len(s_cuts) * len(t_cuts)
    return (lambda d: seen["rows"](d)[1:1 + points]), seen["d"]


def test_measure_cdf_rows_equal_one_gammaincc_row_per_point(monkeypatch):
    # the benchmark's cuts on its own d nodes; then nodes where t = s e^d holds
    # exactly, with their neighbours an ulp away; then cuts and nodes where
    # beta / min(t, s e^d) passes e^700 on either side and the clamp holds it
    alpha, beta = (1.0, 1.5), 1.0
    a = sum(alpha)
    report = whittaker_measure_check(alpha, beta, samples=5000, seed=11)
    s_cuts = [p["s"] for p in report["cdf_points"][::5]]
    t_cuts = [p["t"] for p in report["cdf_points"][:5]]
    rows, d = measure_cdf_rows(monkeypatch, alpha, beta, s_cuts, t_cuts)
    assert d.size == report["diagnostics"]["d_nodes"]
    want = cdf_rows_one_per_point(a, beta, s_cuts, t_cuts, d)
    assert rows(d).tobytes() == want.tobytes()

    log_s, log_t = np.log(s_cuts)[:, None], np.log(t_cuts)
    d = (log_t - log_s).ravel()
    d = np.concatenate([np.nextafter(d, -np.inf), d, np.nextafter(d, np.inf)])
    ties = log_s[:, None, :] + d == log_t[:, None]  # (s, t, node)
    assert np.count_nonzero(ties.any(axis=2)) == 13  # 13 of the 25 (s, t) meet a node exactly
    want = cdf_rows_one_per_point(a, beta, s_cuts, t_cuts, d)
    assert rows(d).tobytes() == want.tobytes()

    s_cuts, t_cuts = (0.5, 2.0), (1e-305, 0.3, 4.0)
    rows, _ = measure_cdf_rows(monkeypatch, alpha, beta, s_cuts, t_cuts)
    d = np.linspace(-760.0, 40.0, 801)
    assert (math.log(beta) - (math.log(0.5) + d) > 700.0).sum() > 50  # the s side clamps
    assert math.log(beta) - math.log(1e-305) > 700.0  # and so does the first t side
    want = cdf_rows_one_per_point(a, beta, s_cuts, t_cuts, d)
    assert rows(d).tobytes() == want.tobytes()


def test_measure_check_evaluates_gammaincc_once_per_s_cut_node_and_t_cut(monkeypatch):
    # one row over the d nodes per s cut and one value per t cut: 5 x 920 + 5
    import scipy.special

    values = []
    real = scipy.special.gammaincc

    def counting(a, x):
        values.append(np.size(x))
        return real(a, x)

    monkeypatch.setattr(scipy.special, "gammaincc", counting)
    report = whittaker_measure_check((1.0, 1.5), 1.0, samples=5000, seed=11)
    assert report["diagnostics"]["d_nodes"] == 920
    assert sum(values) == 5 * 920 + 5
