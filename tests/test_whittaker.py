"""Whittaker evaluation against closed forms, and the measure checks."""

import itertools
import math

import mpmath
import numpy as np
import pytest
from scipy.special import kv

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
    TriangularPattern,
    WhittakerParams,
    _line_integral,
    _log_psi2,
    _measure_report,
    _MeasureGrid,
    _probe_box,
    _psi3_grid,
    _psi3_logf,
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


# -- patterns ---------------------------------------------------------------


def test_pattern_validation():
    with pytest.raises(ValueError):
        TriangularPattern(((1.0, 2.0),))
    with pytest.raises(ValueError):
        TriangularPattern(((1.0,), (0.0, 2.0)))
    z = TriangularPattern(((2.0,), (3.0, 5.0)))
    assert z.n == 2 and z.bottom == (3.0, 5.0)


def test_energy_examples():
    assert energy(TriangularPattern(((4.0,),))) == 0.0
    z = TriangularPattern(((2.0,), (3.0, 5.0)))
    assert energy(z) == pytest.approx(5.0 / 2.0 + 2.0 / 3.0)
    ones3 = TriangularPattern(((1.0,), (1.0, 1.0), (1.0, 1.0, 1.0)))
    assert energy(ones3) == 6.0


def test_type_vector_examples():
    z = TriangularPattern(((2.0,), (3.0, 5.0)))
    assert type_vector(z) == (2.0, 7.5)
    ones3 = TriangularPattern(((1.0,), (1.0, 1.0), (1.0, 1.0, 1.0)))
    assert type_vector(ones3) == (1.0, 1.0, 1.0)
    z3 = TriangularPattern(((2.0,), (0.5, 3.0), (1.0, 4.0, 0.25)))
    assert math.prod(type_vector(z3)) == pytest.approx(math.prod(z3.bottom))


def test_params_validation():
    with pytest.raises(ValueError):
        WhittakerParams(2, (1.0,), (1.0, 1.0))
    with pytest.raises(ValueError):
        WhittakerParams(2, (1.0, 1.0), (1.0, -1.0))


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


def test_rank2_closed_form_grid_matches_the_line_integral():
    alpha = (-1.0, -2.0)
    u1 = np.array([-2.0, 0.0, 1.5, 3.0])
    u2 = np.array([-1.0, 0.5])
    grid = np.exp(_log_psi2(alpha, u1[:, None], u2[None, :]))
    assert grid.shape == (4, 2)
    for i, v in enumerate(u1):
        for j, w in enumerate(u2):
            scalar = psi(WhittakerParams(2, alpha, (math.exp(v), math.exp(w))))
            assert grid[i, j] == pytest.approx(scalar, rel=1e-12)


def test_rank2_closed_form_stays_in_range_at_extreme_bessel_arguments():
    # z = 2 sqrt(x2/x1) = 2 e^{(u2 - u1)/2}: kve returns nan from z ~ 1.3e9,
    # and K_nu overflows at tiny z once |nu| >= 1.5
    big_z = [(0.0, 2 * math.log(1e9)), (-300.0, 300.0), (0.0, 2000.0)]
    small_z = [(2 * math.log(1e201), 0.0), (0.0, -1000.0), (1000.0, -1000.0)]
    for alpha in ((-1.0, -3.0), (-5.0, -8.0), (2.0, -0.5), (-1.0, -1.0)):
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


def test_rank3_node_count_is_converged():
    alpha = (-1.0, -2.0, -3.0)
    x = (2.0, 0.7, 1.3)
    assert psi(WhittakerParams(3, alpha, x)) == pytest.approx(
        _psi3_grid(alpha, x, nodes=24), rel=1e-12
    )


# (alpha, x) points for rank 3: small mixed-sign parameters near the unit
# argument, as in the benchmark, and one with larger parameters
RANK3_POINTS = [
    ((-1.0, -2.0, -3.0), (2.0, 0.7, 1.3)),
    ((-1.0, -2.0, -3.0), (1.0, 1.0, 1.0)),
    ((0.12, 0.24, 0.3), (math.exp(0.7), math.exp(-0.7), 1.0)),
    ((-0.47, -0.03, 0.44), (math.exp(-0.7), math.exp(0.7), math.exp(0.2))),
    ((-0.5, 0.5, -0.25), (math.exp(0.7), math.exp(0.7), math.exp(-0.7))),
]


def test_rank3_parameter_permutation_symmetry():
    for alpha, x in RANK3_POINTS:
        values = [psi(WhittakerParams(3, perm, x)) for perm in itertools.permutations(alpha)]
        assert max(values) == pytest.approx(min(values), rel=1e-12), alpha


def rank3_tensor_oracle(alpha, x, nodes=192, pad=6.0):
    """Independent route: a 3-D Gauss tensor rule over the three free entries,
    on the probed box widened by pad units on every side, summed one u11
    slice at a time.  At these points 192 nodes agree with 256 nodes and a
    10-unit pad to 4e-14."""
    logf, centers = _psi3_logf(alpha, x)
    axes, peak = _probe_box(logf, centers)
    base, weights = np.polynomial.legendre.leggauss(nodes)
    points, rules = [], []
    for lo, hi in axes:
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


def test_rank3_scale_covariance():
    # rescaling the argument by c rescales the value by c^(sum alpha)
    alpha = (-1.0, -2.0, -3.0)
    x = (2.0, 0.7, 1.3)
    c = 1.9
    big = psi(WhittakerParams(3, alpha, tuple(c * v for v in x)))
    assert big == pytest.approx(c ** sum(alpha) * psi(WhittakerParams(3, alpha, x)), rel=1e-12)


def test_rank3_monte_carlo_route():
    params = WhittakerParams(3, (-1.0, -2.0, -3.0), (1.0, 1.0, 1.0))
    quad = psi(params)
    mc = psi(params, method="monte-carlo")
    assert mc == pytest.approx(quad, rel=0.03)


def test_unsupported_ranks_and_methods():
    params = WhittakerParams(4, (-1.0,) * 4, (1.0,) * 4)
    with pytest.raises(ValueError):
        psi(params)
    with pytest.raises(ValueError):
        psi(WhittakerParams(1, (-1.0,), (1.0,)), method="series")


def test_integrand_fast_path_matches_pattern_definitions():
    # the quadrature's log-integrand must agree with exponent-weighted type
    # products damped by the energy, computed through the public functions
    alpha = (-0.5, -1.25, -2.0)
    x = (1.3, 0.6, 2.2)
    logf, _ = _psi3_logf(alpha, x)
    z = TriangularPattern(((0.8,), (1.7, 0.4), x))
    direct = sum(a * math.log(t) for a, t in zip(alpha, type_vector(z))) - energy(z)
    via_fast_path = float(
        logf(
            np.array([math.log(0.8)]),
            np.array([math.log(1.7)]),
            np.array([math.log(0.4)]),
        )[0]
    )
    assert via_fast_path == pytest.approx(direct, rel=1e-12)


def test_line_integral_reports_nonconvergence():
    with pytest.raises(NonconvergentQuadratureError):
        _line_integral(lambda u: np.zeros_like(u), center=0.0, max_panels=5)


# -- the measure ---------------------------------------------------------------


def test_density_rank1_is_inverse_gamma():
    alpha, beta, x = 2.5, 1.5, 0.8
    got = whittaker_density(1, (alpha,), beta, (x,))
    expected = beta**alpha / math.gamma(alpha) * x ** (-alpha) * math.exp(-beta / x) / x
    assert got == pytest.approx(expected, rel=1e-12)
    assert got >= 0


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


def test_corollary_rank1_is_exact():
    lhs, rhs, relerr = corollary_check((2.0,), 3.0)
    assert rhs == pytest.approx(1.0 / 9.0, rel=1e-14)
    assert relerr < 1e-10


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


def test_measure_grid_cdf_is_monotone():
    grid = _MeasureGrid((1.0, 1.0), 0.5, cuts1=(0.0,), cuts2=(0.0,))
    values = [grid.cdf(s, t) for s in (0.5, 1.0, 4.0) for t in (0.5, 1.0, 4.0)]
    assert all(0 <= v <= grid.total * (1 + 1e-12) for v in values)
    assert grid.cdf(1.0, 1.0) <= grid.cdf(4.0, 1.0) <= grid.cdf(4.0, 4.0)
    # the tail above 1e9 really does carry ~1e-8 of the mass
    assert grid.cdf(1e9, 1e9) == pytest.approx(grid.total, rel=1e-6)


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
def test_measure_check_matches_a_report_on_scalar_draws(alpha, samples, seed):
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
        (0.1, 0.3, 0.5, 0.7, 0.9), {"uniforms": uniforms, "gamma_rejections": rejections},
    )
    got = whittaker_measure_check(alpha, 1.0, samples=samples, seed=seed)
    assert got == want
    assert got["diagnostics"]["gamma_rejections"] > 0
    cuts = [sorted({math.log(p[key]) for p in got["cdf_points"]}) for key in ("s", "t")]
    grid = _MeasureGrid(alpha, 1.0, *cuts)
    assert got["diagnostics"]["grid_nodes"] == [len(grid._u1), len(grid._u2)]


@pytest.mark.parametrize("samples", [0, -1])
def test_measure_check_needs_a_sample(samples):
    with pytest.raises(ValueError, match="samples must be at least 1"):
        whittaker_measure_check((1.0, 1.0), 1.0, samples=samples, seed=0)


def test_replica_laplace_matches_the_quadrature():
    # the replica partition function has the law of the first density
    # coordinate, so its Laplace transform must match the quadrature
    spec = EnvSpec(2, (1.0, 1.0), 0.5)
    result = laplace_mc(spec, [1.0], samples=30_000, seed=99)[0]
    grid = _MeasureGrid((1.0, 1.0), 0.5)
    c = normalization_c((1.0, 1.0), 0.5)
    predicted = grid.expect_of_first(lambda x: np.exp(-x)) / c
    assert abs(result.estimate - predicted) <= 3 * result.stderr
