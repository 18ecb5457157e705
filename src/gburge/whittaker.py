"""Whittaker functions of small rank and the measure they put on diagonals.

The function of rank n is an integral over triangular patterns with a fixed
bottom row: each pattern contributes the product of its type components raised
to the given parameters, damped by the exponential of its energy.  Ranks 1 to
3 are supported, always in logarithmic coordinates where the integrand decays
double-exponentially: rank 1 by exact formula, rank 2 by one-dimensional
adaptive quadrature, and rank 3 by Givental's recursion, a 2-D grid over the
second row of the rank-2 Bessel closed form (see _psi3_grid).  One peak
search (_probe_box) and one panel rule (_panel_nodes) serve every grid.

The diagonal (read corner-first, so the dual partition function comes first)
of the column-insertion image of a symmetric inverse-gamma environment is
distributed as (1/c) e^{-beta/x_n} Psi_{-alpha}(x) prod dx_i/x_i, where c is
the normalization constant from the polymer module.  At n = 2 it is integrated
on a tensor grid of Psi values from the Bessel closed form (see _log_psi2), and
rank-2 psi() keeps the line quadrature as the independent route.
whittaker_measure_check compares that quadrature density against direct Monte
Carlo, both through the joint CDF on a quantile grid and through the Laplace
transform of the first component (the dual partition function, distributed as
the replica partition function).  Its environments are drawn on numpy lanes
and mapped by the unchanged gburge in the lane value domain, a block of
samples at a time.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import kve

from .polymer import EnvSpec, _burge_diagonals, _check_samples, normalization_c

_TAIL_LOG_DROP = 46.0  # stop once the integrand falls this far below its peak


class NonconvergentQuadratureError(RuntimeError):
    """The adaptive panels ran out before the tails became negligible."""


@dataclass(frozen=True)
class TriangularPattern:
    """Positive entries z_{i,j} for 1 <= j <= i <= n; row n is the argument."""

    rows: tuple

    def __post_init__(self):
        rows = tuple(tuple(float(v) for v in row) for row in self.rows)
        object.__setattr__(self, "rows", rows)
        for i, row in enumerate(rows, start=1):
            if len(row) != i:
                raise ValueError(f"row {i} must have {i} entries, got {len(row)}")
            if any(v <= 0 for v in row):
                raise ValueError(f"row {i} has a nonpositive entry")

    @property
    def n(self) -> int:
        return len(self.rows)

    @property
    def bottom(self) -> tuple:
        return self.rows[-1]


def energy(z: TriangularPattern) -> float:
    """Sum of z_{i+1,j+1}/z_{i,j} + z_{i,j}/z_{i+1,j} over rows i < n."""
    total = 0.0
    for i in range(z.n - 1):
        for j in range(i + 1):
            total += z.rows[i + 1][j + 1] / z.rows[i][j]
            total += z.rows[i][j] / z.rows[i + 1][j]
    return total


def type_vector(z: TriangularPattern) -> tuple:
    """Row-product ratios (row i over row i-1, the empty row counting as 1)."""
    out = []
    previous = 1.0
    for row in z.rows:
        current = math.prod(row)
        out.append(current / previous)
        previous = current
    return tuple(out)


@dataclass(frozen=True)
class WhittakerParams:
    """Rank, exponent vector, and argument of a Whittaker function."""

    n: int
    alpha: tuple
    x: tuple

    def __post_init__(self):
        object.__setattr__(self, "alpha", tuple(float(a) for a in self.alpha))
        object.__setattr__(self, "x", tuple(float(v) for v in self.x))
        if self.n < 1 or len(self.alpha) != self.n or len(self.x) != self.n:
            raise ValueError(f"need n = len(alpha) = len(x), got {self.n}")
        if any(v <= 0 for v in self.x):
            raise ValueError("the argument must be positive")


# -- adaptive quadrature in log coordinates ---------------------------------------


_GL_CACHE: dict = {}


def _gauss(nodes: int):
    if nodes not in _GL_CACHE:
        _GL_CACHE[nodes] = np.polynomial.legendre.leggauss(nodes)
    return _GL_CACHE[nodes]


def _line_integral(logf, center, nodes=20, panel_width=2.5, tail_tol=1e-13, max_panels=160):
    """Integral of exp(logf) over the real line by panel growth from the peak.

    logf maps a numpy array of points to their log-integrand values; panels
    are added on both sides of the (probed) peak until their contribution is
    negligible.  Returns the integral in linear scale.
    """
    probe = center + np.arange(-40.0, 41.0)
    vals = logf(probe)
    peak = float(np.max(vals))
    if math.isnan(peak) or peak == math.inf:
        raise NonconvergentQuadratureError("integrand is not finite near the probe range")
    if peak == -math.inf or peak < -745.0:
        return 0.0  # the whole integral underflows double precision
    top = float(probe[int(np.argmax(vals))])
    base, weights = _gauss(nodes)

    def panel(lo, hi):
        u = 0.5 * (hi - lo) * base + 0.5 * (hi + lo)
        return 0.5 * (hi - lo) * float(np.dot(weights, np.exp(logf(u) - peak)))

    lo = top - 0.5 * panel_width
    hi = top + 0.5 * panel_width
    total = panel(lo, hi)
    for _ in range(max_panels):
        part = panel(hi, hi + panel_width)
        hi += panel_width
        total += part
        if part <= tail_tol * total:
            break
    else:
        raise NonconvergentQuadratureError("right tail did not become negligible")
    for _ in range(max_panels):
        part = panel(lo - panel_width, lo)
        lo -= panel_width
        total += part
        if part <= tail_tol * total:
            break
    else:
        raise NonconvergentQuadratureError("left tail did not become negligible")
    return total * math.exp(peak)


def _psi2_logf(alpha, x):
    a1, a2 = alpha
    l1, l2 = math.log(x[0]), math.log(x[1])

    def logf(v):
        return (
            a1 * v
            + a2 * (l1 + l2 - v)
            - np.exp(np.minimum(l2 - v, 700.0))
            - np.exp(np.minimum(v - l1, 700.0))
        )

    return logf, 0.5 * (l1 + l2)


def _walls(*gaps):
    """Sum of e^gap over the gaps, each exponent clipped at 700 to stay finite."""
    return sum(np.exp(np.minimum(gap, 700.0)) for gap in gaps)


def _psi3_logf(alpha, x):
    a1, a2, a3 = alpha
    l1, l2, l3 = (math.log(v) for v in x)
    lx = l1 + l2 + l3

    def logf(u11, u21, u22):
        walls = _walls(u22 - u11, u11 - u21, l2 - u21, u21 - l1, l3 - u22, u22 - l2)
        return a1 * u11 + a2 * (u21 + u22 - u11) + a3 * (lx - u21 - u22) - walls

    return logf, np.array([0.5 * (l1 + l2), 0.5 * (l1 + l2), 0.5 * (l2 + l3)])


def _psi3_grid(alpha, x, nodes=16):
    """Rank-3 Psi by Givental's recursion: the integral over the second row
    (u21, u22) of the rank-2 closed form Psi_{(a1, a2)}(e^{u21}, e^{u22})
    times the bottom row's factors, on a panel grid in s = u21 + u22 and
    d = u22 - u21.  The Bessel factor depends on d alone, so log K is
    evaluated once per d node, and the Jacobian 1/2 cancels the closed
    form's factor 2."""
    a1, a2, a3 = alpha
    l1, l2, l3 = (math.log(v) for v in x)
    nu = abs(a1 - a2)

    def logf(s, d):
        u21, u22 = 0.5 * (s - d), 0.5 * (s + d)
        walls = _walls(l2 - u21, u21 - l1, l3 - u22, u22 - l2)
        return 0.5 * (a1 + a2) * s + a3 * (l1 + l2 + l3 - s) + _log_bessel_k(nu, 0.5 * d) - walls

    (s_box, d_box), peak = _probe_box(logf, (0.5 * (l1 + l3) + l2, 0.5 * (l3 - l1)))
    s, ws = _panel_nodes(*s_box, nodes=nodes)
    d, wd = _panel_nodes(*d_box, nodes=nodes)
    return float(wd @ np.exp(logf(s, d[:, None]) - peak) @ ws) * math.exp(peak)


def _psi3_monte_carlo(alpha, x, samples=400_000, strata=8):
    """Stratified uniform sampling of the three free entries over their
    probed box; lower precision than the grid but an independent route."""
    logf, centers = _psi3_logf(alpha, x)
    axes, peak = _probe_box(logf, centers)
    per_cell = max(samples // strata**3, 8)
    lo = np.array([a for a, _ in axes])
    width = np.array([b - a for a, b in axes]) / strata
    rng = np.random.default_rng(0x57A7)
    total = 0.0
    for cell in itertools.product(range(strata), repeat=3):
        u = lo + width * (np.array(cell) + rng.random((per_cell, 3)))
        total += float(np.mean(np.exp(logf(*u.T) - peak)))
    return total * math.prod(width) * math.exp(peak)


def psi(params: WhittakerParams, method: str = "quadrature") -> float:
    """The rank-n Whittaker function at params.x with exponents params.alpha.

    Rank 1 is the monomial prod x^alpha; rank 2 integrates over the single
    free entry; rank 3 integrates the rank-2 Bessel closed form over the
    second row on a 2-D grid (method "quadrature", see _psi3_grid), or the
    three free entries by stratified Monte Carlo (method "monte-carlo",
    noticeably less precise).
    """
    if method not in ("quadrature", "monte-carlo"):
        raise ValueError(f"unknown method {method!r}")
    if params.n == 1:
        return params.x[0] ** params.alpha[0]
    if params.n == 2:
        logf, center = _psi2_logf(params.alpha, params.x)
        return _line_integral(logf, center)
    if params.n == 3:
        if method == "monte-carlo":
            return _psi3_monte_carlo(params.alpha, params.x)
        return _psi3_grid(params.alpha, params.x)
    raise ValueError(f"unsupported rank {params.n}; only n <= 3 is implemented")


# -- grids from the rank-2 closed form ------------------------------------------------------


def _log_bessel_k(nu, log_half_z):
    """log K_nu(z) at z = 2 e^{log_half_z}, broadcast over log_half_z.

    It is log kve(nu, z) - z, except in two ranges where that leaves double
    range.  Past z = 1e8 (kve returns nan from about 1.3e9) it is the leading
    term sqrt(pi/2z) e^{-z}, whose relative error (4 nu^2 - 1)/8z is invisible
    in an integrand of size e^{-z}.  Where K overflows at small z it is the
    small-argument leading term, Gamma(nu)/2 (z/2)^{-nu}, or -log(z/2) - gamma
    at nu = 0.  So the result is never nan or +inf.
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        z = 2.0 * np.exp(log_half_z)
        log_k = np.log(kve(nu, z)) - z
        large = 0.5 * (math.log(0.25 * math.pi) - log_half_z) - z
        if nu > 0:
            small = math.lgamma(nu) - math.log(2.0) - nu * log_half_z
        else:
            small = np.log(-log_half_z - np.euler_gamma)
        return np.where(z > 1e8, large, np.where(np.isfinite(log_k), log_k, small))


def _log_psi2(a, u1, u2):
    """log Psi_a(e^{u1}, e^{u2}) of rank 2, broadcast over u1 and u2, from the
    closed form Psi_a(x) = 2 (x1 x2)^{(a1+a2)/2} K_{a1-a2}(2 sqrt(x2/x1))."""
    a1, a2 = a
    log_k = _log_bessel_k(abs(a1 - a2), 0.5 * (np.asarray(u2, dtype=float) - u1))
    return math.log(2.0) + 0.5 * (a1 + a2) * (u1 + u2) + log_k


def _probe_box(logf, start):
    """Coordinate ascent over +-40 unit steps from start, then on each axis
    the first unit step out to +-400 where the profile falls the tail drop
    below the peak, padded by 2; slow power-law tails (small parameters)
    need long walks.  logf takes one coordinate per axis and broadcasts
    them; a profile passes its other axes as scalars.  Returns the box and
    the peak."""
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
            below = profile(axis, sign * steps) < peak - _TAIL_LOG_DROP
            if not below.any():
                raise NonconvergentQuadratureError(f"axis {axis} mass did not localize")
            ends.append(u[axis] + sign * steps[int(np.argmax(below))])
        axes.append((ends[0] - 2.0, ends[1] + 2.0))
    return axes, peak


def _panel_nodes(lo, hi, cuts=(), nodes=16, panel_width=2.5):
    """Gauss nodes and weights on [lo, hi], in panels at most panel_width
    wide, with a panel boundary at every cut inside the interval."""
    edges = [lo] + sorted(c for c in cuts if lo < c < hi) + [hi]
    b = []
    for a, c in zip(edges, edges[1:]):
        pieces = max(int(math.ceil((c - a) / panel_width)), 1)
        b.extend(a + (c - a) * k / pieces for k in range(pieces))
    b = np.array(b + [hi])
    base, weights = _gauss(nodes)
    half = 0.5 * (b[1:] - b[:-1])
    mid = 0.5 * (b[1:] + b[:-1])
    return (half[:, None] * base + mid[:, None]).ravel(), (half[:, None] * weights).ravel()


# -- the measure on diagonals ---------------------------------------------------------------


class _MeasureGrid:
    """Tensor-panel quadrature of e^{-beta/x2} Psi_{-alpha}(x1, x2) on the
    positive quadrant, in log coordinates, with prescribed cut lines aligned
    to panel boundaries so that cumulative sums are exact panel sums."""

    def __init__(self, alpha, beta, cuts1=(), cuts2=()):
        neg = tuple(-float(a) for a in alpha)
        beta = float(beta)

        def logf(u1, u2):
            # the full integrand in log coordinates
            return _log_psi2(neg, u1, u2) - beta * np.exp(np.minimum(-u2, 700.0))

        axes, _ = _probe_box(logf, (0.0, 0.0))
        (self._u1, w1), (self._u2, w2) = (
            _panel_nodes(lo, hi, cuts) for (lo, hi), cuts in zip(axes, (cuts1, cuts2))
        )
        self._mass = np.exp(logf(self._u1[:, None], self._u2[None, :])) * np.outer(w1, w2)
        self.total = float(self._mass.sum())
        if not 0.0 < self.total < math.inf:
            raise NonconvergentQuadratureError(f"measure mass {self.total} is out of double range")

    def cdf(self, s: float, t: float) -> float:
        """Mass of (0, s] x (0, t]; exact panel sums when the cut lines were
        prescribed at construction."""
        rows = self._u1 < math.log(s)
        cols = self._u2 < math.log(t)
        return float(self._mass[np.ix_(rows, cols)].sum())

    def expect_of_first(self, g) -> float:
        """Integral of g(x1) against the (unnormalized) measure."""
        return float(g(np.exp(self._u1)) @ self._mass.sum(axis=1))


def whittaker_density(n: int, alpha, beta: float, x) -> float:
    """Joint density, at x, of the corner-first diagonal of the
    column-insertion image of a symmetric inverse-gamma environment:
    (1/c) e^{-beta/x_n} Psi_{-alpha}(x) / prod(x)."""
    alpha = tuple(float(a) for a in alpha)
    x = tuple(float(v) for v in x)
    if any(a <= 0 for a in alpha) or beta <= 0:
        raise ValueError("parameters must be positive")
    params = WhittakerParams(n, tuple(-a for a in alpha), x)
    c = normalization_c(alpha, beta)
    return math.exp(-beta / x[-1]) * psi(params) / (c * math.prod(x))


def corollary_check(alpha, beta: float):
    """Both sides of the integral identity
    int e^{-beta/x_n} Psi_{-alpha}(x) prod dx_i/x_i = c, as (lhs, rhs, relerr);
    the left side by quadrature, for n <= 2.

    At n = 2 accuracy falls with small alpha: at beta = 1, relerr is 1.2e-4 at
    alpha = (0.3, 0.4) and 1.9e-3 at (0.2, 0.2), as the box is cut from axis
    profiles through the peak and misses mass along the u1 axis."""
    alpha = tuple(float(a) for a in alpha)
    if any(a <= 0 for a in alpha) or beta <= 0:
        raise ValueError("parameters must be positive")
    rhs = normalization_c(alpha, beta)
    if len(alpha) == 1:
        a = alpha[0]

        def logf(u):
            return -a * u - beta * np.exp(np.minimum(-u, 700.0))

        lhs = _line_integral(logf, center=math.log(beta))
    elif len(alpha) == 2:
        lhs = _MeasureGrid(alpha, beta).total
    else:
        raise ValueError("quadrature for this identity is implemented for n <= 2")
    return lhs, rhs, abs(lhs - rhs) / rhs


def whittaker_measure_check(
    alpha,
    beta: float,
    samples: int,
    seed: int,
    r_values=(0.5, 1.0, 2.0),
    quantiles=(0.1, 0.3, 0.5, 0.7, 0.9),
    threads: int = 1,
) -> dict:
    """End-to-end n = 2 distribution check of the measure on diagonals.

    Draws the diagonal (read corner-first: x1 is the dual partition function)
    of the column-insertion image of sampled environments, then compares the
    empirical joint CDF on the quantile grid, and the Laplace transform of x1,
    against quadrature of the density.  Agreement is measured in standard
    errors (binomial for CDF points); three is the pass line.  Sample i is
    the environment of Stream(seed, i), drawn and mapped on numpy lanes one
    block at a time (polymer._burge_diagonals); threads is accepted and has
    no effect.  The report's diagnostics count the uniforms drawn and the
    gamma proposals rejected, and give the quadrature nodes per axis.

    False-alarm rate about 3%, as all 28 correlated statistics must stay within
    3 sigma: at alpha = (1, 1.5), beta = 1, samples = 5000 it failed 6 of seeds
    1-200 (3, 79, 98, 108, 111, 139; 95% interval 1.4-6.4%).
    """
    _check_samples(samples)
    alpha = tuple(float(a) for a in alpha)
    if len(alpha) != 2:
        raise ValueError("the end-to-end check is implemented for n = 2")
    (t11, t22), diagnostics = _burge_diagonals(EnvSpec(2, alpha, beta), samples, seed)
    return _measure_report(alpha, beta, seed, t22, t11, r_values, quantiles, diagnostics)


def _measure_report(alpha, beta, seed, xs1, xs2, r_values, quantiles, diagnostics):
    """The whittaker-measure report on the sampled diagonals (xs1, xs2)."""
    samples = len(xs1)
    s_cuts = [float(np.quantile(xs1, q)) for q in quantiles]
    t_cuts = [float(np.quantile(xs2, q)) for q in quantiles]
    grid = _MeasureGrid(
        alpha, beta, cuts1=[math.log(s) for s in s_cuts], cuts2=[math.log(t) for t in t_cuts]
    )
    c = normalization_c(alpha, beta)
    cdf_points = []
    worst = 0.0
    for s in s_cuts:
        below_s = xs1 <= s
        for t in t_cuts:
            predicted = grid.cdf(s, t) / c
            empirical = float(np.mean(below_s & (xs2 <= t)))
            se = max(math.sqrt(predicted * (1.0 - predicted) / samples), 1e-12)
            sigma = abs(empirical - predicted) / se
            worst = max(worst, sigma)
            cdf_points.append(
                {"s": s, "t": t, "empirical": empirical, "predicted": predicted, "sigma": sigma}
            )
    laplace = []
    for r in r_values:
        r = float(r)
        values = np.exp(-r * xs1)
        mc = float(np.mean(values))
        stderr = float(np.std(values, ddof=1) / math.sqrt(samples))
        predicted = grid.expect_of_first(lambda x1: np.exp(-r * x1)) / c
        sigma = abs(mc - predicted) / max(stderr, 1e-15)
        laplace.append(
            {"r": r, "estimate": mc, "stderr": stderr, "predicted": predicted, "sigma": sigma}
        )
    passed = worst <= 3.0 and all(row["sigma"] <= 3.0 for row in laplace)
    return {
        "test": "whittaker-measure",
        "n": 2,
        "alpha": list(alpha),
        "beta": beta,
        "samples": samples,
        "seed": seed,
        "total_mass": grid.total / c,
        "cdf_points": cdf_points,
        "cdf_max_sigma": worst,
        "laplace": laplace,
        "pass": bool(passed),
        "diagnostics": {**diagnostics, "grid_nodes": list(grid._mass.shape)},
    }
