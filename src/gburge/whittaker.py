"""Whittaker functions of small rank and the measure they put on diagonals.

The function of rank n is an integral over triangular patterns with a fixed
bottom row: each pattern contributes the product of its type components raised
to the given parameters, damped by the exponential of its energy.  Ranks 1 to
3 are supported, always in logarithmic coordinates where the integrand decays
double-exponentially: rank 1 by exact formula, rank 2 by its Bessel closed
form Psi_a(x) = 2 (x1 x2)^{(a1+a2)/2} K_{a1-a2}(2 sqrt(x2/x1)) (see
_log_psi2), and rank 3 by Givental's recursion over the second row of the
rank-2 closed form, whose sum integrates to a second Bessel K and whose
difference is left on one line (see _psi3_line).  Every quadrature is one
line rule (_line_integral): one peak search (_probe_box) and one panel rule
(_panel_nodes).

The diagonal (read corner-first, so the dual partition function comes first)
of the column-insertion image of a symmetric inverse-gamma environment is
distributed as (1/c) e^{-beta/x_n} Psi_{-alpha}(x) prod dx_i/x_i, where c is
the normalization constant from the polymer module.  At n = 2 every
prediction is one integral over d = log x2 - log x1 (_d_line), and
whittaker_measure_check compares the joint CDF on a quantile grid and the
Laplace transform of x1 (the dual partition function, distributed as the
replica partition function) against Monte Carlo on environments drawn on numpy
lanes and mapped by the unchanged gburge in the lane value domain."""

from __future__ import annotations

import functools
import itertools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .correspondences import report
from .polymer import (
    EnvSpec,
    _burge_diagonals,
    _check_laplace_r,
    _check_standard_error_samples,
    normalization_c,
)

_TAIL_LOG_DROP = 46.0  # stop once the integrand falls this far below its peak
# the last unit step of each chunk the probe's tail walk evaluates at once, past the steps
# its ascent lattice holds: rank-3 tails end within 7 steps near x = 1 (48 at x1 = 1e30),
# rank-2 ones within 48, slow ones 400
_TAIL_CHUNKS = (16, 64, 400)
_PANEL_WIDTH = 2.5  # widest Gauss panel of every line, in log units
_LOG_FLOAT_MAX = math.log(sys.float_info.max)  # the largest argument exp keeps finite
_QUANTILES = (0.1, 0.3, 0.5, 0.7, 0.9)  # the measure check's CDF grid, on each axis
# Debye's U_k(p) / p^k, k = 1..4, in p^2 (highest power first) over a denominator (DLMF 10.41.10)
_DEBYE = (((-5, 3), 24), ((385, -462, 81), 1152), ((-425425, 765765, -369603, 30375), 414720),
          ((185910725, -446185740, 349922430, -94121676, 4465125), 39813120))


class NonconvergentQuadratureError(RuntimeError):
    """The integrand has no finite peak, its mass does not localize within
    the probe's reach, or the integral leaves double range."""


def _check_pattern(z):
    """Raise ValueError unless z is a triangular pattern: row i holds the i
    entries z_{i,1..i}, each in (0, inf), and row n is the argument."""
    for i, row in enumerate(z, start=1):
        if len(row) != i:
            raise ValueError(f"row {i} must have {i} entries, got {len(row)}")
        if any(v <= 0 for v in row):
            raise ValueError(f"row {i} has a nonpositive entry")
        if not all(v < math.inf for v in row):  # nan fails too
            raise ValueError(f"row {i} has an entry that is not finite")


def energy(z):
    """Sum of z_{i+1,j+1}/z_{i,j} + z_{i,j}/z_{i+1,j} over rows i < n of the
    pattern z, given as its rows; exact on Fraction rows."""
    _check_pattern(z)
    total = 0
    for i in range(len(z) - 1):
        for j in range(i + 1):
            total += z[i + 1][j + 1] / z[i][j]
            total += z[i][j] / z[i + 1][j]
    return total


def type_vector(z) -> tuple:
    """Row-product ratios of the pattern z, given as its rows (row i over
    row i-1, the empty row counting as 1); exact on Fraction rows."""
    _check_pattern(z)
    out = []
    previous = 1
    for row in z:
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
        for i, (a, v) in enumerate(zip(self.alpha, self.x)):
            if not math.isfinite(a):
                raise ValueError(f"alpha[{i}] must be finite, got {a!r}")
            if not 0 < v < math.inf:
                raise ValueError(f"x[{i}] must be positive and finite, got {v!r}")


# -- integrands in log coordinates ----------------------------------------------


def _psi3_line(alpha, x):
    """Rank-3 Psi by Givental's recursion: the integral over the second row
    (u21, u22) of the rank-2 closed form Psi_{(a1, a2)}(e^{u21}, e^{u22})
    times the bottom row's factors, in s = u21 + u22 and d = u22 - u21 (the
    Jacobian 1/2 cancels the closed form's factor 2).  At fixed d the walls
    are p e^{s/2} + q e^{-s/2}, with p = e^{-d/2-l1} + e^{d/2-l2} and
    q = e^{l2+d/2} + e^{l3-d/2}, so the s integral of e^{c s} e^{-walls} is
    4 (q/p)^c K_{2c}(2 sqrt(pq)), c = (a1 + a2)/2 - a3 (DLMF 10.32.10), and
    one line in d is left, times e^{a3 (l1 + l2 + l3)}."""
    a1, a2, a3 = alpha
    l1, l2, l3 = (math.log(v) for v in x)
    nu, c = abs(a1 - a2), 0.5 * (a1 + a2) - a3

    def logf(d):
        log_p = np.logaddexp(-0.5 * d - l1, 0.5 * d - l2)
        log_q = np.logaddexp(l2 + 0.5 * d, l3 - 0.5 * d)
        return (_log_bessel_k(nu, 0.5 * d) + math.log(4.0) + c * (log_q - log_p)
                + _log_bessel_k(abs(2.0 * c), 0.5 * (log_p + log_q)))

    at = {"alpha": alpha, "x": x}
    total, peak, _ = _line_integral(logf, 0.5 * (l3 - l1), "Psi of rank 3", **at)
    return _times_exp(float(total), peak + a3 * (l1 + l2 + l3), "Psi of rank 3", **at)


def _named(name, at):
    return f"{name} at " + ", ".join(f"{key}={v}" for key, v in at.items())


def _times_exp(mantissa, log_scale, name, **at):
    """mantissa e^log_scale, the value of name at the parameters given as
    keywords; an OverflowError naming them and the log of the value when
    that leaves double range."""
    try:
        value = mantissa * math.exp(log_scale)
    except OverflowError:  # the scale alone leaves double range; the value may not
        log_value = math.log(mantissa) + log_scale
        value = math.exp(log_value) if log_value < _LOG_FLOAT_MAX else math.inf
    if value == math.inf:
        log_value = math.log(mantissa) + log_scale
        raise OverflowError(f"{_named(name, at)} = exp({log_value!r}) overflows a float")
    return value


def psi(params: WhittakerParams) -> float:
    """The rank-n Whittaker function at params.x with exponents params.alpha.

    Rank 1 is the monomial prod x^alpha; rank 2 is the Bessel closed form
    (see _log_psi2); rank 3 integrates the rank-2 closed form over the second
    row, the sum of its entries in closed form and their difference on one
    line (see _psi3_line).
    """
    n, alpha, x = params.n, params.alpha, params.x
    if n == 1:
        try:
            return x[0] ** alpha[0]
        except OverflowError:
            return _times_exp(1.0, alpha[0] * math.log(x[0]), "Psi of rank 1", alpha=alpha, x=x)
    if n == 2:
        u1, u2 = (math.log(v) for v in x)
        return _times_exp(1.0, float(_log_psi2(alpha, u1, u2)), "Psi of rank 2", alpha=alpha, x=x)
    if n == 3:
        return _psi3_line(alpha, x)
    raise ValueError(f"unsupported rank {n}; only n <= 3 is implemented")


# -- lines from the rank-2 closed form ------------------------------------------------------


def _log_bessel_k(nu, log_half_z):
    """log K_nu(z) at z = 2 e^{log_half_z}, broadcast over log_half_z.

    It is log kve(nu, z) - z, except in two ranges where that leaves double
    range.  Past z = 1e8 (kve returns nan from about 1.3e9) it is the leading
    term sqrt(pi/2z) e^{-z}, whose relative error (4 nu^2 - 1)/8z is invisible
    in an integrand of size e^{-z}.  Where kve overflows below nu = 50 it is
    the small-argument term Gamma(nu)/2 (z/2)^{-nu}, off by (z/2)^2/nu < 1e-11,
    or -log(z/2) - gamma at nu = 0; from nu = 50 on, where that is off by 2%
    at nu = 200, Debye's expansion to 1/nu^4 (DLMF 10.41.4), off by 1e-3/nu^5.
    So the result is never nan or +inf.  Where no value needs either range,
    as on most lines, it returns log kve(nu, z) - z without building them."""
    # scipy.special costs about 0.3 s and 25 MB to import, so only a quadrature pays for it
    from scipy.special import kve

    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        z = 2.0 * np.exp(log_half_z)
        log_k = np.log(kve(nu, z)) - z
        if np.isfinite(log_k).all() and (z <= 1e8).all():
            return log_k
        large = 0.5 * (math.log(0.25 * math.pi) - log_half_z) - z
        if nu >= 50:
            log_w = math.log(2.0 / nu) + log_half_z  # log(z/nu)
            s = np.sqrt(1.0 + np.exp(2.0 * np.minimum(log_w, 300.0)))
            series = sum((-1.0 / (nu * s)) ** k * np.polyval(coef, 1.0 / (s * s)) / den
                         for k, (coef, den) in enumerate(_DEBYE, start=1))
            small = (0.5 * math.log(0.5 * math.pi / nu) - nu * (s + log_w - np.log1p(s))
                     - 0.5 * np.log(s) + np.log1p(series))
        elif nu > 0:
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
    """Ascent on the lattice start + k, k an integer: logf at k in [-40, 40],
    then, while the maximum sits on an end, at the 40 steps past that end, at
    most twice.  The peak is the maximum, at u = start + k.  On each side the
    box ends 2 past the first unit step out to 400 where logf falls the tail
    drop below the peak: the steps the lattice holds come from it, and the rest
    are walked as u + step in the growing chunks that end at _TAIL_CHUNKS, one
    logf call per chunk and side, stopping at the chunk that holds the end.  So
    no point is evaluated twice.  logf broadcasts over an array of points.
    Returns ((lo, hi), peak)."""
    k0, values = -40.0, logf(start + np.arange(-40.0, 41.0))  # values[i] is at k = k0 + i
    for extension in range(3):
        top = int(np.argmax(values))
        if 0 < top < values.size - 1 or extension == 2:
            break
        past = k0 + values.size if top else k0 - 40.0  # the lowest k of the 40 past the end
        new = logf(start + (past + np.arange(40.0)))
        values = np.append(values, new) if top else np.append(new, values)
        k0 = min(k0, past)
    u, peak = start + (k0 + top), float(values[top])
    if not math.isfinite(peak):
        raise NonconvergentQuadratureError("integrand has no finite peak")
    ends = []
    for sign, row in ((-1.0, values[:top][::-1]), (1.0, values[top + 1:])):
        first = 1.0
        for last in (*(c for c in _TAIL_CHUNKS if c > row.size), None):
            below = row < peak - _TAIL_LOG_DROP
            if below.any():
                ends.append(u + sign * (first + int(np.argmax(below))))
                break
            if last is None:
                raise NonconvergentQuadratureError("mass did not localize")
            first += row.size
            row = logf(u + sign * np.arange(first, last + 1.0))
    return (ends[0] - 2.0, ends[1] + 2.0), peak


@functools.cache
def _gauss():
    return np.polynomial.legendre.leggauss(20)


def _panel_nodes(lo, hi, cuts=()):
    """20 Gauss nodes and weights a panel on [lo, hi], in panels at most
    _PANEL_WIDTH wide, with a panel boundary at every cut inside the interval."""
    edges = [lo] + sorted(c for c in cuts if lo < c < hi) + [hi]
    b = []
    for a, c in zip(edges, edges[1:]):
        pieces = max(int(math.ceil((c - a) / _PANEL_WIDTH)), 1)
        b.extend(a + (c - a) * k / pieces for k in range(pieces))
    b = np.array(b + [hi])
    base, weights = _gauss()
    half = 0.5 * (b[1:] - b[:-1])
    mid = 0.5 * (b[1:] + b[:-1])
    return (half[:, None] * base + mid[:, None]).ravel(), (half[:, None] * weights).ravel()


# -- the measure on diagonals ---------------------------------------------------------------


def whittaker_density(n: int, alpha, beta: float, x) -> float:
    """Joint density, at x, of the corner-first diagonal of the
    column-insertion image of a symmetric inverse-gamma environment:
    (1/c) e^{-beta/x_n} Psi_{-alpha}(x) / prod(x)."""
    alpha = tuple(float(a) for a in alpha)
    x = tuple(float(v) for v in x)
    c = normalization_c(alpha, beta)
    params = WhittakerParams(n, tuple(-a for a in alpha), x)
    return math.exp(-beta / x[-1]) * psi(params) / (c * math.prod(x))


def _line_integral(logf, start, name, cuts=(), rows=None, **at):
    """The integral of e^logf, named name at the parameters at, over the box
    _probe_box finds from start, in 20-node Gauss panels cut at every cut, as
    (mantissa, log scale, nodes) of value mantissa e^scale.  rows maps the
    nodes to k rows of factors, to get the k integrals of each times e^logf.
    Nodes that rise past the probe's peak further than exp holds rescale the
    line by their own maximum; a line whose every node underflows against the
    peak raises, as do the probe's errors, naming the integral."""
    try:
        (lo, hi), peak = _probe_box(logf, start)
    except NonconvergentQuadratureError as error:
        raise NonconvergentQuadratureError(f"{_named(name, at)}: {error}") from None
    u, w = _panel_nodes(lo, hi, cuts)
    logs = logf(u) - peak
    top = float(logs.max())
    if top > _LOG_FLOAT_MAX:
        logs -= top
        peak += top
    mass = np.exp(logs)
    if mass.sum() == 0.0:  # only the unweighted sum: a row of factors may be 0
        raise NonconvergentQuadratureError(
            f"{_named(name, at)}: every node underflows against the probe's peak")
    if rows is not None:
        w = rows(u) * w
    return w @ mass, peak, u.size


def _d_line(alpha, cuts=(), rows=None):
    """_line_integral of h(d) = Psi_{-alpha}(e^{-d}, 1), the n = 2 measure's density in
    d = log x2 - log x1 (Psi_{-alpha} is homogeneous of degree -(alpha1 + alpha2))."""
    neg = (-alpha[0], -alpha[1])
    return _line_integral(lambda d: _log_psi2(neg, -d, 0.0), 0.0,
                          "the d line Psi_{-alpha}(e^{-d}, 1)", cuts, rows, alpha=alpha)


def corollary_check(alpha, beta: float):
    """Both sides of the integral identity
    int e^{-beta/x_n} Psi_{-alpha}(x) prod dx_i/x_i = c, as (lhs, rhs, relerr);
    the left side by quadrature, for n <= 2.

    In u = log x_n the rank-1 integrand is e^{-a u - beta e^{-u}}, a = alpha_1.
    At n = 2 it is the rank-1 one at a = a1 + a2 times the d line (_d_line),
    so the tensor rule on a product box is the product of two line rules,
    with kve once per d node.  Their scales add in one exponent, so only an
    integral beyond double range raises (OverflowError).  The e^{-a u} tail
    needs 46/a of the probe's 400 unit steps to fall the tail drop, and the
    e^{min(alpha) d} tail of the d line 46/min(alpha): below a floor of 0.116
    on either, the probe raises NonconvergentQuadratureError naming the line.
    Above it, accuracy falls as the peak narrows to width about 1/sqrt(a).
    At n = 1, beta = 1, relerr is below 1e-12 up to alpha = 7.4, exceeds 1e-8 at some
    alphas from 19 on and reaches 5.4e-6 near 47.  At n = 2 it is at most
    3.4e-15 at eight pairs from ((0.2, 0.2), 1) to ((2, 3), 1), 8.1e-11 at
    ((5, 8), 0.1), 2.6e-9 at ((20, 30), 1) and 2e-2 at ((100, 100), 1000)."""
    alpha = tuple(float(a) for a in alpha)
    rhs = normalization_c(alpha, beta)
    if not 1 <= len(alpha) <= 2:
        raise ValueError("quadrature for this identity is implemented for n <= 2")
    a = sum(alpha)
    factors = [_line_integral(
        lambda u: -a * u - beta * np.exp(np.minimum(-u, 700.0)), math.log(beta),
        "the gamma line e^{-a u - beta e^{-u}}", a=a, beta=beta)]
    if len(alpha) == 2:
        factors.append(_d_line(alpha))
    lhs = _times_exp(float(math.prod(m for m, _, _ in factors)), sum(p for _, p, _ in factors),
                     "the corollary integral", alpha=alpha, beta=beta)
    return lhs, rhs, abs(lhs - rhs) / rhs


def whittaker_measure_check(alpha, beta: float, samples: int, seed: int,
                            r_values=(0.5, 1.0, 2.0)) -> dict:
    """End-to-end n = 2 distribution check of the measure on diagonals.

    Draws the diagonal (read corner-first: x1 is the dual partition function)
    of the column-insertion image of sampled environments, then compares the
    empirical joint CDF on the grid of sample quantiles at _QUANTILES, and
    the Laplace transform of x1, against _measure_predictions.  Agreement is
    measured in standard errors (binomial for CDF points); three is the pass
    line.  Sample i is the environment of Stream(seed, i), drawn and mapped
    on numpy lanes one block at a time (polymer._burge_diagonals), on one
    thread.  The report's diagnostics count the uniforms drawn and the gamma
    proposals rejected, and give d_nodes, the nodes of the d line.

    False-alarm rate about 3%, as all 28 correlated statistics must stay within
    3 sigma: at alpha = (1, 1.5), beta = 1, samples = 5000 it failed 6 of seeds
    1-200 (3, 79, 98, 108, 111, 139; 95% interval 1.4-6.4%).
    """
    alpha = tuple(float(a) for a in alpha)
    if len(alpha) != 2:
        raise ValueError("the end-to-end check is implemented for n = 2")
    r_values = _check_laplace_r(r_values)
    _check_standard_error_samples(samples)
    (t11, t22), diagnostics = _burge_diagonals(EnvSpec(2, alpha, beta), samples, seed)
    return _measure_report(alpha, beta, seed, t22, t11, r_values, diagnostics)


def _measure_predictions(alpha, beta, s_cuts, t_cuts, r_values):
    """(total mass over c, CDF at every (s, t) with s outer, Laplace transform
    of x1 at every r, d nodes) of the n = 2 measure, from one d line: x2 ~
    InvGamma(a, beta) is independent of d, of density h (_d_line).  So
    P(x1 <= s, x2 <= t) is the h-average of Q(a, beta / min(t, s e^d)), Q the
    regularized upper incomplete gamma, cut where the min switches; E e^{-r x1}
    that of L(r e^{-d}), L(rho) = 2 (beta rho)^{a/2} K_a(2 sqrt(beta rho)) /
    Gamma(a) the Laplace transform of x2; the total is Gamma(a) beta^{-a} int h.
    Q's argument, clamped to e^700, is either the t side's, one value per t
    cut, or the s side's, one row over the nodes per s cut, so Q is evaluated
    on those alone and each (s, t) row picks its side node by node."""
    from scipy.special import gammaincc

    c = normalization_c(alpha, beta)  # first, so an overflow names the constant
    a = sum(alpha)
    log_s = np.log(np.asarray(s_cuts, dtype=float))[:, None, None]
    log_t = np.log(np.asarray(t_cuts, dtype=float))[:, None]
    log_half = 0.5 * np.log(beta * np.asarray(r_values, dtype=float))[:, None]
    q_t = gammaincc(a, np.exp(np.minimum(math.log(beta) - log_t, 700.0)))

    def rows(d):
        s_side = log_s + d  # (s, 1, node): at or past log t, Q is the t side's
        q_s = gammaincc(a, np.exp(np.minimum(math.log(beta) - s_side, 700.0)))
        cdf = np.where(log_t <= s_side, q_t, q_s).reshape(-1, d.size)  # s outer, t inner
        half_z = log_half - 0.5 * d  # log sqrt(beta r e^{-d})
        laplace = np.exp(math.log(2.0) + a * half_z + _log_bessel_k(a, half_z) - math.lgamma(a))
        return np.vstack([np.ones_like(d), cdf, laplace])

    mantissas, peak, nodes = _d_line(alpha, (log_t - log_s).ravel(), rows)
    points = len(s_cuts) * len(t_cuts)
    total, cdf, laplace = mantissas[0], mantissas[1:1 + points], mantissas[1 + points:]
    total_mass = total * math.exp(peak + math.lgamma(a) - a * math.log(beta) - math.log(c))
    return float(total_mass), (cdf / total).tolist(), (laplace / total).tolist(), nodes


def _measure_report(alpha, beta, seed, xs1, xs2, r_values, diagnostics):
    """The whittaker-measure report on the sampled diagonals (xs1, xs2)."""
    samples = len(xs1)
    s_cuts, t_cuts = (np.quantile(xs, _QUANTILES).tolist() for xs in (xs1, xs2))
    total_mass, cdf, laplace_at, nodes = _measure_predictions(alpha, beta, s_cuts, t_cuts, r_values)
    cdf_points = []
    for (s, t), predicted in zip(itertools.product(s_cuts, t_cuts), cdf):
        empirical = float(np.mean((xs1 <= s) & (xs2 <= t)))
        se = max(math.sqrt(predicted * (1.0 - predicted) / samples), 1e-12)
        sigma = abs(empirical - predicted) / se
        cdf_points.append(
            {"s": s, "t": t, "empirical": empirical, "predicted": predicted, "sigma": sigma}
        )
    worst = max(row["sigma"] for row in cdf_points)
    laplace = []
    for r, predicted in zip(r_values, laplace_at):
        values = np.exp(-r * xs1)
        mc = float(np.mean(values))
        stderr = float(np.std(values, ddof=1) / math.sqrt(samples))
        sigma = abs(mc - predicted) / max(stderr, 1e-15)
        laplace.append({"r": r, "estimate": mc, "stderr": stderr, "predicted": predicted,
                        "sigma": sigma})
    passed = worst <= 3.0 and all(row["sigma"] <= 3.0 for row in laplace)
    params = {"n": 2, "alpha": list(alpha), "beta": beta, "samples": samples, "seed": seed}
    stats = {"total_mass": total_mass, "cdf_points": cdf_points, "cdf_max_sigma": worst,
             "laplace": laplace}
    diagnostics = {**diagnostics, "d_nodes": nodes}
    return report("whittaker-measure", params, stats, passed, diagnostics)
