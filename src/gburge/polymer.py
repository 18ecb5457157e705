"""Log-gamma environments, polymer partition functions, Monte Carlo checks.

A symmetric random environment has independent upper-triangular entries
W_{i,i} ~ invGamma(alpha_i, beta) and W_{i,j} ~ invGamma(alpha_i + alpha_j, 1)
for i < j.  The diagonal of its image under the column-insertion
correspondence carries the partition-function information: the product of the
last k diagonal entries is the k-tuple dual-path partition function, so in
particular t_{n,n} is the dual point-to-point partition function Z*.  The
replica partition function (two paths sharing an endpoint on the antidiagonal,
in the environment obtained by reversing columns and square-rooting the
antidiagonal) equals Z* in distribution, and for beta = 1/2 the standard and
dual point-to-point partition functions are identically distributed.  These
distributional claims are checked by Monte Carlo here; the Whittaker-measure
quadrature lives in the whittaker module.

All sampling uses a counter-based splittable generator, so sample i is a pure
function of (seed, i) and every estimate is a fixed function of the seed.
The scalar ``Stream`` and the ``sample_*`` functions draw one sample at a
time in pure Python; they are the per-sample API and the test oracle.  Every
Monte Carlo check draws on numpy lanes instead (``_Lanes``): lane k is
sample index k, holds that index's stream state, and takes the same uniforms
as the scalar stream, so its values match the scalar ones up to numpy and
libm differing in the last ulp.  Each draw gathers the lanes it runs on
through one index array, so a lane's values rest on its own stream alone,
whichever block it is drawn in.  The Burge map runs on lanes too: an
environment whose entries are lane arrays lives in the ``GEOMETRIC_LANES``
value domain, and the unchanged ``gburge`` and ``replica_Z`` map a whole
block at once (``_burge_diagonals``, which the Whittaker measure check draws
on, and ``check_replica_routes``).  One driver, ``_collect_samples``, serves
every check: it checks the sample count, builds the lanes for blocks of
``_CHUNK`` sample indices in index order on one thread, and counts the draws.
Every check reports through ``correspondences.report``, with samples and seed
as its last params.  Each value is checked once: the parameters in ``EnvSpec``
(alpha_i, beta, alpha_i + alpha_j), each entry in its draw, which raises
``InverseGammaOverflowError`` off (0, inf), and each output in ``check_finite``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .arrays import ShapedArray, _shape_of
from .correspondences import gburge, report
from .oracles import replica_sum
from .shapes import Shape
from .values import GEOMETRIC_FLOAT, GEOMETRIC_LANES

_M64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix64(z: int) -> int:
    z &= _M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


class Stream:
    """Counter-based random stream.

    Output k is a pure function of the constructor keys and k, so
    Stream(seed, i) gives sample i its own reproducible stream regardless of
    which worker consumes it.
    """

    __slots__ = ("_keys", "_base", "_count", "_spare_normal")

    def __init__(self, *keys: int):
        self._keys = keys
        acc = 0x243F6A8885A308D3
        for k in keys:
            acc = _mix64((acc + _GOLDEN) ^ (k & _M64))
        self._base = acc
        self._count = 0
        self._spare_normal = None

    def u64(self) -> int:
        self._count += 1
        return _mix64(self._base + self._count * _GOLDEN)

    def uniform(self) -> float:
        """Uniform on (0, 1]: the top 53 bits of the next u64()."""
        self._count += 1
        return ((_mix64(self._base + self._count * _GOLDEN) >> 11) + 1) * 2.0**-53

    def normal(self) -> float:
        if self._spare_normal is not None:
            z = self._spare_normal
            self._spare_normal = None
            return z
        radius = math.sqrt(-2.0 * math.log(self.uniform()))
        angle = 2.0 * math.pi * self.uniform()
        self._spare_normal = radius * math.sin(angle)
        return radius * math.cos(angle)

    def _inv_gamma(self, alpha: float, beta: float) -> float:
        """sample_inv_gamma on this stream for checked parameters: the one scalar
        draw, InverseGammaOverflowError unless beta/G lies in (0, inf)."""
        gamma = _sample_gamma(alpha, self)
        value = beta / gamma if gamma else math.inf
        if 0.0 < value < math.inf:
            return value
        raise _inv_gamma_error(alpha, beta, self._keys, gamma, value)


def _sample_gamma(shape: float, rng: Stream) -> float:
    """Gamma(shape, rate 1) via the Marsaglia-Tsang squeeze method, with the
    uniform-power boost below shape 1."""
    if shape < 1.0:
        return _sample_gamma(shape + 1.0, rng) * rng.uniform() ** (1.0 / shape)
    d = shape - 1.0 / 3.0
    c = 1.0 / math.sqrt(9.0 * d)
    while True:
        x = rng.normal()
        v = 1.0 + c * x
        if v <= 0.0:
            continue
        v = v * v * v
        u = rng.uniform()
        if u < 1.0 - 0.0331 * x * x * x * x:
            return d * v
        if math.log(u) < 0.5 * x * x + d * (1.0 - v + math.log(v)):
            return d * v


class InverseGammaOverflowError(ValueError):
    """An inverse-gamma draw beta/G left (0, inf): at small alpha the boost
    u^(1/alpha) of G can underflow, and at a tiny beta beta/G can round to 0.0."""


def _inv_gamma_error(alpha, beta, keys, gamma, value, where=""):
    fault = "underflows to 0.0" if value == 0.0 else "overflows a float"
    return InverseGammaOverflowError(
        f"inverse-gamma draw at alpha={alpha}, beta={beta} {fault} on {where}"
        f"Stream({', '.join(map(str, keys))}): its gamma variate is {gamma!r}"
    )


def sample_inv_gamma(alpha: float, beta: float, rng: Stream) -> float:
    """One draw with density (beta^alpha / Gamma(alpha)) y^{-alpha} e^{-beta/y} dy/y,
    sampled as beta over a unit-rate gamma variate; InverseGammaOverflowError
    when that quotient overflows or underflows to 0.0."""
    if not (0 < alpha < math.inf and 0 < beta < math.inf):  # nan fails too
        raise ValueError(
            f"inverse-gamma alpha and beta must be positive and finite, got ({alpha}, {beta})"
        )
    return rng._inv_gamma(alpha, beta)


# uint64 constants of the lanes are explicit, so that no NumPy version
# promotes a Python int operand to float or object.
_GOLDEN_U64 = np.uint64(_GOLDEN)
_MIX1_U64 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2_U64 = np.uint64(0x94D049BB133111EB)
_ONE_U64, _S11, _S27, _S30, _S31 = (np.uint64(k) for k in (1, 11, 27, 30, 31))


def _mix64_lanes(z):
    """_mix64 over a uint64 array (array arithmetic wraps modulo 2^64)."""
    z = (z ^ (z >> _S30)) * _MIX1_U64
    z = (z ^ (z >> _S27)) * _MIX2_U64
    return z ^ (z >> _S31)


class _Lanes:
    """Stream(seed, i, *tags) for every sample index i of a block, lane k
    holding index[k]: its base key, its uint64 counter and its spare normal
    (NaN for none).

    Every draw takes, lane by lane, the same uniforms as the scalar Stream and
    _sample_gamma would, so the values match the scalar ones up to numpy's
    log, sin, cos and pow differing from libm in the last ulp.  Each draw names
    the lanes it runs on by one index array, every lane or some of them alike
    (a retry round, or the lanes without a spare normal), and gathers and
    scatters through it; so a lane's values rest on its own stream alone, not
    on which lanes share its block.  Parameters are not checked here: the
    callers pass validated ones.
    """

    def __init__(self, seed: int, index, *tags: int):
        self.seed, self.index, self.tags = seed, index, tags
        keys = np.uint64((Stream(seed)._base + _GOLDEN) & _M64) ^ index.astype(np.uint64)
        keys = _mix64_lanes(keys)
        for tag in tags:
            keys = _mix64_lanes((keys + _GOLDEN_U64) ^ np.uint64(tag & _M64))
        self.keys = keys
        self.count = np.zeros(len(keys), dtype=np.uint64)
        self.spare = np.full(len(keys), np.nan)
        self.rejections = 0  # Marsaglia-Tsang proposals turned down, all lanes

    @property
    def uniforms(self) -> int:
        """Uniforms drawn so far, summed over the lanes."""
        return int(self.count.sum())

    def _uniform(self, lanes):
        """Stream.uniform() on each of the given lanes (an index array)."""
        count = self.count[lanes] + _ONE_U64
        self.count[lanes] = count
        z = _mix64_lanes(self.keys[lanes] + count * _GOLDEN_U64)
        return ((z >> _S11) + _ONE_U64) * 2.0**-53

    def _normal(self, lanes):
        """Stream.normal() on each of the given lanes (an index array)."""
        z = self.spare[lanes]
        fresh = np.isnan(z)
        new = lanes[fresh]
        self.spare[lanes] = np.nan
        radius = np.sqrt(-2.0 * np.log(self._uniform(new)))
        angle = 2.0 * math.pi * self._uniform(new)
        self.spare[new] = radius * np.sin(angle)
        z[fresh] = radius * np.cos(angle)
        return z

    def gamma(self, shape: float):
        """_sample_gamma(shape, .) on every lane: Marsaglia-Tsang as masked
        rejection rounds over the lanes still drawing; the log test runs only
        where the cheap squeeze fails."""
        todo = np.arange(len(self.keys))
        if shape < 1.0:
            return self.gamma(shape + 1.0) * self._uniform(todo) ** (1.0 / shape)
        d = shape - 1.0 / 3.0
        c = 1.0 / math.sqrt(9.0 * d)
        out = np.empty(todo.size)
        while todo.size:
            x = self._normal(todo)
            v = 1.0 + c * x
            live = v > 0.0
            lanes, x, v = todo[live], x[live], v[live]
            v = v * v * v
            u = self._uniform(lanes)
            done = u < 1.0 - 0.0331 * x * x * x * x
            slow = np.flatnonzero(~done)
            xs, vs = x[slow], v[slow]
            done[slow] = np.log(u[slow]) < 0.5 * xs * xs + d * (1.0 - vs + np.log(vs))
            out[lanes[done]] = d * v[done]
            self.rejections += todo.size - int(np.count_nonzero(done))
            todo = np.concatenate((todo[~live], lanes[~done]))
        return out

    def inv_gamma(self, alpha: float, beta: float):
        """sample_inv_gamma(alpha, beta, .) on every lane, with its error on
        the first lane that overflows or underflows to 0.0."""
        gamma = self.gamma(alpha)
        with np.errstate(divide="ignore", over="ignore"):
            value = beta / gamma
        if value.max() == np.inf or value.min() == 0.0:
            lane = int(np.flatnonzero((value == np.inf) | (value == 0.0))[0])
            keys = (self.seed, int(self.index[lane]), *self.tags)
            raise _inv_gamma_error(alpha, beta, keys, float(gamma[lane]), value[lane], f"lane {lane}, ")
        return value


def _check_positive(name: str, value) -> None:
    """Raise ValueError naming the parameter unless 0 < value < inf (nan fails)."""
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


def _check_parameters(alpha, beta) -> None:
    """_check_positive on each alpha[i], then on beta."""
    for i, a in enumerate(alpha):
        _check_positive(f"alpha[{i}]", a)
    _check_positive("beta", beta)


def _check_laplace_r(r_values) -> list:
    """The Laplace parameters as floats; ValueError naming the first one
    outside 0 <= r < inf (nan included)."""
    r_values = [float(r) for r in r_values]
    for i, r in enumerate(r_values):
        if not 0 <= r < math.inf:
            raise ValueError(f"Laplace parameter r[{i}] must be nonnegative and finite, got {r!r}")
    return r_values


def _check_standard_error_samples(samples) -> None:
    """A standard error divides by samples - 1, so one sample is refused;
    _collect_samples refuses 0 and below."""
    if samples == 1:
        raise ValueError("samples must be at least 2 for the standard errors, got 1")


@dataclass(frozen=True)
class EnvSpec:
    """Size and parameters of a symmetric log-gamma environment, checked once:
    each alpha[i], beta and each off-diagonal shape alpha[i] + alpha[j]."""

    n: int
    alpha: tuple
    beta: float

    def __post_init__(self):
        object.__setattr__(self, "alpha", tuple(float(a) for a in self.alpha))
        if self.n < 1 or len(self.alpha) != self.n:
            raise ValueError(f"need n positive parameters, got n={self.n}, alpha={self.alpha}")
        _check_parameters(self.alpha, self.beta)
        for i, a in enumerate(self.alpha):
            for j in range(i + 1, self.n):
                _check_positive(f"alpha[{i}] + alpha[{j}]", a + self.alpha[j])


def _symmetric_rows(spec: EnvSpec, draw):
    """Rows of a symmetric environment; upper entries drawn row-major by
    draw(alpha, beta), one inverse-gamma variate: a float from a scalar
    Stream, or an array with one entry per lane from _Lanes.inv_gamma."""
    n, alpha = spec.n, spec.alpha
    rows = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if i == j:
                w = draw(alpha[i], spec.beta)
            else:
                w = draw(alpha[i] + alpha[j], 1.0)
            rows[i][j] = rows[j][i] = w
    return rows


def _replica_rows(spec: EnvSpec, draw, sqrt=math.sqrt):
    """Rows of the replica environment on {i + j <= n + 1}: the symmetric
    environment with columns reversed (a persymmetric matrix), restricted to
    the staircase, with square roots taken on the antidiagonal (np.sqrt for
    lanes)."""
    n = spec.n
    sym = _symmetric_rows(spec, draw)
    rows = []
    for i in range(1, n + 1):
        row = []
        for j in range(1, n - i + 2):
            if i + j == n + 1:
                row.append(sqrt(sym[i - 1][i - 1]))
            else:
                row.append(sym[i - 1][n - j])
        rows.append(row)
    return rows


def _env(rows, domain) -> ShapedArray:
    """Drawn rows as an array: each draw was checked positive and finite, so none is coerced."""
    return ShapedArray._wrap(_shape_of(tuple(map(len, rows))), tuple(map(tuple, rows)), domain)


def sample_symmetric_env(spec: EnvSpec, rng: Stream) -> ShapedArray:
    return _env(_symmetric_rows(spec, rng._inv_gamma), GEOMETRIC_FLOAT)


def sample_replica_env(spec: EnvSpec, rng: Stream) -> ShapedArray:
    return _env(_replica_rows(spec, rng._inv_gamma), GEOMETRIC_FLOAT)


# -- partition functions -------------------------------------------------------------


def _path_sums(rows):
    """Point-to-point partition functions from (1,1) to every box of ragged
    weight rows (row lengths not increasing), by the obvious recursion.  The
    weights (and so the sums) are floats, or lane arrays from _Lanes.

    This recursion serves both paths: on lane arrays every + and * is the
    same IEEE operation, lane by lane, as on floats."""
    sums = []
    for i, weights in enumerate(rows):
        row = []
        for j, w in enumerate(weights):
            above = sums[i - 1][j] if i else 0.0
            left = row[j - 1] if j else 0.0
            row.append(w if i == j == 0 else w * (above + left))
        sums.append(row)
    return sums


def _corner_Z(rows):
    """Point-to-point partition function from (1,1) to the bottom-right corner
    of rectangular weight rows."""
    return _path_sums(rows)[-1][-1]


def _dual_Z(rows):
    """Dual partition function, over paths from the bottom-left to the
    top-right corner."""
    return _corner_Z(rows[::-1])


def burge_partition_vector(env: ShapedArray):
    """The diagonal (t_{1,1}, ..., t_{n,n}) of the column-insertion image.

    The product of the last k entries is the k-tuple dual-path partition
    function Z*^{(k)}; in particular t_{n,n} alone is the dual point-to-point
    partition function of the environment.
    """
    if (parts := env.shape.parts) != (len(parts),) * len(parts):
        raise ValueError(f"need a square environment, got shape {parts}")
    return tuple([row[i] for i, row in enumerate(gburge(env).rows)])


def _staircase_Z_replica(rows):
    """Replica partition function from triangular weight rows (i + j <= n+1):
    sum over antidiagonal endpoints of the squared point-to-point sums."""
    return sum(row[-1] ** 2 for row in _path_sums(rows))


def replica_Z(weights: ShapedArray, via: str = "persymmetric-burge"):
    """Replica partition function of triangular weights on {i + j <= n + 1}.

    The oracle route is oracles.replica_sum: it enumerates the half-path sum
    to each antidiagonal endpoint and sums their squares.  The
    persymmetric-burge route squares the antidiagonal back, unfolds to the
    persymmetric matrix, reverses rows to a symmetric matrix, and reads
    t_{n,n} of its column-insertion image (the dual partition function).  The
    two agree identically.
    """
    n = weights.shape.n_rows
    if weights.shape != Shape(tuple(range(n, 0, -1))):
        raise ValueError(f"weights must live on the staircase (n..1), got {weights.shape.parts}")
    if via == "oracle":
        return replica_sum(weights)
    if via != "persymmetric-burge":
        raise ValueError(f"unknown route {via!r}; expected oracle or persymmetric-burge")
    dom = weights.domain
    rows = [[None] * n for _ in range(n)]
    for i in range(1, n + 1):
        for j in range(1, n + 2 - i):
            w = weights.get(i, j)
            rows[i - 1][j - 1] = dom.otimes(w, w) if i + j == n + 1 else w
    for i in range(1, n + 1):
        for j in range(n + 2 - i, n + 1):
            rows[i - 1][j - 1] = rows[n - j][n - i]
    symmetric = ShapedArray.from_rows(rows[::-1], dom)
    return gburge(symmetric).get(n, n)


# -- Monte Carlo machinery -------------------------------------------------------------


class MCResult(NamedTuple):
    r: float | None
    estimate: float
    stderr: float
    samples: int
    seed: int


_CHUNK = 4096


def _kahan_total(terms):
    total = 0.0
    carry = 0.0
    for t in terms:
        y = t - carry
        s = total + y
        carry = (s - total) - y
        total = s
    return total


def _collect_samples(samples, seed, draw, streams=((0,), (1,))):
    """The one lane driver of the Monte Carlo checks: per-sample values over
    indices 0..samples-1, and the sampler diagnostics.

    The indices are split, in index order, into blocks of at most _CHUNK
    lanes, which keeps memory flat in the sample count.  For each block of
    indices i, draw(*lanes) gets the lanes of Stream(seed, i, *tags) for each
    tags tuple of streams, and returns a tuple of arrays whose first axis runs
    over the block (or holds one row per block, for a statistic the block
    sums itself); the result holds each of them concatenated over the blocks.
    """
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    parts = []
    uniforms = rejections = 0
    for lo in range(0, samples, _CHUNK):
        index = np.arange(lo, min(samples, lo + _CHUNK), dtype=np.uint64)
        lanes = [_Lanes(seed, index, *tags) for tags in streams]
        parts.append(draw(*lanes))
        uniforms += sum(lane.uniforms for lane in lanes)
        rejections += sum(lane.rejections for lane in lanes)
    diagnostics = {"uniforms": uniforms, "gamma_rejections": rejections}
    return [np.concatenate(values) for values in zip(*parts)], diagnostics


def laplace_mc(spec: EnvSpec, r_values, samples: int, seed: int):
    """Monte Carlo E[exp(-r Z_repl)] on the replica environment, one result
    per requested r; sample i is drawn from Stream(seed, i).

    Each block keeps only its sums of the values and of their squares, as a
    left fold in index order (np.cumsum, not pairwise np.sum), and the block
    sums are combined in index order with compensated addition, which fixes
    the digits of the result.
    """
    r_values = _check_laplace_r(r_values)
    _check_standard_error_samples(samples)

    def draw(lanes):
        z = _staircase_Z_replica(_replica_rows(spec, lanes.inv_gamma, np.sqrt))
        values = [np.exp(-r * z) for r in r_values]
        return [[np.cumsum(v)[-1] for v in values]], [[np.cumsum(v * v)[-1] for v in values]]

    (sums, squares), _ = _collect_samples(samples, seed, draw, streams=((),))
    results = []
    for r, block_sums, block_squares in zip(r_values, sums.T, squares.T):
        mean = _kahan_total(block_sums.tolist()) / samples
        total_sq = _kahan_total(block_squares.tolist())
        var = max(total_sq - samples * mean * mean, 0.0) / (samples - 1)
        results.append(MCResult(r, mean, math.sqrt(var / samples), samples, seed))
    return results


def _burge_diagonals(spec: EnvSpec, samples: int, seed: int):
    """The Burge diagonals (t_11, ..., t_nn) of the symmetric environments of
    Stream(seed, i), i < samples, as n arrays over i, and the sampler
    diagnostics: burge_partition_vector(sample_symmetric_env(spec, Stream(seed, i)))
    for a whole block of indices at once, on lane arrays."""

    def draw(lanes):
        return burge_partition_vector(_env(_symmetric_rows(spec, lanes.inv_gamma), GEOMETRIC_LANES))

    return _collect_samples(samples, seed, draw, streams=((),))


def _kolmogorov_sf(lam: float) -> float:
    """P(K > lam) for the Kolmogorov distribution, the law of
    sup_t |B(t)| over a Brownian bridge B.  Below lam = 1 the theta series
    1 - sqrt(2 pi)/lam sum_k exp(-(2k-1)^2 pi^2 / (8 lam^2)) converges fast,
    from 1 up the alternating series 2 sum_k (-1)^(k-1) exp(-2 k^2 lam^2)."""
    if lam <= 0:
        return 1.0
    if lam < 1:
        c = -math.pi**2 / (8 * lam * lam)
        theta = sum(math.exp((2 * k - 1) ** 2 * c) for k in range(1, 8))
        p = 1 - math.sqrt(2 * math.pi) / lam * theta
    else:
        p = 2 * sum((-1) ** (k - 1) * math.exp(-2 * k * k * lam * lam) for k in range(1, 101))
    return min(max(p, 0.0), 1.0)


def ks_two_sample(xs, ys):
    """Two-sample Kolmogorov-Smirnov statistic D = sup |F_m - G_n| of the
    empirical distribution functions, and its asymptotic p-value: the
    Kolmogorov limit law P(K > lam) at lam = D sqrt(mn/(m+n)), where m and n
    are the sample sizes.  Ties count as in SciPy's ks_2samp, whose statistic
    this matches bit for bit."""
    if len(xs) == 0 or len(ys) == 0:
        raise ValueError("both samples must be nonempty")
    xs, ys = np.sort(xs), np.sort(ys)
    m, n = len(xs), len(ys)
    pooled = np.concatenate([xs, ys])
    gaps = np.searchsorted(xs, pooled, side="right") / m - np.searchsorted(ys, pooled, side="right") / n
    stat = float(max(np.clip(-gaps.min(), 0, 1), gaps.max()))
    return stat, _kolmogorov_sf(stat * math.sqrt(m * n / (m + n)))


def _ks_report(test: str, params: dict, samples: int, seed: int, pair) -> dict:
    """The report of a two-sample KS check: pair(first, second) draws one
    block of both samples (see _collect_samples), and the check passes at
    p > 0.01.  Its stats are the statistic and the pvalue, and its
    diagnostics those of the sampler."""
    (xs, ys), diagnostics = _collect_samples(samples, seed, pair)
    stat, pvalue = ks_two_sample(xs, ys)
    params = {**params, "samples": samples, "seed": seed}
    return report(test, params, {"statistic": stat, "pvalue": pvalue}, pvalue > 0.01, diagnostics)


def check_Z_Zstar(n: int, alpha, samples: int, seed: int) -> dict:
    """KS test of Z_{n,n} against Z*_{n,n} on independent symmetric
    environments with beta = 1/2 (the regime where the two are identically
    distributed).  The report's diagnostics count the uniforms drawn and the
    gamma proposals rejected, over both samples."""
    spec = EnvSpec(n, tuple(alpha), 0.5)

    def pair(first, second):
        z = _corner_Z(_symmetric_rows(spec, first.inv_gamma))
        z_star = _dual_Z(_symmetric_rows(spec, second.inv_gamma))
        return z, z_star

    params = {"n": n, "alpha": list(spec.alpha), "beta": 0.5}
    return _ks_report("ks-zzstar", params, samples, seed, pair)


def check_lukacs(a: float, b: float, samples: int, seed: int) -> dict:
    """KS test of (X+Y)Z^2 against XYZ for independent inverse-gamma X, Y, Z
    with parameters a, b, a+b (scale 1); the two have the same law.  The
    report's diagnostics are those of check_Z_Zstar."""
    _check_positive("a", a)
    _check_positive("b", b)
    _check_positive("a + b", a + b)

    def draw_triple(lanes):
        return lanes.inv_gamma(a, 1.0), lanes.inv_gamma(b, 1.0), lanes.inv_gamma(a + b, 1.0)

    def pair(first, second):
        x, y, z = draw_triple(first)
        lhs = (x + y) * z * z
        x, y, z = draw_triple(second)
        return lhs, x * y * z

    return _ks_report("lukacs", {"a": a, "b": b}, samples, seed, pair)


def check_replica_routes(spec: EnvSpec, samples: int, seed: int, tol: float) -> dict:
    """Route agreement of replica_Z on sampled replica environments: the
    oracle path sums against the persymmetric Burge route on
    sample_replica_env(spec, Stream(seed, i)), i < samples, for a whole block
    of indices at once on lane arrays.  Passes when the worst relative gap is
    within tol."""

    def draw(lanes):
        env = _env(_replica_rows(spec, lanes.inv_gamma, np.sqrt), GEOMETRIC_LANES)
        oracle = replica_Z(env, via="oracle")
        folded = replica_Z(env, via="persymmetric-burge")
        return (np.abs(oracle - folded) / np.abs(oracle),)

    (gaps,), _ = _collect_samples(samples, seed, draw, streams=((),))
    worst = float(gaps.max())
    params = {"n": spec.n, "alpha": list(spec.alpha), "beta": spec.beta, "samples": samples,
              "seed": seed}
    return report("replica-routes", params, {"max_relerr": worst}, worst <= tol)


def normalization_c(alpha, beta: float, log: bool = False) -> float:
    """The environment's normalization constant
    beta^(-sum alpha) * prod Gamma(alpha_i) * prod_{i<j} Gamma(alpha_i+alpha_j),
    computed in log space (pass log=True to keep it there).  An OverflowError
    names the constant and the first term whose log-gamma is not finite, the
    alpha_i before the pair sums, or log c itself where the finite terms sum
    past the double range."""
    alpha = [float(a) for a in alpha]
    _check_parameters(alpha, beta)
    n = len(alpha)
    total = -sum(alpha) * math.log(beta)
    for terms in ([(i,) for i in range(n)], [(i, j) for i in range(n) for j in range(i + 1, n)]):
        logs = []
        for at in terms:
            x = sum(alpha[i] for i in at)
            try:
                y = math.lgamma(x)
            except OverflowError:  # a log-gamma past the double range
                y = math.inf
            if not y < math.inf:  # lgamma(inf) is inf
                term = f"log Gamma({' + '.join(f'alpha[{i}]' for i in at)} = {x!r})"
                raise OverflowError(f"{_c_name(alpha, beta)}: {term} overflows a float")
            logs.append(y)
        total += sum(logs)
    if not -math.inf < total < math.inf:
        raise OverflowError(f"{_c_name(alpha, beta)}: log c = {total!r} overflows a float")
    if log:
        return total
    try:
        return math.exp(total)
    except OverflowError:
        raise OverflowError(f"{_c_name(alpha, beta)} = exp({total!r}) overflows a float") from None


def _c_name(alpha, beta) -> str:
    return f"normalization constant c(alpha={tuple(alpha)}, beta={beta})"
