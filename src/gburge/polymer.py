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
Samples are drawn on one thread: the ``threads`` keyword of the public
checks is accepted and has no effect on their output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from scipy.stats import ks_2samp

from .arrays import ShapedArray
from .correspondences import gburge
from .shapes import Shape
from .values import GEOMETRIC_FLOAT

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

    __slots__ = ("_base", "_count", "_spare_normal")

    def __init__(self, *keys: int):
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
        """Uniform on (0, 1]."""
        return ((self.u64() >> 11) + 1) * 2.0**-53

    def normal(self) -> float:
        if self._spare_normal is not None:
            z = self._spare_normal
            self._spare_normal = None
            return z
        radius = math.sqrt(-2.0 * math.log(self.uniform()))
        angle = 2.0 * math.pi * self.uniform()
        self._spare_normal = radius * math.sin(angle)
        return radius * math.cos(angle)


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


def sample_inv_gamma(alpha: float, beta: float, rng: Stream) -> float:
    """One draw with density (beta^alpha / Gamma(alpha)) y^{-alpha} e^{-beta/y} dy/y,
    sampled as beta over a unit-rate gamma variate."""
    if alpha <= 0 or beta <= 0:
        raise ValueError(f"inverse-gamma parameters must be positive, got ({alpha}, {beta})")
    return beta / _sample_gamma(alpha, rng)


@dataclass(frozen=True)
class EnvSpec:
    """Size and parameters of a symmetric log-gamma environment."""

    n: int
    alpha: tuple
    beta: float

    def __post_init__(self):
        object.__setattr__(self, "alpha", tuple(float(a) for a in self.alpha))
        if self.n < 1 or len(self.alpha) != self.n:
            raise ValueError(f"need n positive parameters, got n={self.n}, alpha={self.alpha}")
        if any(a <= 0 for a in self.alpha) or self.beta <= 0:
            raise ValueError("all parameters must be positive")


def _symmetric_rows(spec: EnvSpec, rng: Stream):
    """Rows of a symmetric environment; upper entries drawn row-major."""
    n, alpha = spec.n, spec.alpha
    rows = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if i == j:
                w = sample_inv_gamma(alpha[i], spec.beta, rng)
            else:
                w = sample_inv_gamma(alpha[i] + alpha[j], 1.0, rng)
            rows[i][j] = rows[j][i] = w
    return rows


def _replica_rows(spec: EnvSpec, rng: Stream):
    """Rows of the replica environment on {i + j <= n + 1}: the symmetric
    environment with columns reversed (a persymmetric matrix), restricted to
    the staircase, with square roots taken on the antidiagonal."""
    n = spec.n
    sym = _symmetric_rows(spec, rng)
    rows = []
    for i in range(1, n + 1):
        row = []
        for j in range(1, n - i + 2):
            if i + j == n + 1:
                row.append(math.sqrt(sym[i - 1][i - 1]))
            else:
                row.append(sym[i - 1][n - j])
        rows.append(row)
    return rows


def sample_symmetric_env(spec: EnvSpec, rng: Stream) -> ShapedArray:
    return ShapedArray.from_rows(_symmetric_rows(spec, rng), GEOMETRIC_FLOAT)


def sample_replica_env(spec: EnvSpec, rng: Stream) -> ShapedArray:
    return ShapedArray.from_rows(_replica_rows(spec, rng), GEOMETRIC_FLOAT)


# -- partition functions -------------------------------------------------------------


def _corner_Z(rows):
    """Point-to-point partition function from (1,1) to the bottom-right corner
    of rectangular weight rows, by the obvious recursion."""
    m, n = len(rows), len(rows[0])
    z = [[0.0] * n for _ in range(m)]
    for i in range(m):
        for j in range(n):
            if i == 0 and j == 0:
                z[i][j] = rows[i][j]
            else:
                above = z[i - 1][j] if i else 0.0
                left = z[i][j - 1] if j else 0.0
                z[i][j] = rows[i][j] * (above + left)
    return z[m - 1][n - 1]


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
    if not env.shape.is_rectangular or env.shape.n_rows != env.shape.n_cols:
        raise ValueError(f"need a square environment, got shape {env.shape.parts}")
    return gburge(env).diagonal(0)


def _staircase_Z_replica(rows):
    """Replica partition function from triangular weight rows (i + j <= n+1):
    sum over antidiagonal endpoints of the squared point-to-point sums."""
    n = len(rows)
    z = {}
    for i in range(1, n + 1):
        for j in range(1, n - i + 2):
            w = rows[i - 1][j - 1]
            if i == 1 and j == 1:
                z[(i, j)] = w
            else:
                z[(i, j)] = w * (z.get((i - 1, j), 0.0) + z.get((i, j - 1), 0.0))
    return sum(z[(a, n + 1 - a)] ** 2 for a in range(1, n + 1))


def replica_Z(weights: ShapedArray, via: str = "persymmetric-burge"):
    """Replica partition function of triangular weights on {i + j <= n + 1}.

    The oracle route enumerates the two half-path sums per endpoint and sums
    their squared products.  The persymmetric-burge route squares the
    antidiagonal back, unfolds to the persymmetric matrix, reverses rows to a
    symmetric matrix, and reads t_{n,n} of its column-insertion image (the
    dual partition function).  The two agree identically.
    """
    n = weights.shape.n_rows
    if weights.shape != Shape(tuple(range(n, 0, -1))):
        raise ValueError(f"weights must live on the staircase (n..1), got {weights.shape.parts}")
    dom = weights.domain
    if via == "oracle":
        from .oracles import enum_paths, path_sum

        total = dom.zero
        for a in range(1, n + 1):
            half = path_sum(weights, enum_paths(a, n + 1 - a))
            total = dom.oplus(total, dom.otimes(half, half))
        return total
    if via != "persymmetric-burge":
        raise ValueError(f"unknown route {via!r}; expected oracle or persymmetric-burge")
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


def _chunked_accumulate(samples, n_stats, per_sample):
    """Deterministic mean/stderr for n_stats statistics over `samples` draws.

    per_sample(i) returns a tuple of n_stats floats.  Sums are taken per chunk
    of _CHUNK samples and the chunk sums combined in index order with
    compensated addition, which fixes the digits of the result.
    """
    n_chunks = (samples + _CHUNK - 1) // _CHUNK

    def chunk(c):
        lo, hi = c * _CHUNK, min(samples, (c + 1) * _CHUNK)
        sums = [0.0] * n_stats
        squares = [0.0] * n_stats
        for i in range(lo, hi):
            for k, v in enumerate(per_sample(i)):
                sums[k] += v
                squares[k] += v * v
        return sums, squares

    parts = [chunk(c) for c in range(n_chunks)]
    out = []
    for k in range(n_stats):
        total = _kahan_total(p[0][k] for p in parts)
        total_sq = _kahan_total(p[1][k] for p in parts)
        mean = total / samples
        var = max(total_sq - samples * mean * mean, 0.0) / max(samples - 1, 1)
        out.append((mean, math.sqrt(var / samples)))
    return out


def laplace_mc(spec: EnvSpec, r_values, samples: int, seed: int, threads: int = 1):
    """Monte Carlo E[exp(-r Z_repl)] on the replica environment, one result
    per requested r."""
    r_values = [float(r) for r in r_values]
    if any(r < 0 for r in r_values):
        raise ValueError("Laplace parameters must be nonnegative")

    def per_sample(i):
        z = _staircase_Z_replica(_replica_rows(spec, Stream(seed, i)))
        return tuple(math.exp(-r * z) for r in r_values)

    stats = _chunked_accumulate(samples, len(r_values), per_sample)
    return [
        MCResult(r, mean, err, samples, seed) for r, (mean, err) in zip(r_values, stats)
    ]


def _collect_samples(samples, per_sample):
    """Two deterministic sample vectors (pure per-index functions)."""
    xs = []
    ys = []
    for i in range(samples):
        x, y = per_sample(i)
        xs.append(x)
        ys.append(y)
    return xs, ys


def ks_two_sample(xs, ys):
    """Kolmogorov-Smirnov statistic and asymptotic p-value."""
    if len(xs) == 0 or len(ys) == 0:
        raise ValueError("both samples must be nonempty")
    res = ks_2samp(xs, ys, method="asymp")
    return float(res.statistic), float(res.pvalue)


def check_Z_Zstar(n: int, alpha, samples: int, seed: int, threads: int = 1) -> dict:
    """KS test of Z_{n,n} against Z*_{n,n} on independent symmetric
    environments with beta = 1/2 (the regime where the two are identically
    distributed)."""
    spec = EnvSpec(n, tuple(alpha), 0.5)

    def per_sample(i):
        z = _corner_Z(_symmetric_rows(spec, Stream(seed, i, 0)))
        z_star = _dual_Z(_symmetric_rows(spec, Stream(seed, i, 1)))
        return z, z_star

    xs, ys = _collect_samples(samples, per_sample)
    stat, pvalue = ks_two_sample(xs, ys)
    return {
        "test": "ks-zzstar",
        "n": n,
        "alpha": list(spec.alpha),
        "beta": 0.5,
        "samples": samples,
        "seed": seed,
        "statistic": stat,
        "pvalue": pvalue,
        "pass": bool(pvalue > 0.01),
    }


def check_lukacs(a: float, b: float, samples: int, seed: int, threads: int = 1) -> dict:
    """KS test of (X+Y)Z^2 against XYZ for independent inverse-gamma X, Y, Z
    with parameters a, b, a+b (scale 1); the two have the same law."""
    if a <= 0 or b <= 0:
        raise ValueError("parameters must be positive")

    def draw_triple(rng):
        return (
            sample_inv_gamma(a, 1.0, rng),
            sample_inv_gamma(b, 1.0, rng),
            sample_inv_gamma(a + b, 1.0, rng),
        )

    def per_sample(i):
        x, y, z = draw_triple(Stream(seed, i, 0))
        lhs = (x + y) * z * z
        x, y, z = draw_triple(Stream(seed, i, 1))
        rhs = x * y * z
        return lhs, rhs

    xs, ys = _collect_samples(samples, per_sample)
    stat, pvalue = ks_two_sample(xs, ys)
    return {
        "test": "lukacs",
        "a": a,
        "b": b,
        "samples": samples,
        "seed": seed,
        "statistic": stat,
        "pvalue": pvalue,
        "pass": bool(pvalue > 0.01),
    }


def normalization_c(alpha, beta: float, log: bool = False) -> float:
    """The environment's normalization constant
    beta^(-sum alpha) * prod Gamma(alpha_i) * prod_{i<j} Gamma(alpha_i+alpha_j),
    computed in log space (pass log=True to keep it there)."""
    alpha = [float(a) for a in alpha]
    if any(a <= 0 for a in alpha) or beta <= 0:
        raise ValueError("all parameters must be positive")
    total = -sum(alpha) * math.log(beta)
    total += sum(math.lgamma(a) for a in alpha)
    total += sum(
        math.lgamma(alpha[i] + alpha[j])
        for i in range(len(alpha))
        for j in range(i + 1, len(alpha))
    )
    return total if log else math.exp(total)
