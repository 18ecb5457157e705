"""The three workloads: maps, montecarlo and quadrature.

A workload builds its inputs from the seed, warms up, and then runs rounds.
A round runs every op kind of the workload once, in a fixed order, so a slow
period of the machine hits every op kind alike; each op kind is one timed
batch of `units` operations.  The checks run after each batch, outside the
timed region, and compare outputs with refs.py.

The program is called through module attributes (G.gburge, cli.main), so
that the tracer's rebinding of those names reaches these calls too.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import math
import random
from fractions import Fraction
from typing import Callable, NamedTuple

import gburge as G
from gburge import cli

import refs
import speed


class Op(NamedTuple):
    """One op kind: a batch of `units` operations, run by run(r) for round r.

    check(r, out) returns a list of problems (None entries for passes).  Ops
    with `expect` set are known to raise that exception on every call; each
    raise counts its operations as failed.
    """

    name: str
    metric: str | None
    units: int
    run: Callable
    check: Callable
    expect: type | None = None


def _sub_seed(seed: int, r: int, tag: int) -> int:
    """A distinct nonnegative program seed for round r and stream tag."""
    return (seed * 1_000_003 + r * 16 + tag) % (1 << 62)


def _rows(rng, m, n, draw):
    return [[draw(rng) for _ in range(n)] for _ in range(m)]


def _draw_float(rng):
    return math.exp(rng.uniform(-1.0, 1.0))


def _draw_rational(rng):
    return Fraction(rng.randint(1, 20), rng.randint(1, 20))


def _draw_tropical(rng):
    return float(rng.randint(-10, 10))


class _Repeatable:
    """Remembers each input's first (checked) output and requires every later
    output of the same deterministic call to equal it."""

    def __init__(self):
        self._first = {}

    def seen(self, key, value):
        if key not in self._first:
            self._first[key] = value
            return None
        if self._first[key] != value:
            return f"{key}: output changed between rounds on the same input"
        return None

    def is_new(self, key):
        return key not in self._first


# -- maps ---------------------------------------------------------------------------------

IDENTITIES = ("thm3.4-C", "thm3.4-R", "thm3.2", "prop3.3", "appendix-C-identity", "prop5.1")
OVERFLOW_SPEC = dict(n=60, alpha=(0.3,) * 60, beta=1.0)
_JACOBIAN_SHAPES = ((3, 3), (3, 4), (4, 3), (4, 4))


class Maps:
    """Few large arrays through gburge in three value domains, plus exact
    identity trials, log-log Jacobians and tropical-limit trials."""

    name = "maps"
    reference = staticmethod(speed.python_reference)
    FLOATS, RATIONALS, TROPICALS = 4, 8, 4  # 24x24, 8x8, 24x24 arrays
    IDENTITY_TRIALS = 8  # per identity and round
    JACOBIAN_POINTS = 8  # per shape and round
    TROPICAL_TRIALS = 6  # per round

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.seed = seed
        self.inputs = {
            "float": [_rows(rng, 24, 24, _draw_float) for _ in range(self.FLOATS)],
            "rational": [_rows(rng, 8, 8, _draw_rational) for _ in range(self.RATIONALS)],
            "tropical": [_rows(rng, 24, 24, _draw_tropical) for _ in range(self.TROPICALS)],
        }
        domains = {"float": G.GEOMETRIC_FLOAT, "rational": G.GEOMETRIC_RATIONAL, "tropical": G.TROPICAL}
        self.arrays = {
            d: [G.ShapedArray.from_rows(rows, domains[d]) for rows in rs]
            for d, rs in self.inputs.items()
        }
        self.jacobian_in = [
            G.ShapedArray.from_rows(_rows(rng, m, n, _draw_float), G.GEOMETRIC_FLOAT)
            for m, n in _JACOBIAN_SHAPES
            for _ in range(self.JACOBIAN_POINTS)
        ]
        self.overflow_spec = G.EnvSpec(**OVERFLOW_SPEC)
        self.repeat = _Repeatable()
        self.ops = [
            Op("burge_float", "burge_float_per_s", self.FLOATS,
               lambda r: self._burge("float"), lambda r, out: self._check_burge("float", out)),
            Op("burge_rational", "burge_rational_per_s", self.RATIONALS,
               lambda r: self._burge("rational"), lambda r, out: self._check_burge("rational", out)),
            Op("burge_tropical", "burge_tropical_per_s", self.TROPICALS,
               lambda r: self._burge("tropical"), lambda r, out: self._check_burge("tropical", out)),
            Op("identity", "identity_trials_per_s", len(IDENTITIES) * self.IDENTITY_TRIALS,
               self._identities, self._check_reports),
            Op("jacobian", "jacobian_points_per_s", len(self.jacobian_in),
               self._jacobians, self._check_jacobians),
            Op("tropical_limit", "tropical_limit_trials_per_s", self.TROPICAL_TRIALS,
               self._tropical_limit, lambda r, out: self._check_reports(r, [out])),
            # The n = 60 float environment overflows inside gburge: hsum meets
            # (nan, inf) and raises DomainError.  Kept as a known failure, on
            # streams that do not depend on the seed; it has no rate metric.
            Op("overflow_n60", None, 1, self._overflow, self._check_overflow, expect=G.DomainError),
        ]

    def warm_up(self):
        for arrays in self.arrays.values():
            G.gburge(arrays[0])
        for name in IDENTITIES:
            G.verify_identity(name, max_size=4, trials=1, seed=self.seed)
        G.abs_det(G.loglog_jacobian("gburge", self.jacobian_in[0]))
        G.tropical_limit_check(max_boxes=9, trials=1, seed=self.seed)

    def _burge(self, domain):
        return [G.gburge(a) for a in self.arrays[domain]]

    def _check_burge(self, domain, outs):
        problems = []
        for k, t in enumerate(outs):
            key = (domain, k)
            if self.repeat.is_new(key):
                w_rows, w = self.inputs[domain][k], self.arrays[domain][k]
                problems += [
                    refs.check_burge_corner(t.rows, w_rows, domain),
                    refs.check_rsk_corner(G.grsk(w).rows, w_rows, domain),
                    refs.check_round_trip(G.inv_gburge(t).rows, w_rows, domain),
                ]
            problems.append(self.repeat.seen(key, t.rows))
        return problems

    def _identities(self, r):
        seed = _sub_seed(self.seed, r, 0)
        return [
            G.verify_identity(name, max_size=4, trials=self.IDENTITY_TRIALS, seed=seed)
            for name in IDENTITIES
        ]

    def _check_reports(self, r, reports):
        return [refs.check_report(rep) for rep in reports]

    def _jacobians(self, r):
        return [G.abs_det(G.loglog_jacobian("gburge", a)) for a in self.jacobian_in]

    def _check_jacobians(self, r, dets):
        return [refs.check_unit_det(d) for d in dets]

    def _tropical_limit(self, r):
        return G.tropical_limit_check(
            max_boxes=9, trials=self.TROPICAL_TRIALS, seed=_sub_seed(self.seed, r, 1)
        )

    def _overflow(self, r):
        env = G.sample_symmetric_env(self.overflow_spec, G.Stream(60, r % 8))
        return env, G.burge_partition_vector(env)

    def _check_overflow(self, r, out):
        env, vec = out
        return [refs.check_overflow_vector(vec, env.rows)]

    def finish(self):
        return []


# -- montecarlo -----------------------------------------------------------------------------

MC_ALPHA = (1.0, 1.5, 2.0)
MC_R = (0.5, 1.0, 2.0)
# check_Z_Zstar's KS gate rejects at p <= 0.01, so about one seed in a hundred
# fails it by chance; a seeded draw would make the failure count depend on
# --seed.  The Z/Z* pass runs on this fixed seed; everything else is seeded.
ZZSTAR_SEED = 1


class MonteCarlo:
    """Replica-environment Laplace Monte Carlo, the same law through the Burge
    diagonal of sampled symmetric environments, and the Z/Z* KS test directly
    and through the CLI at two threads."""

    name = "montecarlo"
    reference = staticmethod(speed.python_reference)
    REPLICA_SAMPLES = 4096  # per round
    BURGE_SAMPLES = 2048  # per round
    ZZSTAR_SAMPLES = 6144  # two chunks of the program's 4096-sample split

    def __init__(self, seed: int):
        self.seed = seed
        self.spec = G.EnvSpec(3, MC_ALPHA, 1.0)
        self.replica = []  # per round: {r: (estimate, stderr)}
        self.burge_t = []  # t_{3,3} of every Burge-route sample
        self.zz_report = None
        self.zz_cli = None
        self.repeat = _Repeatable()
        self.ops = [
            Op("replica", "replica_samples_per_s", self.REPLICA_SAMPLES,
               self._replica, self._check_replica),
            Op("burge_diag", "burge_diag_samples_per_s", self.BURGE_SAMPLES,
               self._burge_diag, self._check_burge_diag),
            Op("zzstar", "zzstar_samples_per_s", self.ZZSTAR_SAMPLES,
               lambda r: G.check_Z_Zstar(3, MC_ALPHA, self.ZZSTAR_SAMPLES, ZZSTAR_SEED),
               self._check_zz),
            Op("zzstar_threads2", "zzstar_threads2_samples_per_s", self.ZZSTAR_SAMPLES,
               lambda r: self._zz_cli(2, self.ZZSTAR_SAMPLES), self._check_zz_cli),
        ]

    def warm_up(self):
        G.laplace_mc(self.spec, MC_R, 64, self.seed)
        for i in range(16):
            G.burge_partition_vector(G.sample_symmetric_env(self.spec, G.Stream(self.seed, i)))
        G.check_Z_Zstar(3, MC_ALPHA, 64, ZZSTAR_SEED)
        self._zz_cli(2, 64)

    def _zz_cli(self, threads, samples):
        argv = ["polymer", "--cmd", "ks-zzstar", "-n", "3", "--alpha", "1,1.5,2",
                "--samples", str(samples), "--seed", str(ZZSTAR_SEED), "--threads", str(threads)]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue()

    def _replica(self, r):
        return G.laplace_mc(self.spec, MC_R, self.REPLICA_SAMPLES, _sub_seed(self.seed, r, 0))

    def _check_replica(self, r, results):
        self.replica.append({res.r: (res.estimate, res.stderr) for res in results})
        return [
            None if 0.0 < res.estimate <= 1.0 and res.stderr > 0.0 else f"replica estimate {res}"
            for res in results
        ]

    def _burge_diag(self, r):
        seed = _sub_seed(self.seed, r, 1)
        out = []
        for i in range(self.BURGE_SAMPLES):
            env = G.sample_symmetric_env(self.spec, G.Stream(seed, i))
            out.append((env, G.burge_partition_vector(env)))
        return out

    def _check_burge_diag(self, r, out):
        problems = []
        for env, vec in out:
            want = refs.dual_point_to_point(env.rows, "float")
            problems.append(refs.check_value(vec[-1], want, "float", "t_33 of the Burge diagonal"))
            self.burge_t.append(vec[-1])
        return problems

    def _check_zz(self, r, report):
        self.zz_report = report
        return [self.repeat.seen("zzstar", report)]

    def _check_zz_cli(self, r, out):
        code, text = out
        problems = [None if code == 0 else f"ks-zzstar CLI exited {code}"]
        problems.append(self.repeat.seen("zzstar_cli", text))
        self.zz_cli = text
        return problems

    def finish(self):
        """Run-level checks: the replica identity on the pooled samples, and the
        Z/Z* report against a --threads 1 CLI run."""
        rounds = len(self.replica)
        replica = {}
        for rv in MC_R:
            means = [rep[rv][0] for rep in self.replica]
            ses = [rep[rv][1] for rep in self.replica]
            replica[rv] = (math.fsum(means) / rounds, math.sqrt(math.fsum(s * s for s in ses)) / rounds)
        burge = {rv: refs.mean_and_stderr([math.exp(-rv * t) for t in self.burge_t]) for rv in MC_R}
        code, threads1 = self._zz_cli(1, self.ZZSTAR_SAMPLES)
        return [
            refs.check_replica(replica, burge),
            None if code == 0 else f"ks-zzstar CLI at --threads 1 exited {code}",
            refs.check_zzstar(self.zz_report, self.zz_cli, threads1),
        ]


# -- quadrature -----------------------------------------------------------------------------

# The cost of a rank-2 corollary check depends strongly on (alpha, beta)
# (0.2 s to 2.8 s here), so the pairs are fixed rather than drawn from the
# seed: a drawn pair would make the rate depend on the seed.
COROLLARY_PAIRS = (((2.0, 3.0), 1.0), ((2.0, 2.0), 2.0), ((1.5, 2.5), 0.5))
MEASURE_ALPHA, MEASURE_BETA, MEASURE_SAMPLES = (1.0, 1.5), 1.0, 5000
# whittaker_measure_check fails on some seeds by chance (seed 3 of seeds 1-60,
# at 3.02 sigma: it takes the largest of 28 correlated 3-sigma statistics),
# so it runs on a fixed seed.
MEASURE_SEED = 11


class Quadrature:
    """Rank-2 corollary checks, rank-3 Psi evaluations over every order of
    alpha, and the n = 2 measure check."""

    name = "quadrature"
    reference = staticmethod(speed.mixed_reference)
    PSI_POINTS = 4  # (alpha, x) points, each evaluated at the 6 orders of alpha

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.seed = seed
        self.psi_points = [
            (
                tuple(rng.uniform(-0.5, 0.5) for _ in range(3)),
                tuple(math.exp(rng.uniform(-0.7, 0.7)) for _ in range(3)),
            )
            for _ in range(self.PSI_POINTS)
        ]
        self.repeat = _Repeatable()
        self.ops = [
            Op("corollary2", "corollary2_per_s", len(COROLLARY_PAIRS),
               lambda r: [G.corollary_check(a, b) for a, b in COROLLARY_PAIRS],
               self._check_corollary),
            Op("psi3", "psi3_evals_per_s", 6 * self.PSI_POINTS, self._psi3, self._check_psi3),
            Op("measure", "measure_checks_per_s", 1,
               lambda r: G.whittaker_measure_check(
                   MEASURE_ALPHA, MEASURE_BETA, samples=MEASURE_SAMPLES, seed=MEASURE_SEED),
               lambda r, rep: [refs.check_measure(rep), self.repeat.seen("measure", rep)]),
        ]

    def warm_up(self):
        alpha, x = self.psi_points[0]
        G.psi(G.WhittakerParams(3, alpha, x))
        G.corollary_check(*COROLLARY_PAIRS[0])
        spec = G.EnvSpec(2, MEASURE_ALPHA, MEASURE_BETA)
        for i in range(16):
            G.burge_partition_vector(G.sample_symmetric_env(spec, G.Stream(self.seed, i)))

    def _check_corollary(self, r, results):
        return [refs.check_corollary(a, b, lhs) for (a, b), (lhs, _, _) in zip(COROLLARY_PAIRS, results)]

    def _psi3(self, r):
        return [
            [G.psi(G.WhittakerParams(3, perm, x)) for perm in itertools.permutations(alpha)]
            for alpha, x in self.psi_points
        ]

    def _check_psi3(self, r, values):
        problems = [refs.check_psi_permutations(v) for v in values]
        problems.append(self.repeat.seen("psi3", values))
        return problems

    def finish(self):
        return []


WORKLOADS = {w.name: w for w in (Maps, MonteCarlo, Quadrature)}
RATE_METRICS = (
    "burge_float_per_s", "burge_rational_per_s", "burge_tropical_per_s",
    "identity_trials_per_s", "jacobian_points_per_s", "tropical_limit_trials_per_s",
    "replica_samples_per_s", "burge_diag_samples_per_s",
    "zzstar_samples_per_s", "zzstar_threads2_samples_per_s",
    "corollary2_per_s", "psi3_evals_per_s", "measure_checks_per_s",
)
