"""Self-test of the benchmark's output checks.

    python3 bench/selftest.py           # each check accepts the right answer
                                        # and rejects a planted wrong one
    python3 bench/selftest.py --short   # and one round of every workload

Exits 0 when every check behaves, 1 otherwise, listing what went wrong.
"""

from __future__ import annotations

import argparse
import itertools
import math
import random
import sys
from fractions import Fraction

import run

_OUTCOMES = []


def expect(name, accepted, rejected):
    """accepted: the check's result on a right answer (must be None);
    rejected: its result on a planted wrong one (must be a message)."""
    ok = accepted is None and rejected is not None
    _OUTCOMES.append((name, ok, accepted, rejected))


def maps_checks(G, refs, workloads):
    rng = random.Random(7)
    cases = {
        "rational": (G.GEOMETRIC_RATIONAL, workloads._draw_rational, lambda x: x + Fraction(1, 10**6)),
        "float": (G.GEOMETRIC_FLOAT, workloads._draw_float, lambda x: x * (1 + 1e-9)),
        "tropical": (G.TROPICAL, workloads._draw_tropical, lambda x: x + 1.0),
    }
    for domain, (dom, draw, perturb) in cases.items():
        w_rows = workloads._rows(rng, 4, 5, draw)
        w = G.ShapedArray.from_rows(w_rows, dom)
        t = [list(r) for r in G.gburge(w).rows]
        bad = [list(r) for r in t]
        bad[-1][-1] = perturb(bad[-1][-1])
        expect(f"Burge corner, {domain}, perturbed corner",
               refs.check_burge_corner(t, w_rows, domain), refs.check_burge_corner(bad, w_rows, domain))
        expect(f"RSK corner, {domain}, Burge corner in its place",
               refs.check_rsk_corner(G.grsk(w).rows, w_rows, domain),
               refs.check_rsk_corner(t, w_rows, domain))
        back = [list(r) for r in G.inv_gburge(G.gburge(w)).rows]
        bad_back = [list(r) for r in back]
        bad_back[1][2] = perturb(bad_back[1][2])
        expect(f"round trip, {domain}, perturbed entry",
               refs.check_round_trip(back, w_rows, domain), refs.check_round_trip(bad_back, w_rows, domain))

    report = G.verify_identity("thm3.2", max_size=3, trials=4, seed=3)
    expect("identity report, one failure", refs.check_report(report),
           refs.check_report({**report, "failures": 1}))
    expect("identity report, no trials", refs.check_report(report),
           refs.check_report({**report, "trials": 0, "failures": 0}))
    report = G.tropical_limit_check(max_boxes=4, trials=2, seed=3)
    expect("tropical-limit report, one failure", refs.check_report(report),
           refs.check_report({**report, "failures": 1}))

    arr = G.ShapedArray.from_rows(workloads._rows(rng, 3, 3, workloads._draw_float), G.GEOMETRIC_FLOAT)
    jac = G.loglog_jacobian("gburge", arr)
    scaled = jac.copy()
    scaled[0, :] *= 1.0 + 1e-6  # one output coordinate stretched
    expect("Jacobian, stretched row", refs.check_unit_det(G.abs_det(jac)),
           refs.check_unit_det(G.abs_det(scaled)))

    spec = G.EnvSpec(3, (1.0, 1.5, 2.0), 1.0)
    env = G.sample_symmetric_env(spec, G.Stream(5, 0))
    vec = list(G.burge_partition_vector(env))
    expect("Burge diagonal, non-finite corner",
           refs.check_overflow_vector(vec, env.rows), refs.check_overflow_vector(vec[:-1] + [math.inf], env.rows))
    expect("Burge diagonal, wrong corner",
           refs.check_overflow_vector(vec, env.rows),
           refs.check_overflow_vector(vec[:-1] + [vec[-1] * (1 + 1e-6)], env.rows))

    rep = workloads._Repeatable()
    rep.seen("k", ((1.0, 2.0),))
    expect("repeated output, changed entry", rep.seen("k", ((1.0, 2.0),)), rep.seen("k", ((1.0, 2.5),)))


def montecarlo_checks(G, refs, workloads):
    spec = G.EnvSpec(3, workloads.MC_ALPHA, 1.0)
    env = G.sample_symmetric_env(spec, G.Stream(9, 1))
    t33 = G.burge_partition_vector(env)[-1]
    want = refs.dual_point_to_point(env.rows, "float")
    expect("t_33 of a sampled environment, perturbed",
           refs.check_value(t33, want, "float", "t_33"),
           refs.check_value(t33 * (1 + 1e-9), want, "float", "t_33"))

    samples = 8192

    def laplace(spec_used):
        return {res.r: (res.estimate, res.stderr)
                for res in G.laplace_mc(spec_used, workloads.MC_R, samples, seed=21)}

    ts = [G.burge_partition_vector(G.sample_symmetric_env(spec, G.Stream(22, i)))[-1]
          for i in range(samples)]
    burge = {r: refs.mean_and_stderr([math.exp(-r * t) for t in ts]) for r in workloads.MC_R}
    wrong_spec = G.EnvSpec(3, workloads.MC_ALPHA, 0.5)
    expect("replica identity, replica side sampled with beta = 1/2",
           refs.check_replica(laplace(spec), burge), refs.check_replica(laplace(wrong_spec), burge))

    mc = workloads.MonteCarlo(0)
    report = G.check_Z_Zstar(3, workloads.MC_ALPHA, mc.ZZSTAR_SAMPLES, workloads.ZZSTAR_SEED)
    _, t1 = mc._zz_cli(1, mc.ZZSTAR_SAMPLES)
    _, t2 = mc._zz_cli(2, mc.ZZSTAR_SAMPLES)
    flipped = t2.replace('"n": 3', '"n": 4')
    expect("Z/Z* CLI output, one byte changed at threads=2",
           refs.check_zzstar(report, t2, t1), refs.check_zzstar(report, flipped, t1))
    expect("Z/Z* report, failing KS test",
           refs.check_zzstar(report, t2, t1), refs.check_zzstar({**report, "pass": False}, t2, t1))
    other = G.check_Z_Zstar(3, workloads.MC_ALPHA, mc.ZZSTAR_SAMPLES, workloads.ZZSTAR_SEED + 1)
    expect("Z/Z* report, CLI run on another seed",
           refs.check_zzstar(report, t2, t1), refs.check_zzstar(other, t2, t1))


def quadrature_checks(G, refs, workloads):
    (alpha, beta) = workloads.COROLLARY_PAIRS[0]
    lhs = G.corollary_check(alpha, beta)[0]
    wrong = G.corollary_check(alpha, beta * 1.1)[0]
    expect("corollary, integral taken at the wrong beta",
           refs.check_corollary(alpha, beta, lhs), refs.check_corollary(alpha, beta, wrong))

    alpha, x = (0.3, -0.2, 0.1), (1.2, 0.8, 1.5)
    values = [G.psi(G.WhittakerParams(3, p, x)) for p in itertools.permutations(alpha)]
    planted = list(values)
    swapped = (alpha[0], alpha[1], x[0])  # one exponent swapped for an argument
    planted[3] = G.psi(G.WhittakerParams(3, swapped, x))
    expect("rank-3 Psi, one evaluation with a swapped alpha",
           refs.check_psi_permutations(values), refs.check_psi_permutations(planted))

    report = G.whittaker_measure_check(
        workloads.MEASURE_ALPHA, workloads.MEASURE_BETA,
        samples=workloads.MEASURE_SAMPLES, seed=workloads.MEASURE_SEED,
    )
    expect("measure check, mass off by 1e-5", refs.check_measure(report),
           refs.check_measure({**report, "total_mass": report["total_mass"] + 1e-5}))
    expect("measure check, failing", refs.check_measure(report),
           refs.check_measure({**report, "pass": False}))


def short_mode():
    """One round of every workload, with its checks."""
    failures = []
    for name in ("maps", "montecarlo", "quadrature"):
        rec = run.Recorder(run.setup(name, seed=0))
        rec.round(0)
        rec.problems += [p for p in rec.workload.finish() if p]
        expected = sum(op.units for op in rec.workload.ops if op.expect)
        if rec.problems or rec.unexpected or rec.failed != expected:
            failures.append((name, rec.problems[:5], rec.unexpected[:5], rec.failed))
        print(f"short: {name}: attempted {rec.attempted}, failed {rec.failed}, "
              f"problems {len(rec.problems)}")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="self-test of the benchmark's checks")
    parser.add_argument("--short", action="store_true", help="also run one round of every workload")
    args = parser.parse_args(argv)

    run.import_program()
    import gburge as G
    import refs
    import workloads

    maps_checks(G, refs, workloads)
    montecarlo_checks(G, refs, workloads)
    quadrature_checks(G, refs, workloads)
    bad = [o for o in _OUTCOMES if not o[1]]
    for name, ok, accepted, rejected in _OUTCOMES:
        print(f"{'ok ' if ok else 'BAD'} {name}" + ("" if ok else f": accepted={accepted!r} rejected={rejected!r}"))
    short_failures = short_mode() if args.short else []
    for f in short_failures:
        print(f"BAD short round: {f}")
    print(f"{len(_OUTCOMES) - len(bad)}/{len(_OUTCOMES)} planted wrong answers rejected")
    return 1 if bad or short_failures else 0


if __name__ == "__main__":
    sys.exit(main())
