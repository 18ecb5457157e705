"""End-to-end acceptance checks, one test per shipped guarantee.

Each test states a tolerance and a wall-clock budget and fails loudly when
either is missed.  Everything here goes through the public API (or the CLI
for the determinism check); nothing reaches into module internals.
"""

import json
import random
import time
from fractions import Fraction

import pytest

from gburge.arrays import ShapedArray, random_array
from gburge.calculus import verify_jacobians
from gburge.cli import main
from gburge.correspondences import gburge, grsk, tropical_limit_check, verify_identity
from gburge.oracles import prop4_outcomes, prop43_outcomes, replica_decomposition_outcomes
from gburge.polymer import (
    EnvSpec,
    Stream,
    check_lukacs,
    check_Z_Zstar,
    replica_Z,
    sample_replica_env,
)
from gburge.shapes import Shape, all_shapes, rectangle
from gburge.values import GEOMETRIC_RATIONAL
from gburge.whittaker import corollary_check, whittaker_measure_check

R = GEOMETRIC_RATIONAL


def all_ones(n):
    return ShapedArray.from_rows([[Fraction(1)] * n for _ in range(n)], R)


def counterexamples(outcomes):
    """The outcomes of a check that are counterexamples (a pass is None)."""
    return [o for o in outcomes if o is not None]


def test_criterion_01_exact_identity_suite():
    """Every named identity holds on >= 50 random rational inputs, < 60 s."""
    t0 = time.monotonic()
    runs = [
        dict(name="thm3.4-C", max_size=5, trials=50, seed=1),
        dict(name="thm3.4-R", max_size=5, trials=50, seed=2),
        dict(name="thm3.2", max_size=4, trials=50, seed=3),
        dict(name="prop3.3", max_rows=4, max_cols=5, trials=50, seed=4),
        dict(name="appendix-C-identity", max_size=4, trials=50, seed=5),
        dict(name="appendix-C-identity", max_size=5, trials=50, seed=6),
        dict(name="order-independence", max_size=3, trials=50, seed=7),
        dict(name="recursion", max_size=3, trials=50, seed=8),
        dict(name="transpose-equivariance", max_size=4, trials=50, seed=9),
        dict(name="prop5.1", max_size=4, trials=50, seed=10),
    ]
    for kwargs in runs:
        report = verify_identity(**kwargs)
        assert report["failures"] == 0, report
        assert report["trials"] >= 50
    assert time.monotonic() - t0 < 60.0


def test_criterion_02_path_sum_oracle_equivalence():
    """Diagonal products equal brute-force k-path sums exactly, all k, < 120 s."""
    t0 = time.monotonic()
    rng = random.Random(20)
    for m in range(1, 6):
        for n in range(1, 6):
            arr = random_array(rectangle(m, n), R, rng)
            assert counterexamples(prop4_outcomes(arr, "grsk-4.1")) == [], (m, n)
            assert counterexamples(prop4_outcomes(arr, "gburge-4.2")) == [], (m, n)
    for parts in ((3, 3, 2), (4, 2, 1)):
        arr = random_array(Shape(parts), R, rng)
        assert counterexamples(prop4_outcomes(arr, "gburge-4.2")) == [], parts
    assert time.monotonic() - t0 < 120.0


def test_criterion_03_corner_formulas():
    """Corner closed forms hold exactly on 100 random arrays up to 20 boxes."""
    rng = random.Random(30)
    pool = list(all_shapes(20))
    for _ in range(100):
        arr = random_array(rng.choice(pool), R, rng)
        assert counterexamples(prop43_outcomes(arr)) == [], arr.shape
    for n in range(2, 6):
        ones = all_ones(n)
        assert counterexamples(prop43_outcomes(ones)) == []
        assert gburge(ones).get(1, 1) == Fraction(1, n)
        assert grsk(ones).get(1, 1) == Fraction(1, n)


def test_criterion_04_volume_preservation():
    """|det J| = 1 within 1e-6 in log-log coordinates, dual agrees with finite
    differences within 1e-6, < 120 s."""
    t0 = time.monotonic()
    report = verify_jacobians(symmetric=False, points=10, seed=40, tol=1e-6,
                              max_boxes=12, fd_tol=1e-6)
    assert report["failures"] == 0, report
    assert report["trials"] > 0
    sym = verify_jacobians(symmetric=True, points=10, seed=41, tol=1e-6, fd_tol=1e-6)
    assert sym["failures"] == 0, sym
    assert sym["trials"] > 0
    assert time.monotonic() - t0 < 120.0


def test_criterion_05_tropicalization():
    """eps*log of the geometric maps converges to the piecewise-linear maps,
    error <= 100*eps and decreasing across eps = 0.1, 0.01, 0.001."""
    report = tropical_limit_check(max_boxes=9, trials=20, seed=50)
    assert report["failures"] == 0, report
    errs = [report["max_error_by_eps"][key] for key in ("0.1", "0.01", "0.001")]
    for err, eps in zip(errs, (0.1, 0.01, 0.001)):
        assert err <= 100.0 * eps
    assert errs[0] > errs[1] > errs[2]


def test_criterion_06_replica_decomposition():
    """Squared-endpoint decomposition: exact on integer persymmetric squares up
    to n = 4, and both partition-function routes agree to 1e-10 up to n = 5."""
    rng = random.Random(60)
    for n in range(2, 5):
        for _ in range(10):
            rows = [[Fraction(0)] * n for _ in range(n)]
            for a in range(1, n + 1):
                for b in range(1, n + 2 - a):
                    base = rng.randint(1, 9)
                    v = Fraction(base * base if a + b == n + 1 else base)
                    rows[a - 1][b - 1] = v
                    rows[n - b][n - a] = v
            w = ShapedArray.from_rows(rows, R)
            assert counterexamples(replica_decomposition_outcomes(w)) == [], rows
    for n in range(1, 6):
        spec = EnvSpec(n, (1.0,) * n, 1.0)
        for i in range(10):
            env = sample_replica_env(spec, Stream(61, n, i))
            z_oracle = replica_Z(env, via="oracle")
            z_folded = replica_Z(env, via="persymmetric-burge")
            assert abs(z_oracle - z_folded) <= 1e-10 * abs(z_oracle), (n, i)


def test_criterion_07_laplace_integral_identity():
    """The integral identity for E[exp(-beta/x_1)]: exact at rank one,
    relative error < 1e-4 at rank two for four parameter choices, < 60 s."""
    t0 = time.monotonic()
    for a, beta in ((1.0, 1.0), (2.0, 3.0)):
        _, _, relerr = corollary_check((a,), beta)
        assert relerr < 1e-10, (a, beta, relerr)
    for alpha in ((1.0, 1.0), (0.5, 1.5)):
        for beta in (1.0, 2.0):
            _, _, relerr = corollary_check(alpha, beta)
            assert relerr < 1e-4, (alpha, beta, relerr)
    assert time.monotonic() - t0 < 60.0


def test_criterion_08_partition_function_law():
    """100k sampled corner pairs match the quadrature law: joint CDF within
    3 binomial SE at 25 grid points, Laplace transforms within 3 SE, < 5 min."""
    t0 = time.monotonic()
    report = whittaker_measure_check(
        (1.0, 1.5), 1.0, samples=100_000, seed=11, r_values=(0.5, 1.0, 2.0)
    )
    assert report["pass"], report
    assert len(report["cdf_points"]) == 25
    assert report["cdf_max_sigma"] <= 3.0
    assert all(entry["sigma"] <= 3.0 for entry in report["laplace"])
    assert report["total_mass"] == pytest.approx(1.0, rel=1e-6)
    assert time.monotonic() - t0 < 300.0


def test_criterion_09_distributional_identities():
    """At beta = 1/2 the two corner laws coincide (KS p > 0.01, 100k samples)
    and the beta-gamma algebra check holds, < 5 min."""
    t0 = time.monotonic()
    for n, alpha, seed in ((2, (1.0, 1.0), 21), (3, (1.0, 1.5, 2.0), 22)):
        report = check_Z_Zstar(n, alpha, samples=100_000, seed=seed)
        assert report["pass"] and report["pvalue"] > 0.01, report
    for a, b, seed in ((1.0, 2.0, 23), (0.5, 0.5, 24)):
        report = check_lukacs(a, b, samples=100_000, seed=seed)
        assert report["pass"] and report["pvalue"] > 0.01, report
    assert time.monotonic() - t0 < 300.0


def test_criterion_10_cli_thread_determinism(tmp_path, capsys):
    """Identical flags and seed give byte-identical CLI output at 1, 2, 8 threads."""
    invocations = [
        ["verify", "--identity", "thm3.4-C", "--max-size", "4", "--trials", "10",
         "--seed", "3"],
        ["polymer", "--cmd", "laplace", "-n", "2", "--alpha", "1,1.5",
         "--samples", "2000", "--seed", "5", "-r", "0.5,1,2"],
        ["polymer", "--cmd", "ks-zzstar", "-n", "2", "--alpha", "1,1",
         "--samples", "4000", "--seed", "6"],
        ["whittaker", "--cmd", "density-check", "--alpha", "1,1", "--beta", "1",
         "--samples", "4000", "--seed", "7"],
    ]
    for k, argv in enumerate(invocations):
        outputs = set()
        for threads in ("1", "2", "8"):
            path = tmp_path / f"out-{k}-{threads}"
            code = main(argv + ["--threads", threads, "--out", str(path)])
            assert code == 0, argv
            outputs.add(path.read_bytes())
        assert len(outputs) == 1, argv
    capsys.readouterr()
