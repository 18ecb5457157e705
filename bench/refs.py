"""Reference computations and output checks, made apart from the gburge package.

Nothing here imports gburge.  Each check takes plain Python values (rows as
lists of numbers, report dicts, CLI output strings) and returns None when the
output is right or a one-line description of what is wrong.  The self-test
(selftest.py) plants a wrong answer into each check and asserts that it is
rejected.
"""

from __future__ import annotations

import json
import math

# Float tolerances, each set from a measured error well below it:
CORNER_REL_TOL = 1e-12  # gburge corner vs the path-sum DP: observed <= 4e-15 (24x24)
ROUND_TRIP_REL_TOL = 1e-9  # inv_gburge(gburge(w)) vs w over floats: observed <= 4e-15
JACOBIAN_TOL = 1e-9  # | |det J| - 1 | of the log-log Jacobian: observed ~1e-15
COROLLARY_REL_TOL = 1e-6  # quadrature vs the lgamma closed form: observed <= 8e-9
PSI_PERM_REL_TOL = 1e-6  # rank-3 Psi over the 6 orders of alpha: observed <= 2e-8
MASS_TOL = 1e-6  # total mass of the normalised measure: observed ~1e-9
REPLICA_Z_BOUND = 4.0  # |z| of replica vs Burge-route Laplace estimates: observed <= 0.6


# -- partition functions by dynamic programming ----------------------------------------

_SEMIRINGS = {
    # domain name -> (oplus, otimes)
    "rational": (lambda a, b: a + b, lambda a, b: a * b),
    "float": (lambda a, b: a + b, lambda a, b: a * b),
    "tropical": (max, lambda a, b: a + b),
}


def point_to_point(rows, domain: str):
    """Sum over up-right lattice paths from (1,1) to (m,n) of the product of
    the weights on the path (max-plus: the heaviest path)."""
    plus, times = _SEMIRINGS[domain]
    prev = None
    for row in rows:
        cur = []
        for j, w in enumerate(row):
            if prev is None:
                cur.append(w if j == 0 else times(w, cur[j - 1]))
            elif j == 0:
                cur.append(times(w, prev[0]))
            else:
                cur.append(times(w, plus(prev[j], cur[j - 1])))
        prev = cur
    return prev[-1]


def dual_point_to_point(rows, domain: str):
    """The same sum over paths from the bottom-left to the top-right corner."""
    return point_to_point(rows[::-1], domain)


def log_dual_point_to_point(rows) -> float:
    """log of the float dual point-to-point sum, computed with log-sum-exp so
    that it stays finite where the sum itself overflows a double."""
    logs = [[math.log(w) for w in row] for row in rows[::-1]]
    prev = None
    for row in logs:
        cur = []
        for j, lw in enumerate(row):
            if prev is None:
                cur.append(lw if j == 0 else lw + cur[j - 1])
            elif j == 0:
                cur.append(lw + prev[0])
            else:
                hi, lo = max(prev[j], cur[j - 1]), min(prev[j], cur[j - 1])
                cur.append(lw + hi + math.log1p(math.exp(lo - hi)))
        prev = cur
    return prev[-1]


def normalization_constant(alpha, beta: float) -> float:
    """beta^(-sum alpha) prod Gamma(alpha_i) prod_{i<j} Gamma(alpha_i + alpha_j)."""
    log_c = -sum(alpha) * math.log(beta) + sum(math.lgamma(a) for a in alpha)
    log_c += sum(
        math.lgamma(alpha[i] + alpha[j])
        for i in range(len(alpha))
        for j in range(i + 1, len(alpha))
    )
    return math.exp(log_c)


# -- checks ----------------------------------------------------------------------------


def _rel(a, b) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def check_value(got, want, domain: str, what: str, rel_tol: float = CORNER_REL_TOL):
    """Exact equality over rationals and max-plus, relative tolerance over floats."""
    if domain == "float":
        ok = math.isfinite(got) and _rel(got, want) <= rel_tol
    else:
        ok = got == want
    return None if ok else f"{what}: got {got!r}, want {want!r} ({domain})"


def check_burge_corner(t_rows, w_rows, domain: str):
    """t_{m,n} of gburge(w) is the dual point-to-point sum of w."""
    return check_value(t_rows[-1][-1], dual_point_to_point(w_rows, domain), domain, "Burge corner")


def check_rsk_corner(t_rows, w_rows, domain: str):
    """t_{m,n} of grsk(w) is the point-to-point sum of w."""
    return check_value(t_rows[-1][-1], point_to_point(w_rows, domain), domain, "RSK corner")


def check_round_trip(back_rows, w_rows, domain: str):
    """inv_gburge(gburge(w)) == w, entry by entry."""
    for i, (got_row, want_row) in enumerate(zip(back_rows, w_rows), start=1):
        for j, (got, want) in enumerate(zip(got_row, want_row), start=1):
            err = check_value(got, want, domain, f"round trip at ({i},{j})", ROUND_TRIP_REL_TOL)
            if err:
                return err
    return None


def check_report(report: dict):
    """An identity, Jacobian or tropical-limit report with no failures."""
    if report.get("trials", 0) < 1 or report.get("failures") != 0:
        return f"report {report.get('identity')!r}: {report.get('failures')} failures in {report.get('trials')} trials"
    return None


def check_unit_det(det: float):
    """Volume preservation in log-log coordinates: |det J| = 1."""
    return None if abs(det - 1.0) <= JACOBIAN_TOL else f"|det J| = {det!r}, want 1"


def check_overflow_vector(vec, w_rows):
    """The n = 60 environment's Burge diagonal, should the map ever return:
    finite, and t_{n,n} equal to the log-domain dual point-to-point sum."""
    last = vec[-1]
    if not all(isinstance(v, float) and math.isfinite(v) and v > 0 for v in vec):
        return f"Burge diagonal holds a non-finite entry: {last!r} at the corner"
    want = log_dual_point_to_point(w_rows)
    return None if abs(math.log(last) - want) <= 1e-9 * max(1.0, abs(want)) else (
        f"log t_nn = {math.log(last)!r}, want {want!r}"
    )


def mean_and_stderr(values):
    n = len(values)
    mean = math.fsum(values) / n
    var = math.fsum((v - mean) ** 2 for v in values) / (n - 1)
    return mean, math.sqrt(var / n)


def check_replica(replica, burge):
    """Replica theorem, Z_repl =d Z* = t_{n,n}: for each r, the replica Laplace
    estimate and the Burge-route mean of exp(-r t_nn) agree within a combined
    z-bound.  Both arguments map r -> (mean, stderr), from independent draws."""
    for r, (mean_a, se_a) in replica.items():
        mean_b, se_b = burge[r]
        z = (mean_a - mean_b) / math.hypot(se_a, se_b)
        if not abs(z) <= REPLICA_Z_BOUND:
            return f"replica vs Burge route at r={r}: z = {z:.2f} (bound {REPLICA_Z_BOUND})"
    return None


def check_zzstar(report: dict, cli_threads2: str, cli_threads1: str):
    """check_Z_Zstar passes, its CLI output is byte-identical at threads 1 and
    2, and the CLI reports what the direct call returned."""
    if report.get("pass") is not True:
        return f"check_Z_Zstar failed: p = {report.get('pvalue')!r}"
    if cli_threads2 != cli_threads1:
        return "ks-zzstar CLI output differs between --threads 1 and --threads 2"
    if json.loads(cli_threads2) != report:
        return "ks-zzstar CLI output differs from the direct check_Z_Zstar report"
    return None


def check_corollary(alpha, beta: float, lhs: float):
    """int e^{-beta/x_n} Psi_{-alpha}(x) prod dx_i/x_i equals the closed form."""
    want = normalization_constant(alpha, beta)
    err = _rel(lhs, want)
    return None if err <= COROLLARY_REL_TOL else (
        f"corollary at alpha={alpha}, beta={beta}: {lhs!r} vs {want!r} (relerr {err:.2e})"
    )


def check_psi_permutations(values):
    """Psi_alpha(x) is symmetric in alpha: its values over all orders of alpha agree."""
    spread = _rel(max(values), min(values))
    return None if spread <= PSI_PERM_REL_TOL else (
        f"rank-3 Psi changes under a permutation of alpha: relative spread {spread:.2e}"
    )


def check_measure(report: dict):
    """The n = 2 measure check passes and the measure has total mass 1."""
    if report.get("pass") is not True:
        return f"measure check failed: cdf_max_sigma = {report.get('cdf_max_sigma')!r}"
    if not abs(report.get("total_mass", math.nan) - 1.0) <= MASS_TOL:
        return f"measure total mass {report.get('total_mass')!r}, want 1"
    return None
