"""Command-line interface over the library.

Four subcommands: `apply` runs a single correspondence on a JSON array file,
`verify` runs randomized identity checks and emits a JSON report, `polymer`
runs the Monte Carlo distribution checks (CSV for Laplace estimates, JSON for
test reports), and `whittaker` evaluates the special functions and their
integral identities.

Exit codes: 0 when everything asked for holds, 1 when a verified identity or
statistical check fails (the report still goes to stdout), 2 on usage errors,
unreadable input, or parameters outside a map's precondition.  Identical
flags, seed included, give byte-identical output.  --threads is accepted
and ignored: every command runs on one thread, with the same output.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys

from .arrays import ShapedArray, random_array, symmetrize
from .calculus import verify_jacobians
from .correspondences import (
    IDENTITY_NAMES,
    gburge,
    gburge_up,
    grsk,
    gschutz,
    gschutz_upper,
    inv_gburge,
    inv_grsk,
    tropical_limit_check,
    verify_identity,
)
from .oracles import (
    EnumerationLimitError,
    check_prop4,
    check_prop43,
    check_replica_decomposition,
    random_persymmetric_square_weights,
)
from .polymer import (
    EnvSpec,
    Stream,
    _check_samples,
    check_lukacs,
    check_Z_Zstar,
    laplace_mc,
    replica_Z,
    sample_replica_env,
)
from .shapes import ShapeError, all_shapes, rectangle
from .values import GEOMETRIC_RATIONAL, DomainError
from .whittaker import (
    NonconvergentQuadratureError,
    WhittakerParams,
    corollary_check,
    psi,
    whittaker_measure_check,
)

_APPLY_MAPS = (
    "rsk",
    "burge",
    "schutz",
    "schutz-upper",
    "burge-up",
    "inv-rsk",
    "inv-burge",
    "transpose",
    "reverse-rows",
    "reverse-cols",
)

_EXTRA_IDENTITIES = (
    "prop4.1",
    "prop4.2",
    "prop4.3",
    "jacobian",
    "jacobian-symmetric",
    "tropical-limit",
    "replica-decomposition",
)

# per-identity defaults (max_size, trials, tol) when the flags are omitted
_VERIFY_DEFAULTS = {name: (4, 50, 1e-12) for name in IDENTITY_NAMES}
_VERIFY_DEFAULTS.update(
    {
        "prop4.1": (3, 20, 1e-9),
        "prop4.2": (3, 20, 1e-9),
        "prop4.3": (4, 50, 1e-9),
        "jacobian": (3, 10, 1e-6),
        "jacobian-symmetric": (4, 10, 1e-6),
        "tropical-limit": (3, 20, 1e-9),
        "replica-decomposition": (4, 25, 1e-9),
    }
)


def _floats(text: str):
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"expected a comma-separated list of numbers, got {text!r}") from None


def _write(text: str, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(obj, out_path) -> None:
    # strict JSON: a nan or an infinity raises ValueError (exit 2), not a bare NaN token
    _write(json.dumps(obj, indent=2, default=str, allow_nan=False) + "\n", out_path)


# -- apply ---------------------------------------------------------------


def _parse_order(text: str):
    try:
        raw = json.loads(text)
        return tuple((int(i), int(j)) for i, j in raw)
    except (json.JSONDecodeError, TypeError, ValueError):
        raise ValueError(
            f"--order must be a JSON list of [row, column] pairs, got {text!r}"
        ) from None


def _cmd_apply(args) -> int:
    with open(args.in_path, encoding="utf-8") as handle:
        arr = ShapedArray.from_json(handle.read())
    order = _parse_order(args.order) if args.order else None
    takes_order = {"rsk", "burge", "inv-rsk", "inv-burge"}
    if order is not None and args.map not in takes_order:
        raise ValueError(f"--order applies to {sorted(takes_order)}, not {args.map!r}")
    if args.map == "rsk":
        result = grsk(arr, order)
    elif args.map == "burge":
        result = gburge(arr, order)
    elif args.map == "inv-rsk":
        result = inv_grsk(arr, order)
    elif args.map == "inv-burge":
        result = inv_gburge(arr, order)
    elif args.map == "schutz":
        result = gschutz(arr)
    elif args.map == "schutz-upper":
        result = gschutz_upper(arr)
    elif args.map == "burge-up":
        result = symmetrize(gburge_up(arr.restrict_upper()))
    elif args.map == "transpose":
        result = arr.transpose()
    elif args.map == "reverse-rows":
        result = arr.reverse_rows()
    else:
        result = arr.reverse_cols()
    _write(result.to_json(indent=2) + "\n", args.out_path)
    return 0


# -- verify ---------------------------------------------------------------


def _merge_reports(name: str, reports) -> dict:
    out = {
        "identity": name,
        "trials": sum(r["trials"] for r in reports),
        "failures": sum(r["failures"] for r in reports),
    }
    for report in reports:
        if report.get("first_counterexample") is not None:
            out["first_counterexample"] = report["first_counterexample"]
            break
    return out


def _verify_prop4(which: str, max_size: int, trials: int, seed: int, tol: float) -> dict:
    rng = random.Random(seed)
    if which == "grsk-4.1":
        pool = [rectangle(m, n) for m in range(1, max_size + 1) for n in range(1, max_size + 1)]
    else:
        pool = [
            s
            for s in all_shapes(max_size * max_size)
            if s.n_rows <= max_size and s.n_cols <= max_size
        ]
    reports = []
    for _ in range(trials):
        arr = random_array(rng.choice(pool), GEOMETRIC_RATIONAL, rng)
        reports.append(check_prop4(arr, which, tol=tol))
    name = "prop4.1" if which == "grsk-4.1" else "prop4.2"
    return _merge_reports(name, reports)


def _verify_prop43(max_size: int, trials: int, seed: int, tol: float) -> dict:
    rng = random.Random(seed)
    pool = list(all_shapes(max_size * max_size))
    reports = []
    for _ in range(trials):
        arr = random_array(rng.choice(pool), GEOMETRIC_RATIONAL, rng)
        reports.append(check_prop43(arr, tol=tol))
    return _merge_reports("prop4.3", reports)


def _verify_replica_decomposition(max_size: int, trials: int, seed: int, tol: float) -> dict:
    rng = random.Random(seed)
    reports = []
    for _ in range(trials):
        n = rng.randint(2, max(max_size, 2))
        weights = random_persymmetric_square_weights(n, rng)
        reports.append(check_replica_decomposition(weights, tol=tol))
    return _merge_reports("replica-decomposition", reports)


def _cmd_verify(args) -> int:
    name = args.identity
    if name not in IDENTITY_NAMES and name not in _EXTRA_IDENTITIES:
        known = ", ".join(IDENTITY_NAMES + _EXTRA_IDENTITIES)
        raise ValueError(f"unknown identity {name!r}; known: {known}")
    d_size, d_trials, d_tol = _VERIFY_DEFAULTS[name]
    max_size = args.max_size if args.max_size is not None else d_size
    trials = args.trials if args.trials is not None else d_trials
    tol = args.tol if args.tol is not None else d_tol
    if name in IDENTITY_NAMES:
        report = verify_identity(
            name, max_size=max_size, trials=trials, seed=args.seed, tol=tol, threads=args.threads
        )
    elif name == "prop4.1":
        report = _verify_prop4("grsk-4.1", max_size, trials, args.seed, tol)
    elif name == "prop4.2":
        report = _verify_prop4("gburge-4.2", max_size, trials, args.seed, tol)
    elif name == "prop4.3":
        report = _verify_prop43(max_size, trials, args.seed, tol)
    elif name == "jacobian":
        report = verify_jacobians(
            symmetric=False, points=trials, seed=args.seed, tol=tol, max_boxes=max_size * max_size
        )
    elif name == "jacobian-symmetric":
        report = verify_jacobians(symmetric=True, points=trials, seed=args.seed, tol=tol)
    elif name == "tropical-limit":
        report = tropical_limit_check(max_boxes=max_size * max_size, trials=trials, seed=args.seed)
    else:
        report = _verify_replica_decomposition(max_size, trials, args.seed, tol)
    _emit_json(report, args.out_path)
    return 0 if report["failures"] == 0 else 1


# -- polymer ---------------------------------------------------------------


def _require_n_alphas(alpha, n: int):
    if len(alpha) != n:
        raise ValueError(f"--alpha needs {n} comma-separated values, got {len(alpha)}")


def _cmd_polymer(args) -> int:
    alpha = _floats(args.alpha)
    if args.cmd == "laplace":
        _require_n_alphas(alpha, args.n)
        r_values = _floats(args.r) if args.r else (0.5, 1.0, 2.0)
        results = laplace_mc(
            EnvSpec(args.n, alpha, args.beta),
            r_values,
            samples=args.samples,
            seed=args.seed,
            threads=args.threads,
        )
        lines = ["r,estimate,stderr,samples,seed"]
        lines += [f"{r.r!r},{r.estimate!r},{r.stderr!r},{r.samples},{r.seed}" for r in results]
        _write("\n".join(lines) + "\n", args.out_path)
        return 0
    if args.cmd == "ks-zzstar":
        _require_n_alphas(alpha, args.n)
        report = check_Z_Zstar(
            args.n, alpha, samples=args.samples, seed=args.seed, threads=args.threads
        )
    elif args.cmd == "lukacs":
        _require_n_alphas(alpha, 2)
        report = check_lukacs(
            alpha[0], alpha[1], samples=args.samples, seed=args.seed, threads=args.threads
        )
    else:  # replica: route agreement on sampled environments
        _require_n_alphas(alpha, args.n)
        _check_samples(args.samples)
        spec = EnvSpec(args.n, alpha, args.beta)
        worst = 0.0
        for i in range(args.samples):
            env = sample_replica_env(spec, Stream(args.seed, i))
            oracle = replica_Z(env, via="oracle")
            folded = replica_Z(env, via="persymmetric-burge")
            worst = max(worst, abs(oracle - folded) / abs(oracle))
        report = {
            "test": "replica-routes",
            "n": args.n,
            "alpha": list(alpha),
            "beta": args.beta,
            "samples": args.samples,
            "seed": args.seed,
            "max_relerr": worst,
            "pass": bool(worst <= args.tol),
        }
    _emit_json(report, args.out_path)
    return 0 if report["pass"] else 1


# -- whittaker ---------------------------------------------------------------


def _cmd_whittaker(args) -> int:
    alpha = _floats(args.alpha)
    n = len(alpha) if args.n is None else args.n
    _require_n_alphas(alpha, n)
    if args.cmd == "eval":
        if args.x is None:
            raise ValueError("--cmd eval needs --x (the argument vector)")
        x = _floats(args.x)
        value = psi(WhittakerParams(n, alpha, x), method=args.method)
        _emit_json({"n": n, "alpha": list(alpha), "x": list(x), "value": value}, args.out_path)
        return 0
    if args.cmd == "corollary":
        lhs, rhs, relerr = corollary_check(alpha, args.beta)
        report = {
            "n": n,
            "alpha": list(alpha),
            "beta": args.beta,
            "lhs": lhs,
            "rhs": rhs,
            "relerr": relerr,
        }
        _emit_json(report, args.out_path)
        return 0 if relerr <= args.tol else 1
    # density-check: end-to-end sampling against quadrature
    if args.seed is None:
        raise ValueError("--cmd density-check draws samples and needs --seed")
    r_values = _floats(args.r) if args.r else (0.5, 1.0, 2.0)
    report = whittaker_measure_check(
        alpha,
        args.beta,
        samples=args.samples,
        seed=args.seed,
        r_values=r_values,
        threads=args.threads,
    )
    _emit_json(report, args.out_path)
    return 0 if report["pass"] else 1


# -- parser ---------------------------------------------------------------


_THREADS_HELP = "accepted and ignored: runs on one thread, output unchanged"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gburge",
        description="Correspondences on Young-diagram arrays and their distribution checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_apply = sub.add_parser("apply", help="apply one map to a JSON array file")
    p_apply.add_argument("--map", required=True, choices=_APPLY_MAPS)
    p_apply.add_argument("--in", dest="in_path", required=True, metavar="FILE")
    p_apply.add_argument("--out", dest="out_path", default=None, metavar="FILE")
    p_apply.add_argument(
        "--order", default=None, help="growth sequence as a JSON list of [row, column] pairs"
    )

    p_verify = sub.add_parser("verify", help="randomized identity check with a JSON report")
    p_verify.add_argument("--identity", required=True, metavar="NAME")
    p_verify.add_argument("--max-size", dest="max_size", type=int, default=None)
    p_verify.add_argument("--trials", type=int, default=None)
    p_verify.add_argument("--seed", type=int, required=True)
    p_verify.add_argument("--tol", type=float, default=None)
    p_verify.add_argument("--threads", type=int, default=1, help=_THREADS_HELP)
    p_verify.add_argument("--out", dest="out_path", default=None, metavar="FILE")

    p_poly = sub.add_parser("polymer", help="log-gamma environment Monte Carlo")
    p_poly.add_argument("--cmd", required=True, choices=("laplace", "ks-zzstar", "lukacs", "replica"))
    p_poly.add_argument("-n", type=int, default=2)
    p_poly.add_argument("--alpha", required=True, help="comma-separated parameters")
    p_poly.add_argument("--beta", type=float, default=1.0)
    p_poly.add_argument("--samples", type=int, default=10_000)
    p_poly.add_argument("--seed", type=int, required=True)
    p_poly.add_argument("-r", default=None, help="comma-separated Laplace parameters")
    p_poly.add_argument("--tol", type=float, default=1e-10)
    p_poly.add_argument("--threads", type=int, default=1, help=_THREADS_HELP)
    p_poly.add_argument("--out", dest="out_path", default=None, metavar="FILE")

    p_whit = sub.add_parser("whittaker", help="Whittaker evaluation and measure checks")
    p_whit.add_argument("--cmd", required=True, choices=("eval", "corollary", "density-check"))
    p_whit.add_argument("-n", type=int, default=None, help="rank; defaults to the length of --alpha")
    p_whit.add_argument("--alpha", required=True, help="comma-separated parameters")
    p_whit.add_argument("--x", default=None, help="comma-separated argument vector")
    p_whit.add_argument("--beta", type=float, default=1.0)
    p_whit.add_argument("--method", default="quadrature", choices=("quadrature", "monte-carlo"))
    p_whit.add_argument("--samples", type=int, default=100_000)
    p_whit.add_argument("--seed", type=int, default=None)
    p_whit.add_argument("-r", default=None, help="comma-separated Laplace parameters")
    p_whit.add_argument("--tol", type=float, default=1e-4)
    p_whit.add_argument("--threads", type=int, default=1, help=_THREADS_HELP)
    p_whit.add_argument("--out", dest="out_path", default=None, metavar="FILE")

    return parser


_HANDLERS = {
    "apply": _cmd_apply,
    "verify": _cmd_verify,
    "polymer": _cmd_polymer,
    "whittaker": _cmd_whittaker,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (
        ShapeError,
        DomainError,
        ValueError,
        OverflowError,
        OSError,
        EnumerationLimitError,
        NonconvergentQuadratureError,
        json.JSONDecodeError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
