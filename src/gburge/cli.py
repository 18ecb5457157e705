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
import random
import re
import sys
from functools import partial

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
from .polymer import EnvSpec, check_lukacs, check_replica_routes, check_Z_Zstar, laplace_mc
from .shapes import ShapeError, all_shapes, rectangle
from .values import GEOMETRIC_RATIONAL, DomainError
from .whittaker import (
    NonconvergentQuadratureError,
    WhittakerParams,
    corollary_check,
    psi,
    whittaker_measure_check,
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
    _write(json.dumps(obj, indent=2, allow_nan=False) + "\n", out_path)


# -- apply ---------------------------------------------------------------


def _parse_order(text: str):
    try:
        raw = json.loads(text)
        return tuple((int(i), int(j)) for i, j in raw)
    except (json.JSONDecodeError, TypeError, ValueError):
        raise ValueError(
            f"--order must be a JSON list of [row, column] pairs, got {text!r}"
        ) from None


class _Orderless:
    """A map f(arr) that takes no growth sequence, called as f(arr, order)."""

    def __init__(self, f):
        self.f = f

    def __call__(self, arr, order):
        return self.f(arr)


# name -> f(arr, order), in the order --help lists them; order is None without --order
_APPLY_MAPS = {
    "rsk": grsk,
    "burge": gburge,
    "schutz": _Orderless(gschutz),
    "schutz-upper": _Orderless(gschutz_upper),
    "burge-up": _Orderless(lambda arr: symmetrize(gburge_up(arr.restrict_upper()))),
    "inv-rsk": inv_grsk,
    "inv-burge": inv_gburge,
    "transpose": _Orderless(ShapedArray.transpose),
    "reverse-rows": _Orderless(ShapedArray.reverse_rows),
    "reverse-cols": _Orderless(ShapedArray.reverse_cols),
}


def _cmd_apply(args) -> int:
    with open(args.in_path, encoding="utf-8") as handle:
        arr = ShapedArray.from_json(handle.read())
    order = _parse_order(args.order) if args.order else None
    apply = _APPLY_MAPS[args.map]
    if order is not None and isinstance(apply, _Orderless):
        ordered = sorted(name for name, f in _APPLY_MAPS.items() if not isinstance(f, _Orderless))
        raise ValueError(f"--order applies to {ordered}, not {args.map!r}")
    _write(apply(arr, order).to_json(indent=2) + "\n", args.out_path)
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


def _sampled(name: str, check, draw):
    """The run function of a check on one input at a time: draw(max_size)
    gives a sampler, each trial's input is sampler(rng) from one
    Random(seed), check(input, tol) reports on it, and the reports are
    merged."""

    def run(max_size, trials, seed, tol):
        rng, sample = random.Random(seed), draw(max_size)
        return _merge_reports(name, [check(sample(rng), tol) for _ in range(trials)])

    return run


def _on_shapes(pool):
    """A draw of rational arrays on shapes picked from pool(max_size)."""

    def draw(max_size):
        shapes = pool(max_size)
        return lambda rng: random_array(rng.choice(shapes), GEOMETRIC_RATIONAL, rng)

    return draw


def _rectangles(k):
    return [rectangle(m, n) for m in range(1, k + 1) for n in range(1, k + 1)]


def _in_square(k):
    return [s for s in all_shapes(k * k) if s.n_rows <= k and s.n_cols <= k]


def _up_to_boxes(k):
    return list(all_shapes(k * k))


def _persymmetric(max_size):
    return lambda rng: random_persymmetric_square_weights(rng.randint(2, max(max_size, 2)), rng)


def _prop4(which):
    return lambda arr, tol: check_prop4(arr, which, tol)


# name -> (run(max_size, trials, seed, tol), default max_size, trials, tol);
# a default of None marks a flag the check does not take
_CHECKS = {
    **{name: (partial(verify_identity, name), 4, 50, None) for name in IDENTITY_NAMES},
    "prop4.1": (_sampled("prop4.1", _prop4("grsk-4.1"), _on_shapes(_rectangles)), 3, 20, None),
    "prop4.2": (_sampled("prop4.2", _prop4("gburge-4.2"), _on_shapes(_in_square)), 3, 20, None),
    "prop4.3": (_sampled("prop4.3", check_prop43, _on_shapes(_up_to_boxes)), 4, 50, None),
    "jacobian": (
        lambda k, trials, seed, tol: verify_jacobians(False, trials, seed, tol, max_boxes=k * k),
        3, 10, 1e-6,
    ),
    "jacobian-symmetric": (
        lambda _, trials, seed, tol: verify_jacobians(True, trials, seed, tol),
        None, 10, 1e-6,
    ),
    "tropical-limit": (
        lambda k, trials, seed, _: tropical_limit_check(k * k, trials, seed),
        3, 20, None,
    ),
    "replica-decomposition": (
        _sampled("replica-decomposition", check_replica_decomposition, _persymmetric),
        4, 25, None,
    ),
}


def _cmd_verify(args) -> int:
    name = args.identity
    if name not in _CHECKS:
        raise ValueError(f"unknown identity {name!r}; known: {', '.join(_CHECKS)}")
    run, *defaults = _CHECKS[name]
    flags = {"--max-size": args.max_size, "--trials": args.trials, "--tol": args.tol}
    for (flag, given), default in zip(flags.items(), defaults):
        if given is None:
            continue
        if default is None:
            raise ValueError(f"{name} takes no {flag}")
        if flag != "--tol" and given < 1:
            raise ValueError(f"{flag} must be at least 1, got {given}")
    max_size, trials, tol = (d if g is None else g for g, d in zip(flags.values(), defaults))
    report = run(max_size, trials, args.seed, tol)
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
        )
        lines = ["r,estimate,stderr,samples,seed"]
        lines += [f"{r.r!r},{r.estimate!r},{r.stderr!r},{r.samples},{r.seed}" for r in results]
        _write("\n".join(lines) + "\n", args.out_path)
        return 0
    if args.cmd == "ks-zzstar":
        _require_n_alphas(alpha, args.n)
        report = check_Z_Zstar(args.n, alpha, samples=args.samples, seed=args.seed)
    elif args.cmd == "lukacs":
        _require_n_alphas(alpha, 2)
        report = check_lukacs(alpha[0], alpha[1], samples=args.samples, seed=args.seed)
    else:  # replica: route agreement on sampled environments
        _require_n_alphas(alpha, args.n)
        spec = EnvSpec(args.n, alpha, args.beta)
        report = check_replica_routes(spec, args.samples, args.seed, args.tol)
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
        value = psi(WhittakerParams(n, alpha, x))
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


_LIST_OPTIONS = ("--alpha", "--x", "-r")  # comma lists of floats


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse reads a negative list such as -1,-2 as an option: glue it on
    for i in reversed(range(1, len(argv))):
        if argv[i - 1] in _LIST_OPTIONS and re.match(r"-[\d.]", argv[i]):
            argv[i - 1 : i + 1] = [f"{argv[i - 1]}={argv[i]}"]
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
