"""Command-line interface over the library.

Four subcommands.  `apply` runs one map of `_APPLY_MAPS` on a JSON array
file.  `verify`, `polymer` and `whittaker` run the commands of one table,
`_COMMANDS`: the identity, Monte Carlo and Whittaker integral checks, each
printing one `correspondences.report` as JSON, the Laplace estimates (CSV)
and the Whittaker values (JSON).  Each command lists the optional flags it
takes, with their defaults, and one dispatcher serves all three
subcommands: a flag the command does not take exits 2 (`error: lukacs
takes no -n`), and so does a needed flag left out (`--x` for `eval`,
`--seed` for `density-check`).  `-n` defaults to the number of `--alpha`
values, and any other value exits 2.

Exit codes: 0 when everything asked for holds, 1 exactly when the report
says "pass": false (the report still goes to stdout), 2 on usage errors,
unreadable input, or parameters outside a map's precondition.  Identical
flags, seed included, give byte-identical output.  --threads is accepted
and ignored: every command runs on one thread, with the same output.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from functools import partial

from .arrays import ShapedArray, random_array
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
    report,
    run_trials,
    tropical_limit_check,
    verify_identity,
)
from .oracles import (
    EnumerationLimitError,
    prop4_outcomes,
    prop43_outcomes,
    random_persymmetric_square_weights,
    replica_decomposition_outcomes,
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


# name -> f(arr), in the order --help lists them
_APPLY_MAPS = {
    "rsk": grsk,
    "burge": gburge,
    "schutz": gschutz,
    "schutz-upper": gschutz_upper,
    "burge-up": gburge_up,
    "inv-rsk": inv_grsk,
    "inv-burge": inv_gburge,
    "transpose": ShapedArray.transpose,
    "reverse-rows": ShapedArray.reverse_rows,
    "reverse-cols": ShapedArray.reverse_cols,
}
# the maps that also take a growth sequence, as f(arr, order)
_ORDERED_MAPS = ("rsk", "burge", "inv-rsk", "inv-burge")


def _cmd_apply(args) -> int:
    with open(args.in_path, encoding="utf-8") as handle:
        arr = ShapedArray.from_json(handle.read())
    order = _parse_order(args.order) if args.order else None
    apply = _APPLY_MAPS[args.map]
    if order is None:
        result = apply(arr)
    elif args.map in _ORDERED_MAPS:
        result = apply(arr, order)
    else:
        raise ValueError(f"--order applies to {sorted(_ORDERED_MAPS)}, not {args.map!r}")
    _write(result.to_json(indent=2) + "\n", args.out_path)
    return 0


# -- verify, polymer, whittaker: one command table -------------------------


def _sampled(name: str, outcomes, pool, draw=partial(random_array, domain=GEOMETRIC_RATIONAL)):
    """The run of a check on one input per trial: each `run_trials` trial
    draws draw(rng.choice(pool(max_size)), rng=rng) and compares
    outcomes(input)."""

    def run(a):
        items = pool(a.max_size)
        return run_trials(name, lambda rng: outcomes(draw(rng.choice(items), rng=rng)),
                          a.trials, a.seed)

    return run


def _rectangles(k):
    return [rectangle(m, n) for m in range(1, k + 1) for n in range(1, k + 1)]


def _in_square(k):
    return [s for s in all_shapes(k * k) if s.n_rows <= k and s.n_cols <= k]


def _up_to_boxes(k):
    return list(all_shapes(k * k))


def _persymmetric_sizes(max_size):
    if max_size < 2:
        raise ValueError(
            f"replica-decomposition draws n x n weights, n >= 2; got max size {max_size}"
        )
    return range(2, max_size + 1)


def _identity(name):
    return lambda a: verify_identity(name, a.max_size, a.trials, a.seed)


def _laplace(a):
    results = laplace_mc(EnvSpec(a.n, a.alpha, a.beta), a.r, samples=a.samples, seed=a.seed)
    lines = ["r,estimate,stderr,samples,seed"]
    lines += [f"{r.r!r},{r.estimate!r},{r.stderr!r},{r.samples},{r.seed}" for r in results]
    return "\n".join(lines) + "\n"


def _lukacs(a):
    if len(a.alpha) != 2:
        raise ValueError(f"lukacs takes --alpha a,b: 2 values, got {len(a.alpha)}")
    return check_lukacs(*a.alpha, samples=a.samples, seed=a.seed)


def _eval(a):
    value = psi(WhittakerParams(a.n, a.alpha, a.x))
    return {"n": a.n, "alpha": list(a.alpha), "x": list(a.x), "value": value}


def _corollary(a):
    lhs, rhs, relerr = corollary_check(a.alpha, a.beta)
    params = {"n": a.n, "alpha": list(a.alpha), "beta": a.beta}
    return report("corollary", params, {"lhs": lhs, "rhs": rhs, "relerr": relerr}, relerr <= a.tol)


_NEEDED = "needed"  # a flag with no default: leaving it out exits 2
_ALPHAS = "the number of --alpha values"  # the default of -n, and the only value it takes
_R = (0.5, 1.0, 2.0)

# subcommand -> name -> (run(args) -> report, value or CSV text,
#                        {flag: default, for each optional flag the command takes})
_COMMANDS = {
    "verify": {
        **{name: (_identity(name), {"max_size": 4, "trials": 50}) for name in IDENTITY_NAMES},
        "prop4.1": (
            _sampled("prop4.1", partial(prop4_outcomes, which="grsk-4.1"), _rectangles),
            {"max_size": 3, "trials": 20},
        ),
        "prop4.2": (
            _sampled("prop4.2", partial(prop4_outcomes, which="gburge-4.2"), _in_square),
            {"max_size": 3, "trials": 20},
        ),
        "prop4.3": (
            _sampled("prop4.3", prop43_outcomes, _up_to_boxes),
            {"max_size": 4, "trials": 50},
        ),
        "jacobian": (
            lambda a: verify_jacobians(False, a.trials, a.seed, a.tol, a.max_size**2),
            {"max_size": 3, "trials": 10, "tol": 1e-6},
        ),
        "jacobian-symmetric": (
            lambda a: verify_jacobians(True, a.trials, a.seed, a.tol),
            {"trials": 10, "tol": 1e-6},
        ),
        "tropical-limit": (
            lambda a: tropical_limit_check(a.max_size**2, a.trials, a.seed),
            {"max_size": 3, "trials": 20},
        ),
        "replica-decomposition": (
            _sampled("replica-decomposition", replica_decomposition_outcomes, _persymmetric_sizes,
                     random_persymmetric_square_weights),
            {"max_size": 4, "trials": 25},
        ),
    },
    "polymer": {
        "laplace": (_laplace, {"n": _ALPHAS, "beta": 1.0, "samples": 10_000, "r": _R}),
        "ks-zzstar": (
            lambda a: check_Z_Zstar(a.n, a.alpha, samples=a.samples, seed=a.seed),
            {"n": _ALPHAS, "samples": 10_000},
        ),
        "lukacs": (_lukacs, {"samples": 10_000}),
        "replica": (
            lambda a: check_replica_routes(EnvSpec(a.n, a.alpha, a.beta), a.samples, a.seed, a.tol),
            {"n": _ALPHAS, "beta": 1.0, "samples": 10_000, "tol": 1e-10},
        ),
    },
    "whittaker": {
        "eval": (_eval, {"n": _ALPHAS, "x": _NEEDED}),
        "corollary": (_corollary, {"n": _ALPHAS, "beta": 1.0, "tol": 1e-4}),
        "density-check": (
            lambda a: whittaker_measure_check(
                a.alpha, a.beta, samples=a.samples, seed=a.seed, r_values=a.r
            ),
            {"n": _ALPHAS, "beta": 1.0, "samples": 100_000, "seed": _NEEDED, "r": _R},
        ),
    },
}

# flag -> (option, type, help), for every optional flag a command may take
_OPTIONS = {
    "max_size": ("--max-size", int, None),
    "trials": ("--trials", int, None),
    "n": ("-n", int, "rank; defaults to the number of --alpha values"),
    "x": ("--x", str, "comma-separated argument vector"),
    "beta": ("--beta", float, None),
    "samples": ("--samples", int, None),
    "seed": ("--seed", int, None),
    "r": ("-r", str, "comma-separated Laplace parameters"),
    "tol": ("--tol", float, None),
}


def _flags(subcommand: str) -> dict:
    """The optional flags of a subcommand: those some command of it takes."""
    return dict.fromkeys(flag for _, flags in _COMMANDS[subcommand].values() for flag in flags)


def _dispatch(args) -> int:
    table = _COMMANDS[args.command]
    if args.name not in table:  # argparse checks the --cmd names, not --identity
        raise ValueError(f"unknown identity {args.name!r}; known: {', '.join(table)}")
    run, flags = table[args.name]
    for flag in _flags(args.command):
        if flag not in flags and getattr(args, flag) is not None:
            raise ValueError(f"{args.name} takes no {_OPTIONS[flag][0]}")
    if hasattr(args, "alpha"):
        args.alpha = _floats(args.alpha)
    for flag, default in flags.items():
        option, given = _OPTIONS[flag][0], getattr(args, flag)
        if given is None:
            if default == _NEEDED:
                raise ValueError(f"{args.name} needs {option}")
            given = len(args.alpha) if default == _ALPHAS else default
        elif flag in ("x", "r"):
            given = _floats(given)
        elif flag in ("max_size", "trials") and given < 1:
            raise ValueError(f"{option} must be at least 1, got {given}")
        setattr(args, flag, given)
    if "n" in flags and args.n != len(args.alpha):
        raise ValueError(f"--alpha needs {args.n} comma-separated values, got {len(args.alpha)}")
    out = run(args)
    if isinstance(out, str):
        _write(out, args.out_path)
        return 0
    _emit_json(out, args.out_path)
    return 1 if out.get("pass") is False else 0


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
    p_verify.add_argument("--identity", dest="name", required=True, metavar="NAME")
    p_verify.add_argument("--seed", type=int, required=True)
    p_poly = sub.add_parser("polymer", help="log-gamma environment Monte Carlo")
    p_whit = sub.add_parser("whittaker", help="Whittaker evaluation and measure checks")
    for command, p in (("polymer", p_poly), ("whittaker", p_whit)):
        p.add_argument("--cmd", dest="name", required=True, choices=_COMMANDS[command])
        p.add_argument("--alpha", required=True, help="comma-separated parameters")
    p_poly.add_argument("--seed", type=int, required=True)
    for command, p in (("verify", p_verify), ("polymer", p_poly), ("whittaker", p_whit)):
        for flag in _flags(command):
            option, kind, help_text = _OPTIONS[flag]
            p.add_argument(option, dest=flag, type=kind, help=help_text)
        p.add_argument("--threads", type=int, help=_THREADS_HELP)
        p.add_argument("--out", dest="out_path", metavar="FILE")

    return parser


_LIST_OPTIONS = ("--alpha", "--x", "-r")  # comma lists of floats


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse reads a negative list such as -1,-2 as an option: glue it on
    for i in reversed(range(1, len(argv))):
        if argv[i - 1] in _LIST_OPTIONS and re.match(r"-[\d.]", argv[i]):
            argv[i - 1 : i + 1] = [f"{argv[i - 1]}={argv[i]}"]
    args = _build_parser().parse_args(argv)
    try:
        return _cmd_apply(args) if args.command == "apply" else _dispatch(args)
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
