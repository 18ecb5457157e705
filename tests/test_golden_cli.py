"""CLI output pinned byte for byte: every `verify` check at its defaults and
at one explicit setting, two failing runs that print a counterexample, the
unknown-identity error, every `apply` map on a rational 3x3 and a float 3x2
array (with and without --order), every `polymer` and `whittaker` command,
one flag a command does not take in each of `verify`, `polymer` and
`whittaker`, and `--max-size` below the floors of appendix-C-identity (in
the explicit setting), replica-decomposition and prop3.3.

golden_cli.json holds the argv, exit code, stdout and stderr of each run; the
`apply` inputs are the apply_*.json files beside it, read with this directory
as the working directory.  A change to the check registry, the map table or
the report builders must reproduce them exactly.  To regenerate (only for a
deliberate change of output, declared in CHANGES.md):

    PYTHONPATH=src python tests/test_golden_cli.py > tests/golden_cli.json
"""

import contextlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from gburge.cli import main

HERE = Path(__file__).parent
GOLDEN = HERE / "golden_cli.json"

NAMES = (
    "thm3.4-C", "thm3.4-R", "thm3.2", "prop3.3", "appendix-C-identity",
    "order-independence", "recursion", "transpose-equivariance", "prop5.1",
    "prop4.1", "prop4.2", "prop4.3", "jacobian", "jacobian-symmetric",
    "tropical-limit", "replica-decomposition",
)
# the flags a check does not take are left out of its explicit setting
_EXPLICIT = {"max_size": ("--max-size", "3"), "trials": ("--trials", "4"), "tol": ("--tol", "1e-10")}
# only the two Jacobian checks take --tol: the others compare exact values
# (tropical-limit has a bound of its own)
_IGNORED = {name: {"tol"} for name in NAMES if not name.startswith("jacobian")}
_IGNORED["jacobian-symmetric"] = {"max_size"}


def _explicit(name):
    ignored = _IGNORED.get(name, ())
    return [arg for key, pair in _EXPLICIT.items() if key not in ignored for arg in pair]


MAPS = (
    "rsk", "burge", "schutz", "schutz-upper", "burge-up", "inv-rsk", "inv-burge", "transpose",
    "reverse-rows", "reverse-cols",
)
# each input with its column-major growth sequence
_APPLY_INPUTS = {
    "apply_rational_3x3.json": "[[1,1],[2,1],[3,1],[1,2],[2,2],[3,2],[1,3],[2,3],[3,3]]",
    "apply_float_3x2.json": "[[1,1],[2,1],[3,1],[1,2],[2,2],[3,2]]",
}
_APPLY = [["apply", "--map", m, "--in", path] for path in _APPLY_INPUTS for m in MAPS] + [
    ["apply", "--map", m, "--in", path, "--order", order]
    for path, order in _APPLY_INPUTS.items()
    for m in ("rsk", "burge", "inv-rsk", "inv-burge", "schutz")
]


COMMANDS = (
    [["verify", "--identity", name, "--seed", "1"] for name in NAMES]
    + [["verify", "--identity", name, "--seed", "2", *_explicit(name)] for name in NAMES]
    + [
        ["verify", "--identity", "jacobian", "--max-size", "2", "--trials", "1", "--tol", "0",
         "--seed", "1"],
        ["verify", "--identity", "jacobian-symmetric", "--trials", "1", "--tol", "0", "--seed", "1"],
        ["polymer", "--cmd", "replica", "-n", "3", "--alpha", "1,1.5,2", "--samples", "50",
         "--seed", "2"],
        ["verify", "--identity", "no-such-check", "--seed", "1"],
    ]
    + _APPLY
    + [
        ["whittaker", "--cmd", "eval", "--alpha", "0.5,-0.3,1.2", "--x", "0.7,1.3,2.1"],
        ["whittaker", "--cmd", "corollary", "--alpha", "1.5,2.5", "--beta", "0.5"],
        ["whittaker", "--cmd", "density-check", "--alpha", "1,1.5", "--beta", "1", "--samples",
         "5000", "--seed", "11"],
        # rank-2 eval and rank-1 corollary, whose digits the Bessel closed form
        # and the box rule moved (CHANGES.md)
        ["whittaker", "--cmd", "eval", "--alpha", "1,1", "--x", "1,1"],
        ["whittaker", "--cmd", "eval", "--alpha", "-2.329,-5.384", "--x", "0.0098,111.7"],
        ["whittaker", "--cmd", "corollary", "--alpha", "2", "--beta", "3"],
        ["whittaker", "--cmd", "corollary", "--alpha", "0.5"],
        ["whittaker", "--cmd", "corollary", "--alpha", "0.1"],
        # the Monte Carlo tests at small sizes; laplace takes its rank from --alpha
        ["polymer", "--cmd", "laplace", "--alpha", "1,1.5,2", "--samples", "200", "--seed", "3"],
        ["polymer", "--cmd", "ks-zzstar", "-n", "3", "--alpha", "1,1.5,2", "--samples", "500",
         "--seed", "1"],
        ["polymer", "--cmd", "lukacs", "--alpha", "1,2", "--samples", "500", "--seed", "1"],
        # usage errors: a flag the command does not take, and --max-size below a floor
        ["verify", "--identity", "thm3.2", "--tol", "1e-9", "--seed", "1"],
        ["polymer", "--cmd", "ks-zzstar", "-n", "3", "--alpha", "1,1.5,2", "--samples", "500",
         "--seed", "1", "--beta", "2"],
        ["whittaker", "--cmd", "corollary", "--alpha", "1.5,2.5", "--seed", "1"],
        ["verify", "--identity", "replica-decomposition", "--max-size", "1", "--seed", "1"],
        ["verify", "--identity", "prop3.3", "--max-size", "1", "--seed", "1"],
    ]
)


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(HERE)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    finally:
        os.chdir(cwd)
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_every_command():
    assert [case["argv"] for case in _golden()] == COMMANDS


@pytest.mark.parametrize("index", range(len(COMMANDS)), ids=[" ".join(a) for a in COMMANDS])
def test_cli_output_is_byte_identical(index):
    assert _run(COMMANDS[index]) == _golden()[index]


if __name__ == "__main__":
    json.dump([_run(argv) for argv in COMMANDS], sys.stdout, indent=1)
    sys.stdout.write("\n")
