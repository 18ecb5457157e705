"""CLI output pinned byte for byte: every `verify` check at its defaults and
at one explicit setting, two failing runs that print a counterexample, the
replica route check, and the unknown-identity error.

golden_cli.json holds the argv, exit code, stdout and stderr of each run.  A
change to the check registry or to the report builders must reproduce them
exactly.  To regenerate (only for a deliberate change of output, declared in
CHANGES.md):

    PYTHONPATH=src python tests/test_golden_cli.py > tests/golden_cli.json
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from gburge.cli import main

GOLDEN = Path(__file__).with_name("golden_cli.json")

NAMES = (
    "thm3.4-C", "thm3.4-R", "thm3.2", "prop3.3", "appendix-C-identity",
    "order-independence", "recursion", "transpose-equivariance", "prop5.1",
    "prop4.1", "prop4.2", "prop4.3", "jacobian", "jacobian-symmetric",
    "tropical-limit", "replica-decomposition",
)
# the flags a check does not take are left out of its explicit setting
_EXPLICIT = {"max_size": ("--max-size", "3"), "trials": ("--trials", "4"), "tol": ("--tol", "1e-10")}
_IGNORED = {"jacobian-symmetric": "max_size", "tropical-limit": "tol"}


def _explicit(name):
    return [arg for key, pair in _EXPLICIT.items() if _IGNORED.get(name) != key for arg in pair]


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
)


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
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
