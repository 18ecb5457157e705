"""Log-log Jacobians pinned bit for bit: every entry of both loglog_jacobian
modes, for every map name, on a rectangle (for gschutz), a self-conjugate
shape with a symmetric input (for gburge_up) and a 2x2 symmetric square,
which every map takes.

golden_jacobians.json holds each input and the float.hex of every entry of
its Jacobians.  A change to how the maps are differentiated must reproduce
them exactly.  To regenerate (only for a deliberate change of the arithmetic
order, declared in CHANGES.md):

    PYTHONPATH=src python tests/test_golden_jacobians.py > tests/golden_jacobians.json
"""

import json
import random
import sys
from pathlib import Path

import pytest

from gburge.arrays import ShapedArray, random_array, random_symmetric_array
from gburge.calculus import MAP_NAMES, loglog_jacobian
from gburge.shapes import Shape
from gburge.values import GEOMETRIC_FLOAT

GOLDEN = Path(__file__).with_name("golden_jacobians.json")
MODES = ("forward-dual", "central-difference")
# (parts, symmetric input, the maps run on it)
INPUTS = [
    ((3, 3), False, ("grsk", "gburge", "gschutz", "identity")),
    ((3, 2, 1), True, ("grsk", "gburge", "gburge_up", "identity")),
    ((2, 2), True, MAP_NAMES),
]


def _jacobians(arr, map_name):
    return {mode: [[float(x).hex() for x in row] for row in loglog_jacobian(map_name, arr, mode)]
            for mode in MODES}


def generate():
    """The cases, inputs drawn from a fixed seed and Jacobians from the current code."""
    rng = random.Random(20200121)
    cases = []
    for parts, symmetric, map_names in INPUTS:
        draw = random_symmetric_array if symmetric else random_array
        arr = draw(Shape(parts), GEOMETRIC_FLOAT, rng)
        rows = [[float(x).hex() for x in row] for row in arr.rows]
        for map_name in map_names:
            cases.append({"map": map_name, "input": rows, "jacobian": _jacobians(arr, map_name)})
    return cases


# not read when regenerating: the shell has emptied the file by then
CASES = [] if __name__ == "__main__" else json.loads(GOLDEN.read_text())


def test_the_golden_file_covers_every_map():
    assert {c["map"] for c in CASES} == set(MAP_NAMES)
    assert all(set(c["jacobian"]) == set(MODES) for c in CASES)


@pytest.mark.parametrize(
    "case", CASES,
    ids=lambda c: f"{c['map']}-{'x'.join(str(len(r)) for r in c['input'])}",
)
def test_jacobian_is_bit_identical(case):
    rows = [[float.fromhex(s) for s in row] for row in case["input"]]
    arr = ShapedArray.from_rows(rows, GEOMETRIC_FLOAT)
    assert _jacobians(arr, case["map"]) == case["jacobian"]


if __name__ == "__main__":
    json.dump(generate(), sys.stdout, indent=0)
    sys.stdout.write("\n")
