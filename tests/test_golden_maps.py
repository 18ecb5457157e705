"""Map outputs pinned bit for bit: gburge, grsk, their inverses, gschutz and
gburge_up on fixed arrays over Fraction, float, max-plus and float lanes.

golden_maps.json holds each input and the output the maps gave when the
kernels d and d^{-1} took their ratio forms (the Fraction and max-plus
outputs are older and did not move then); a change to the grid or the
kernels must reproduce them exactly, so the order of the arithmetic is part
of what is pinned.  Floats are stored with float.hex, and a gburge_up case
stores only the rows i <= j of its symmetric input and output.  To
regenerate (only for a deliberate change of the arithmetic order, declared
in CHANGES.md):

    PYTHONPATH=src python tests/test_golden_maps.py > tests/golden_maps.json
"""

import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from gburge.arrays import ShapedArray, random_array, random_symmetric_array
from gburge.correspondences import gburge, gburge_up, grsk, gschutz, inv_gburge, inv_grsk
from gburge.shapes import Shape, random_growth_sequence
from gburge.values import GEOMETRIC_FLOAT, GEOMETRIC_LANES, GEOMETRIC_RATIONAL, TROPICAL

GOLDEN = Path(__file__).with_name("golden_maps.json")
DOMAINS = {d.name: d for d in (GEOMETRIC_RATIONAL, GEOMETRIC_FLOAT, TROPICAL, GEOMETRIC_LANES)}
MAPS = {"gburge": gburge, "grsk": grsk, "inv_gburge": inv_gburge, "inv_grsk": inv_grsk}

SHAPES = [(1,), (3, 3), (2, 2, 2), (4, 4, 4, 4), (5, 5, 5), (6,) * 6,
          (3, 2, 1), (4, 2, 2, 1), (5, 3, 3, 1), (6, 4, 4, 2, 1)]
SYMMETRIC = [(1,), (2, 1), (3, 2, 1), (3, 3, 3), (4, 4, 2, 2), (4, 3, 2, 1), (6,) * 6]


def _enc(domain, x):
    if domain.is_exact:
        return str(x)
    if domain.holds_arrays:
        return [float(v).hex() for v in x]
    return float(x).hex()


def _dec(domain, s):
    if domain.is_exact:
        return Fraction(s)
    if domain.holds_arrays:
        return np.array([float.fromhex(v) for v in s])
    return float.fromhex(s)


def _rows(domain, arr, upper=False):
    """The encoded rows of arr; with upper, row i from its diagonal box (i,i) on."""
    rows = arr.rows
    if upper:
        rows = [row[i:] for i, row in enumerate(rows) if len(row) > i]
    return [[_enc(domain, x) for x in row] for row in rows]


def _lanes(shape, rng, n_lanes=3):
    draws = [random_array(shape, GEOMETRIC_FLOAT, rng) for _ in range(n_lanes)]
    rows = tuple(
        tuple(np.array([d.rows[r][k] for d in draws]) for k in range(len(row)))
        for r, row in enumerate(draws[0].rows)
    )
    return ShapedArray._wrap(shape, rows, GEOMETRIC_LANES)


def _apply(case, arr):
    order = case.get("order")
    if case["map"] == "gschutz":
        return gschutz(arr)
    if case["map"] == "gburge_up":
        return gburge_up(arr)
    return MAPS[case["map"]](arr, order)


def _case(name, domain, arr, order=None):
    upper = name == "gburge_up"  # a symmetric array is stored by its upper rows
    case = {"map": name, "domain": domain.name, "shape": list(arr.shape.parts),
            "input": _rows(domain, arr, upper)}
    if order is not None:
        case["order"] = [list(b) for b in order]
    case["output"] = _rows(domain, _apply(case, arr), upper)
    return case


def generate():
    """The cases, inputs drawn from fixed seeds and outputs from the current code."""
    cases = []
    rng = random.Random(20010915)
    for dom in (GEOMETRIC_RATIONAL, GEOMETRIC_FLOAT, TROPICAL):
        for parts in SHAPES:
            shape = Shape(parts)
            w = random_array(shape, dom, rng)
            for name in MAPS:
                cases.append(_case(name, dom, w))
            cases.append(_case("gburge", dom, w, random_growth_sequence(shape, rng)))
            if shape.is_rectangular:
                cases.append(_case("gschutz", dom, w))
    for dom in (GEOMETRIC_RATIONAL, GEOMETRIC_FLOAT):
        for parts in SYMMETRIC:
            w = random_symmetric_array(Shape(parts), dom, rng)
            cases.append(_case("gburge_up", dom, w))
    for parts in ((3, 3), (4, 4, 4, 4), (4, 3, 2, 1)):
        w = _lanes(Shape(parts), rng)
        for name in MAPS:
            cases.append(_case(name, GEOMETRIC_LANES, w))
    return cases


def _input(case):
    dom = DOMAINS[case["domain"]]
    rows = [[_dec(dom, s) for s in row] for row in case["input"]]
    shape = Shape(case["shape"])
    if case["map"] == "gburge_up":  # mirror the stored upper rows
        rows = [[rows[min(i, j)][abs(j - i)] for j in range(p)] for i, p in enumerate(shape.parts)]
    return ShapedArray._wrap(shape, tuple(map(tuple, rows)), dom)


# not read when regenerating: the shell has emptied the file by then
CASES = [] if __name__ == "__main__" else json.loads(GOLDEN.read_text())


def _id(case):
    order = "-order" if "order" in case else ""
    return f"{case['map']}{order}-{case['domain']}-{'x'.join(map(str, case['shape']))}"


def test_the_golden_file_covers_every_map_and_domain():
    seen = {(c["map"], c["domain"]) for c in CASES}
    for name in MAPS:
        for dom in DOMAINS:
            assert (name, dom) in seen
    for dom in ("geom-rational", "geom-float", "tropical"):
        assert ("gschutz", dom) in seen
    assert ("gburge_up", "geom-rational") in seen and ("gburge_up", "geom-float") in seen
    assert max(max(c["shape"][0], len(c["shape"])) for c in CASES) == 6


@pytest.mark.parametrize("case", CASES, ids=_id)
def test_map_output_is_bit_identical(case):
    dom = DOMAINS[case["domain"]]
    assert _rows(dom, _apply(case, _input(case)), case["map"] == "gburge_up") == case["output"]


if __name__ == "__main__":
    json.dump(generate(), sys.stdout, indent=0)
    sys.stdout.write("\n")
