"""Fixed reference computations that track the speed of the machine.

On a shared machine the same batch of work can take half as long again from
one minute to the next, for every op kind at once, because neighbours
contend for the cores and caches.  The benchmark runs one of these
computations right before each timed batch and divides the batch's time by
it, which cancels most of that drift.  Neither calls the program, so a
change to the program cannot move them.
"""

from __future__ import annotations

import math
import random

import numpy as np

import refs

_rng = random.Random(20200121)
_ROWS = [[math.exp(_rng.uniform(-1.0, 1.0)) for _ in range(24)] for _ in range(24)]
_gen = np.random.default_rng(20200121)
_U = _gen.uniform(-3.0, 3.0, size=(300, 400))
_W = _gen.uniform(size=400)


def python_reference():
    """Interpreter-bound: 300 path-sum dynamic programs on a 24x24 float array
    (about 25 ms on the reference machine)."""
    for _ in range(300):
        refs.dual_point_to_point(_ROWS, "float")


def numpy_reference():
    """numpy-bound: 160 rounds of exp over a 300x400 grid and a matrix-vector
    product, the pattern of the Whittaker quadrature (about 100 ms)."""
    for _ in range(160):
        lf = np.exp(np.minimum(_U, 700.0))
        np.exp(lf - lf.max(axis=1, keepdims=True)) @ _W


def mixed_reference():
    """Both of the above, for the quadrature workload, which is part
    interpreter-bound (sampling, many small numpy calls) and part
    numpy-bound.  In trial runs this tracked its batches better than either
    alone."""
    python_reference()
    numpy_reference()
