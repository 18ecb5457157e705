"""Log-log Jacobians of the correspondences and unimodularity checks.

The correspondences, viewed in logarithmic coordinates (log w) -> (log t),
have Jacobian determinant +-1; the same holds for the upper-part map in the
coordinates given by the boxes on or above the diagonal.  Two independent
differentiation routes are provided: forward-mode dual numbers pushed through
the exact arithmetic of the maps (default), and central differences in
log-coordinates.  Agreement between the two guards against a systematic error
in either.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .arrays import ShapedArray, random_array, random_symmetric_array
from .correspondences import gburge, gburge_up, grsk, gschutz, run_trials, tally
from .shapes import Shape, all_shapes
from .values import GEOMETRIC_FLOAT, DomainError

MAP_NAMES = ("grsk", "gburge", "gschutz", "gburge_up", "identity")


class Dual:
    """First-order dual number: a value plus a gradient vector.

    Supports exactly the arithmetic the geometric maps use (+, *, /, and
    order comparisons on the value), so it can be stored in a float-domain
    array and pushed through any of the correspondences.
    """

    __slots__ = ("value", "grad")

    def __init__(self, value, grad):
        self.value = float(value)
        self.grad = np.asarray(grad, dtype=float)

    @classmethod
    def seed(cls, value, dim, index):
        grad = np.zeros(dim)
        grad[index] = 1.0
        return cls(value, grad)

    def __repr__(self):
        return f"Dual({self.value}, {self.grad})"

    def __add__(self, other):
        if isinstance(other, Dual):
            return Dual(self.value + other.value, self.grad + other.grad)
        return Dual(self.value + other, self.grad)

    __radd__ = __add__

    def __mul__(self, other):
        if isinstance(other, Dual):
            return Dual(
                self.value * other.value,
                self.grad * other.value + other.grad * self.value,
            )
        return Dual(self.value * other, self.grad * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Dual):
            v = self.value / other.value
            return Dual(v, (self.grad - v * other.grad) / other.value)
        return Dual(self.value / other, self.grad / other)

    def __rtruediv__(self, other):
        v = other / self.value
        return Dual(v, -v * self.grad / self.value)

    def _cmp_value(self, other):
        return other.value if isinstance(other, Dual) else other

    def __lt__(self, other):
        return self.value < self._cmp_value(other)

    def __le__(self, other):
        return self.value <= self._cmp_value(other)

    def __gt__(self, other):
        return self.value > self._cmp_value(other)

    def __ge__(self, other):
        return self.value >= self._cmp_value(other)


def _apply(map_name: str, shape: Shape, entries: dict):
    """Run the named map on entries indexed by box; returns the output as a
    dict over the boxes of the shape.  For the upper-part map, entries cover
    the boxes on or above the diagonal, and each is also the entry (the same
    object) at its mirror box."""
    if map_name == "gburge_up":
        entries = {(j, i): x for (i, j), x in entries.items()} | entries
    rows = [
        [entries[(i, j)] for j in range(1, shape.row_length(i) + 1)]
        for i in range(1, shape.n_rows + 1)
    ]
    arr = ShapedArray(shape, rows, GEOMETRIC_FLOAT)
    if map_name == "identity":
        out = arr
    else:
        maps = {"grsk": grsk, "gburge": gburge, "gschutz": gschutz, "gburge_up": gburge_up}
        out = maps[map_name](arr)
    return {(i, j): out.get(i, j) for i, j in shape.boxes()}


def loglog_jacobian(map_name: str, arr: ShapedArray, mode: str = "forward-dual", h: float = 1e-5):
    """Jacobian matrix of (log w) -> (log t) for the named map.

    Rows and columns are indexed by the boxes of the shape in row-major order
    (boxes on or above the diagonal for the upper-part map).  The
    forward-dual mode is exact to rounding; central-difference perturbs each
    log-coordinate by +-h and is kept as an independent cross-check.
    """
    if map_name not in MAP_NAMES:
        raise ValueError(f"unsupported map {map_name!r}; expected one of {MAP_NAMES}")
    if arr.domain is not GEOMETRIC_FLOAT:
        raise DomainError("jacobians are computed in the float domain")
    boxes = list(arr.shape.boxes())
    if map_name == "gburge_up":
        arr.require_symmetric("gburge_up")
        boxes = arr.shape.upper_part()
    values = {box: float(arr.get(*box)) for box in boxes}
    if mode == "forward-dual":
        return _dual_jacobian(map_name, arr.shape, boxes, values)
    if mode == "central-difference":
        return _central_difference_jacobian(map_name, arr.shape, boxes, values, h)
    raise ValueError(f"unknown mode {mode!r}; expected forward-dual or central-difference")


def _dual_jacobian(map_name, shape, boxes, values):
    dim = len(boxes)
    seeded = {
        box: Dual.seed(values[box], dim, b) for b, box in enumerate(boxes)
    }
    out = _apply(map_name, shape, seeded)
    jac = np.empty((dim, dim))
    for a, out_box in enumerate(boxes):
        t = out[out_box]
        # d log t / d log w_b = (w_b / t) dt/dw_b
        jac[a, :] = t.grad / t.value
    for b, in_box in enumerate(boxes):
        jac[:, b] *= values[in_box]
    return jac


def _central_difference_jacobian(map_name, shape, boxes, values, h):
    dim = len(boxes)
    jac = np.empty((dim, dim))
    for b, box in enumerate(boxes):
        logs = {}
        for sign in (1.0, -1.0):
            bumped = dict(values)
            bumped[box] = values[box] * math.exp(sign * h)
            out = _apply(map_name, shape, bumped)
            logs[sign] = np.array([math.log(out[ob]) for ob in boxes])
        jac[:, b] = (logs[1.0] - logs[-1.0]) / (2.0 * h)
    return jac


def abs_det(jac) -> float:
    """|det|, via LU with partial pivoting (what the LAPACK determinant does)."""
    jac = np.asarray(jac, dtype=float)
    if jac.ndim != 2 or jac.shape[0] != jac.shape[1]:
        raise ValueError(f"determinant needs a square matrix, got shape {jac.shape}")
    return abs(float(np.linalg.det(jac)))


def _outcome(ok, arr, map_name, **detail):
    return None if ok else {"input": arr.to_json_obj(), "map": map_name, **detail}


def verify_jacobians(
    symmetric: bool = False,
    points: int = 10,
    seed: int = 0,
    tol: float = 1e-6,
    max_boxes: int = 12,
    fd_tol: float = 1e-6,
) -> dict:
    """Unimodularity sweep: |det| = 1 within tol at `points` random points,
    each on every shape (entries log-uniform on [1/e, e]).

    The plain sweep covers the full correspondences on all shapes with at
    most max_boxes boxes; the symmetric sweep covers the upper-part map on
    all self-conjugate shapes fitting in a 4x4 square.  Point p is trial p of
    `run_trials`, so the report counts points; at point 0 the dual and
    central-difference Jacobians (loglog_jacobian's default step) are also
    compared entrywise (within fd_tol).
    """
    if symmetric:
        shapes = [s for s in all_shapes(16) if s.is_self_conjugate() and s.n_rows <= 4]
        map_names, draw = ["gburge_up"], random_symmetric_array
    else:
        shapes = list(all_shapes(max_boxes))
        map_names, draw = ["grsk", "gburge"], random_array
    point = itertools.count()

    def trial(rng):
        first = next(point) == 0
        for shape in shapes:
            arr = draw(shape, GEOMETRIC_FLOAT, rng)
            for map_name in map_names:
                jac = loglog_jacobian(map_name, arr)
                d = abs_det(jac)
                yield _outcome(abs(d - 1.0) <= tol, arr, map_name, abs_det=d)
                if first:
                    fd = loglog_jacobian(map_name, arr, mode="central-difference")
                    gap = float(np.max(np.abs(jac - fd)))
                    yield _outcome(gap <= fd_tol, arr, map_name, dual_vs_fd_gap=gap)

    return tally("jacobian-symmetric" if symmetric else "jacobian", run_trials(trial, points, seed))
