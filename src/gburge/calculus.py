"""Log-log Jacobians of the correspondences and unimodularity checks.

The correspondences, viewed in logarithmic coordinates (log w) -> (log t),
have Jacobian determinant +-1; the same holds for the upper-part map in the
coordinates given by the boxes on or above the diagonal.  One table, _MAPS,
names the maps that can be differentiated, and one route, _apply, runs each
of them on entries placed at the boxes of the input.  The Jacobian comes
from forward-mode dual numbers pushed through the exact arithmetic of the
maps (default); central differences in log-coordinates are the cross-check
of that route, and agreement between the two guards against a systematic
error in either.

A dual number carries the gradient of the log of its value, d log v /
d log w, so an input entry is seeded with a row of the identity and an
output's gradient is its row of the log-log Jacobian, with no rescaling.
In these coordinates a product or quotient adds or subtracts the two
gradients and a float factor leaves the gradient as it is; a sum s = x + y
takes the weighted mean g_x (x/s) + g_y (y/s), so a harmonic sum
xy/(x+y) has log-derivatives y/(x+y) and x/(x+y); and c/x has -g_x.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .arrays import ShapedArray, random_array, random_symmetric_array
from .correspondences import counterexample, gburge, gburge_up, grsk, gschutz, run_trials
from .shapes import all_shapes
from .values import GEOMETRIC_FLOAT, DomainError

# every map loglog_jacobian differentiates, by name; identity is the baseline
_MAPS = {
    "grsk": grsk,
    "gburge": gburge,
    "gschutz": gschutz,
    "gburge_up": gburge_up,
    "identity": lambda arr: arr,
}
MAP_NAMES = tuple(_MAPS)


class Dual:
    """First-order dual number in log coordinates: a value v and the
    gradient of log v, d log v / d log w, as one float64 array.

    Supports exactly the arithmetic the geometric maps use (+, *, /, and
    < and > on the value), so it can be stored in a float-domain array and
    pushed through any of the correspondences.  In log coordinates the
    rules are:

    - a product or quotient adds or subtracts the gradients (one numpy
      call), and a float or int factor leaves the gradient as it is;
    - a sum s = x + y takes the weighted mean g_x (x/s) + g_y (y/s), a
      number summand having g = 0, and a float or int zero returns the
      Dual itself, which has the same bits;
    - ``c / x`` has the gradient -g_x.

    The public constructor coerces its parts to a float and a float64
    array.  An operator whose partner is a Dual, a float or an int builds
    its result through _dual, with no second coercion: its parts are
    already a float and a float64 array.  Any other partner (an np.float64
    would give a numpy scalar value) goes through the public constructor.
    The gradient is a 1-D array: numpy turns arithmetic on a 0-d one into a
    scalar.
    """

    __slots__ = ("value", "grad")

    def __init__(self, value, grad):
        self.value = float(value)
        self.grad = np.asarray(grad, dtype=float)

    def __repr__(self):
        return f"Dual({self.value}, {self.grad})"

    def __add__(self, other):
        t = type(other)
        if t is Dual:
            s = self.value + other.value
            return _dual(s, self.grad * (self.value / s) + other.grad * (other.value / s))
        if t is float or t is int:
            if other == 0:
                return self
            s = self.value + other
            return _dual(s, self.grad * (self.value / s))
        s = self.value + other
        return Dual(s, self.grad * (self.value / s))

    __radd__ = __add__

    def __mul__(self, other):
        t = type(other)
        if t is Dual:
            return _dual(self.value * other.value, self.grad + other.grad)
        if t is float or t is int:
            return _dual(self.value * other, self.grad)
        return Dual(self.value * other, self.grad)

    __rmul__ = __mul__

    def __truediv__(self, other):
        t = type(other)
        if t is Dual:
            return _dual(self.value / other.value, self.grad - other.grad)
        if t is float or t is int:
            return _dual(self.value / other, self.grad)
        return Dual(self.value / other, self.grad)

    def __rtruediv__(self, other):
        t = type(other)
        if t is float or t is int:
            return _dual(other / self.value, -self.grad)
        return Dual(other / self.value, -self.grad)

    def __lt__(self, other):
        return self.value < (other.value if type(other) is Dual else other)

    def __gt__(self, other):
        return self.value > (other.value if type(other) is Dual else other)


_new_object = object.__new__


def _dual(value: float, grad: np.ndarray) -> Dual:
    """The Dual of a float and a float64 array, set without coercing them again."""
    d = _new_object(Dual)
    d.value = value
    d.grad = grad
    return d


def _apply(map_name: str, arr: ShapedArray, boxes, entries) -> list:
    """Run the named map on arr with entries[b] placed at boxes[b], and return
    the map's outputs at the boxes, in their order.  For the upper-part map
    the boxes are those on or above the diagonal, and each entry is also
    placed (the same object) at its mirror box."""
    rows = [list(row) for row in arr.rows]
    for (i, j), x in zip(boxes, entries):
        rows[i - 1][j - 1] = x
        if map_name == "gburge_up":
            rows[j - 1][i - 1] = x
    out = _MAPS[map_name](ShapedArray(arr.shape, rows, GEOMETRIC_FLOAT))
    return [out.get(i, j) for i, j in boxes]


def loglog_jacobian(map_name: str, arr: ShapedArray, mode: str = "forward-dual", h: float = 1e-5):
    """Jacobian matrix of (log w) -> (log t) for the named map.

    Rows and columns are indexed by the boxes of the shape in row-major order
    (boxes on or above the diagonal for the upper-part map).  The
    forward-dual mode is exact to rounding; central-difference perturbs each
    log-coordinate by +-h and is kept as an independent cross-check.
    """
    if map_name not in _MAPS:
        raise ValueError(f"unsupported map {map_name!r}; expected one of {MAP_NAMES}")
    if arr.domain is not GEOMETRIC_FLOAT:
        raise DomainError("jacobians are computed in the float domain")
    boxes = list(arr.shape.boxes())
    if map_name == "gburge_up":
        arr.require_symmetric("gburge_up")
        boxes = arr.shape.upper_part()
    w = [float(arr.get(*box)) for box in boxes]
    dim = len(boxes)
    if mode == "forward-dual":
        # entry b carries d log w_b / d log w = row b of the identity, and
        # output a carries row a of the Jacobian, d log t_a / d log w
        out = _apply(map_name, arr, boxes, list(map(_dual, w, np.eye(dim))))
        return np.array([t.grad for t in out]).reshape(dim, dim)
    if mode == "central-difference":
        jac = np.empty((dim, dim))
        for b in range(dim):
            logs = []
            for sign in (1.0, -1.0):
                bumped = list(w)
                bumped[b] = w[b] * math.exp(sign * h)
                logs.append(np.array([math.log(t) for t in _apply(map_name, arr, boxes, bumped)]))
            jac[:, b] = (logs[0] - logs[1]) / (2.0 * h)
        return jac
    raise ValueError(f"unknown mode {mode!r}; expected forward-dual or central-difference")


def abs_det(jac) -> float:
    """|det|, via LU with partial pivoting (what the LAPACK determinant does)."""
    jac = np.asarray(jac, dtype=float)
    if jac.ndim != 2 or jac.shape[0] != jac.shape[1]:
        raise ValueError(f"determinant needs a square matrix, got shape {jac.shape}")
    return abs(float(np.linalg.det(jac)))


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
                if not abs(d - 1.0) <= tol:  # so a nan fails
                    yield counterexample(arr, map=map_name, abs_det=d)
                if first:
                    fd = loglog_jacobian(map_name, arr, mode="central-difference")
                    gap = float(np.max(np.abs(jac - fd)))
                    if not gap <= fd_tol:
                        yield counterexample(arr, map=map_name, dual_vs_fd_gap=gap)

    return run_trials("jacobian-symmetric" if symmetric else "jacobian", trial, points, seed)
