"""The elementary local maps a, b, c, d, e and their inverses.

Each map modifies one entry (or, for d and e, two entries) of a shaped array
and leaves everything else alone.  Writing them once against the abstract
operations {oplus, otimes, odiv, hsum} gives the birational maps in the
geometric domains and the piecewise-linear ones in the tropical domain from
the same code.  With

    A = w_{i-1,j} oplus w_{i,j-1}          (boundary convention applies)
    H = hsum(w_{i+1,j}, w_{i,j+1})

the maps act by

    a_{i,j}:  w_{i,j} -> (A otimes H) odiv w_{i,j}
    b_{i,j}:  w_{i,j} -> (A otimes w_{i,j+1}) odiv w_{i,j}
    c_{i,j}:  w_{i,j} -> w_{i,j} otimes A
    d^{k,l}_{i,j}:  w_{i,j} -> w' = hsum(w_{i,j}, zA),  zA = w_{k,l} otimes A
                    w_{k,l} -> (zA odiv w') otimes (H odiv w_{i,j})
    e^{k,l}_{i,j}:  swaps w_{i,j} and w_{k,l}

d is written in ratio form, seven ops: 1/w' = 1/w_{i,j} + 1/zA, so
(zA odiv w') otimes (H odiv w_{i,j}) = (zA/w_{i,j}^2 + 1/w_{i,j}) H.

a and b are involutions; c, d are bijections whose inverses are derived by
solving the defining relations (subtraction-free, hence valid verbatim in
max-plus too, whose interior entries are finite) and validated by
round-trip tests:

    c^{-1}:  w -> w odiv A
    d^{-1}:  w_{i,j} = w'_{i,j} oplus q,  q = H odiv w'_{k,l}
             w_{k,l} = (w_{i,j} odiv A) otimes (w'_{i,j} odiv q)

d^{-1} is in ratio form too, seven ops: w'_{i,j} odiv q = w'_{i,j} w'_{k,l} / H,
so w_{k,l} = w'_{i,j} w'_{k,l} w_{i,j} / (A H), the solved relation.

a, d and d^{-1} take A as an optional argument: the 21-map composition of the
commutation proof uses shifted variants whose A is the left neighbour alone.

The kernels run on a padded scratch Grid: row 0 and column 0 hold the
boundary (the corner value at (0,1) and (1,0), the zero element elsewhere),
so r[i][j] of r = g.rows is box (i,j), A is read without a branch, and each
kernel writes r[i][j] = ... directly.  Kernels check no box.  A diagonal map
at (k,l) touches only boxes of the order ideal below (k,l), so each public
entry point, all of them in correspondences, checks its boxes once: the
correspondences through the growth-sequence or rectangle check, gburge_up
through the symmetry check, the commutation through _need, and the 21-map
composition through its own box test.  The error names the map, the box
and, for an order, the step.

The restricted symmetric map gburge_up takes and returns a symmetric
ShapedArray, in any domain; it checks the symmetry once, when it is entered.
At a diagonal box the two arguments of A and of H coincide, so
A = x oplus x and H = hsum(x, x) (2x and x/2 geometrically, x in max-plus):
there c and d write diagonal boxes only.  Off the diagonal,
correspondences.tau_up_at runs tau and copies the boxes it changed to their
mirror boxes.

A chain of local maps on one grid costs one array copy.  Handing a grid back
as an array is the one place a float overflow is caught: every entry goes
through the domain's check_finite, and no kernel checks its own output.
"""

from __future__ import annotations

from .arrays import ShapedArray
from .shapes import ShapeError


# -- mutable scratch grids ---------------------------------------------------------


class Grid:
    """Mutable padded scratch copy of a ShapedArray: rows[i][j] is box (i,j),
    and row 0 and column 0 hold the boundary values."""

    __slots__ = ("shape", "domain", "rows")

    def __init__(self, shape, domain, rows):
        zero, corner = domain.zero, domain.corner
        self.shape = shape
        self.domain = domain
        self.rows = [[zero, corner] + [zero] * (shape.n_cols - 1)]
        self.rows += [[corner if i == 0 else zero, *row] for i, row in enumerate(rows)]

    @classmethod
    def of(cls, arr: ShapedArray) -> "Grid":
        return cls(arr.shape, arr.domain, arr.rows)

    def to_array(self) -> ShapedArray:
        rows = tuple([tuple(row[1:]) for row in self.rows[1:]])
        self.domain.check_finite(rows)
        return ShapedArray._wrap(self.shape, rows, self.domain)


def _need(shape, name, i, j, *more):
    """Check, once per call, that the map name at (i,j) finds (i,j) and the boxes in more."""
    where, parts = f"{name} at ({i},{j})", shape.parts
    if not shape.contains((i, j)):
        raise ShapeError(f"{where}: box ({i},{j}) missing from shape {parts}")
    for k, l in more:
        if not shape.contains((k, l)):
            raise ShapeError(f"{where} needs box ({k},{l}), missing from shape {parts}")


# -- kernels (mutate a grid in place; boxes checked by the caller) ---------------------


def a_at(g, i, j, A=None):
    dom, r = g.domain, g.rows
    if A is None:
        A = dom.oplus(r[i - 1][j], r[i][j - 1])
    H = dom.hsum(r[i + 1][j], r[i][j + 1])
    r[i][j] = dom.odiv(dom.otimes(A, H), r[i][j])


def b_at(g, i, j):
    dom, r = g.domain, g.rows
    A = dom.oplus(r[i - 1][j], r[i][j - 1])
    r[i][j] = dom.odiv(dom.otimes(A, r[i][j + 1]), r[i][j])


def c_at(g, i, j):
    dom, r = g.domain, g.rows
    A = dom.oplus(r[i - 1][j], r[i][j - 1])
    r[i][j] = dom.otimes(r[i][j], A)


def inv_c_at(g, i, j):
    dom, r = g.domain, g.rows
    A = dom.oplus(r[i - 1][j], r[i][j - 1])
    r[i][j] = dom.odiv(r[i][j], A)


def d_at(g, i, j, k, l, A=None):
    dom, r = g.domain, g.rows
    if A is None:
        A = dom.oplus(r[i - 1][j], r[i][j - 1])
    H = dom.hsum(r[i + 1][j], r[i][j + 1])
    w, zA = r[i][j], dom.otimes(r[k][l], A)
    r[i][j] = wp = dom.hsum(w, zA)
    r[k][l] = dom.otimes(dom.odiv(zA, wp), dom.odiv(H, w))


def inv_d_at(g, i, j, k, l, A=None):
    dom, r = g.domain, g.rows
    if A is None:
        A = dom.oplus(r[i - 1][j], r[i][j - 1])
    H = dom.hsum(r[i + 1][j], r[i][j + 1])
    wp, q = r[i][j], dom.odiv(H, r[k][l])
    r[i][j] = w = dom.oplus(wp, q)
    r[k][l] = dom.otimes(dom.odiv(w, A), dom.odiv(wp, q))


def e_at(g, i, j, k, l):
    r = g.rows
    r[i][j], r[k][l] = r[k][l], r[i][j]
