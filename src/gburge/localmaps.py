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
    d^{k,l}_{i,j}:  w_{i,j} -> hsum(w_{i,j}, w_{k,l} otimes A)
                    w_{k,l} -> ((w_{k,l} otimes A) odiv w_{i,j}^2
                                oplus  1 odiv w_{i,j}) otimes H
    e^{k,l}_{i,j}:  swaps w_{i,j} and w_{k,l}

a and b are involutions; c, d are bijections whose inverses are derived by
solving the defining relations (subtraction-free, hence valid verbatim in the
tropical domain too) and validated by round-trip tests:

    c^{-1}:  w -> w odiv A
    d^{-1}:  w_{i,j} = w'_{i,j} oplus (H odiv w'_{k,l})
             w_{k,l} = (w'_{i,j} otimes w'_{k,l} otimes w_{i,j}) odiv (A otimes H)

a, d and d^{-1} take A as an optional argument: the 21-map composition of the
commutation proof uses shifted variants whose A is the left neighbour alone.

Upper-part arrays of symmetric arrays run the same kernels through UpperGrid,
which reads a box below the diagonal from its mirror.  At a diagonal box the
two arguments of A and of H then coincide, so A = x oplus x = 2x and
H = hsum(x, x) = x/2: the restricted symmetric maps are c and d themselves.

The module also exposes the mutable grid scratch types used by the
correspondence compositions, so a long chain of local maps costs one array
copy, not one per step.  Handing a grid back as an array is the one place a
float overflow is caught: every entry goes through the domain's
check_finite, and no kernel checks its own output.
"""

from __future__ import annotations

from .arrays import ShapedArray, UpperArray, entry_with_boundary
from .shapes import ShapeError
from .values import DomainError


# -- mutable scratch grids ---------------------------------------------------------


class Grid:
    """Mutable scratch copy of a ShapedArray for composing map kernels."""

    __slots__ = ("shape", "domain", "rows")

    def __init__(self, shape, domain, rows):
        self.shape = shape
        self.domain = domain
        self.rows = rows

    @classmethod
    def of(cls, arr: ShapedArray) -> "Grid":
        return cls(arr.shape, arr.domain, arr.to_lists())

    def to_array(self) -> ShapedArray:
        self.domain.check_finite(self.rows, self._box)
        return ShapedArray._wrap(self.shape, self.rows, self.domain)

    @staticmethod
    def _box(r, k):
        """The box of rows[r][k]."""
        return r + 1, k + 1

    def get(self, i, j):
        return self.rows[i - 1][j - 1]

    def set(self, i, j, value):
        self.rows[i - 1][j - 1] = value

    gwb = entry_with_boundary


class UpperGrid(Grid):
    """Mutable scratch copy of an UpperArray of a symmetric array.

    Only boxes with i <= j are stored; get and set of a box below the
    diagonal go to its mirror, so every kernel runs on it unchanged.
    """

    __slots__ = ()

    def __init__(self, upper: UpperArray):
        if upper.domain.is_tropical:
            raise DomainError("the restricted symmetric maps are defined in the geometric domains only")
        super().__init__(upper.shape, upper.domain, [list(r) for r in upper.rows])

    def to_upper(self) -> UpperArray:
        self.domain.check_finite(self.rows, self._box)
        return UpperArray(self.shape, self.rows, self.domain)

    @staticmethod
    def _box(r, k):
        return r + 1, r + k + 1

    def get(self, i, j):
        if i > j:
            i, j = j, i
        return self.rows[i - 1][j - i]

    def set(self, i, j, value):
        if i > j:
            i, j = j, i
        self.rows[i - 1][j - i] = value


def _need(grid, i, j):
    if not grid.shape.contains((i, j)):
        raise ShapeError(f"map needs box ({i},{j}), missing from shape {grid.shape.parts}")


# -- kernels (mutate a grid in place) ------------------------------------------------


def a_at(g, i, j, A=None):
    _need(g, i, j)
    _need(g, i + 1, j)
    _need(g, i, j + 1)
    dom = g.domain
    if A is None:
        A = dom.oplus(g.gwb(i - 1, j), g.gwb(i, j - 1))
    H = dom.hsum(g.get(i + 1, j), g.get(i, j + 1))
    g.set(i, j, dom.odiv(dom.otimes(A, H), g.get(i, j)))


def b_at(g, i, j):
    _need(g, i, j)
    _need(g, i, j + 1)
    dom = g.domain
    A = dom.oplus(g.gwb(i - 1, j), g.gwb(i, j - 1))
    g.set(i, j, dom.odiv(dom.otimes(A, g.get(i, j + 1)), g.get(i, j)))


def c_at(g, i, j):
    _need(g, i, j)
    dom = g.domain
    A = dom.oplus(g.gwb(i - 1, j), g.gwb(i, j - 1))
    g.set(i, j, dom.otimes(g.get(i, j), A))


def inv_c_at(g, i, j):
    _need(g, i, j)
    dom = g.domain
    A = dom.oplus(g.gwb(i - 1, j), g.gwb(i, j - 1))
    g.set(i, j, dom.odiv(g.get(i, j), A))


def d_at(g, i, j, k, l, A=None):
    if (i, j) == (k, l):
        raise ShapeError(f"the two-point map needs distinct boxes, got ({i},{j}) twice")
    _need(g, i, j)
    _need(g, i + 1, j)
    _need(g, i, j + 1)
    _need(g, k, l)
    dom = g.domain
    if A is None:
        A = dom.oplus(g.gwb(i - 1, j), g.gwb(i, j - 1))
    H = dom.hsum(g.get(i + 1, j), g.get(i, j + 1))
    w = g.get(i, j)
    zA = dom.otimes(g.get(k, l), A)
    g.set(i, j, dom.hsum(w, zA))
    g.set(
        k,
        l,
        dom.otimes(
            dom.oplus(dom.odiv(zA, dom.otimes(w, w)), dom.odiv(dom.one, w)),
            H,
        ),
    )


def inv_d_at(g, i, j, k, l, A=None):
    if (i, j) == (k, l):
        raise ShapeError(f"the two-point map needs distinct boxes, got ({i},{j}) twice")
    _need(g, i, j)
    _need(g, i + 1, j)
    _need(g, i, j + 1)
    _need(g, k, l)
    dom = g.domain
    if A is None:
        A = dom.oplus(g.gwb(i - 1, j), g.gwb(i, j - 1))
    H = dom.hsum(g.get(i + 1, j), g.get(i, j + 1))
    wp = g.get(i, j)
    zp = g.get(k, l)
    w = dom.oplus(wp, dom.odiv(H, zp))
    z = dom.odiv(dom.otimes(dom.otimes(wp, zp), w), dom.otimes(A, H))
    g.set(i, j, w)
    g.set(k, l, z)


def e_at(g, i, j, k, l):
    if (i, j) == (k, l):
        raise ShapeError(f"the swap map needs distinct boxes, got ({i},{j}) twice")
    _need(g, i, j)
    _need(g, k, l)
    w = g.get(i, j)
    g.set(i, j, g.get(k, l))
    g.set(k, l, w)


# -- public one-shot applications ----------------------------------------------------


def apply_a(arr: ShapedArray, i: int, j: int) -> ShapedArray:
    g = Grid.of(arr)
    a_at(g, i, j)
    return g.to_array()


def apply_b(arr: ShapedArray, i: int, j: int) -> ShapedArray:
    g = Grid.of(arr)
    b_at(g, i, j)
    return g.to_array()


def apply_c(arr: ShapedArray, i: int, j: int) -> ShapedArray:
    g = Grid.of(arr)
    c_at(g, i, j)
    return g.to_array()


def apply_d(arr: ShapedArray, box_ij, box_kl) -> ShapedArray:
    g = Grid.of(arr)
    d_at(g, *box_ij, *box_kl)
    return g.to_array()


def apply_e(arr: ShapedArray, box_ij, box_kl) -> ShapedArray:
    g = Grid.of(arr)
    e_at(g, *box_ij, *box_kl)
    return g.to_array()


def inv_c(arr: ShapedArray, i: int, j: int) -> ShapedArray:
    g = Grid.of(arr)
    inv_c_at(g, i, j)
    return g.to_array()


def inv_d(arr: ShapedArray, box_ij, box_kl) -> ShapedArray:
    g = Grid.of(arr)
    inv_d_at(g, *box_ij, *box_kl)
    return g.to_array()


def apply_c_up(upper: UpperArray, i: int) -> UpperArray:
    """c at the diagonal box (i,i) of a symmetric array: w_{i,i} -> 2 w_{i-1,i} w_{i,i}."""
    g = UpperGrid(upper)
    c_at(g, i, i)
    return g.to_upper()


def apply_d_up(upper: UpperArray, i: int, k: int) -> UpperArray:
    """d between the diagonal boxes (i,i) and (k,k) of a symmetric array."""
    g = UpperGrid(upper)
    d_at(g, i, i, k, k)
    return g.to_upper()
