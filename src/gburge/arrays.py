"""Young-diagram-shaped arrays with the boundary conventions the local maps expect.

A ShapedArray assigns one value per box of a Shape, over one of the value
domains.  Everything here is immutable: transformations return new arrays.
Besides storage and boundary access this module provides the global symmetries
(transpose, row/column reversal), the splitting of a rectangular matrix into
its lower and upper trapezoidal parts along the diagonal through the
bottom-right corner, diagonal products, and the symmetric (self-conjugate)
restriction used by the fixed-point correspondence.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

from .shapes import Shape, ShapeError, rectangle
from .values import DomainError, ValueDomain, domain_by_name


def entry_with_boundary(arr, i: int, j: int):
    """Entry (i,j) of arr, or the boundary value when i = 0 or j = 0.

    The boundary convention is (0,1) and (1,0) carry the corner value
    (1/2 geometrically, 0 tropically) and every other index on the two axes
    carries the additive identity (0, resp. -inf).  arr is anything with
    ``shape``, ``domain`` and ``get(i, j)``: a ShapedArray or a mutable grid.
    """
    if i >= 1 and j >= 1:
        if not arr.shape.contains((i, j)):
            raise ShapeError(f"box ({i},{j}) outside shape {arr.shape.parts} and not on the boundary")
        return arr.get(i, j)
    if i < 0 or j < 0:
        raise ShapeError(f"negative index ({i},{j})")
    if i + j == 1:
        return arr.domain.corner
    return arr.domain.zero


class _ValueArray:
    """Comparison and display shared by the immutable array types.

    Arrays of different types never compare equal, even on the same rows.
    """

    __slots__ = ("shape", "domain", "_rows")

    @property
    def rows(self):
        return self._rows

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and self.shape == other.shape
            and self.domain.name == other.domain.name
            and self._rows == other._rows
        )

    def _scalars_only(self, method: str) -> None:
        if self.domain.holds_arrays:
            raise DomainError(f"{method} needs scalar entries; {self.domain.name} holds arrays")

    def __hash__(self):
        self._scalars_only("hash")
        return hash((self.shape, self.domain.name, self._rows))

    def allclose(self, other, rel_tol: float = 1e-9) -> bool:
        self._scalars_only("allclose")
        if self.shape != other.shape or self.domain.name != other.domain.name:
            return False
        return all(
            self.domain.isclose(x, y, rel_tol)
            for rx, ry in zip(self._rows, other._rows)
            for x, y in zip(rx, ry)
        )

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in row) for row in self._rows)
        return f"{type(self).__name__}({self.shape.parts}, {self.domain.name}: {body})"


class ShapedArray(_ValueArray):
    """Immutable array of one value per box of a Young diagram.

    Indices are 1-based throughout, matching the box convention of Shape.
    Entries are validated against the domain on construction; exotic numeric
    types (dual numbers, high-precision floats) are allowed in the
    ``geom-float`` domain and flow through all maps unchanged.
    """

    __slots__ = ()

    def __init__(self, shape: Shape, rows, domain: ValueDomain):
        if len(rows) != shape.n_rows:
            raise ShapeError(f"expected {shape.n_rows} rows, got {len(rows)}")
        coerced = []
        for i, row in enumerate(rows, start=1):
            want = shape.row_length(i)
            if len(row) != want:
                raise ShapeError(f"row {i} has {len(row)} entries, shape wants {want}")
            coerced.append(tuple(domain.coerce(x) for x in row))
        self.shape = shape
        self.domain = domain
        self._rows = tuple(coerced)

    @classmethod
    def from_rows(cls, rows, domain: ValueDomain) -> "ShapedArray":
        """Build an array inferring the shape from the (ragged) row lengths."""
        return cls(Shape(tuple(len(r) for r in rows)), rows, domain)

    @classmethod
    def _wrap(cls, shape: Shape, rows, domain: ValueDomain) -> "ShapedArray":
        # internal fast path: rows already validated/coerced, row-major tuples
        out = object.__new__(cls)
        out.shape = shape
        out.domain = domain
        out._rows = tuple(tuple(r) for r in rows)
        return out

    # -- access ---------------------------------------------------------------

    def get(self, i: int, j: int):
        if not self.shape.contains((i, j)):
            raise ShapeError(f"box ({i},{j}) not in shape {self.shape.parts}")
        return self._rows[i - 1][j - 1]

    def __getitem__(self, box):
        i, j = box
        return self.get(i, j)

    get_with_boundary = entry_with_boundary

    def with_entries(self, updates) -> "ShapedArray":
        """New array with the boxes in ``updates`` (a {(i,j): value} dict) replaced."""
        rows = [list(r) for r in self._rows]
        for (i, j), val in updates.items():
            if not self.shape.contains((i, j)):
                raise ShapeError(f"box ({i},{j}) not in shape {self.shape.parts}")
            rows[i - 1][j - 1] = self.domain.coerce(val)
        return ShapedArray._wrap(self.shape, rows, self.domain)

    def to_lists(self):
        return [list(r) for r in self._rows]

    def map_entries(self, f, domain: ValueDomain | None = None) -> "ShapedArray":
        """Apply ``f`` to every entry, optionally landing in another domain."""
        dom = domain or self.domain
        return ShapedArray(self.shape, [[f(x) for x in row] for row in self._rows], dom)

    # -- global symmetries -------------------------------------------------------

    def transpose(self) -> "ShapedArray":
        conj = self.shape.conjugate()
        rows = [
            [self._rows[j - 1][i - 1] for j in range(1, conj.row_length(i) + 1)]
            for i in range(1, conj.n_rows + 1)
        ]
        return ShapedArray._wrap(conj, rows, self.domain)

    def _require_rectangular(self, what: str) -> tuple[int, int]:
        if not self.shape.is_rectangular:
            raise ShapeError(f"{what} needs a rectangular shape, got {self.shape.parts}")
        return self.shape.n_rows, self.shape.n_cols

    def reverse_rows(self) -> "ShapedArray":
        """Row reversal w^R_{i,j} = w_{m-i+1,j} (rectangular only)."""
        self._require_rectangular("reverse_rows")
        return ShapedArray._wrap(self.shape, self._rows[::-1], self.domain)

    def reverse_cols(self) -> "ShapedArray":
        """Column reversal w^C_{i,j} = w_{i,n-j+1} (rectangular only)."""
        self._require_rectangular("reverse_cols")
        return ShapedArray._wrap(self.shape, [r[::-1] for r in self._rows], self.domain)

    # -- diagonals ---------------------------------------------------------------

    def diagonal(self, k: int):
        """Entries on diagonal j - i = k, in increasing i."""
        out = []
        for i, j in self.shape.boxes():
            if j - i == k:
                out.append(self._rows[i - 1][j - 1])
        return tuple(out)

    def diagonal_product(self, k: int):
        """The otimes-product over diagonal j - i = k."""
        diag = self.diagonal(k)
        if not diag:
            raise ShapeError(f"diagonal {k} is empty in shape {self.shape.parts}")
        prod = self.domain.one
        for x in diag:
            prod = self.domain.otimes(prod, x)
        return prod

    # -- symmetric arrays ----------------------------------------------------------

    def is_symmetric(self) -> bool:
        return self.shape.is_self_conjugate() and self == self.transpose()

    def restrict_upper(self) -> "UpperArray":
        """The entries on the upper part i <= j of a symmetric array.

        Requires value symmetry, not just a self-conjugate shape, so that
        symmetrize(arr.restrict_upper()) always reproduces arr.
        """
        if not self.is_symmetric():
            raise ShapeError("restrict_upper needs a symmetric array")
        rows = tuple(
            tuple(self._rows[i - 1][i - 1 : self.shape.row_length(i)])
            for i in range(1, self.shape.n_rows + 1)
            if self.shape.row_length(i) >= i
        )
        return UpperArray(self.shape, rows, self.domain)

    # -- serialization ----------------------------------------------------------------

    def to_json_obj(self):
        self._scalars_only("to_json")
        return {
            "shape": list(self.shape.parts),
            "domain": self.domain.name,
            "rows": [[self.domain.scalar_to_json(x) for x in row] for row in self._rows],
        }

    def to_json(self, indent=None) -> str:
        return json.dumps(self.to_json_obj(), indent=indent)

    @classmethod
    def from_json_obj(cls, obj) -> "ShapedArray":
        try:
            shape = Shape(tuple(obj["shape"]))
            domain = domain_by_name(obj["domain"])
            raw = obj["rows"]
        except (KeyError, TypeError) as exc:
            raise DomainError(f"malformed array object: {exc}") from None
        rows = [[domain.scalar_from_json(x) for x in row] for row in raw]
        return cls(shape, rows, domain)

    @classmethod
    def from_json(cls, text: str) -> "ShapedArray":
        return cls.from_json_obj(json.loads(text))


class UpperArray(_ValueArray):
    """Entries on the upper part i <= j of a self-conjugate shape.

    Row i (1-based) stores the entries for boxes (i,i),...,(i,lam_i), so the
    rows are ragged and each starts on the main diagonal.  This is the input
    and output type of the restricted symmetric correspondence; note that the
    upper part itself is not a Young diagram.
    """

    __slots__ = ()

    def __init__(self, shape: Shape, rows, domain: ValueDomain):
        if not shape.is_self_conjugate():
            raise ShapeError(f"shape {shape.parts} is not self-conjugate")
        n_diag = sum(1 for i in range(1, shape.n_rows + 1) if shape.row_length(i) >= i)
        if len(rows) != n_diag:
            raise ShapeError(f"expected {n_diag} upper rows, got {len(rows)}")
        coerced = []
        for i, row in enumerate(rows, start=1):
            want = shape.row_length(i) - i + 1
            if len(row) != want:
                raise ShapeError(f"upper row {i} has {len(row)} entries, shape wants {want}")
            coerced.append(tuple(domain.coerce(x) for x in row))
        self.shape = shape
        self.domain = domain
        self._rows = tuple(coerced)

    @classmethod
    def from_rows(cls, rows, domain: ValueDomain) -> "UpperArray":
        """Build from ragged upper rows alone; the shape is implied by the lengths."""
        parts = []
        for i, row in enumerate(rows, start=1):
            if len(row) == 0:
                raise ShapeError("upper rows must be nonempty")
            parts.append(len(row) + i - 1)
        return cls(Shape(tuple(parts)), rows, domain)

    def get(self, i: int, j: int):
        if not (1 <= i <= j) or not self.shape.contains((i, j)):
            raise ShapeError(f"box ({i},{j}) not in the upper part of {self.shape.parts}")
        return self._rows[i - 1][j - i]


def symmetrize(upper: UpperArray) -> ShapedArray:
    """Extend an upper-part array to the full symmetric array w_{i,j} = w_{j,i}."""
    shape = upper.shape
    rows = []
    for i in range(1, shape.n_rows + 1):
        row = []
        for j in range(1, shape.row_length(i) + 1):
            if j >= i:
                row.append(upper.get(i, j))
            else:
                row.append(upper.get(j, i))
        rows.append(row)
    return ShapedArray(shape, rows, upper.domain)


# -- lower/upper trapezoidal parts of a rectangular matrix ------------------------


@dataclass(frozen=True)
class LowerUpperParts:
    """The two trapezoidal parts of an m x n matrix t, cut along the diagonal
    through the bottom-right corner (the (n-m)-th diagonal).

    The defining index relations are

        lower[i][j] = t_{m-j+1, i-j+1}   (1 <= i <= n, 1 <= j <= min(i, m))
        upper[i][j] = t_{i-j+1, n-j+1}   (1 <= i <= m, 1 <= j <= min(i, n))

    so both parts contain the shared diagonal as their last row.
    """

    n_rows: int
    n_cols: int
    domain: ValueDomain
    lower: tuple
    upper: tuple

    def shared_diagonal(self):
        return self.lower[-1]


def split_parts(arr: ShapedArray) -> LowerUpperParts:
    m, n = arr._require_rectangular("split_parts")
    lower = tuple(
        tuple(arr.get(m - j + 1, i - j + 1) for j in range(1, min(i, m) + 1))
        for i in range(1, n + 1)
    )
    upper = tuple(
        tuple(arr.get(i - j + 1, n - j + 1) for j in range(1, min(i, n) + 1))
        for i in range(1, m + 1)
    )
    return LowerUpperParts(m, n, arr.domain, lower, upper)


def glue_parts(parts: LowerUpperParts) -> ShapedArray:
    """Rebuild the matrix from its parts; inverse of split_parts."""
    m, n = parts.n_rows, parts.n_cols
    if parts.lower[-1] != parts.upper[-1]:
        raise ShapeError("parts disagree on the shared diagonal")
    rows = [[None] * n for _ in range(m)]
    for i in range(1, n + 1):
        for j in range(1, min(i, m) + 1):
            rows[m - j][i - j] = parts.lower[i - 1][j - 1]
    for i in range(1, m + 1):
        for j in range(1, min(i, n) + 1):
            rows[i - j][n - j] = parts.upper[i - 1][j - 1]
    return ShapedArray(rectangle(m, n), rows, parts.domain)


# -- random inputs for tests and trials ----------------------------------------------


def random_array(shape: Shape, domain: ValueDomain, rng) -> ShapedArray:
    """Random array for identity trials.

    Rational entries are quotients of integers uniform on {1..20} (small
    numerators and denominators keep exact arithmetic fast), float entries
    log-uniform on [1/e, e], tropical entries integers on {-10..10} so that
    piecewise-linear identities are exact in floating point.
    """

    def draw():
        if domain.is_tropical:
            return float(rng.randint(-10, 10))
        if domain.is_exact:
            return Fraction(rng.randint(1, 20), rng.randint(1, 20))
        return math.exp(rng.uniform(-1.0, 1.0))

    rows = [[draw() for _ in range(shape.row_length(i))] for i in range(1, shape.n_rows + 1)]
    return ShapedArray(shape, rows, domain)


def random_symmetric_array(shape: Shape, domain: ValueDomain, rng) -> ShapedArray:
    """Random symmetric array on a self-conjugate shape."""
    if not shape.is_self_conjugate():
        raise ShapeError(f"shape {shape.parts} is not self-conjugate")
    proto = random_array(shape, domain, rng)
    rows = tuple(
        tuple(proto.get(i, j) for j in range(i, shape.row_length(i) + 1))
        for i in range(1, shape.n_rows + 1)
        if shape.row_length(i) >= i
    )
    return symmetrize(UpperArray(shape, rows, domain))
