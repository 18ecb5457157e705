"""Young-diagram-shaped arrays with the boundary conventions the local maps expect.

A ShapedArray assigns one value per box of a Shape, over one of the value
domains.  Everything here is immutable: transformations return new arrays.
Besides storage and boundary access this module provides the global symmetries
(transpose, row/column reversal) and the symmetry check of the restricted
symmetric correspondence, which maps symmetric arrays.
"""

from __future__ import annotations

import functools
import json
import math
import operator
from fractions import Fraction

import numpy as np

from .shapes import Shape, ShapeError
from .values import DOMAINS, DomainError, ValueDomain, domain_by_name

# from_rows builds one Shape per tuple of row lengths and reuses it
_shape_of = functools.lru_cache(maxsize=128)(Shape)


def entry_with_boundary(arr, i: int, j: int):
    """Entry (i,j) of arr, or the boundary value when i = 0 or j = 0.

    The boundary convention is (0,1) and (1,0) carry the corner value
    (1/2 geometrically, 0 tropically) and every other index on the two axes
    carries the additive identity (0, resp. -inf).  The scratch grids of the
    local maps store these values in a padded row 0 and column 0 instead.
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


class ShapedArray:
    """Immutable array of one value per box of a Young diagram.

    Indices are 1-based throughout, matching the box convention of Shape.
    Entries are checked on construction by the domain's coerce, the one
    entry rule, and a rejected entry raises DomainError naming its box;
    exotic numeric types (dual numbers, high-precision floats) are allowed
    in the ``geom-float`` domain and flow through all maps unchanged.
    """

    __slots__ = ("shape", "domain", "_rows")

    def __init__(self, shape: Shape, rows, domain: ValueDomain):
        if len(rows) != shape.n_rows:
            raise ShapeError(f"expected {shape.n_rows} rows, got {len(rows)}")
        coerce, coerced = domain.coerce, []
        for i, (row, want) in enumerate(zip(rows, shape.parts), start=1):
            if len(row) != want:
                raise ShapeError(f"row {i} has {len(row)} entries, shape wants {want}")
            try:
                coerced.append(tuple(map(coerce, row)))
            except DomainError as exc:  # search the failed row for the box to name
                for j, x in enumerate(row, start=1):
                    try:
                        coerce(x)
                    except DomainError:
                        break
                raise DomainError(f"box ({i},{j}): {exc}") from None
        self.shape = shape
        self.domain = domain
        self._rows = tuple(coerced)

    @classmethod
    def from_rows(cls, rows, domain: ValueDomain) -> "ShapedArray":
        """Build an array inferring the shape from the (ragged) row lengths."""
        return cls(_shape_of(tuple(map(len, rows))), rows, domain)

    @classmethod
    def _wrap(cls, shape: Shape, rows: tuple, domain: ValueDomain) -> "ShapedArray":
        # internal fast path: rows already validated/coerced, a tuple of row tuples
        out = object.__new__(cls)
        out.shape = shape
        out.domain = domain
        out._rows = rows
        return out

    @property
    def rows(self):
        return self._rows

    # -- comparison and display ---------------------------------------------------

    def _scalars_only(self, method: str) -> None:
        if self.domain.holds_arrays:
            raise DomainError(f"{method} needs scalar entries; {self.domain.name} holds arrays")

    def __eq__(self, other):
        self._scalars_only("==")
        return (
            type(other) is type(self)
            and self.shape == other.shape
            and self.domain.name == other.domain.name
            and self._rows == other._rows
        )

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
        """New array with the boxes in ``updates`` (a {(i,j): value} dict)
        replaced, built by the constructor: a rejected value raises
        DomainError naming its box."""
        rows = [list(r) for r in self._rows]
        for (i, j), val in updates.items():
            if not self.shape.contains((i, j)):
                raise ShapeError(f"box ({i},{j}) not in shape {self.shape.parts}")
            rows[i - 1][j - 1] = val
        return ShapedArray(self.shape, rows, self.domain)

    def to_lists(self):
        return [list(r) for r in self._rows]

    def map_entries(self, f, domain: ValueDomain | None = None) -> "ShapedArray":
        """Apply ``f`` to every entry, optionally landing in another domain."""
        dom = domain or self.domain
        return ShapedArray(self.shape, [[f(x) for x in row] for row in self._rows], dom)

    # -- global symmetries -------------------------------------------------------

    def transpose(self) -> "ShapedArray":
        conj = self.shape.conjugate()
        rows = tuple(
            tuple([self._rows[j - 1][i - 1] for j in range(1, conj.row_length(i) + 1)])
            for i in range(1, conj.n_rows + 1)
        )
        return ShapedArray._wrap(conj, rows, self.domain)

    def _require_rectangular(self, what: str) -> None:
        if not self.shape.is_rectangular:
            raise ShapeError(f"{what} needs a rectangular shape, got {self.shape.parts}")

    def reverse_rows(self) -> "ShapedArray":
        """Row reversal w^R_{i,j} = w_{m-i+1,j} (rectangular only)."""
        self._require_rectangular("reverse_rows")
        return ShapedArray._wrap(self.shape, self._rows[::-1], self.domain)

    def reverse_cols(self) -> "ShapedArray":
        """Column reversal w^C_{i,j} = w_{i,n-j+1} (rectangular only)."""
        self._require_rectangular("reverse_cols")
        return ShapedArray._wrap(self.shape, tuple(r[::-1] for r in self._rows), self.domain)

    # -- symmetric arrays ----------------------------------------------------------

    def _mirror_fault(self):
        """The first box, in row-major order, whose mirror box is missing or
        holds another entry, or None for a symmetric array.  Lane entries
        compare lane by lane; entries without == (dual numbers) by identity."""
        same = np.array_equal if self.domain.holds_arrays else operator.eq
        rows = self._rows
        for i, row in enumerate(rows, start=1):
            for j, x in enumerate(row, start=1):
                if j == i:
                    continue
                if j > len(rows) or i > len(rows[j - 1]):
                    return f"box ({i},{j}) has no mirror box ({j},{i}) in shape {self.shape.parts}"
                if not same(x, rows[j - 1][i - 1]):
                    return f"box ({i},{j}) differs from its mirror box ({j},{i})"
        return None

    def is_symmetric(self) -> bool:
        return self._mirror_fault() is None

    def require_symmetric(self, name: str) -> None:
        """Raise ShapeError, naming the map name and the first faulty box,
        unless the array is symmetric: w_{i,j} = w_{j,i} on a self-conjugate shape."""
        fault = self._mirror_fault()
        if fault:
            raise ShapeError(f"{name} needs a symmetric array: {fault}")

    # -- serialization ----------------------------------------------------------------

    def to_json_obj(self):
        """The JSON object of the array, in any scalar domain: a counterexample
        carries its input this way.  Only a named domain is read back."""
        self._scalars_only("to_json")
        return {
            "shape": list(self.shape.parts),
            "domain": self.domain.name,
            "rows": [[self.domain.scalar_to_json(x) for x in row] for row in self._rows],
        }

    def to_json(self, indent=None) -> str:
        """The JSON text of the array, which from_json reads back; only a
        named domain (one of ``DOMAINS``) is written."""
        obj = self.to_json_obj()
        if self.domain.name not in DOMAINS:
            raise DomainError(
                f"to_json: {self.domain.name} is not a named domain, and no JSON array "
                f"is read into it; expected one of {sorted(DOMAINS)}"
            )
        return json.dumps(obj, indent=indent)

    @classmethod
    def from_json_obj(cls, obj) -> "ShapedArray":
        """The array of a JSON object; a bad entry raises DomainError naming its box."""
        try:
            shape = Shape(tuple(obj["shape"]))
            domain = domain_by_name(obj["domain"])
            rows = [list(row) for row in obj["rows"]]
        except (KeyError, TypeError) as exc:
            raise DomainError(f"malformed array object: {exc}") from None
        return cls(shape, rows, domain)

    @classmethod
    def from_json(cls, text: str) -> "ShapedArray":
        return cls.from_json_obj(json.loads(text))


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
    """Random symmetric array on a self-conjugate shape: the upper part
    (i <= j) of a random_array, mirrored below the diagonal."""
    if not shape.is_self_conjugate():
        raise ShapeError(f"shape {shape.parts} is not self-conjugate")
    up = random_array(shape, domain, rng).rows
    rows = tuple(tuple([up[min(i, j)][max(i, j)] for j in range(p)])
                 for i, p in enumerate(shape.parts))
    return ShapedArray._wrap(shape, rows, domain)
