"""Young diagrams, box predicates, and growth sequences.

A shape is a partition lambda_1 >= lambda_2 >= ... >= lambda_l > 0, viewed as
the box set {(i, j): 1 <= i <= l, 1 <= j <= lambda_i} with 1-based matrix
indexing (row i grows downward, column j to the right).  Growth sequences
order the boxes so that every prefix is itself a Young diagram; they fix the
order in which diagonal maps are composed.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence


class ShapeError(ValueError):
    """Raised for malformed shapes, boxes outside a shape, or bad growth sequences."""


class Box(NamedTuple):
    """A box (row, col) of a Young diagram; both coordinates are >= 1."""

    row: int
    col: int


@dataclass(frozen=True)
class Shape:
    """An immutable Young diagram given by its row lengths.

    The empty shape (no parts) is valid; it is the base case of the
    recursive definitions of the correspondences.
    """

    parts: tuple[int, ...]

    def __init__(self, parts: Sequence[int] = ()):
        try:  # a float or a string is refused, not truncated
            parts = tuple(map(operator.index, parts))
        except TypeError:
            raise ShapeError(f"shape parts must be integers, got {list(parts)}") from None
        for p in parts:
            if p <= 0:
                raise ShapeError(f"shape parts must be positive, got {parts}")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ShapeError(f"shape parts must be weakly decreasing, got {parts}")
        object.__setattr__(self, "parts", parts)

    # -- basic geometry ----------------------------------------------------

    @property
    def n_rows(self) -> int:
        return len(self.parts)

    @property
    def n_cols(self) -> int:
        return self.parts[0] if self.parts else 0

    @property
    def size(self) -> int:
        return sum(self.parts)

    def row_length(self, i: int) -> int:
        """Length of row i (1-based); 0 for rows below the diagram."""
        return self.parts[i - 1] if 1 <= i <= len(self.parts) else 0

    def contains(self, box: tuple[int, int]) -> bool:
        i, j = box
        return i >= 1 and j >= 1 and j <= self.row_length(i)

    def __contains__(self, box: tuple[int, int]) -> bool:
        return self.contains(box)

    def boxes(self) -> Iterator[Box]:
        """All boxes in row-major order."""
        for i, p in enumerate(self.parts, start=1):
            for j in range(1, p + 1):
                yield Box(i, j)

    def _require(self, box: tuple[int, int]) -> Box:
        if not self.contains(box):
            raise ShapeError(f"box {tuple(box)} not in shape {list(self.parts)}")
        return Box(*box)

    # -- box predicates ------------------------------------------------------

    def is_border_box(self, box: tuple[int, int]) -> bool:
        """True iff box is the last box of its diagonal, i.e. (i+1, j+1) is outside."""
        i, j = self._require(box)
        return not self.contains((i + 1, j + 1))

    def is_corner_box(self, box: tuple[int, int]) -> bool:
        """True iff removing box leaves a Young diagram."""
        i, j = self._require(box)
        return j == self.row_length(i) and self.row_length(i + 1) < j

    def border_boxes(self) -> list[Box]:
        return [b for b in self.boxes() if self.is_border_box(b)]

    def corner_boxes(self) -> list[Box]:
        return [b for b in self.boxes() if self.is_corner_box(b)]

    def remove_box(self, box: tuple[int, int]) -> "Shape":
        """Shape with a corner box removed."""
        i, j = self._require(box)
        if not self.is_corner_box((i, j)):
            raise ShapeError(f"box {tuple(box)} is not a corner box of {list(self.parts)}")
        parts = list(self.parts)
        parts[i - 1] -= 1
        if parts[i - 1] == 0:
            parts.pop(i - 1)
        return Shape(parts)

    # -- conjugation and symmetry -------------------------------------------

    def conjugate(self) -> "Shape":
        """Column lengths: lambda'_i = #{k: lambda_k >= i}."""
        return Shape([sum(1 for p in self.parts if p >= i) for i in range(1, self.n_cols + 1)])

    def is_self_conjugate(self) -> bool:
        return self.conjugate() == self

    @property
    def is_rectangular(self) -> bool:
        return len(set(self.parts)) <= 1

    def upper_part(self) -> list[Box]:
        """Boxes (i, j) with i <= j, for a self-conjugate shape."""
        if not self.is_self_conjugate():
            raise ShapeError(f"shape {list(self.parts)} is not self-conjugate")
        return [b for b in self.boxes() if b.row <= b.col]


def rectangle(m: int, n: int) -> Shape:
    """The m x n rectangular shape."""
    if m < 0 or n < 0 or (m == 0) != (n == 0):
        raise ShapeError(f"invalid rectangle {m}x{n}")
    return Shape([n] * m)


def shape_from_boxes(boxes: Sequence[tuple[int, int]]) -> Shape:
    """The shape whose box set is exactly the given boxes; raises if not a diagram."""
    by_row: dict[int, int] = {}
    for i, j in boxes:
        by_row[i] = max(by_row.get(i, 0), j)
    if not by_row:
        return Shape()
    parts = [by_row.get(i, 0) for i in range(1, max(by_row) + 1)]
    try:
        shape = Shape(parts)
    except ShapeError:
        raise ShapeError(f"boxes {sorted(map(tuple, boxes))} are not a Young diagram") from None
    if shape.size != len(set(map(tuple, boxes))) or shape.size != len(boxes):
        raise ShapeError(f"boxes {sorted(map(tuple, boxes))} are not a Young diagram")
    return shape


# -- growth sequences ---------------------------------------------------------


def growth_sequence_error(shape: Shape, boxes: Sequence[tuple[int, int]]) -> str | None:
    """Why boxes is not a growth sequence of shape, naming the index and box
    of its first bad step; None when it is one.

    A prefix is a Young diagram exactly when each added box (i, j) extends row i
    by one (j = current length + 1) without overtaking row i-1.
    """
    row_len = [0] * (shape.n_rows + 1)
    for step, (i, j) in enumerate(boxes):
        if not shape.contains((i, j)):
            return f"order[{step}] = ({i},{j}) is not in the shape"
        if j != row_len[i] + 1:
            return f"order[{step}] = ({i},{j}) does not extend row {i} by one box"
        if i > 1 and row_len[i - 1] < j:
            return f"order[{step}] = ({i},{j}) overtakes row {i - 1}"
        row_len[i] = j
    if sum(row_len) != shape.size:
        return f"the order stops after {sum(row_len)} of {shape.size} boxes"
    return None


def _addable(shape: Shape, row_len: list[int]) -> list[Box]:
    """The boxes of shape that extend the diagram with row lengths
    row_len[1:] to a diagram, by row: row i's next box, where row i-1 is longer."""
    return [
        Box(i, row_len[i] + 1)
        for i in range(1, shape.n_rows + 1)
        if row_len[i] < shape.row_length(i) and (i == 1 or row_len[i - 1] > row_len[i])
    ]


def all_growth_sequences(shape: Shape) -> Iterator[list[Box]]:
    """All growth sequences of shape (the standard-tableau orderings), in
    lexicographic order of the rows their steps add to.

    Exponentially many; intended for exhaustive order-independence tests on
    small shapes only.  Shape.boxes() is the row-major one.
    """
    n = shape.size
    row_len = [0] * (shape.n_rows + 1)
    seq: list[Box] = []

    def extend() -> Iterator[list[Box]]:
        if len(seq) == n:
            yield list(seq)
            return
        for box in _addable(shape, row_len):
            row_len[box.row] = box.col
            seq.append(box)
            yield from extend()
            seq.pop()
            row_len[box.row] = box.col - 1

    return extend()


def random_growth_sequence(shape: Shape, rng) -> list[Box]:
    """A growth sequence that adds, at each step, one of the addable boxes
    (in row order) chosen uniformly by rng.randrange, which is all rng needs
    (random.Random works).
    """
    row_len = [0] * (shape.n_rows + 1)
    seq: list[Box] = []
    while len(seq) < shape.size:
        candidates = _addable(shape, row_len)
        pick = candidates[rng.randrange(len(candidates))]
        row_len[pick.row] = pick.col
        seq.append(pick)
    return seq


# -- shape generation (for randomized and exhaustive tests) -----------------------


def all_shapes(max_size: int) -> Iterator[Shape]:
    """All nonempty shapes with at most max_size boxes, by size then lex."""
    for n in range(1, max_size + 1):
        yield from _partitions(n, n)


def _partitions(n: int, cap: int) -> Iterator[Shape]:
    if n == 0:
        yield Shape()
        return
    for first in range(min(n, cap), 0, -1):
        for rest in _partitions(n - first, first):
            yield Shape((first,) + rest.parts)


def random_shape(rng, max_rows: int, max_cols: int) -> Shape:
    """A random nonempty shape with at most max_rows rows and max_cols columns.

    Each part is drawn uniformly below the previous one, so this leans toward
    staircase-like shapes; fine for identity trials, not a uniform measure.
    """
    n_rows = rng.randint(1, max_rows)
    parts = []
    cap = max_cols
    for _ in range(n_rows):
        cap = rng.randint(1, cap)
        parts.append(cap)
    return Shape(parts)


def symmetric_closure(shape: Shape) -> Shape:
    """The smallest self-conjugate shape containing shape (union with its conjugate)."""
    conj = shape.conjugate()
    n = max(shape.n_rows, conj.n_rows)
    return Shape([max(shape.row_length(i), conj.row_length(i)) for i in range(1, n + 1)])
