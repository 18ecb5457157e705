"""Brute-force lattice-path oracles for the correspondence output entries.

Products of diagonal entries of the output arrays admit closed forms as
partition functions over tuples of non-intersecting directed lattice paths:

  * row-insertion (K), m x n input: t_{m,n} t_{m-1,n-1} ... t_{m-k+1,n-k+1}
    equals the sum over k-tuples of vertex-disjoint down-right paths from
    (1,1),...,(1,k) to (m,n-k+1),...,(m,n) of the product of the input
    entries covered;
  * column-insertion (B), any shape with border box (m,n): the same diagonal
    product equals the analogous sum over up-right paths from (m,1),...,(m,k)
    to (1,n-k+1),...,(1,n).

There are also exact identities for sums of inverse entries and the replica
decomposition of a persymmetric point-to-point partition function.  All of
this is checked here by plain enumeration, independent of the local-map
machinery, so it can serve as an oracle for the correspondences.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, isqrt
from typing import NamedTuple

from .arrays import ShapedArray, random_array
from .correspondences import counterexample, gburge, grsk
from .shapes import rectangle
from .values import GEOMETRIC_RATIONAL, LogCoordinates, ValueDomain

ENUMERATION_LIMIT = 10**7


class EnumerationLimitError(RuntimeError):
    """The requested family has too many paths or tuples to enumerate."""


class LatticePath(NamedTuple):
    """A directed lattice path: unit steps, all in one of two directions."""

    points: tuple

    @property
    def start(self):
        return self.points[0]

    @property
    def end(self):
        return self.points[-1]

    def __repr__(self):
        return "Path[" + " ".join(f"({i},{j})" for i, j in self.points) + "]"


def _paths_between(start, end):
    """All monotone paths from start to end, stepping by +-1 in the row or +1
    in the column, whichever signs the endpoints dictate."""
    si, sj = start
    ei, ej = end
    di = 1 if ei >= si else -1
    dj = 1 if ej >= sj else -1
    n_paths = comb(abs(ei - si) + abs(ej - sj), abs(ei - si))
    if n_paths > ENUMERATION_LIMIT:
        raise EnumerationLimitError(f"{n_paths} paths from {start} to {end}")
    out = []

    def walk(i, j, acc):
        if (i, j) == (ei, ej):
            out.append(LatticePath(tuple(acc)))
            return
        if i != ei:
            acc.append((i + di, j))
            walk(i + di, j, acc)
            acc.pop()
        if j != ej:
            acc.append((i, j + dj))
            walk(i, j + dj, acc)
            acc.pop()

    walk(si, sj, [(si, sj)])
    return out


def enum_paths(m: int, n: int, dual: bool = False):
    """All directed paths across an m x n grid.

    Standard orientation runs from (1,1) to (m,n) with down and right steps;
    the dual orientation runs from (m,1) to (1,n) with up and right steps.
    Either way there are binomial(m+n-2, m-1) paths.
    """
    if m < 1 or n < 1:
        raise ValueError(f"grid dimensions must be positive, got ({m},{n})")
    if dual:
        return _paths_between((m, 1), (1, n))
    return _paths_between((1, 1), (m, n))


def _endpoint_pairs(m, n, k, dual):
    if not 1 <= k <= min(m, n):
        raise ValueError(f"k must be between 1 and {min(m, n)}, got {k}")
    if dual:
        return [((m, r), (1, n - k + r)) for r in range(1, k + 1)]
    return [((1, r), (m, n - k + r)) for r in range(1, k + 1)]


def enum_nonintersecting(m: int, n: int, k: int, dual: bool = False):
    """All k-tuples of pairwise vertex-disjoint paths across an m x n grid,
    with starts and ends staggered as in the diagonal-product identities."""
    pairs = _endpoint_pairs(m, n, k, dual)
    per_path = [_paths_between(s, e) for s, e in pairs]
    work = 1
    for paths in per_path:
        work *= len(paths)
    if work > ENUMERATION_LIMIT:
        raise EnumerationLimitError(f"{work} raw {k}-tuples on the {m}x{n} grid")
    tuples = []

    def extend(r, chosen, used):
        if r == k:
            tuples.append(tuple(chosen))
            return
        for path in per_path[r]:
            pts = set(path.points)
            if pts & used:
                continue
            chosen.append(path)
            extend(r + 1, chosen, used | pts)
            chosen.pop()

    extend(0, [], set())
    return tuples


def path_sum(weights: ShapedArray, family):
    """Sum over the family of the product of weights over the union of each
    tuple's vertices.  Family elements may be paths or tuples of paths."""
    dom = weights.domain
    total = dom.zero
    for element in family:
        paths = (element,) if isinstance(element, LatticePath) else element
        boxes = set()
        for path in paths:
            boxes.update(path.points)
        term = dom.one
        for box in boxes:
            term = dom.otimes(term, weights.get(*box))
        total = dom.oplus(total, term)
    return total


# -- identity checks against the correspondences ------------------------------------------


def _outcome(dom: ValueDomain, arr: ShapedArray, lhs, rhs, **where):
    """None when lhs equals rhs (to relative 1e-9 in an inexact domain), else
    the counterexample: the input, the keys of `where`, and both sides."""
    if dom.isclose(lhs, rhs, 1e-9):
        return None
    return counterexample(arr, **where, lhs=dom.scalar_to_json(lhs), rhs=dom.scalar_to_json(rhs))


def _diag_product(t: ShapedArray, m: int, n: int, k: int):
    dom = t.domain
    out = dom.one
    for s in range(k):
        out = dom.otimes(out, t.get(m - s, n - s))
    return out


def prop4_outcomes(arr: ShapedArray, which: str) -> list:
    """Compare diagonal products of the correspondence output with the
    non-intersecting path sums, for every k (and, for the column-insertion
    version, every border box): one `run_trials` outcome per comparison."""
    dom = arr.domain
    if which == "grsk-4.1":
        if not arr.shape.is_rectangular:
            raise ValueError("the row-insertion path identity needs a rectangular array")
        t = grsk(arr)
        sites = [(arr.shape.n_rows, arr.shape.n_cols)]
        dual = False
    elif which == "gburge-4.2":
        t = gburge(arr)
        sites = list(arr.shape.border_boxes())
        dual = True
    else:
        raise ValueError(f"unknown check {which!r}; expected grsk-4.1 or gburge-4.2")
    outcomes = []
    for m, n in sites:
        for k in range(1, min(m, n) + 1):
            lhs = _diag_product(t, m, n, k)
            rhs = path_sum(arr, enum_nonintersecting(m, n, k, dual))
            outcomes.append(_outcome(dom, arr, lhs, rhs, border_box=[m, n], k=k))
    return outcomes


def prop43_outcomes(arr: ShapedArray) -> list:
    """Check the two inverse-entry sum rules for the column-insertion output:
    1/t_{1,1} equals the sum of 1/w_{i,i} over the diagonal, and the sum over
    all boxes of (t_{i-1,j} + t_{i,j-1})/t_{i,j} equals the sum of all 1/w_{i,j}
    (output boundary convention: 1/2 next to the origin, 0 further out).
    One `run_trials` outcome per rule."""
    dom = arr.domain
    t = gburge(arr)
    one = dom.one

    diag_lhs = dom.odiv(one, t.get(1, 1))
    diag_rhs = dom.zero
    for i, j in arr.shape.boxes():
        if i == j:
            diag_rhs = dom.oplus(diag_rhs, dom.odiv(one, arr.get(i, j)))

    ratio_lhs = dom.zero
    ratio_rhs = dom.zero
    for i, j in arr.shape.boxes():
        num = dom.oplus(t.get_with_boundary(i - 1, j), t.get_with_boundary(i, j - 1))
        ratio_lhs = dom.oplus(ratio_lhs, dom.odiv(num, t.get(i, j)))
        ratio_rhs = dom.oplus(ratio_rhs, dom.odiv(one, arr.get(i, j)))

    checks = [("diagonal", diag_lhs, diag_rhs), ("all-boxes", ratio_lhs, ratio_rhs)]
    return [_outcome(dom, arr, lhs, rhs, check=label) for label, lhs, rhs in checks]


# -- replica decomposition -----------------------------------------------------------------


def _rational_sqrt(x: Fraction) -> Fraction:
    p, q = x.numerator, x.denominator
    rp, rq = isqrt(p), isqrt(q)
    if rp * rp != p or rq * rq != q:
        raise ValueError(f"antidiagonal weight {x} is not a perfect rational square")
    return Fraction(rp, rq)


def is_persymmetric(weights: ShapedArray) -> bool:
    """w_{i,j} = w_{n-j+1,n-i+1} on an n x n square: exactly when the row
    reversal is symmetric (which also needs the square)."""
    return weights.shape.is_rectangular and weights.reverse_rows().is_symmetric()


def random_persymmetric_square_weights(n: int, rng) -> ShapedArray:
    """Random rational persymmetric n x n weights whose antidiagonal entries
    are perfect squares, so the replica decomposition stays in exact
    arithmetic."""
    proto = random_array(rectangle(n, n), GEOMETRIC_RATIONAL, rng)
    entries = {}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i + j < n + 1:
                entries[(i, j)] = proto.get(i, j)
            elif i + j == n + 1:
                entries[(i, j)] = proto.get(i, j) ** 2
            else:
                entries[(i, j)] = entries[(n - j + 1, n - i + 1)]
    return proto.with_entries(entries)


def replica_decomposition_outcomes(weights: ShapedArray) -> list:
    """Check that the point-to-point partition function of a persymmetric
    environment splits as the replica sum along the antidiagonal:

        Z_{n,n}(W) = sum over a+b = n+1 of Z'_{a,b}(W')^2

    where W' halves the antidiagonal multiplicatively (otimes square roots
    there, so halves in max-plus and LogDomain, untouched elsewhere).  In
    the exact domain the antidiagonal entries must be perfect rational
    squares.  One `run_trials` outcome.
    """
    dom = weights.domain
    if not is_persymmetric(weights):
        raise ValueError("weights are not persymmetric")
    n = weights.shape.n_rows
    roots = {}
    for i in range(1, n + 1):
        j = n + 1 - i
        w = weights.get(i, j)
        if dom.is_exact:
            roots[(i, j)] = _rational_sqrt(w)
        else:  # the otimes square root: w/2 where otimes is +
            roots[(i, j)] = w / 2 if isinstance(dom, LogCoordinates) else w**0.5
    modified = weights.with_entries(roots)

    z_full = path_sum(weights, enum_paths(n, n))
    return [_outcome(dom, weights, z_full, replica_sum(modified))]


def replica_sum(weights: ShapedArray):
    """The replica sum over a = 1..n of the squared point-to-point sum from
    (1,1) to (a, n+1-a), by path enumeration: it reads the weights on the
    staircase i + j <= n + 1 of their n rows."""
    dom = weights.domain
    n = weights.shape.n_rows
    total = dom.zero
    for a in range(1, n + 1):
        half = path_sum(weights, enum_paths(a, n + 1 - a))
        total = dom.oplus(total, dom.otimes(half, half))
    return total
