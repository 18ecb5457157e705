"""Diagonal maps and the full array correspondences built from them.

Three families of diagonal maps act along the diagonal through a box (k,l),
each composed of local maps from the bottom box outward:

    rho_{k,l}   = a_{k-h+1,l-h+1} ... a_{k-1,l-1} c_{k,l}          (h = min(k,l))
    sigma_{k,l} = a_{k-h+1,l-h+1} ... a_{k-1,l-1} b_{k,l}
    tau_{k,l}   = c_{k,l} d^{k,l}_{k-1,l-1} ... d^{k,l}_{k-h+1,l-h+1}

(rightmost factor applied first).  Composing one rho per box of a growth
sequence of the shape gives the row-insertion correspondence K; one tau per
box gives the column-insertion correspondence B.  Both are independent of the
chosen growth sequence.  On rectangles, sigma maps along the bottom row
compose into the involution S, which modifies only the lower trapezoidal part
of its input and fixes the diagonal through the bottom-right corner.

The key exact identities relating K, B and S (with R, C, T the row-reversal,
column-reversal and transpose):

    B(C w) = S(K w)            B(R w) = T S T (K w)        K(R C w) = T S T S (K w)

together with transpose equivariance K(w^T) = K(w)^T, B(w^T) = B(w)^T, and
the restriction of B to symmetric arrays computed entirely on the upper part.
All of them, plus a local commutation relation between the diagonal maps and
the 21-local-map composition that the commutation proof reduces to, are
checked by verify_identity on random exact-rational inputs (and hold verbatim
for the tropical maps on integer inputs).
"""

from __future__ import annotations

import contextlib
import random

import mpmath as mp
import numpy as np

from .arrays import ShapedArray, UpperArray, random_array, random_symmetric_array, symmetrize
from .localmaps import (
    Grid,
    UpperGrid,
    a_at,
    b_at,
    c_at,
    d_at,
    e_at,
    inv_c_at,
    inv_d_at,
)
from .shapes import (
    Shape,
    ShapeError,
    all_growth_sequences,
    all_shapes,
    canonical_growth_sequence,
    canonical_upper_growth_sequence,
    is_valid_growth_sequence,
    random_growth_sequence,
    random_shape,
    rectangle,
    symmetric_closure,
)
from .values import GEOMETRIC_FLOAT, GEOMETRIC_RATIONAL, TROPICAL, ValueDomain


# -- diagonal maps (grid kernels + one-shot wrappers) --------------------------------


def rho_at(g, k, l):
    """Insertion step for box (k,l): c there, then the a-chain up the diagonal."""
    c_at(g, k, l)
    for s in range(1, min(k, l)):
        a_at(g, k - s, l - s)


def sigma_at(g, k, l):
    """Involution step at (k,l): b there, then the a-chain up the diagonal."""
    b_at(g, k, l)
    for s in range(1, min(k, l)):
        a_at(g, k - s, l - s)


def tau_at(g, k, l):
    """Column-insertion step for box (k,l): d pairs from the top of the diagonal
    down to (k-1,l-1), then c at (k,l)."""
    for s in range(min(k, l) - 1, 0, -1):
        d_at(g, k - s, l - s, k, l)
    c_at(g, k, l)


def inv_rho_at(g, k, l):
    for s in range(min(k, l) - 1, 0, -1):
        a_at(g, k - s, l - s)
    inv_c_at(g, k, l)


def inv_tau_at(g, k, l):
    inv_c_at(g, k, l)
    for s in range(1, min(k, l)):
        inv_d_at(g, k - s, l - s, k, l)


def _run(g, kernel, boxes):
    """Apply kernel(g, k, l) at each box (k, l) in turn and return the grid g.

    On lane arrays this is one np.errstate per map call, none per op: a lane
    that overflows raises its DomainError when the grid is handed back, with
    no numpy warning first.  Other domains run no numpy array ops and skip it.
    """
    quiet = np.errstate(all="ignore") if g.domain.holds_arrays else contextlib.nullcontext()
    with quiet:
        for k, l in boxes:
            kernel(g, k, l)
    return g


def rho(arr: ShapedArray, k: int, l: int) -> ShapedArray:
    return _run(Grid.of(arr), rho_at, [(k, l)]).to_array()


def sigma(arr: ShapedArray, k: int, l: int) -> ShapedArray:
    return _run(Grid.of(arr), sigma_at, [(k, l)]).to_array()


def tau(arr: ShapedArray, k: int, l: int) -> ShapedArray:
    return _run(Grid.of(arr), tau_at, [(k, l)]).to_array()


def tau_up(upper: UpperArray, k: int, l: int) -> UpperArray:
    return _run(UpperGrid(upper), tau_at, [(k, l)]).to_upper()


# -- the correspondences --------------------------------------------------------------


def _resolve_order(shape: Shape, order):
    if order is None:
        return canonical_growth_sequence(shape)
    order = [tuple(b) for b in order]
    if not is_valid_growth_sequence(shape, order):
        raise ShapeError(f"not a valid growth sequence for shape {shape.parts}")
    return order


def grsk(arr: ShapedArray, order=None) -> ShapedArray:
    """Row-insertion correspondence K: one rho per box of a growth sequence.

    The output is independent of the choice of growth sequence (a tested
    property); the default is row-major.
    """
    return _run(Grid.of(arr), rho_at, _resolve_order(arr.shape, order)).to_array()


def gburge(arr: ShapedArray, order=None) -> ShapedArray:
    """Column-insertion correspondence B: one tau per box of a growth sequence."""
    return _run(Grid.of(arr), tau_at, _resolve_order(arr.shape, order)).to_array()


def inv_grsk(arr: ShapedArray, order=None) -> ShapedArray:
    """Inverse of grsk: inverse diagonal maps in the reverse growth order."""
    return _run(Grid.of(arr), inv_rho_at, reversed(_resolve_order(arr.shape, order))).to_array()


def inv_gburge(arr: ShapedArray, order=None) -> ShapedArray:
    """Inverse of gburge: inverse diagonal maps in the reverse growth order."""
    return _run(Grid.of(arr), inv_tau_at, reversed(_resolve_order(arr.shape, order))).to_array()


def gschutz(arr: ShapedArray) -> ShapedArray:
    """The involution S on an m x n matrix.

    S composes sigma maps along the bottom row in n-1 groups, the group
    (sigma_{m,r} ... sigma_{m,1}) for r = n-1 applied first, down to r = 1.
    It modifies only the lower trapezoidal part and fixes the diagonal
    through the bottom-right corner.
    """
    if not arr.shape.is_rectangular:
        raise ShapeError(f"the involution needs a rectangular shape, got {arr.shape.parts}")
    m, n = arr.shape.n_rows, arr.shape.n_cols
    boxes = [(m, l) for r in range(n - 1, 0, -1) for l in range(1, r + 1)]
    return _run(Grid.of(arr), sigma_at, boxes).to_array()


def gschutz_upper(arr: ShapedArray) -> ShapedArray:
    """Conjugate of gschutz by transposition; modifies only the upper part."""
    return gschutz(arr.transpose()).transpose()


def gburge_up(upper: UpperArray) -> UpperArray:
    """The column-insertion correspondence restricted to upper-part arrays.

    Equals restrict_upper(gburge(symmetrize(.))) but runs entirely on the
    upper part, one tau per upper box in row-major order on the mirrored grid.
    """
    boxes = canonical_upper_growth_sequence(upper.shape)
    return _run(UpperGrid(upper), tau_at, boxes).to_upper()


# -- the local commutation relation ---------------------------------------------------


def admissible_commutation_boxes(shape: Shape):
    """Boxes (p,q) where the diagonal-map commutation relation is defined:
    p >= 2 and both (p,q) and (p,q+1) in the shape."""
    return [(p, q) for (p, q) in shape.boxes() if p >= 2 and shape.contains((p, q + 1))]


def commutation_sides(arr: ShapedArray, p: int, q: int):
    """Evaluate both sides of sigma_{p,q} rho_{p,q+1} tau_{p,q}
    = tau_{p,q+1} rho_{p,q} sigma_{p-1,q} e^{p,q+1}_{p,q}."""
    g = Grid.of(arr)
    tau_at(g, p, q)
    rho_at(g, p, q + 1)
    sigma_at(g, p, q)
    lhs = g.to_array()
    g = Grid.of(arr)
    e_at(g, p, q, p, q + 1)
    sigma_at(g, p - 1, q)
    rho_at(g, p, q)
    tau_at(g, p, q + 1)
    rhs = g.to_array()
    return lhs, rhs


# -- the 21-local-map composition ------------------------------------------------------

# The commutation proof reduces, after shifting and cancellations, to showing a
# fixed composition of 21 local maps is the identity.  Four of them are
# variants ("shifted" a and d maps) whose left-neighbor factor ignores the row
# above: their A-part is just w_{i,j-1}, with the special convention that the
# missing w_{i,0} counts as the otimes-identity (not the usual boundary zero).


def _left(g, i, j):
    """The A-part of the shifted maps at (i,j)."""
    return g.get(i, j - 1) if j >= 2 else g.domain.one


def admissible_composition_params(shape: Shape):
    """(m, q) pairs for which the 21-map composition is defined on shape."""
    out = []
    for m in range(1, shape.n_rows + 1):
        if not (shape.contains((m + 3, 3)) and shape.contains((m + 2, 4))):
            continue
        for q in range(3, shape.n_cols):
            if shape.contains((m + q, q + 1)):
                out.append((m, q))
    return out


def composition_of_21(arr: ShapedArray, m: int, q: int) -> ShapedArray:
    """Apply the 21-local-map composition at parameters (m, q); it is the
    identity map wherever defined, so the return value should equal arr."""
    if m < 1 or q < 3:
        raise ShapeError(f"the composition needs m >= 1 and q >= 3, got ({m},{q})")
    M = m + q
    for box in ((m + 3, 3), (m + 2, 4), (M, q + 1)):
        if not arr.shape.contains(box):
            raise ShapeError(
                f"the composition at ({m},{q}) needs box {box} in shape {arr.shape.parts}"
            )
    g = Grid.of(arr)
    a_at(g, m + 1, 1)
    a_at(g, m + 2, 2)
    a_at(g, m, 1)
    a_at(g, m + 1, 2)
    d_at(g, m + 1, 1, M, q + 1)
    inv_d_at(g, m + 1, 1, M, q + 1, A=_left(g, m + 1, 1))
    a_at(g, m + 1, 2, A=_left(g, m + 1, 2))
    a_at(g, m + 2, 2)
    a_at(g, m + 1, 1, A=_left(g, m + 1, 1))
    d_at(g, m + 1, 2, M, q + 1, A=_left(g, m + 1, 2))
    d_at(g, m + 2, 3, M, q + 1)
    a_at(g, m + 1, 1, A=_left(g, m + 1, 1))
    a_at(g, m + 2, 2)
    a_at(g, m + 1, 2, A=_left(g, m + 1, 2))
    a_at(g, m + 1, 2)
    a_at(g, m, 1)
    a_at(g, m + 2, 2)
    a_at(g, m + 1, 1)
    inv_d_at(g, m + 2, 3, M, q + 1)
    inv_d_at(g, m + 1, 2, M, q + 1)
    inv_d_at(g, m, 1, M, q + 1)
    return g.to_array()


# -- identity verification --------------------------------------------------------------


def _equal(lhs: ShapedArray, rhs: ShapedArray, tol: float) -> bool:
    if lhs.domain.is_exact:
        return lhs == rhs
    return lhs.allclose(rhs, tol)


def _cex(inp: ShapedArray, lhs: ShapedArray, rhs: ShapedArray):
    return {"input": inp.to_json_obj(), "lhs": lhs.to_json_obj(), "rhs": rhs.to_json_obj()}


def _random_rectangle(rng, max_rows, max_cols):
    return rectangle(rng.randint(1, max_rows), rng.randint(1, max_cols))


def _trial_thm34C(rng, max_rows, max_cols, domain, tol):
    w = random_array(_random_rectangle(rng, max_rows, max_cols), domain, rng)
    lhs = gburge(w.reverse_cols())
    rhs = gschutz(grsk(w))
    return None if _equal(lhs, rhs, tol) else _cex(w, lhs, rhs)


def _trial_thm34R(rng, max_rows, max_cols, domain, tol):
    w = random_array(_random_rectangle(rng, max_rows, max_cols), domain, rng)
    lhs = gburge(w.reverse_rows())
    rhs = gschutz_upper(grsk(w))
    return None if _equal(lhs, rhs, tol) else _cex(w, lhs, rhs)


def _trial_thm32(rng, max_rows, max_cols, domain, tol):
    w = random_array(_random_rectangle(rng, max_rows, max_cols), domain, rng)
    lhs = grsk(w.reverse_rows().reverse_cols())
    rhs = gschutz_upper(gschutz(grsk(w)))
    return None if _equal(lhs, rhs, tol) else _cex(w, lhs, rhs)


def _trial_prop33(rng, max_rows, max_cols, domain, tol):
    shape = random_shape(rng, max_rows, max_cols)
    for _ in range(100):
        if admissible_commutation_boxes(shape):
            break
        shape = random_shape(rng, max_rows, max_cols)
    w = random_array(shape, domain, rng)
    for p, q in admissible_commutation_boxes(shape):
        lhs, rhs = commutation_sides(w, p, q)
        if not _equal(lhs, rhs, tol):
            return _cex(w, lhs, rhs)
    return None


def _trial_appendix(rng, max_rows, max_cols, domain, tol):
    n = max(4, min(max_rows, max_cols))
    w = random_array(rectangle(n, n), domain, rng)
    for m, q in admissible_composition_params(w.shape):
        out = composition_of_21(w, m, q)
        if not _equal(out, w, tol):
            return _cex(w, out, w)
    return None


_EXHAUSTIVE_SEQUENCE_CAP = 8  # sizes up to this get every growth sequence


def _shape_pool(max_boxes):
    return list(all_shapes(max_boxes))


def _trial_order_independence(rng, max_rows, max_cols, domain, tol):
    pool = _shape_pool(min(max_rows * max_cols, 9))
    shape = pool[rng.randrange(len(pool))]
    w = random_array(shape, domain, rng)
    ref_k = grsk(w)
    ref_b = gburge(w)
    if shape.size <= _EXHAUSTIVE_SEQUENCE_CAP:
        seqs = all_growth_sequences(shape)
    else:
        seqs = (random_growth_sequence(shape, rng) for _ in range(20))
    for seq in seqs:
        out = grsk(w, seq)
        if not _equal(out, ref_k, tol):
            return _cex(w, out, ref_k)
        out = gburge(w, seq)
        if not _equal(out, ref_b, tol):
            return _cex(w, out, ref_b)
    return None


def _trial_recursion(rng, max_rows, max_cols, domain, tol):
    pool = _shape_pool(min(max_rows * max_cols, 9))
    shape = pool[rng.randrange(len(pool))]
    w = random_array(shape, domain, rng)
    ref_k = grsk(w)
    ref_b = gburge(w)
    for corner in shape.corner_boxes():
        sub_order = canonical_growth_sequence(shape.remove_box(corner))
        g = Grid.of(w)
        for k, l in sub_order:
            rho_at(g, k, l)
        rho_at(g, *corner)
        out = g.to_array()
        if not _equal(out, ref_k, tol):
            return _cex(w, out, ref_k)
        g = Grid.of(w)
        for k, l in sub_order:
            tau_at(g, k, l)
        tau_at(g, *corner)
        out = g.to_array()
        if not _equal(out, ref_b, tol):
            return _cex(w, out, ref_b)
    return None


def _trial_transpose(rng, max_rows, max_cols, domain, tol):
    w = random_array(random_shape(rng, max_rows, max_cols), domain, rng)
    lhs = grsk(w.transpose())
    rhs = grsk(w).transpose()
    if not _equal(lhs, rhs, tol):
        return _cex(w, lhs, rhs)
    lhs = gburge(w.transpose())
    rhs = gburge(w).transpose()
    if not _equal(lhs, rhs, tol):
        return _cex(w, lhs, rhs)
    return None


def _trial_symmetric(rng, max_rows, max_cols, domain, tol):
    bound = min(max_rows, max_cols)
    shape = symmetric_closure(random_shape(rng, bound, bound))
    w = random_symmetric_array(shape, domain, rng)
    t = gburge(w)
    if not _equal(t, t.transpose(), tol):
        return _cex(w, t, t.transpose())
    via_upper = symmetrize(gburge_up(w.restrict_upper()))
    if not _equal(via_upper, t, tol):
        return _cex(w, via_upper, t)
    return None


_TRIALS = {
    # Reversing columns before column-insertion equals the involution after
    # row-insertion: B(C w) = S(K w).
    "thm3.4-C": _trial_thm34C,
    # Reversing rows instead lands in the transposed involution:
    # B(R w) = T S T (K w).
    "thm3.4-R": _trial_thm34R,
    # Rotating the input by a half-turn conjugates row-insertion by a double
    # involution: K(R C w) = T S T S (K w).
    "thm3.2": _trial_thm32,
    # Local commutation between the three diagonal maps at every admissible box.
    "prop3.3": _trial_prop33,
    # The fixed 21-local-map composition is the identity wherever defined.
    "appendix-C-identity": _trial_appendix,
    # K and B do not depend on the growth sequence.
    "order-independence": _trial_order_independence,
    # Peeling off any corner box: the correspondence equals the smaller
    # correspondence followed by one diagonal map at the corner.
    "recursion": _trial_recursion,
    # K and B commute with transposition.
    "transpose-equivariance": _trial_transpose,
    # Symmetric input gives symmetric output, and the upper-part route agrees
    # with the full-array route.
    "prop5.1": _trial_symmetric,
}

IDENTITY_NAMES = tuple(_TRIALS)


def verify_identity(
    name: str,
    max_size: int = 4,
    trials: int = 50,
    seed: int = 0,
    tol: float = 1e-12,
    domain: ValueDomain = GEOMETRIC_RATIONAL,
    threads: int = 1,
    max_rows: int | None = None,
    max_cols: int | None = None,
) -> dict:
    """Run one named identity check on random inputs and report the outcome.

    max_size bounds matrix sides (or shape rows/columns); for the
    order-independence and recursion checks the shape pool is instead capped
    at 9 boxes, with exhaustive growth-sequence enumeration up to 8 boxes.
    Trial i is seeded with seed XOR i, so reports are deterministic.  threads
    is accepted for compatibility and has no effect: trials run on one
    thread.  Returns
    {identity, trials, failures, first_counterexample?}.
    """
    if name not in _TRIALS:
        raise ValueError(f"unknown identity {name!r}; expected one of {sorted(IDENTITY_NAMES)}")
    rows_bound = max_rows if max_rows is not None else max_size
    cols_bound = max_cols if max_cols is not None else max_size
    fn = _TRIALS[name]

    results = [
        fn(random.Random(seed ^ i), rows_bound, cols_bound, domain, tol) for i in range(trials)
    ]
    failures = sum(1 for r in results if r is not None)
    report = {"identity": name, "trials": trials, "failures": failures}
    if failures:
        report["first_counterexample"] = next(r for r in results if r is not None)
    return report


# -- degeneration of the geometric maps to the piecewise-linear ones ---------------------


def _map_by_kind(kind: str):
    try:
        return {"rsk": grsk, "burge": gburge, "schutz": gschutz}[kind]
    except KeyError:
        raise ValueError(f"unknown map kind {kind!r}; expected rsk, burge or schutz") from None


def tropical_limit_errors(trop_in: ShapedArray, kind: str, eps: float) -> float:
    """Max entrywise gap between eps*log(geometric map at exp(./eps)) and the
    tropical map, for one input array."""
    apply_map = _map_by_kind(kind)
    trop_out = apply_map(trop_in)
    with mp.workprec(150):
        geom_in = trop_in.map_entries(lambda x: mp.exp(mp.mpf(x) / eps), GEOMETRIC_FLOAT)
        geom_out = apply_map(geom_in)
        scaled = geom_out.map_entries(lambda v: float(eps * mp.log(v)), TROPICAL)
    return max(
        abs(x - y)
        for rx, ry in zip(scaled.rows, trop_out.rows)
        for x, y in zip(rx, ry)
    )


def tropical_limit_check(
    max_boxes: int = 9,
    trials: int = 20,
    seed: int = 0,
    epsilons=(0.1, 0.01, 0.001),
    bound_constant: float = 100.0,
) -> dict:
    """Check that the geometric maps degenerate to the tropical ones.

    For integer tropical inputs x and each eps, the rescaled geometric image
    eps*log(map(exp(x/eps))) must lie within bound_constant*eps of the
    tropical image, with the gap shrinking as eps does.  The constant is a
    generous budget: every oplus/hsum contributes at most eps*log(2) and a
    map on at most 9 boxes performs well under a hundred of them.
    """
    epsilons = tuple(sorted(epsilons, reverse=True))
    pool = _shape_pool(max_boxes)
    failures = 0
    first = None
    worst = {eps: 0.0 for eps in epsilons}
    checks = 0
    for idx in range(trials):
        rng = random.Random(seed ^ idx)
        shape = pool[rng.randrange(len(pool))]
        trop_in = random_array(shape, TROPICAL, rng)
        kinds = ["rsk", "burge"] + (["schutz"] if shape.is_rectangular else [])
        for kind in kinds:
            errs = [tropical_limit_errors(trop_in, kind, eps) for eps in epsilons]
            checks += 1
            for eps, err in zip(epsilons, errs):
                worst[eps] = max(worst[eps], err)
            ok = all(err <= bound_constant * eps for eps, err in zip(epsilons, errs)) and all(
                errs[i + 1] <= errs[i] + 1e-9 for i in range(len(errs) - 1)
            )
            if not ok:
                failures += 1
                if first is None:
                    first = {
                        "input": trop_in.to_json_obj(),
                        "map": kind,
                        "errors": {str(e): err for e, err in zip(epsilons, errs)},
                    }
    report = {
        "identity": "tropical-limit",
        "trials": checks,
        "failures": failures,
        "max_error_by_eps": {str(e): worst[e] for e in epsilons},
    }
    if first is not None:
        report["first_counterexample"] = first
    return report
