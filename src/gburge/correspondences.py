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
import functools
import random

import numpy as np

from .arrays import ShapedArray, random_array, random_symmetric_array
from .localmaps import (
    Grid,
    _need,
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
    growth_sequence_error,
    random_growth_sequence,
    random_shape,
    rectangle,
    symmetric_closure,
)
from .values import GEOMETRIC_RATIONAL, TROPICAL, LogDomain, ValueDomain


# -- diagonal maps (grid kernels) ----------------------------------------------------


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


def tau_up_at(g, k, l):
    """tau at (k,l) of a symmetric grid, then the boxes (k-s,l-s) it changed
    copied to their mirrors.  Off the diagonal, tau reads no box on the far
    side of the diagonal; on it, tau writes diagonal boxes only."""
    tau_at(g, k, l)
    r = g.rows
    for s in range(min(k, l)):
        r[l - s][k - s] = r[k - s][l - s]


def inv_rho_at(g, k, l):
    for s in range(min(k, l) - 1, 0, -1):
        a_at(g, k - s, l - s)
    inv_c_at(g, k, l)


def inv_tau_at(g, k, l):
    inv_c_at(g, k, l)
    for s in range(1, min(k, l)):
        inv_d_at(g, k - s, l - s, k, l)


# reused by every scalar-domain _run: a nullcontext holds no state
_QUIET_NONE = contextlib.nullcontext()


def _run(g, kernel, boxes):
    """Apply kernel(g, k, l) at each box (k, l) in turn and return the grid g.

    On lane arrays this is one np.errstate per map call, none per op: a lane
    that overflows raises its DomainError when the grid is handed back, with
    no numpy warning first.  Other domains run no numpy array ops and skip it.
    """
    with np.errstate(all="ignore") if g.domain.holds_arrays else _QUIET_NONE:
        for k, l in boxes:
            kernel(g, k, l)
    return g


# -- the correspondences --------------------------------------------------------------


@functools.lru_cache(maxsize=128)
def _row_major(shape: Shape) -> tuple:
    """The row-major growth sequence of shape, built once per shape."""
    return tuple(shape.boxes())


def _resolve_order(shape: Shape, order, name):
    """Row-major by default, else order checked once, naming its first bad step."""
    if order is None:
        return _row_major(shape)
    order = [tuple(b) for b in order]
    fault = growth_sequence_error(shape, order)
    if fault:
        raise ShapeError(f"{name}: not a valid growth sequence for shape {shape.parts}: {fault}")
    return order


def grsk(arr: ShapedArray, order=None) -> ShapedArray:
    """Row-insertion correspondence K: one rho per box of a growth sequence.

    The output is independent of the choice of growth sequence (a tested
    property); the default is row-major.
    """
    return _run(Grid.of(arr), rho_at, _resolve_order(arr.shape, order, "grsk")).to_array()


def gburge(arr: ShapedArray, order=None) -> ShapedArray:
    """Column-insertion correspondence B: one tau per box of a growth sequence."""
    return _run(Grid.of(arr), tau_at, _resolve_order(arr.shape, order, "gburge")).to_array()


def inv_grsk(arr: ShapedArray, order=None) -> ShapedArray:
    """Inverse of grsk: inverse diagonal maps in the reverse growth order."""
    order = _resolve_order(arr.shape, order, "inv_grsk")
    return _run(Grid.of(arr), inv_rho_at, reversed(order)).to_array()


def inv_gburge(arr: ShapedArray, order=None) -> ShapedArray:
    """Inverse of gburge: inverse diagonal maps in the reverse growth order."""
    order = _resolve_order(arr.shape, order, "inv_gburge")
    return _run(Grid.of(arr), inv_tau_at, reversed(order)).to_array()


def gschutz(arr: ShapedArray) -> ShapedArray:
    """The involution S on an m x n matrix.

    S composes sigma maps along the bottom row in n-1 groups, the group
    (sigma_{m,r} ... sigma_{m,1}) for r = n-1 applied first, down to r = 1.
    It modifies only the lower trapezoidal part and fixes the diagonal
    through the bottom-right corner.
    """
    arr._require_rectangular("the involution")
    m, n = arr.shape.n_rows, arr.shape.n_cols
    boxes = [(m, l) for r in range(n - 1, 0, -1) for l in range(1, r + 1)]
    return _run(Grid.of(arr), sigma_at, boxes).to_array()


def gschutz_upper(arr: ShapedArray) -> ShapedArray:
    """Conjugate of gschutz by transposition; modifies only the upper part."""
    arr._require_rectangular("the involution")
    return gschutz(arr.transpose()).transpose()


def gburge_up(arr: ShapedArray) -> ShapedArray:
    """The column-insertion correspondence restricted to symmetric arrays.

    Equals gburge on a symmetric array, but runs one tau per box on or above
    the diagonal, in row-major order, each mirrored (tau_up_at).  Symmetrized
    prefixes of that order are Young diagrams, which is what the restricted
    map needs.
    """
    arr.require_symmetric("gburge_up")
    return _run(Grid.of(arr), tau_up_at, arr.shape.upper_part()).to_array()


# -- the local commutation relation ---------------------------------------------------


def admissible_commutation_boxes(shape: Shape):
    """Boxes (p,q) where the diagonal-map commutation relation is defined:
    p >= 2 and both (p,q) and (p,q+1) in the shape."""
    return [(p, q) for (p, q) in shape.boxes() if p >= 2 and shape.contains((p, q + 1))]


def commutation_sides(arr: ShapedArray, p: int, q: int):
    """Evaluate both sides of sigma_{p,q} rho_{p,q+1} tau_{p,q}
    = tau_{p,q+1} rho_{p,q} sigma_{p-1,q} e^{p,q+1}_{p,q}."""
    _need(arr.shape, "commutation", p, q, (p - 1, q), (p, q + 1))
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
    return g.rows[i][j - 1] if j >= 2 else g.domain.one


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


def report(test: str, params: dict, stats: dict, passed, diagnostics=None) -> dict:
    """The report of every check, keys in this order: test, the params as
    given, the stats as given, pass, and the diagnostics when there are any.
    A random check ends its params with trials or samples, then seed."""
    out = {"test": test, **params, **stats, "pass": bool(passed)}
    if diagnostics is not None:
        out["diagnostics"] = diagnostics
    return out


def counterexample(inp: ShapedArray, **detail) -> dict:
    """The outcome of a failed comparison, for `run_trials`: the input's
    JSON under "input", then the detail as given."""
    return {"input": inp.to_json_obj(), **detail}


def run_trials(test: str, trial, trials: int, seed: int, **extra) -> dict:
    """The report of a check on `trials` random inputs.

    Trial i calls trial(Random(seed ^ i)), which draws one input and
    returns or yields the outcomes of its comparisons (None for a pass, a
    counterexample for a failure).  The outcome of the trial is its first
    counterexample, or None when every comparison passed; a generator is
    not resumed after its first counterexample, so a trial that must run
    every comparison returns a list.  Seeding with seed ^ i makes nearby
    seeds rerun the same inputs: at 50 trials seeds 0 and 1 share all 50
    generators, and Random(-s) equals Random(s).

    The params are trials and seed.  The stats are failures (the number of
    failed trials), then the extra keys as given, read after the last
    trial, then first_counterexample when any trial failed.  The report
    passes when no trial failed.
    """
    outcomes = (
        next((o for o in trial(random.Random(seed ^ i)) if o is not None), None)
        for i in range(trials)
    )
    failed = [o for o in outcomes if o is not None]
    stats = {"failures": len(failed), **extra}
    if failed:
        stats["first_counterexample"] = failed[0]
    return report(test, {"trials": trials, "seed": seed}, stats, not failed)


def _compare(inp: ShapedArray, lhs: ShapedArray, rhs: ShapedArray, tol):
    """None when lhs equals rhs (within tol for an inexact domain), else the counterexample."""
    if lhs.allclose(rhs, tol):
        return None
    return counterexample(inp, lhs=lhs.to_json_obj(), rhs=rhs.to_json_obj())


def _random_rectangle(rng, max_rows, max_cols):
    return rectangle(rng.randint(1, max_rows), rng.randint(1, max_cols))


def _trial_thm34C(rng, max_rows, max_cols, domain, tol):
    w = random_array(_random_rectangle(rng, max_rows, max_cols), domain, rng)
    yield _compare(w, gburge(w.reverse_cols()), gschutz(grsk(w)), tol)


def _trial_thm34R(rng, max_rows, max_cols, domain, tol):
    w = random_array(_random_rectangle(rng, max_rows, max_cols), domain, rng)
    yield _compare(w, gburge(w.reverse_rows()), gschutz_upper(grsk(w)), tol)


def _trial_thm32(rng, max_rows, max_cols, domain, tol):
    w = random_array(_random_rectangle(rng, max_rows, max_cols), domain, rng)
    yield _compare(w, grsk(w.reverse_rows().reverse_cols()), gschutz_upper(gschutz(grsk(w))), tol)


def _trial_prop33(rng, max_rows, max_cols, domain, tol):
    if max_rows < 2 or max_cols < 2:  # no narrower shape has a commutation box
        raise ValueError("prop3.3 needs 2 rows and 2 columns, the smallest shape with a "
                         f"commutation box; got max size {max_rows}x{max_cols}")
    shape = random_shape(rng, max_rows, max_cols)
    for _ in range(100):
        if admissible_commutation_boxes(shape):
            break
        shape = random_shape(rng, max_rows, max_cols)
    w = random_array(shape, domain, rng)
    for p, q in admissible_commutation_boxes(shape):
        yield _compare(w, *commutation_sides(w, p, q), tol)


def _trial_appendix(rng, max_rows, max_cols, domain, tol):
    n = min(max_rows, max_cols)
    if n < 4:  # below 4x4 no (m, q) is admissible, and the trial would check nothing
        raise ValueError(f"appendix-C-identity runs on n x n arrays, n >= 4; got max size {n}")
    w = random_array(rectangle(n, n), domain, rng)
    for m, q in admissible_composition_params(w.shape):
        yield _compare(w, composition_of_21(w, m, q), w, tol)


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
        yield _compare(w, grsk(w, seq), ref_k, tol)
        yield _compare(w, gburge(w, seq), ref_b, tol)


def _trial_recursion(rng, max_rows, max_cols, domain, tol):
    pool = _shape_pool(min(max_rows * max_cols, 9))
    shape = pool[rng.randrange(len(pool))]
    w = random_array(shape, domain, rng)
    ref_k = grsk(w)
    ref_b = gburge(w)
    for corner in shape.corner_boxes():
        order = [*shape.remove_box(corner).boxes(), corner]  # a list: both maps read it
        yield _compare(w, _run(Grid.of(w), rho_at, order).to_array(), ref_k, tol)
        yield _compare(w, _run(Grid.of(w), tau_at, order).to_array(), ref_b, tol)


def _trial_transpose(rng, max_rows, max_cols, domain, tol):
    w = random_array(random_shape(rng, max_rows, max_cols), domain, rng)
    yield _compare(w, grsk(w.transpose()), grsk(w).transpose(), tol)
    yield _compare(w, gburge(w.transpose()), gburge(w).transpose(), tol)


def _trial_symmetric(rng, max_rows, max_cols, domain, tol):
    bound = min(max_rows, max_cols)
    shape = symmetric_closure(random_shape(rng, bound, bound))
    w = random_symmetric_array(shape, domain, rng)
    t = gburge(w)
    yield _compare(w, t, t.transpose(), tol)
    yield _compare(w, gburge_up(w), t, tol)


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
    max_rows: int | None = None,
    max_cols: int | None = None,
) -> dict:
    """Run one named identity check on random inputs and report the outcome.

    max_size bounds matrix sides (or shape rows/columns);
    appendix-C-identity runs on n x n arrays, n the smaller bound, and
    raises ValueError for n below 4, where no composition is defined, and
    prop3.3 raises it below 2 rows or 2 columns, where no commutation box
    is.  For the order-independence and recursion checks the shape pool is
    instead capped at 9 boxes, with exhaustive growth-sequence enumeration
    up to 8 boxes.  Each of the `trials` inputs is one `run_trials` trial,
    so reports are deterministic.  An exact domain compares with ==, an
    inexact one to relative tolerance tol.  Returns the `run_trials` report.

    None of the nine sees a wrong corner constant: each reports 0 failures
    in a RationalDomain with corner 1/3 (max_size 4, 20 trials, seed 0).
    The path identities prop4.1, prop4.2 and prop4.3 catch it.
    """
    if name not in _TRIALS:
        raise ValueError(f"unknown identity {name!r}; expected one of {sorted(IDENTITY_NAMES)}")
    rows = max_rows if max_rows is not None else max_size
    cols = max_cols if max_cols is not None else max_size
    fn = _TRIALS[name]
    return run_trials(name, lambda rng: fn(rng, rows, cols, domain, tol), trials, seed)


# -- degeneration of the geometric maps to the piecewise-linear ones ---------------------


def tropical_limit_errors(trop_in: ShapedArray, apply_map, epsilons) -> list:
    """Max entrywise gap between eps*log(geometric map at exp(./eps)) and the
    tropical map, for one max-plus input array and each eps in epsilons.

    apply_map (grsk, gburge or gschutz) maps trop_in once in max-plus, then
    in LogDomain(eps) for each eps, on the same rows: the eps*log coordinates
    themselves, so no exp(x/eps) is formed and doubles suffice at every eps.
    """
    trop_out = apply_map(trop_in).rows
    gaps = []
    for eps in epsilons:
        log_out = apply_map(ShapedArray._wrap(trop_in.shape, trop_in.rows, LogDomain(eps))).rows
        gaps.append(max(abs(x - y) for rx, ry in zip(log_out, trop_out) for x, y in zip(rx, ry)))
    return gaps


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
    map on at most 9 boxes performs well under a hundred of them.  Each
    trial draws one input and runs every map on it, failing if any map
    does; max_error_by_eps is the worst gap over all trials and maps.

    It cannot see a wrong geometric corner: with a LogDomain whose corner is
    0 (geometric 1) the worst gaps read 0.139, 0.0139 and 0.00139 at seed 50,
    in budget.  The path identities prop4.1, prop4.2 and prop4.3 catch it.
    """
    epsilons = tuple(sorted(epsilons, reverse=True))
    pool = _shape_pool(max_boxes)
    worst = {str(eps): 0.0 for eps in epsilons}
    maps = (("rsk", grsk), ("burge", gburge), ("schutz", gschutz))

    def trial(rng):
        shape = pool[rng.randrange(len(pool))]
        trop_in = random_array(shape, TROPICAL, rng)
        outcomes = []  # a list, so every map runs and max_error_by_eps sees it
        for kind, apply_map in maps if shape.is_rectangular else maps[:2]:
            errs = tropical_limit_errors(trop_in, apply_map, epsilons)
            errors = {str(eps): err for eps, err in zip(epsilons, errs)}
            worst.update((key, max(worst[key], err)) for key, err in errors.items())
            ok = all(err <= bound_constant * eps for eps, err in zip(epsilons, errs)) and all(
                errs[i + 1] <= errs[i] + 1e-9 for i in range(len(errs) - 1)
            )
            outcomes.append(None if ok else counterexample(trop_in, map=kind, errors=errors))
        return outcomes

    return run_trials("tropical-limit", trial, trials, seed, max_error_by_eps=worst)
