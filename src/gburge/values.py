"""Value domains for the geometric and tropical settings.

All maps in this package are written once against four abstract operations

    oplus   geometric x + y          tropical max(x, y)
    otimes  geometric x * y          tropical x + y
    odiv    geometric x / y          tropical x - y
    hsum    geometric (1/x+1/y)^-1   tropical min(x, y)

together with three constants: ``corner`` (the boundary value at (0,1) and
(1,0)), ``zero`` (the oplus identity, used for all other boundary indices)
and ``one`` (the otimes identity).  Substituting one operation table for the
other turns every birational map here into its piecewise-linear counterpart;
the convergence of the geometric maps to the tropical ones under
eps*log(.(exp(x/eps))) is a tested property, not an assumption.

The geometric arithmetic is written with plain Python operators, so any
value type supporting +, *, / and ordering flows through unchanged: exact
``fractions.Fraction`` (the reference domain for identity checks), ``float``,
``mpmath.mpf`` (for tropicalization limits, where exp(x/eps) overflows
doubles) and the dual numbers used for Jacobians.  ``GEOMETRIC_LANES`` runs
the same arithmetic on 1-D float arrays, one element per lane (a block of
Monte Carlo samples), so every map runs on a whole block at once; it checks
its preconditions with ``np.all`` and names the first failing lane.  It
holds no serializable values and is not one of the named ``DOMAINS``.

Float outputs are checked once, when a map hands back its result
(``check_finite``), not inside the operations: a float map fed finite
entries can still overflow, and that raises instead of returning inf or nan.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any

import numpy as np

_INF = float("inf")
_NEG_INF = -_INF
_LOG_HINT = "entries of this size need a log-space domain, which is not implemented yet"


class DomainError(ValueError):
    """Raised when a value is outside its domain or an operation is undefined there."""


def _where(box, r, k) -> str:
    return "box ({},{}) of the map's output".format(*box(r, k))


class ValueDomain:
    """One of the three value domains; use the module-level singletons.

    The subclasses GeometricDomain and TropicalDomain each carry one operation
    table, so no operation branches on the kind of domain.
    """

    is_tropical = False
    holds_arrays = False  # True where an entry is a 1-D array of lanes

    def __init__(self, name: str, exact: bool, corner, zero, one):
        self.name = name
        self.is_exact = exact
        self.corner = corner
        self.zero = zero
        self.one = one

    def __repr__(self) -> str:
        return f"ValueDomain({self.name!r})"

    def check_finite(self, rows, box) -> None:
        """Reject a map's output rows holding a float nan or +inf, naming
        box(r, k), the box of rows[r][k].  Exact, mpf and dual-number entries
        pass untouched."""
        for r, row in enumerate(rows):
            for x in row:
                if type(x) is float and not x < _INF:
                    k = next(k for k, y in enumerate(row) if y is x)
                    raise DomainError(f"float overflow at {_where(box, r, k)}: {x!r}; {_LOG_HINT}")

    def isclose(self, x, y, rel_tol=1e-12) -> bool:
        """Equality for exact domains, relative tolerance otherwise."""
        if self.is_exact:
            return x == y
        if x == y:
            return True
        scale = max(abs(x), abs(y), 1e-300)
        return abs(x - y) <= rel_tol * scale


class GeometricDomain(ValueDomain):
    """The positive reals (or rationals) under +, *, / and the harmonic sum.

    The arithmetic is written with plain operators, so Fraction, float, mpf
    and dual-number entries all flow through the same code.
    """

    def oplus(self, x, y):
        """Geometric sum.  The zero element is its identity."""
        return x + y

    def otimes(self, x, y):
        """Geometric product."""
        return x * y

    def odiv(self, x, y):
        """Geometric quotient; the zero element may not divide."""
        try:
            return x / y
        except ZeroDivisionError:
            raise DomainError("geometric division by zero") from None

    def hsum(self, x, y):
        """Harmonic sum xy/(x+y).

        Arguments must be strictly positive: the boundary zero reaching an
        hsum signals a shape-logic bug upstream.
        """
        if not (x > 0 and y > 0):
            raise DomainError(f"hsum needs positive arguments, got {x!r}, {y!r}")
        return x * y / (x + y)

    def coerce(self, x) -> Any:
        """Normalize an interior entry, which must be positive and finite.

        Exotic numeric types (dual numbers, mpf) pass through untouched in the
        float domain, so the generic map code can run on them.
        """
        if self.is_exact:
            if isinstance(x, float):
                raise DomainError(
                    f"rational domain rejects floats (got {x!r}); pass Fraction, int or 'p/q'"
                )
            x = Fraction(x)
        elif isinstance(x, (int, Fraction)):
            x = float(x)
        if not 0 < x < _INF:
            raise DomainError(f"geometric interior entries must be positive and finite, got {x!r}")
        return x

    def scalar_to_json(self, x):
        return str(x) if self.is_exact else float(x)

    def scalar_from_json(self, obj):
        if self.is_exact:
            if isinstance(obj, float):
                raise DomainError(f"rational entries must be strings or ints, got {obj!r}")
            return self.coerce(Fraction(obj))
        return self.coerce(float(obj))


def _first(bad) -> int:
    """Index of the first True lane of a boolean mask (0 for a scalar)."""
    return int(np.flatnonzero(bad)[0])


def _lane(x, k):
    return float(x[k]) if np.ndim(x) else x


class GeometricLanes(GeometricDomain):
    """The float geometric domain on 1-D arrays, one element per lane.

    oplus and otimes are inherited: on arrays they are the same IEEE
    operations, lane by lane, as on floats.  The constants stay scalars and
    broadcast.  Every precondition is checked over all lanes at once, and a
    DomainError names the first lane that fails it.  Maps on lane arrays run
    under one np.errstate per call (correspondences._run), so an overflowing
    lane raises from check_finite with no numpy warning first.
    """

    holds_arrays = True

    def odiv(self, x, y):
        """Geometric quotient; no lane of the divisor may be the zero element."""
        zero = np.equal(y, 0.0)
        if zero.any():
            raise DomainError(f"geometric division by zero in lane {_first(zero)}")
        return x / y

    def hsum(self, x, y):
        """Harmonic sum xy/(x+y); every lane of both arguments must be positive."""
        ok = np.minimum(x, y) > 0.0  # a nan in either argument fails too
        if not ok.all():
            k = _first(~ok)
            raise DomainError(
                f"hsum needs positive arguments, got {_lane(x, k)!r}, {_lane(y, k)!r} in lane {k}"
            )
        return x * y / (x + y)

    def coerce(self, x) -> Any:
        """Normalize an interior entry, a 1-D array of positive finite floats."""
        x = np.asarray(x, dtype=float)
        if x.ndim != 1:
            raise DomainError(f"lane entries must be 1-D arrays, got shape {x.shape}")
        ok = (x > 0.0) & (x < _INF)
        if not ok.all():
            k = _first(~ok)
            raise DomainError(
                "geometric interior entries must be positive and finite, "
                f"got {float(x[k])!r} in lane {k}"
            )
        return x

    def check_finite(self, rows, box) -> None:
        for r, row in enumerate(rows):
            for k, x in enumerate(row):
                bad = ~np.isfinite(x)
                if bad.any():
                    lane = _first(bad)
                    raise DomainError(
                        f"float overflow at {_where(box, r, k)}: {_lane(x, lane)!r} "
                        f"in lane {lane}; {_LOG_HINT}"
                    )


class TropicalDomain(ValueDomain):
    """The max-plus reals with -inf: the piecewise-linear limit of the geometric maps."""

    is_tropical = True

    def oplus(self, x, y):
        """Tropical max.  The zero element -inf is its identity."""
        return x if x >= y else y

    def otimes(self, x, y):
        """Tropical sum."""
        return x + y

    def odiv(self, x, y):
        """Tropical difference; -inf may not divide."""
        if y == _NEG_INF:
            raise DomainError("tropical division by -inf")
        return x - y

    def hsum(self, x, y):
        """Tropical min."""
        return x if x <= y else y

    def coerce(self, x) -> Any:
        """Normalize an interior entry, which must be real or -inf."""
        if isinstance(x, (int, float)):
            x = float(x)
            if x != x or x == _INF:
                raise DomainError(f"tropical entry must be real or -inf, got {x!r}")
        return x

    def isclose(self, x, y, rel_tol=1e-12) -> bool:
        if x == _NEG_INF or y == _NEG_INF:
            return x == y
        return super().isclose(x, y, rel_tol)

    def scalar_to_json(self, x):
        return "-inf" if x == _NEG_INF else float(x)

    def scalar_from_json(self, obj):
        if obj == "-inf":
            return _NEG_INF
        return self.coerce(float(obj))


GEOMETRIC_RATIONAL = GeometricDomain("geom-rational", True, Fraction(1, 2), Fraction(0), Fraction(1))
GEOMETRIC_FLOAT = GeometricDomain("geom-float", False, 0.5, 0.0, 1.0)
TROPICAL = TropicalDomain("tropical", False, 0.0, _NEG_INF, 0.0)
# Not in DOMAINS: lane arrays are built by the samplers, never parsed by name.
GEOMETRIC_LANES = GeometricLanes("geom-lanes", False, 0.5, 0.0, 1.0)

DOMAINS = {d.name: d for d in (GEOMETRIC_RATIONAL, GEOMETRIC_FLOAT, TROPICAL)}


def domain_by_name(name: str) -> ValueDomain:
    try:
        return DOMAINS[name]
    except KeyError:
        raise DomainError(f"unknown domain {name!r}; expected one of {sorted(DOMAINS)}") from None
