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
doubles) and the dual numbers used for Jacobians.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any

_INF = float("inf")
_NEG_INF = -_INF


class DomainError(ValueError):
    """Raised when a value is outside its domain or an operation is undefined there."""


class ValueDomain:
    """One of the three value domains; use the module-level singletons.

    The subclasses GeometricDomain and TropicalDomain each carry one operation
    table, so no operation branches on the kind of domain.
    """

    is_tropical = False

    def __init__(self, name: str, exact: bool, corner, zero, one):
        self.name = name
        self.is_exact = exact
        self.corner = corner
        self.zero = zero
        self.one = one

    def __repr__(self) -> str:
        return f"ValueDomain({self.name!r})"

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

DOMAINS = {d.name: d for d in (GEOMETRIC_RATIONAL, GEOMETRIC_FLOAT, TROPICAL)}


def domain_by_name(name: str) -> ValueDomain:
    try:
        return DOMAINS[name]
    except KeyError:
        raise DomainError(f"unknown domain {name!r}; expected one of {sorted(DOMAINS)}") from None
