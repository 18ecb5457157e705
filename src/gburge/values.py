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
value type supporting +, *, / and ordering flows through unchanged:
``float``, high-precision floats and the dual numbers used for Jacobians.
Exact ``fractions.Fraction``, the reference domain for identity checks, has
its own op table (``RationalDomain``): each op reads the numerators and
denominators from Fraction's two slots, not through its properties (an int
operand, which has no slots, falls back to the properties), works on them
with the gcd tricks of Knuth, TAOCP vol. 2, 4.5.1, and builds its reduced
result through ``_coprime``, which sets the two slots without a second gcd
or Fraction's type dispatch.  A square, ``otimes(x, x)``, takes no gcd: the
square of a reduced fraction is reduced.  ``LogDomain(eps)``
runs the geometric maps in eps*log coordinates on floats, an entry v
standing for exp(v/eps): its oplus and hsum are eps*logaddexp(x/eps, y/eps)
and -eps*logaddexp(-x/eps, -y/eps) (Maslov dequantization), so the
tropicalization limits, where exp(x/eps) overflows doubles, run in doubles.
``GEOMETRIC_LANES`` runs the same arithmetic on 1-D float arrays, one
element per lane (a block of Monte Carlo samples), so every map runs on a
whole block at once; it checks its preconditions with ``np.all`` and names
the first failing lane.  It holds no serializable values and is not one of
the named ``DOMAINS``.

The max-plus ``TROPICAL`` and ``LogDomain(eps)`` are the two domains of log
coordinates (``LogCoordinates``): every interior entry, and every output, is
a finite float, and their zero -inf lives only on the padded boundary of the
local maps.  The max-plus maps are the classical Burge correspondence on
N-matrices, which have no -inf entries either, and they are bijections on
finite entries only.

Float outputs are checked once, when a map hands back its result
(``check_finite``), not inside the operations: a float map fed finite
entries can still overflow, and that raises instead of returning an
infinity or nan.  It is one pass: a row of floats whose builtin sum lies
strictly between -inf and +inf holds no nan and no infinity, so only a row
failing that test (bad entries, or finite ones whose sum overflows) is
searched for the box to name.  Fractions are not checked.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import gcd as _gcd
from numbers import Real
from typing import Any

import numpy as np

_INF = float("inf")
_NEG_INF = -_INF
_NAN = float("nan")
_LOG_HINT = "entries this large need a log-space domain, LogDomain(eps) for scalars (none for lanes yet)"


class DomainError(ValueError):
    """Raised when a value is outside its domain or an operation is undefined there."""


def _where(r, k) -> str:
    return f"box ({r + 1},{k + 1}) of the map's output"


class ValueDomain:
    """A value domain; use the module-level singletons or LogDomain(eps).

    Each subclass carries one operation table, so no operation branches on
    the kind of domain.
    """

    is_tropical = False
    is_exact = False  # True where entries compare with ==
    holds_arrays = False  # True where an entry is a 1-D array of lanes
    _overflow_hint = f"; {_LOG_HINT}"  # what a check_finite error suggests

    def __init__(self, name: str, corner, zero, one):
        self.name = name
        self.corner = corner
        self.zero = zero
        self.one = one

    def __repr__(self) -> str:
        return f"ValueDomain({self.name!r})"

    def check_finite(self, rows) -> None:
        """Reject a map's output rows holding a float nan, +inf or -inf,
        naming the box (r+1, k+1) of rows[r][k], in one pass (see the module
        docstring).  Exact, mpf and dual-number entries pass untouched."""
        for r, row in enumerate(rows):
            if type(row[0]) is float and -_INF < sum(row) < _INF:
                continue
            for k, x in enumerate(row):
                if type(x) is float and not -_INF < x < _INF:
                    raise DomainError(f"float overflow at {_where(r, k)}: {x!r}{self._overflow_hint}")

    def isclose(self, x, y, rel_tol=1e-12) -> bool:
        """Equality to relative tolerance rel_tol.  An infinity, the zero -inf
        of the log coordinates among them, is close to itself only."""
        if x == y:
            return True
        scale = max(abs(x), abs(y), 1e-300)
        return abs(x - y) <= rel_tol * scale < _INF

    def scalar_to_json(self, x):
        return float(x)

    def scalar_from_json(self, obj):
        return self.coerce(float(obj))


class GeometricDomain(ValueDomain):
    """The positive reals under +, *, / and the harmonic sum.

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

        Exotic numeric types (dual numbers, mpf) pass through untouched, so
        the generic map code can run on them.
        """
        if type(x) is not float and isinstance(x, (int, Fraction)):
            # a plain float skips the isinstance test, slow on the Fraction ABC
            try:
                x = float(x)
            except OverflowError:  # an int or Fraction beyond the double range
                raise DomainError(f"geometric interior entries must be finite, got {x!r}") from None
        try:
            positive = 0 < x < _INF
        except TypeError:  # a str, None or complex: no order with numbers
            raise DomainError(f"geometric interior entries must be real numbers, got {x!r}") from None
        if not positive:
            raise DomainError(f"geometric interior entries must be positive and finite, got {x!r}")
        return x


_new_object = object.__new__


def _coprime(n: int, d: int) -> Fraction:
    """The Fraction n/d of a coprime pair with d > 0, built without a gcd.

    Sets the two slots as Fraction._from_coprime_ints does on Python 3.12+,
    skipping Fraction.__new__'s type dispatch and its normalizing gcd.  An
    unreduced pair would break == and hash, so every caller reduces first.
    """
    f = _new_object(Fraction)
    f._numerator = n
    f._denominator = d
    return f


class RationalDomain(GeometricDomain):
    """The positive rationals: exact Fraction entries, compared with ==.

    Its op table works on numerators and denominators directly, with the
    gcd tricks of Knuth, TAOCP vol. 2, 4.5.1, and builds every result through
    _coprime.  Each op reads its operands' ``_numerator`` and ``_denominator``
    slots under one try, which skips Fraction's property calls; an int
    operand has no such slot, and the AttributeError sends both operands
    through the public numerator and denominator instead.  A square,
    otimes(x, x), is built with no gcd; replica_Z squares an entry on every
    call.
    """

    is_exact = True

    def oplus(self, x, y):
        """a/b + c/d through g = gcd(b, d), then gcd(t, g), as Fraction's own +."""
        try:
            a, b = x._numerator, x._denominator
            c, d = y._numerator, y._denominator
        except AttributeError:  # an int operand
            a, b = x.numerator, x.denominator
            c, d = y.numerator, y.denominator
        g = _gcd(b, d)
        if g == 1:
            return _coprime(a * d + b * c, b * d)
        s = b // g
        t = a * (d // g) + c * s
        g2 = _gcd(t, g)
        if g2 == 1:
            return _coprime(t, s * d)
        return _coprime(t // g2, s * (d // g2))

    def otimes(self, x, y):
        """(a/b)(c/d), cross-cancelled by gcd(a, d) and gcd(c, b).

        A square (y is x) takes no gcd: a/b is reduced, so a*a/(b*b) is too.
        """
        try:
            a, b = x._numerator, x._denominator
            c, d = y._numerator, y._denominator
        except AttributeError:  # an int operand
            a, b = x.numerator, x.denominator
            c, d = y.numerator, y.denominator
        if y is x:
            return _coprime(a * a, b * b)
        g1 = _gcd(a, d)
        g2 = _gcd(c, b)
        return _coprime((a // g1) * (c // g2), (b // g2) * (d // g1))

    def odiv(self, x, y):
        """(a/b)/(c/d) = (a/b)(d/c), cross-cancelled; the zero element may not divide."""
        try:
            a, b = x._numerator, x._denominator
            c, d = y._numerator, y._denominator
        except AttributeError:  # an int operand
            a, b = x.numerator, x.denominator
            c, d = y.numerator, y.denominator
        if c <= 0:
            if not c:
                raise DomainError("geometric division by zero")
            a, c = -a, -c  # keep the denominator positive
        g1 = _gcd(a, c)
        g2 = _gcd(d, b)
        return _coprime((a // g1) * (d // g2), (b // g2) * (c // g1))

    def hsum(self, x, y):
        """Harmonic sum 1/(b/a + d/c) of x = a/b and y = c/d.

        The reciprocals are added as in oplus, through g = gcd(a, c) and then
        gcd(t, g), so no gcd runs on the products.  Denominators are positive,
        so the numerators carry the sign test.
        """
        try:
            a, b = x._numerator, x._denominator
            c, d = y._numerator, y._denominator
        except AttributeError:  # an int operand
            a, b = x.numerator, x.denominator
            c, d = y.numerator, y.denominator
        if not (a > 0 and c > 0):
            raise DomainError(f"hsum needs positive arguments, got {x!r}, {y!r}")
        g = _gcd(a, c)
        if g == 1:
            return _coprime(a * c, b * c + a * d)
        s = a // g
        t = b * (c // g) + d * s
        g2 = _gcd(t, g)
        if g2 == 1:
            return _coprime(s * c, t)
        return _coprime(s * (c // g2), t // g2)

    def coerce(self, x) -> Fraction:
        """Normalize an interior entry to a positive Fraction; floats are refused.

        A positive Fraction is returned as it is; ints and 'p/q' strings are parsed.
        """
        if type(x) is Fraction and x._numerator > 0:
            return x
        if isinstance(x, float):
            raise DomainError(
                f"rational domain rejects floats (got {x!r}); pass Fraction, int or 'p/q'"
            )
        try:
            x = Fraction(x)
        except (TypeError, ValueError, ZeroDivisionError):  # '1/0' is a ZeroDivisionError
            raise DomainError(f"rational entries must be Fraction, int or 'p/q', got {x!r}") from None
        if not x > 0:
            raise DomainError(f"geometric interior entries must be positive and finite, got {x!r}")
        return x

    def isclose(self, x, y, rel_tol=1e-12) -> bool:
        """Exact equality; rel_tol is ignored."""
        return x == y

    def check_finite(self, rows) -> None:
        """Nothing to check: a Fraction is never nan or inf."""

    def scalar_to_json(self, x):
        return str(x)

    def scalar_from_json(self, obj):
        if isinstance(obj, float):
            raise DomainError(f"rational entries must be strings or ints, got {obj!r}")
        return self.coerce(obj)


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

    def check_finite(self, rows) -> None:
        for r, row in enumerate(rows):
            for k, x in enumerate(row):
                bad = ~np.isfinite(x)
                if bad.any():
                    lane = _first(bad)
                    raise DomainError(
                        f"float overflow at {_where(r, k)}: {_lane(x, lane)!r} "
                        f"in lane {lane}; {_LOG_HINT}"
                    )


class LogCoordinates(ValueDomain):
    """What the two domains of log coordinates share, TROPICAL and
    LogDomain(eps): the zero is -inf, and every interior entry and every map
    output is a finite float.  -inf lives only on the padded boundary, and
    isclose (ValueDomain's) finds it close to itself only."""

    _overflow_hint = ""  # these are the log coordinates the hint suggests

    def coerce(self, x) -> float:
        """Normalize an interior entry, a finite real number stored as float."""
        try:
            y = x if type(x) is float else float(x) if isinstance(x, Real) else _NAN
        except OverflowError:  # an int or Fraction beyond the double range
            y = _INF
        if not -_INF < y < _INF:
            raise DomainError(f"{self.name} interior entries must be finite real numbers, got {x!r}")
        return y


class TropicalDomain(LogCoordinates):
    """The max-plus reals: the piecewise-linear limit of the geometric maps."""

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


class LogDomain(LogCoordinates):
    """The positive reals in eps*log coordinates: the entry v stands for exp(v/eps).

    Maslov dequantization at temperature eps: oplus is
    eps*logaddexp(x/eps, y/eps), otimes and odiv are + and -, and hsum is
    -eps*logaddexp(-x/eps, -y/eps).  The constants are the logs of 1/2, 0
    and 1: corner -eps*log(2), zero -inf, one 0.  Entries are finite floats
    at every eps, where the geometric values exp(v/eps) overflow doubles.
    As eps -> 0 the table tends to the tropical one.  Not one of the named
    DOMAINS: it is built for a temperature, and no JSON array is read into it.
    """

    def __init__(self, eps: float):
        if not 0 < eps < _INF:
            raise DomainError(f"the temperature eps must be positive and finite, got {eps!r}")
        super().__init__(f"log-{eps!r}", -eps * math.log(2), _NEG_INF, 0.0)
        self.eps = eps

    def oplus(self, x, y):
        """eps*log(exp(x/eps) + exp(y/eps)).  The zero element -inf is its identity."""
        hi, lo = (x, y) if x >= y else (y, x)
        if lo == _NEG_INF:
            return hi
        return hi + self.eps * math.log1p(math.exp((lo - hi) / self.eps))

    def otimes(self, x, y):
        """Log of a product."""
        return x + y

    def odiv(self, x, y):
        """Log of a quotient; the zero element -inf may not divide."""
        if y == _NEG_INF:
            raise DomainError("geometric division by zero")
        return x - y

    def hsum(self, x, y):
        """-eps*log(exp(-x/eps) + exp(-y/eps)), the log of the harmonic sum.

        Neither argument may be the zero element -inf, as in the geometric domains.
        """
        if x == _NEG_INF or y == _NEG_INF:
            raise DomainError(f"hsum needs positive arguments, got log-domain {x!r}, {y!r}")
        lo, hi = (x, y) if x <= y else (y, x)
        return lo - self.eps * math.log1p(math.exp((lo - hi) / self.eps))


GEOMETRIC_RATIONAL = RationalDomain("geom-rational", Fraction(1, 2), Fraction(0), Fraction(1))
GEOMETRIC_FLOAT = GeometricDomain("geom-float", 0.5, 0.0, 1.0)
TROPICAL = TropicalDomain("tropical", 0.0, _NEG_INF, 0.0)
# Not in DOMAINS: lane arrays are built by the samplers, never parsed by name.
GEOMETRIC_LANES = GeometricLanes("geom-lanes", 0.5, 0.0, 1.0)

DOMAINS = {d.name: d for d in (GEOMETRIC_RATIONAL, GEOMETRIC_FLOAT, TROPICAL)}


def domain_by_name(name: str) -> ValueDomain:
    try:
        return DOMAINS[name]
    except KeyError:
        raise DomainError(f"unknown domain {name!r}; expected one of {sorted(DOMAINS)}") from None
