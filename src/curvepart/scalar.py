"""Exact rational scalars used for every coordinate in this package.

All geometry runs on arbitrary-precision rationals kept in lowest terms
with positive denominator, so equality tests in the solvers are exact.
Backed by gmpy2.mpq when available (much faster), stdlib Fraction otherwise.
"""

from fractions import Fraction

from .errors import InputError

try:
    from gmpy2 import mpq as _mpq

    def rat(p, q=None):
        # two-arg mpq only accepts integers; floats convert exactly one-arg
        return _mpq(p) if q is None else _mpq(p, q)

    Scalar = type(_mpq(0))
except ImportError:  # pragma: no cover - exercised only without gmpy2
    def rat(p, q=None):
        # Fractions are immutable: one already in lowest terms is returned
        # as is instead of being rebuilt through Fraction.__new__.
        if q is None:
            return p if type(p) is Fraction else Fraction(p)
        return Fraction(p, q)

    Scalar = Fraction

ZERO = rat(0)
ONE = rat(1)


def parse_rational(text):
    """Parse "p/q", integer, or decimal/scientific text into an exact rational.

    Decimal text is read literally ("0.1" -> 1/10), never through a float.
    """
    try:
        return rat(Fraction(str(text).strip()))
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"not a rational number: {text!r}") from exc


def parse_tolerance(text):
    """parse_rational for a tolerance, which must not be negative."""
    tol = parse_rational(text)
    if tol < 0:
        raise InputError(f"tolerance must not be negative: {text!r}")
    return tol


def format_rational(x):
    """Canonical "p/q" text, always with an explicit denominator."""
    x = rat(x)
    return f"{x.numerator}/{x.denominator}"


def as_float(x):
    return float(x)
