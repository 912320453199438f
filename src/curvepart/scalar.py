"""Exact rational scalars used for every coordinate in this package.

All geometry runs on arbitrary-precision rationals kept in lowest terms
with positive denominator, so equality tests in the solvers are exact.
The one backend is the standard library's `fractions.Fraction`: `Scalar`
names it and `rat` builds it.

Kernel costs of the integer helpers the exact kernels share, each reading
a rational as its (numerator, denominator) pair, the denominator positive:

- offset(level, p0, p1): six integer products, no Fraction and no gcd.
- lerp(lam, q0, q1): integer products and one Fraction, normalised once
  (one gcd).
- check_unit_range(values, ...): two integer comparisons per value; the
  minimum and maximum are formed only for the error text.
"""

import re
from fractions import Fraction
from numbers import Rational

from .errors import InputError

Scalar = Fraction


def rat(p, q=None):
    # Fractions are immutable: one already in lowest terms is returned as
    # is instead of being rebuilt through Fraction.__new__.
    if q is None:
        return p if type(p) is Fraction else Fraction(p)
    return Fraction(p, q)


ZERO = rat(0)
ONE = rat(1)


def offset(level, p0, p1):
    """(level - p0) / (p1 - p0), p0 != p1, as an integer pair (num, den):
    a fraction of a segment, from integer products of the three values'
    numerators and denominators.  No Fraction is built and no gcd taken;
    den may be negative, and num is 0 exactly when level == p0."""
    a, b = level.numerator, level.denominator
    c, d = p0.numerator, p0.denominator
    e, f = p1.numerator, p1.denominator
    return (a * d - c * b) * f, (e * d - c * f) * b


def lerp(lam, q0, q1):
    """q0 + lam (q1 - q0) for a fraction lam = (num, den) from `offset`,
    as one Fraction built from integer products and normalised once, to
    lowest terms with a positive denominator."""
    num, den = lam
    g, h = q0.numerator, q0.denominator
    i, j = q1.numerator, q1.denominator
    return Fraction(g * den * j + num * (i * h - g * j), den * j * h)


def check_unit_range(values, what, error):
    """Raise error("<what> range [lo, hi] escapes [0,1]") when any of the
    rationals `values` (a sequence) lies outside [0, 1].  p/q lies in
    [0, 1] exactly when 0 <= p <= q, as q > 0, so no Fraction is compared;
    lo and hi, the values' minimum and maximum, are formed only for the
    message."""
    for v in values:
        p = v.numerator
        if p < 0 or p > v.denominator:
            raise error(f"{what} range [{min(values)}, {max(values)}] "
                        "escapes [0,1]")

# Largest decimal exponent magnitude parse_rational accepts: CPython's
# default cap on the digits int() reads, which already bounds "p/q" text.
# Fraction expands an exponent e into 10**|e|, so an unbounded one costs
# time and memory that grow with its value, not with the text's length.
MAX_DECIMAL_EXPONENT = 4300
_EXPONENT = re.compile(r"[eE]([-+]?\d[\d_]*)\s*\Z")


def parse_rational(text):
    """Parse "p/q", integer, or decimal/scientific text into an exact rational.

    Decimal text is read literally ("0.1" -> 1/10), never through a float.
    An exponent beyond MAX_DECIMAL_EXPONENT in magnitude is refused.  An
    int or other rational (not a bool) converts exactly, never through
    text, so int's digit cap does not apply to it.
    """
    if isinstance(text, Rational) and not isinstance(text, bool):
        return rat(text)
    try:
        text = str(text).strip()
        exp = _EXPONENT.search(text)
        if exp and abs(int(exp.group(1))) > MAX_DECIMAL_EXPONENT:
            raise InputError(f"decimal exponent of {text!r} exceeds "
                             f"{MAX_DECIMAL_EXPONENT} in magnitude")
        return rat(Fraction(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"not a rational number: {text!r}") from exc


def parse_tolerance(text):
    """parse_rational for a tolerance, which must not be negative."""
    tol = parse_rational(text)
    if tol < 0:
        # a rational may have too many digits to print
        shown = "" if isinstance(text, Rational) else f": {text!r}"
        raise InputError(f"tolerance must not be negative{shown}")
    return tol


def format_rational(x):
    """Canonical "p/q" text, always with an explicit denominator."""
    x = rat(x)
    return f"{x.numerator}/{x.denominator}"


def as_float(x):
    return float(x)
