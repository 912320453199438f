"""Continuous piecewise-linear functions on [0,1] with exact arithmetic.

Everything here is a pure function over immutable values.  Canonical form
(no breakpoint collinear with its neighbors) is restored by every
constructor so piece counts stay minimal through long composition chains.

Kernel costs, for f with m pieces, g with k pieces and r result pieces
(each step is O(1) exact rational operations).  Every value read inside a
piece, by any of them, is one Fraction from integer products, normalised
once (`scalar.offset`, `scalar.lerp`):

- canonical(rows): O(r k) for r rows of k value columns; it reads each
  row's numerators and denominators once, checks that the times increase
  and tests collinearity with integer cross-products, building no
  Fraction and taking no gcd.  The induction passes each level's rows
  (t, x, y) once, and each climb profile's rows up to t_stop once.
- PLFunction(...): O(m), `canonical` with one value column; the knot
  tuple is built once.
- pl_eval(f, t): O(log m), a bisection of the cached knots; t's range is
  tested on its integer parts.  A solve makes 2(n - 1) + 2 calls, on
  tables whose denominators grow with n (`PartitioningFunctions.xs_at`).
- compose(outer, inner): O(k log m + r); the inner range is tested on
  integer parts (`scalar.check_unit_range`), each inner knot bisects the
  outer knots once, and each inner piece emits the outer knots it crosses
  in t-order, taking their values from the outer breakpoints.  No solve
  composes; `PartitioningFunctions.xs` does.
- pl_combine(f, g, op) and union_knot_values(f, g): O(m + k), one
  merge-walk over the two sorted breakpoint lists, one interpolation per
  knot of one function that the other lacks.
- clamp_to_unit(f): O(m), one interpolation per crossing of level 0 or 1.
- level_set(f, c): O(m), one pass over the pieces in t order that emits
  the items already ordered and merged; nothing is sorted.  The induction
  does not call it: it finds each t_stop on its row table.
- pl_window(f, lo, hi): O(m); two evaluations for the ends, and f's own
  breakpoint values in between.  Its one caller is
  `plcurve.normalize_tail`; the induction walks each closing sum in its
  own parameter, with no window.
"""

from bisect import bisect_right
from dataclasses import dataclass

from .errors import DomainError, PreconditionError
from .scalar import ONE, ZERO, check_unit_range, lerp, offset, rat


def canonical(rows):
    """Drop the interior rows (t, v_1, ..., v_k) at which no column bends:
    a row goes when every column is collinear with both neighbours.

    The rows of one function, (t, v), give its canonical form; the rows
    of several functions on shared times, (t, f(t), g(t)), keep exactly
    the union of their canonical forms' knots, the rows
    `union_knot_values` builds from those forms.  Raises
    PreconditionError unless the times strictly increase.  The kept rows
    are the input's own tuples.

    Each rational is read as its (numerator, denominator) pair, t_i =
    a_i / b_i and v_i = c_i / d_i with b_i, d_i > 0.  Times are compared
    as a0 b1 < a1 b0, and a column's collinearity (t1 - t0)(v2 - v0) ==
    (t2 - t0)(v1 - v0) is tested with both sides multiplied by the
    positive integer b0 b1 b2 d0 d1 d2, so only integer products are
    formed: no Fraction is built and no gcd is taken.  The time factors
    are formed once per test, for every column.
    """
    out = []
    parts = []  # parts[i] = out[i] as (numerator, denominator) pairs
    for row in rows:
        q = [(v.numerator, v.denominator) for v in row]
        a2, b2 = q[0]
        if not parts:
            columns = range(1, len(q))
        else:
            # parts[-1] is the previous input row: a row is popped only
            # after the next one is read
            a1, b1 = parts[-1][0]
            if a1 * b2 >= a2 * b1:
                raise PreconditionError(
                    f"breakpoint times not strictly increasing at t={row[0]}")
        while len(out) >= 2:
            r0, r1 = parts[-2], parts[-1]
            (a0, b0), (a1, b1) = r0[0], r1[0]
            dt1 = (a1 * b0 - a0 * b1) * b2
            dt2 = (a2 * b0 - a0 * b2) * b1
            for c in columns:
                (c0, d0), (c1, d1), (c2, d2) = r0[c], r1[c], q[c]
                if (dt1 * (c2 * d0 - c0 * d2) * d1
                        != dt2 * (c1 * d0 - c0 * d1) * d2):
                    break
            else:
                out.pop()
                parts.pop()
                continue
            break
        out.append(row)
        parts.append(q)
    return out


@dataclass(frozen=True)
class PLFunction:
    """Breakpoints ((t, v), ...) with t strictly increasing from 0 to 1.

    `knots`, the tuple of breakpoint times, is derived once at construction;
    it is not a dataclass field, so it takes no part in ==, hash or repr.
    """

    breakpoints: tuple

    def __init__(self, breakpoints):
        pts = [(rat(t), rat(v)) for t, v in breakpoints]
        if len(pts) < 2:
            raise PreconditionError("a PL function needs at least two breakpoints")
        if pts[0][0] != 0 or pts[-1][0] != 1:
            raise PreconditionError("breakpoints must span t = 0 .. 1")
        pts = tuple(canonical(pts))
        object.__setattr__(self, "breakpoints", pts)
        object.__setattr__(self, "knots", tuple(t for t, _ in pts))

    @property
    def values(self):
        return tuple(v for _, v in self.breakpoints)

    def __call__(self, t):
        return pl_eval(self, t)


def identity():
    return PLFunction(((ZERO, ZERO), (ONE, ONE)))


def pl_eval(f, t):
    """Exact value of f at t; t must lie in [0, 1].  f may be any
    breakpoint table with `breakpoints` and their times, `knots`."""
    t = rat(t)
    p = t.numerator
    if p < 0 or p > t.denominator:
        raise DomainError(f"argument {t} outside [0,1]", witness=t)
    pts = f.breakpoints
    idx = bisect_right(f.knots, t) - 1
    if idx >= len(pts) - 1:
        idx = len(pts) - 2
    t0, v0 = pts[idx]
    t1, v1 = pts[idx + 1]
    lam = offset(t, t0, t1)
    if lam[0] == 0:  # t == t0
        return v0
    return lerp(lam, v0, v1)


def level_set(f, c):
    """All solutions of f(t) = c: ordered isolated roots (lo == hi) and
    maximal flat intervals (lo < hi), pairwise disjoint.

    One pass over the pieces in t order.  A piece meets level c in at most
    one item (the whole piece when it is flat at c, else one point); that
    item extends the previous one when it starts where the previous ends,
    and is appended otherwise.
    """
    c = rat(c)
    items = []
    pts = f.breakpoints
    for (t0, v0), (t1, v1) in zip(pts, pts[1:]):
        if v0 == c:
            lo, hi = t0, (t1 if v1 == c else t0)
        elif v1 == c:
            lo = hi = t1
        elif (v0 < c) != (v1 < c):
            lo = hi = lerp(offset(c, v0, v1), t0, t1)
        else:
            continue
        if items and items[-1][1] == lo:
            items[-1] = (items[-1][0], hi)
        else:
            items.append((lo, hi))
    return items


def compose(outer, inner):
    """Exact composition outer(inner(t)) as a canonical PL function.

    The range of inner must stay inside [0,1], the domain of outer.  Only
    `breakpoints` (and outer's `knots`) are read, so either may be a
    breakpoint table that no canonical pass has seen.
    """
    check_unit_range([v for _, v in inner.breakpoints], "inner", DomainError)
    # The result breaks at every inner knot and wherever an inner piece
    # crosses an outer knot; a crossing takes that outer breakpoint's value.
    # One bisection per inner knot serves both its value and the crossings.
    us, obp = outer.knots, outer.breakpoints
    out = []
    prev = None
    for t, v in inner.breakpoints:
        hi = bisect_right(us, v)  # us[:hi] <= v; hi >= 1 as v >= 0 = us[0]
        on_knot = us[hi - 1] == v
        lo = hi - 1 if on_knot else hi  # us[:lo] < v
        if prev is not None:
            t0, v0, lo0, hi0 = prev
            if v0 < v:
                crossed = range(hi0, lo)
            elif v < v0:
                crossed = range(lo0 - 1, hi - 1, -1)
            else:
                crossed = ()
            for i in crossed:
                u, w = obp[i]
                out.append((lerp(offset(u, v0, v), t0, t), w))
        if on_knot:
            w = obp[hi - 1][1]
        else:
            (u0, w0), (u1, w1) = obp[hi - 1], obp[hi]
            w = lerp(offset(v, u0, u1), w0, w1)
        out.append((t, w))
        prev = (t, v, lo, hi)
    return PLFunction(out)


def clamp_to_unit(f):
    """min(max(f, 0), 1): f's breakpoints clamped, plus a breakpoint
    wherever a piece crosses level 0 or 1."""
    pts = f.breakpoints
    out = [pts[0]]
    for (t0, v0), (t1, v1) in zip(pts, pts[1:]):
        out += sorted((lerp(offset(u, v0, v1), t0, t1), u)
                      for u in (ZERO, ONE) if min(v0, v1) < u < max(v0, v1))
        out.append((t1, v1))
    return PLFunction([(t, min(max(v, ZERO), ONE)) for t, v in out])


def union_knot_values(f, g):
    """[(t, f(t), g(t)), ...] over the sorted union of both knot sets.

    One merge-walk: a knot of one function that the other lacks lies inside
    the other's current piece, which is interpolated there.  Only
    `breakpoints` are read, so either may be a breakpoint table; a time
    both share as one object is matched by identity, with no comparison.
    """
    fp, gp = f.breakpoints, g.breakpoints
    out = []
    i = j = 0
    while i < len(fp):
        tf, vf = fp[i]
        tg, vg = gp[j]
        if tf is tg or tf == tg:
            out.append((tf, vf, vg))
            i += 1
            j += 1
        elif tf < tg:
            s0, w0 = gp[j - 1]
            out.append((tf, vf, lerp(offset(tf, s0, tg), w0, vg)))
            i += 1
        else:
            s0, w0 = fp[i - 1]
            out.append((tg, lerp(offset(tg, s0, tf), w0, vf), vg))
            j += 1
    return out


def pl_combine(f, g, op):
    """Pointwise combination of two PL functions over their union knots.

    Valid only for combinations that stay linear between knots (sums,
    differences, affine mixes).
    """
    return PLFunction([(t, op(a, b)) for t, a, b in union_knot_values(f, g)])


def pl_sub(f, g):
    return pl_combine(f, g, lambda a, b: a - b)


def pl_scale_values(f, c, offset=ZERO):
    c = rat(c)
    offset = rat(offset)
    return PLFunction([(t, c * v + offset) for t, v in f.breakpoints])


def pl_window(f, lo, hi):
    """g(t) = f(lo + (hi - lo) t): the window [lo, hi] spread onto [0, 1].

    Inside the window g keeps f's own breakpoint values; only the two ends
    are interpolated.
    """
    lo, hi = rat(lo), rat(hi)
    if not 0 <= lo < hi <= 1:
        raise PreconditionError(f"window [{lo}, {hi}] is not inside [0,1]")
    w = hi - lo
    pts = [(ZERO, pl_eval(f, lo))]
    pts += [((t - lo) / w, v) for t, v in f.breakpoints if lo < t < hi]
    pts.append((ONE, pl_eval(f, hi)))
    return PLFunction(pts)
