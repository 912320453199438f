"""Continuous piecewise-linear functions on [0,1] with exact arithmetic.

Everything here is a pure function over immutable values.  Canonical form
(no breakpoint collinear with its neighbors) is restored by every
constructor so piece counts stay minimal through long composition chains.

Kernel costs, for f with m pieces, g with k pieces and r result pieces
(each step is O(1) exact rational operations):

- PLFunction(...): O(m); canonicalization reads each point's numerators and
  denominators once and tests collinearity with integer cross-products
  (`_collinear`), building no Fraction and taking no gcd; the knot tuple is
  built once.
- pl_eval(f, t): O(log m), a bisection of the cached knots.
- compose(outer, inner): O(k log m + r); each inner knot bisects the outer
  knots once, and each inner piece emits the outer knots it crosses in
  t-order, taking their values from the outer breakpoints.
- pl_combine(f, g, op) and union_knot_values(f, g): O(m + k), one
  merge-walk over the two sorted breakpoint lists.
"""

from bisect import bisect_right
from dataclasses import dataclass

from .errors import DomainError, PreconditionError
from .scalar import ONE, ZERO, rat


def _parts(x):
    return x.numerator, x.denominator


def _collinear(t0, t1, t2, v0, v1, v2):
    """Whether (t0, v0), (t1, v1), (t2, v2) lie on one line.

    Each argument is a rational as its (numerator, denominator) pair,
    t_i = a_i / b_i and v_i = c_i / d_i with b_i, d_i > 0.  The equation
    (t1 - t0)(v2 - v0) == (t2 - t0)(v1 - v0) is tested with both sides
    multiplied by the positive integer b0 b1 b2 d0 d1 d2, so only integer
    products are formed: no Fraction is built and no gcd is taken.
    """
    (a0, b0), (a1, b1), (a2, b2) = t0, t1, t2
    (c0, d0), (c1, d1), (c2, d2) = v0, v1, v2
    return ((a1 * b0 - a0 * b1) * (c2 * d0 - c0 * d2) * b2 * d1
            == (a2 * b0 - a0 * b2) * (c1 * d0 - c0 * d1) * b1 * d2)


def _canonical(points):
    """Drop interior breakpoints collinear with both neighbors.

    The kept points are the input's own (t, v) tuples.
    """
    out = []
    parts = []  # parts[i] = (t, v) of out[i] as (numerator, denominator) pairs
    for p in points:
        q = (_parts(p[0]), _parts(p[1]))
        while len(out) >= 2:
            (t0, v0), (t1, v1) = parts[-2], parts[-1]
            if not _collinear(t0, t1, q[0], v0, v1, q[1]):
                break
            out.pop()
            parts.pop()
        out.append(p)
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
        for (t0, _), (t1, _) in zip(pts, pts[1:]):
            if not t0 < t1:
                raise PreconditionError(f"breakpoint times not strictly increasing at t={t1}")
        pts = tuple(_canonical(pts))
        object.__setattr__(self, "breakpoints", pts)
        object.__setattr__(self, "knots", tuple(t for t, _ in pts))

    @property
    def values(self):
        return tuple(v for _, v in self.breakpoints)

    def __call__(self, t):
        return pl_eval(self, t)

    def range_bounds(self):
        vs = self.values
        return min(vs), max(vs)


def identity():
    return PLFunction(((ZERO, ZERO), (ONE, ONE)))


def pl_eval(f, t):
    """Exact value of f at t; t must lie in [0, 1]."""
    t = rat(t)
    if t < 0 or t > 1:
        raise DomainError(f"argument {t} outside [0,1]", witness=t)
    pts = f.breakpoints
    idx = bisect_right(f.knots, t) - 1
    if idx >= len(pts) - 1:
        idx = len(pts) - 2
    t0, v0 = pts[idx]
    t1, v1 = pts[idx + 1]
    if t == t0:
        return v0
    return v0 + (v1 - v0) * (t - t0) / (t1 - t0)


def _piece_solutions(t0, v0, t1, v1, c):
    """Solutions of the linear piece hitting level c, as (lo, hi) items."""
    if v0 == c and v1 == c:
        return [(t0, t1)]
    hits = []
    if v0 == c:
        hits.append((t0, t0))
    if v1 == c:
        hits.append((t1, t1))
    if (v0 < c < v1) or (v1 < c < v0):
        r = t0 + (c - v0) * (t1 - t0) / (v1 - v0)
        hits.append((r, r))
    return hits


def _merge_items(items):
    items = sorted(items)
    out = []
    for lo, hi in items:
        if out and lo <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], hi))
        else:
            out.append((lo, hi))
    return [tuple(it) for it in out]


def level_set(f, c):
    """All solutions of f(t) = c: ordered isolated roots (lo == hi) and
    maximal flat intervals (lo < hi), pairwise disjoint."""
    c = rat(c)
    items = []
    pts = f.breakpoints
    for (t0, v0), (t1, v1) in zip(pts, pts[1:]):
        items.extend(_piece_solutions(t0, v0, t1, v1, c))
    return _merge_items(items)


def compose(outer, inner):
    """Exact composition outer(inner(t)) as a canonical PL function.

    The range of inner must stay inside [0,1], the domain of outer.
    """
    lo, hi = inner.range_bounds()
    if lo < 0 or hi > 1:
        raise DomainError(f"inner range [{lo}, {hi}] escapes [0,1]")
    return _compose_unchecked(outer, inner)


def _compose_unchecked(outer, inner):
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
            if crossed:
                slope = (t - t0) / (v - v0)
                for i in crossed:
                    u, w = obp[i]
                    out.append((t0 + (u - v0) * slope, w))
        if on_knot:
            w = obp[hi - 1][1]
        else:
            (u0, w0), (u1, w1) = obp[hi - 1], obp[hi]
            w = w0 + (w1 - w0) * (v - u0) / (u1 - u0)
        out.append((t, w))
        prev = (t, v, lo, hi)
    return PLFunction(out)


def compose_clamped(outer, inner):
    """outer(clamp(inner(t), 0, 1)); used when inner may over/undershoot."""
    return _compose_unchecked(outer, clamp_to_unit(inner))


def clamp_to_unit(f):
    knots = set(f.knots)
    pts = f.breakpoints
    for (t0, v0), (t1, v1) in zip(pts, pts[1:]):
        if v0 == v1:
            continue
        vlo, vhi = (v0, v1) if v0 < v1 else (v1, v0)
        for u in (ZERO, ONE):
            if vlo < u < vhi:
                knots.add(t0 + (u - v0) * (t1 - t0) / (v1 - v0))

    def clamp(v):
        return ZERO if v < 0 else ONE if v > 1 else v

    return PLFunction([(t, clamp(pl_eval(f, t))) for t in sorted(knots)])


def union_knot_values(f, g):
    """[(t, f(t), g(t)), ...] over the sorted union of both knot sets.

    One merge-walk: a knot of one function that the other lacks lies inside
    the other's current piece, which is interpolated there.
    """
    fp, gp = f.breakpoints, g.breakpoints
    out = []
    i = j = 0
    while i < len(fp):
        tf, vf = fp[i]
        tg, vg = gp[j]
        if tf == tg:
            out.append((tf, vf, vg))
            i += 1
            j += 1
        elif tf < tg:
            s0, w0 = gp[j - 1]
            out.append((tf, vf, w0 + (vg - w0) * (tf - s0) / (tg - s0)))
            i += 1
        else:
            s0, w0 = fp[i - 1]
            out.append((tg, w0 + (vf - w0) * (tg - s0) / (tf - s0), vg))
            j += 1
    return out


def pl_combine(f, g, op):
    """Pointwise combination of two PL functions over their union knots.

    Valid only for combinations that stay linear between knots (sums,
    differences, affine mixes).
    """
    return PLFunction([(t, op(a, b)) for t, a, b in union_knot_values(f, g)])


def pl_add(f, g):
    return pl_combine(f, g, lambda a, b: a + b)


def pl_sub(f, g):
    return pl_combine(f, g, lambda a, b: a - b)


def pl_scale_values(f, c, offset=ZERO):
    c = rat(c)
    offset = rat(offset)
    return PLFunction([(t, c * v + offset) for t, v in f.breakpoints])


def pl_compress_param(f, t_stop):
    """g(t) = f(t_stop * t): squeeze the window [0, t_stop] onto [0, 1]."""
    t_stop = rat(t_stop)
    if not 0 < t_stop <= 1:
        raise PreconditionError(f"compression point {t_stop} outside (0,1]")
    ts = sorted({t / t_stop for t in f.knots if t < t_stop} | {ZERO, ONE})
    return PLFunction([(t, pl_eval(f, t * t_stop)) for t in ts])
