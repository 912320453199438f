"""Continuous piecewise-linear functions on [0,1] with exact arithmetic.

Everything here is a pure function over immutable values.  Canonical form
(no breakpoint collinear with its neighbors) is restored by every
constructor so piece counts stay minimal through long composition chains.

Kernel costs, for f with m pieces, g with k pieces and r result pieces
(each step is O(1) exact rational operations):

- PLFunction(...): O(m); canonicalization costs two subtractions per point
  and the knot tuple is built once.
- pl_eval(f, t): O(log m), a bisection of the cached knots.
- compose(outer, inner): O(k log m + r); each inner knot bisects the outer
  knots once, and each inner piece emits the outer knots it crosses in
  t-order, taking their values from the outer breakpoints.
- pl_combine(f, g, op) and union_knot_values(f, g): O(m + k), one
  merge-walk over the two sorted breakpoint lists.
"""

from bisect import bisect_right
from dataclasses import dataclass

from .errors import (
    ClassUError,
    DomainError,
    InfeasiblePerturbationError,
    PreconditionError,
)
from .scalar import ONE, ZERO, rat

UP = "up"
DOWN = "down"
FLAT = "flat"


def _canonical(points):
    """Drop interior breakpoints collinear with both neighbors."""
    out = [points[0]]
    steps = []  # steps[i] = (dt, dv) from out[i] to out[i + 1]
    for t, v in points[1:]:
        t1, v1 = out[-1]
        dt, dv = t - t1, v - v1
        while steps:
            dt0, dv0 = steps[-1]
            if dv0 * dt != dv * dt0:
                break
            out.pop()
            steps.pop()
            dt, dv = dt0 + dt, dv0 + dv
        out.append((t, v))
        steps.append((dt, dv))
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


@dataclass(frozen=True)
class MonotoneDecomposition:
    """Maximal runs of constant slope sign, plus the class-U verdict.

    pieces: ((lo, hi, direction), ...) tiling [0,1].
    local_extrema: interior fold points ((t, value, "max"|"min"), ...).
    violations: levels witnessed by both a local max and a local min
    (flat pieces witness both at once).
    """

    pieces: tuple
    local_extrema: tuple
    in_class_u: bool
    violations: tuple


def monotone_decompose(f):
    pts = f.breakpoints
    runs = []
    for (t0, v0), (t1, v1) in zip(pts, pts[1:]):
        d = UP if v1 > v0 else DOWN if v1 < v0 else FLAT
        if runs and runs[-1][2] == d:
            runs[-1] = (runs[-1][0], t1, d)
        else:
            runs.append((t0, t1, d))

    extrema = []
    for (lo0, hi0, d0), (lo1, hi1, d1) in zip(runs, runs[1:]):
        if d0 == UP and d1 == DOWN:
            extrema.append((hi0, pl_eval(f, hi0), "max"))
        elif d0 == DOWN and d1 == UP:
            extrema.append((hi0, pl_eval(f, hi0), "min"))

    by_level = {}
    for t, v, kind in extrema:
        by_level.setdefault(v, {"max": [], "min": []})[kind].append(t)
    violations = []
    for lo, hi, d in runs:
        if d == FLAT:
            mid = (lo + hi) / 2
            violations.append((pl_eval(f, lo), mid, mid))
    for v, kinds in sorted(by_level.items()):
        if kinds["max"] and kinds["min"]:
            violations.append((v, kinds["max"][0], kinds["min"][0]))

    return MonotoneDecomposition(
        pieces=tuple(runs),
        local_extrema=tuple(extrema),
        in_class_u=not violations,
        violations=tuple(violations),
    )


def critical_levels(f):
    """Fold levels plus flat levels; the values that can produce degenerate
    vertices in a level-set traversal against another function."""
    dec = monotone_decompose(f)
    levels = {v for _, v, _ in dec.local_extrema}
    for lo, hi, d in dec.pieces:
        if d == FLAT:
            levels.add(pl_eval(f, lo))
    return sorted(levels)


def perturb_distinct_extrema(f, delta, avoid=()):
    """Nudge f by at most delta (sup-norm) into class U.

    Endpoint values are kept.  Flat pieces are tilted to continue the
    incoming direction; duplicated extremum levels are then lowered by
    delta/2^rank in order of appearance (rank counts nudges globally,
    starting at 1).  Values in `avoid` are treated as already taken.
    Raises InfeasiblePerturbation when a literal delta/2^rank nudge would
    break the up/down piece pattern, or when delta = 0 but work is needed.
    """
    delta = rat(delta)
    if delta < 0:
        raise PreconditionError("delta must be nonnegative")
    avoid = {rat(a) for a in avoid}

    dec = monotone_decompose(f)
    has_flats = any(d == FLAT for _, _, d in dec.pieces)
    needs_work = has_flats or bool(_nudge_plan(dec, f, delta, avoid))
    if not needs_work:
        return f
    if delta == 0:
        raise InfeasiblePerturbationError("zero budget but perturbation required")

    g = _tilt_flats(f, delta, dec) if has_flats else f
    g = _separate_extrema(g, delta, avoid)

    out_dec = monotone_decompose(g)
    out_levels = [v for _, v, _ in out_dec.local_extrema]
    if not out_dec.in_class_u or len(set(out_levels)) != len(out_levels) or (
        set(out_levels) & avoid
    ):
        raise InfeasiblePerturbationError(
            "nudged extremum collided with an existing level",
            witness=out_dec.violations,
        )
    return g


def _nudge_plan(dec, f, delta, avoid):
    """Map fold time -> nudged value for duplicates, scanning in t-order."""
    taken = set(avoid)
    taken.add(pl_eval(f, ZERO))
    taken.add(pl_eval(f, ONE))
    adjust = {}
    rank = 0
    for t, v, kind in dec.local_extrema:
        if v in taken:
            rank += 1
            nudged = v - delta / 2 ** rank
            adjust[t] = nudged
            taken.add(nudged)
        else:
            taken.add(v)
    return adjust


def _tilt_flats(f, delta, dec):
    pts = list(f.breakpoints)
    index_of = {t: i for i, (t, _) in enumerate(pts)}
    flats = [(lo, hi) for lo, hi, d in dec.pieces if d == FLAT]
    nonflat = [(lo, hi, d) for lo, hi, d in dec.pieces if d != FLAT]
    if flats and not nonflat:
        raise InfeasiblePerturbationError("constant function cannot be made locally non-constant")

    for rank, (lo, hi) in enumerate(flats):
        prev_dir = next((d for l, h, d in reversed(nonflat) if h <= lo), None)
        next_dir = next((d for l, h, d in nonflat if l >= hi), None)
        tilt = prev_dir if prev_dir is not None else next_dir
        # End-flats move their left breakpoint (t=1 value is pinned),
        # all others move the right one.
        move = index_of[lo] if hi == 1 else index_of[hi]
        if move == 0 or move == len(pts) - 1:
            raise InfeasiblePerturbationError("flat spans the whole domain")
        t_m, v_m = pts[move]
        gaps = []
        if move > 0 and pts[move - 1][1] != v_m:
            gaps.append(abs(pts[move - 1][1] - v_m))
        if move < len(pts) - 1 and pts[move + 1][1] != v_m:
            gaps.append(abs(pts[move + 1][1] - v_m))
        eps = min([delta] + gaps) / 2 ** (rank + 2)
        if hi == 1:
            # tilt the flat so it continues prev_dir into the pinned endpoint
            step = -eps if tilt == UP else eps
        else:
            step = eps if tilt == UP else -eps
        pts[move] = (t_m, v_m + step)

    return PLFunction(pts)


def _separate_extrema(f, delta, avoid):
    dec = monotone_decompose(f)
    adjust = _nudge_plan(dec, f, delta, avoid)
    if not adjust:
        return f

    pts = list(f.breakpoints)
    for i, (t, v) in enumerate(pts):
        if t not in adjust:
            continue
        new_v = adjust[t]
        for j in (i - 1, i + 1):
            if 0 <= j < len(pts):
                old_gap = pts[j][1] - v
                new_gap = pts[j][1] - new_v
                if old_gap != 0 and (new_gap == 0 or (old_gap > 0) != (new_gap > 0)):
                    raise InfeasiblePerturbationError(
                        f"nudge of {v} at t={t} breaks the piece pattern",
                        witness=t,
                    )
        pts[i] = (t, new_v)
    return PLFunction(pts)


def preimage_open_interval(f, a, b):
    """Maximal open intervals (u, v) with f(t) in (a, b) for t in (u, v)."""
    a, b = rat(a), rat(b)
    if not a < b:
        raise PreconditionError("empty interval")
    cuts = {ZERO, ONE}
    cuts.update(f.knots)
    for lo, hi in level_set(f, a) + level_set(f, b):
        cuts.update((lo, hi))
    ts = sorted(cuts)
    inside = []
    for t0, t1 in zip(ts, ts[1:]):
        mid = (t0 + t1) / 2
        inside.append(a < pl_eval(f, mid) < b)
    spans = []
    for (t0, t1), is_in in zip(zip(ts, ts[1:]), inside):
        if not is_in:
            continue
        if spans and spans[-1][1] == t0 and a < pl_eval(f, t0) < b:
            spans[-1] = (spans[-1][0], t1)
        else:
            spans.append((t0, t1))
    return [tuple(s) for s in spans]


def assert_unit_range(f, what="function"):
    lo, hi = f.range_bounds()
    if lo < 0 or hi > 1:
        raise PreconditionError(f"{what} range [{lo}, {hi}] escapes [0,1]")


def require_class_u(f, what="function"):
    dec = monotone_decompose(f)
    if not dec.in_class_u:
        raise ClassUError(
            f"{what} is not class-U: {len(dec.violations)} violating level(s)",
            violations=dec.violations,
        )
    return dec
