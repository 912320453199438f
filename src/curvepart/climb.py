"""Coordinated-level reparametrization (the mountain climbers' problem).

Given height profiles f1, f2 on [0,1] with f(0)=0, f(1)=1, find continuous
g1, g2 with the same boundary values such that f1(g1(t)) = f2(g2(t)) for
all t, exactly.  The engine walks the one-dimensional solution complex of
f1(s) = f2(t) inside the parameter square; constancy intervals of f2 are
first replaced by small tents and afterwards collapsed back.
"""

from dataclasses import dataclass, replace

from .errors import InternalInvariantError, PreconditionError
from .plfun import (
    FLAT,
    PLFunction,
    assert_unit_range,
    compose,
    level_set,
    monotone_decompose,
    pl_eval,
    preimage_open_interval,
    require_class_u,
)
from .scalar import ONE, ZERO, rat


@dataclass(frozen=True)
class ClimbSolution:
    """Reparametrizations g1, g2 with compose(f1,g1) == compose(f2,g2)."""

    g1: PLFunction
    g2: PLFunction
    plans: tuple = ()


@dataclass(frozen=True)
class FlatBumpPlan:
    """Replacement recipe for one maximal constancy interval of f2.

    f2 == level on [start, end]; preimage lists where f1 meets that level;
    the tent deviates by half_width with the given sign, chosen so folds of
    f1 at this level only ever touch the tent tangentially.
    """

    start: object
    end: object
    level: object
    preimage: tuple
    half_width: object
    sign: str
    collapse_intervals: tuple = ()


def _check_boundary(f, name):
    if pl_eval(f, ZERO) != 0 or pl_eval(f, ONE) != 1:
        raise PreconditionError(f"{name} must map 0 to 0 and 1 to 1")


def _flat_runs(f):
    return [
        (lo, hi)
        for lo, hi, d in monotone_decompose(f).pieces
        if d == FLAT
    ]


def plan_bumps(f1, f2):
    """One FlatBumpPlan per maximal constancy interval of f2.

    Requires f1 in class U so each level preimage is finite.  The tent
    half-width keeps a margin of half the distance from the flat level to
    the nearest other extremum level of f1, endpoint values included, and
    never lets the tent peak leave [0, 1].
    """
    dec1 = require_class_u(f1, "f1")
    min_fold_levels = {v for _, v, k in dec1.local_extrema if k == "min"}
    extremum_levels = {v for _, v, _ in dec1.local_extrema}
    extremum_levels.add(pl_eval(f1, ZERO))
    extremum_levels.add(pl_eval(f1, ONE))

    plans = []
    for lo, hi in _flat_runs(f2):
        c = pl_eval(f2, lo)
        hits = level_set(f1, c)
        if any(a < b for a, b in hits):
            raise InternalInvariantError("class-U f1 produced a flat level hit")
        preimage = tuple(a for a, _ in hits)

        gaps = [abs(v - c) for v in extremum_levels if v != c]
        d = min(gaps) / 2 if gaps else rat(1, 4)

        if c == 0:
            sign = "plus"
        elif c == 1:
            sign = "minus"
        else:
            sign = "minus" if c in min_fold_levels else "plus"
        # keep the tent peak strictly inside (0, 1)
        cap = (ONE - c) / 2 if sign == "plus" else c / 2
        if cap > 0:
            d = min(d, cap)
        if d <= 0:
            raise InternalInvariantError(f"degenerate bump width at level {c}")
        plans.append(
            FlatBumpPlan(start=lo, end=hi, level=c, preimage=preimage,
                         half_width=d, sign=sign)
        )
    return plans


def apply_bumps(f2, plans):
    """Replace each planned constancy interval by a linear tent.

    The tent rises (or dips) from the flat level to level +/- half_width at
    the interval midpoint, so the result is locally non-constant while
    deviating from f2 by at most max half_width.
    """
    if not plans:
        return f2
    pts = []
    spans = {(p.start, p.end): p for p in plans}
    bps = list(f2.breakpoints)
    i = 0
    while i < len(bps):
        t, v = bps[i]
        pts.append((t, v))
        if i + 1 < len(bps):
            t1, v1 = bps[i + 1]
            plan = spans.get((t, t1))
            if plan is not None:
                mid = (t + t1) / 2
                peak = plan.level + (
                    plan.half_width if plan.sign == "plus" else -plan.half_width
                )
                pts.append((mid, peak))
        i += 1
    return PLFunction(pts)


def _cell_edge(s0, s1, fa0, fa1, t0, t1, fb0, fb1):
    """Segment of {f1(s) = f2(t)} inside one breakpoint rectangle, or None.

    Both restrictions are linear with nonzero slope, so the solution set is
    a line s(t) clipped to the rectangle.
    """
    # clip to s-range: fa0 <= f-level <= fa1 (or reversed), before dividing
    lv_lo, lv_hi = (fa0, fa1) if fa0 < fa1 else (fa1, fa0)
    wv_lo, wv_hi = (fb0, fb1) if fb0 < fb1 else (fb1, fb0)
    v_lo, v_hi = max(lv_lo, wv_lo), min(lv_hi, wv_hi)
    if v_lo > v_hi:
        return None
    a = (fa1 - fa0) / (s1 - s0)
    b = (fb1 - fb0) / (t1 - t0)
    # s(t) = s0 + (fb0 - fa0 + b (t - t0)) / a
    t_of = lambda v: t0 + (v - fb0) / b
    s_of = lambda v: s0 + (v - fa0) / a
    tA, tB = t_of(v_lo), t_of(v_hi)
    pA = (s_of(v_lo), tA)
    pB = (s_of(v_hi), tB)
    if pA == pB:
        return None
    return (pA, pB) if pA[1] <= pB[1] else (pB, pA)


def _edge_sort_key(frm, to):
    ds = to[0] - frm[0]
    dt = to[1] - frm[1]
    return (0 if ds > 0 else 1, 0 if dt > 0 else 1, -ds, -dt)


def level_complex_path(f1, f2):
    """Walk the solution complex of f1(s) = f2(t) from (0,0) to (1,1).

    Both inputs must be flat-free.  Every vertex of the complex away from
    the two corners has even degree, so a trail that never reuses an edge
    can only stop at (1,1).  Ties at higher-degree vertices prefer edges
    increasing s, then increasing t.
    """
    for f, name in ((f1, "f1"), (f2, "f2")):
        if _flat_runs(f):
            raise PreconditionError(f"{name} must be locally non-constant")

    sp = f1.breakpoints
    tp = f2.breakpoints
    adj = {}
    edges = []
    for (s0, fa0), (s1, fa1) in zip(sp, sp[1:]):
        for (t0, fb0), (t1, fb1) in zip(tp, tp[1:]):
            seg = _cell_edge(s0, s1, fa0, fa1, t0, t1, fb0, fb1)
            if seg is None:
                continue
            eid = len(edges)
            edges.append(seg)
            adj.setdefault(seg[0], []).append((eid, seg[1]))
            adj.setdefault(seg[1], []).append((eid, seg[0]))

    start, goal = (ZERO, ZERO), (ONE, ONE)
    if start not in adj:
        raise InternalInvariantError("no traversal edge leaves (0,0)")
    used = set()
    path = [start]
    cur = start
    while True:
        options = [
            (eid, other) for eid, other in adj.get(cur, ()) if eid not in used
        ]
        if not options:
            break
        options.sort(key=lambda eo: _edge_sort_key(cur, eo[1]))
        eid, nxt = options[0]
        used.add(eid)
        path.append(nxt)
        cur = nxt
        if cur == goal:
            break
    if cur != goal:
        raise InternalInvariantError(f"traversal stuck at vertex {cur}")
    return path


def _path_to_functions(path):
    m = len(path) - 1
    g1 = PLFunction([(rat(k, m), p[0]) for k, p in enumerate(path)])
    g2 = PLFunction([(rat(k, m), p[1]) for k, p in enumerate(path)])
    return g1, g2


def _collapse(h, spans_and_values):
    """Overwrite h with constants on disjoint closed spans."""
    if not spans_and_values:
        return h
    pts = []
    spans = sorted(spans_and_values)
    si = 0
    for t, v in h.breakpoints:
        while si < len(spans) and spans[si][1] < t:
            si += 1
        if si < len(spans):
            u, vv, const = spans[si]
            if u <= t <= vv:
                continue
        pts.append((t, v))
    for u, v, const in spans:
        pts.append((u, const))
        pts.append((v, const))
    pts.sort(key=lambda p: p[0])
    dedup = []
    for t, v in pts:
        if dedup and dedup[-1][0] == t:
            if dedup[-1][1] != v:
                raise InternalInvariantError("collapse produced a jump")
            continue
        dedup.append((t, v))
    return PLFunction(dedup)


def solve(f1, f2):
    """Climb: bump the flats of f2, walk the solution complex, collapse.

    Requires boundary values 0 -> 0, 1 -> 1 and range [0, 1] on both
    sides, and f1 in class U.  Fold levels of f1 and f2 may coincide: a
    same-level meeting only creates even-degree vertices, so the trail
    argument still lands at (1,1).  Flat levels of f2 are fine too: the
    planned tent signs make those meetings tangential.
    """
    _check_boundary(f1, "f1")
    _check_boundary(f2, "f2")
    assert_unit_range(f1, "f1")
    assert_unit_range(f2, "f2")
    plans = plan_bumps(f1, f2)  # requires f1 in class U
    f3 = apply_bumps(f2, plans)
    h, k = _path_to_functions(level_complex_path(f1, f3))

    filled = []
    spans = []
    for plan in plans:
        comps = []
        for u, v in preimage_open_interval(k, plan.start, plan.end):
            hu, hv = pl_eval(h, u), pl_eval(h, v)
            if hu != hv:
                raise InternalInvariantError(
                    f"collapse mismatch h({u}) = {hu} != {hv} = h({v}); "
                    f"bump width too large at level {plan.level}"
                )
            comps.append((u, v))
            spans.append((u, v, hu))
        filled.append(replace(plan, collapse_intervals=tuple(comps)))

    g1 = _collapse(h, spans)
    sol = ClimbSolution(g1=g1, g2=k, plans=tuple(filled))
    _assert_solution(f1, f2, sol)
    return sol


def _assert_solution(f1, f2, sol):
    if pl_eval(sol.g1, ZERO) != 0 or pl_eval(sol.g1, ONE) != 1:
        raise InternalInvariantError("g1 endpoint values wrong")
    if pl_eval(sol.g2, ZERO) != 0 or pl_eval(sol.g2, ONE) != 1:
        raise InternalInvariantError("g2 endpoint values wrong")
    if compose(f1, sol.g1) != compose(f2, sol.g2):
        raise InternalInvariantError("composition equality failed")


def solve_either_orientation(f1, f2):
    """Climb with whichever side is class U; swaps roles when only f2 is."""
    if monotone_decompose(f1).in_class_u:
        return solve(f1, f2)
    if monotone_decompose(f2).in_class_u:
        swapped = solve(f2, f1)
        return ClimbSolution(g1=swapped.g2, g2=swapped.g1,
                             plans=swapped.plans)
    require_class_u(f1, "f1")  # raises with f1's violations
