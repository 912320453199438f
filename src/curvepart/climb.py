"""Coordinated-level reparametrization (the mountain climbers' problem).

Given height profiles f1, f2 on [0,1] with f(0)=0, f(1)=1, find continuous
g1, g2 with the same boundary values such that f1(g1(t)) = f2(g2(t)) for
all t, exactly.  The engine walks the one-dimensional solution complex of
f1(s) = f2(t) inside the parameter square.  Each maximal flat (constancy
interval) of either profile is first contracted to a point; the walk runs
on the flat-free quotients and is lifted back, one climber crossing a
plateau while the other waits.  This solves every piecewise-monotone
profile, plateaus included (Huneke, "Mountain climbing", Trans. AMS 1969;
Keleti, "The mountain climbers' problem", Proc. AMS 1993).
"""

from dataclasses import dataclass

from .errors import InternalInvariantError, PreconditionError
from .plfun import (
    FLAT,
    PLFunction,
    assert_unit_range,
    compose,
    monotone_decompose,
    pl_eval,
)
from .scalar import ONE, ZERO, rat


@dataclass(frozen=True)
class ClimbSolution:
    """Reparametrizations g1, g2 with compose(f1,g1) == compose(f2,g2)."""

    g1: PLFunction
    g2: PLFunction


def _check_boundary(f, name):
    if pl_eval(f, ZERO) != 0 or pl_eval(f, ONE) != 1:
        raise PreconditionError(f"{name} must map 0 to 0 and 1 to 1")


def _flat_runs(f):
    return [
        (lo, hi)
        for lo, hi, d in monotone_decompose(f).pieces
        if d == FLAT
    ]


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


def _contract(f):
    """Contract each maximal flat of f to a point.

    Returns the flat-free quotient q and a dict sending each contracted
    point u of q to its flat (lo, hi) of f.  Parameter t of f maps to
    u = (t - flat length below t) / (1 - total flat length), and q(u) =
    f(t).  A flat-free f is its own quotient.
    """
    runs = _flat_runs(f)
    if not runs:
        return f, {}
    keep = ONE - sum(hi - lo for lo, hi in runs)

    def quotient(t):
        below = sum(min(max(t - lo, ZERO), hi - lo) for lo, hi in runs)
        return (t - below) / keep

    pts = []
    for t, v in f.breakpoints:
        u = quotient(t)
        if not pts or pts[-1][0] != u:
            pts.append((u, v))
    return PLFunction(pts), {quotient(lo): (lo, hi) for lo, hi in runs}


def _lift_vertex(u, before, after, flats):
    """Parameters of f at quotient coordinate u, in walking order.

    Off the contracted points this is the one parameter that maps to u.
    On one, the climber enters its plateau from the side of `before` and
    leaves toward `after` (None at the start and end of the walk, which
    count as coming from the left and leaving to the right); leaving on
    the other side means crossing the plateau, so both ends are returned.
    """
    if u not in flats:
        keep = ONE - sum(hi - lo for lo, hi in flats.values())
        return [u * keep + sum(hi - lo for w, (lo, hi) in flats.items()
                               if w < u)]
    lo, hi = flats[u]
    enter = lo if before is None or before < u else hi
    leave = hi if after is None or after > u else lo
    return [enter] if enter == leave else [enter, leave]


def _lift(path, flats1, flats2):
    """Lift a walk of the contracted quotients back to the profiles.

    Every edge of the walk changes both coordinates strictly.  An edge
    that passes a contracted point strictly inside itself is split there
    first: the quotient's canonical form may have dropped that knot.  At
    a vertex on a contracted point the climber who crosses the plateau
    takes an inserted step while the other waits, f1's climber first.
    """
    split = [path[0]]
    for (s0, t0), (s1, t1) in zip(path, path[1:]):
        cuts = {}
        for u in flats1:
            if min(s0, s1) < u < max(s0, s1):
                lam = (u - s0) / (s1 - s0)
                cuts[lam] = (u, t0 + lam * (t1 - t0))
        for u in flats2:
            if min(t0, t1) < u < max(t0, t1):
                lam = (u - t0) / (t1 - t0)
                cuts[lam] = (s0 + lam * (s1 - s0), u)
        split.extend(cuts[lam] for lam in sorted(cuts))
        split.append((s1, t1))

    ends = (None, None)
    lifted = []
    for k, (s, t) in enumerate(split):
        before = split[k - 1] if k > 0 else ends
        after = split[k + 1] if k + 1 < len(split) else ends
        ss = _lift_vertex(s, before[0], after[0], flats1)
        ts = _lift_vertex(t, before[1], after[1], flats2)
        for p in ((ss[0], ts[0]), (ss[-1], ts[0]), (ss[-1], ts[-1])):
            if not lifted or lifted[-1] != p:
                lifted.append(p)
    return lifted


def solve(f1, f2):
    """Climb: contract the flats of both profiles, walk the solution
    complex of the flat-free quotients, lift the walk back.

    Requires boundary values 0 -> 0, 1 -> 1 and range [0, 1] on both
    sides; class U is not needed.  Fold levels of f1 and f2 may coincide:
    a same-level meeting only creates even-degree vertices (4 for two
    maxima or two minima, 0 for a maximum and a minimum), so the trail
    argument still lands at (1,1).  Flat-free profiles skip the
    contraction, and their path is the walk itself.
    """
    _check_boundary(f1, "f1")
    _check_boundary(f2, "f2")
    assert_unit_range(f1, "f1")
    assert_unit_range(f2, "f2")
    q1, flats1 = _contract(f1)
    q2, flats2 = _contract(f2)
    path = level_complex_path(q1, q2)
    if flats1 or flats2:
        path = _lift(path, flats1, flats2)
    g1, g2 = _path_to_functions(path)
    sol = ClimbSolution(g1=g1, g2=g2)
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
    """Climb f1 against f2, swapping roles when only f2 is class U.

    Every climb is exact; the orientation only picks which of the walks
    is taken, and this rule keeps the walks of earlier releases.
    """
    if (monotone_decompose(f1).in_class_u
            or not monotone_decompose(f2).in_class_u):
        return solve(f1, f2)
    swapped = solve(f2, f1)
    return ClimbSolution(g1=swapped.g2, g2=swapped.g1)
