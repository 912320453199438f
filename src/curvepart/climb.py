"""Coordinated-level reparametrization (the mountain climbers' problem).

Given height profiles f1, f2 on [0,1] with f(0)=0, f(1)=1, find continuous
g1, g2 with the same boundary values such that f1(g1(t)) = f2(g2(t)) for
all t, exactly.  The engine walks the one-dimensional solution complex of
f1(s) = f2(t) inside the parameter square.  Each maximal flat (constancy
interval) of either profile is first contracted to a point; the walk runs
on the flat-free quotients and is lifted back, one climber crossing a
plateau while the other waits.  This solves every piecewise-monotone
profile, plateaus included (Huneke, "Mountain climbing", Trans. AMS 1969;
Keleti, "The mountain climbers' problem", Proc. AMS 1993).  `solve` is the
one climb; the flats are read off each profile's canonical breakpoints.

Kernel costs of the walk, for flat-free f1 with m pieces, f2 with k pieces
and e edges in the complex (Goodman, Pach and Yap, "Mountain climbing,
ladder moving, and the ring-width of a polygon", Amer. Math. Monthly 1989):

- level_complex_path(f1, f2): O(m + k) exact rational operations of setup
  (each piece's value range, direction and inverse slope, once per call),
  then O(m k) cells.  A cell whose value ranges do not overlap costs two
  comparisons; one that overlaps costs O(1) rational operations, since an
  edge end at a range end takes that coordinate from the knot.  Vertices
  are keyed by their integer numerators and denominators, so no rational
  is hashed.  The walk itself is O(e) steps.
"""

from dataclasses import dataclass

from .errors import InternalInvariantError, PreconditionError
from .plfun import (
    PLFunction,
    compose,
    pl_eval,
)
from .scalar import ONE, ZERO, rat


@dataclass(frozen=True)
class ClimbSolution:
    """Reparametrizations g1, g2 with compose(f1,g1) == compose(f2,g2)."""

    g1: PLFunction
    g2: PLFunction


def _check_profile(f, name):
    vs = f.values
    if vs[0] != 0 or vs[-1] != 1:
        raise PreconditionError(f"{name} must map 0 to 0 and 1 to 1")
    lo, hi = min(vs), max(vs)
    if lo < 0 or hi > 1:
        raise PreconditionError(f"{name} range [{lo}, {hi}] escapes [0,1]")


def _flat_runs(f):
    """The pieces of f with equal end values; canonical form has merged
    neighbouring flats, so each is maximal."""
    pts = f.breakpoints
    return [(t0, t1) for (t0, v0), (t1, v1) in zip(pts, pts[1:]) if v0 == v1]


def _pieces(f, name):
    """Each piece of a flat-free f as (lo, hi, knot at lo, knot at hi,
    parameter per unit of value, rising), set up once per walk."""
    pts = f.breakpoints
    out = []
    for (t0, v0), (t1, v1) in zip(pts, pts[1:]):
        if v0 == v1:
            raise PreconditionError(f"{name} must be locally non-constant")
        per = (t1 - t0) / (v1 - v0)
        out.append((v0, v1, t0, t1, per, True) if v0 < v1
                   else (v1, v0, t1, t0, per, False))
    return out


def _complex_edges(f1, f2):
    """The edges of {f1(s) = f2(t)}, at most one per breakpoint rectangle,
    in row-major order (f1's pieces outer), each as (from, to) with t
    increasing.

    Both restrictions to a rectangle are linear with nonzero slope, so the
    solution set there is a segment from level max(lo1, lo2) to level
    min(hi1, hi2), of positive length exactly when lo2 < hi1 and lo1 < hi2.
    At an end level that closes one piece's range the coordinate is that
    piece's knot, and only the other one is computed.  t runs along the
    segment in the direction of f2's piece.
    """
    rows = _pieces(f1, "f1")
    cols = _pieces(f2, "f2")
    for lo1, hi1, slo, shi, ds, _ in rows:
        for lo2, hi2, tlo, thi, dt, rising in cols:
            if lo2 >= hi1 or lo1 >= hi2:
                continue
            if lo1 < lo2:
                a = (slo + (lo2 - lo1) * ds, tlo)
            elif lo2 < lo1:
                a = (slo, tlo + (lo1 - lo2) * dt)
            else:
                a = (slo, tlo)
            if hi2 < hi1:
                b = (slo + (hi2 - lo1) * ds, thi)
            elif hi1 < hi2:
                b = (shi, tlo + (hi1 - lo2) * dt)
            else:
                b = (shi, thi)
            yield (a, b) if rising else (b, a)


def _key(p):
    """Integer dict key of a vertex: hashing a Fraction costs a modular
    inverse, hashing its numerator and denominator does not."""
    s, t = p
    return (s.numerator, s.denominator, t.numerator, t.denominator)


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
    adj = {}
    for eid, (frm, to) in enumerate(_complex_edges(f1, f2)):
        kf, kt = _key(frm), _key(to)
        adj.setdefault(kf, []).append((eid, to, kt))
        adj.setdefault(kt, []).append((eid, frm, kf))

    cur = (ZERO, ZERO)
    key, goal = _key(cur), _key((ONE, ONE))
    if key not in adj:
        raise InternalInvariantError("no traversal edge leaves (0,0)")
    used = set()
    path = [cur]
    while True:
        options = [o for o in adj.get(key, ()) if o[0] not in used]
        if not options:
            break
        if len(options) > 1:
            options.sort(key=lambda o: _edge_sort_key(cur, o[1]))
        eid, cur, key = options[0]
        used.add(eid)
        path.append(cur)
        if key == goal:
            break
    if key != goal:
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
    sides, and nothing else.  Fold levels of f1 and f2 may coincide:
    a same-level meeting only creates even-degree vertices (4 for two
    maxima or two minima, 0 for a maximum and a minimum), so the trail
    argument still lands at (1,1).  Flat-free profiles skip the
    contraction, and their path is the walk itself.
    """
    _check_profile(f1, "f1")
    _check_profile(f2, "f2")
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


# An alias of `solve` only: the benchmark's layer trace looks the climb up
# by this name, and wraps every binding of the same function object.
solve_either_orientation = solve
