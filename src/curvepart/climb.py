"""Coordinated-level reparametrization (the mountain climbers' problem).

Given height profiles f1, f2 on [0,1] with f(0)=0, f(1)=1, find continuous
g1, g2 with the same boundary values such that f1(g1(t)) = f2(g2(t)) for
all t, exactly.  The engine walks the one-dimensional solution complex of
f1(s) = f2(t) inside the parameter square.  Each maximal flat (constancy
interval) of either profile is first contracted to a knot; the walk runs
on the flat-free quotients and is lifted back, one climber crossing a
plateau while the other waits.  This solves every piecewise-monotone
profile, plateaus included (Huneke, "Mountain climbing", Trans. AMS 1969;
Keleti, "The mountain climbers' problem", Proc. AMS 1993).

The complex is fixed by the order of the breakpoint levels alone
(Goodman, Pach and Yap, "Mountain climbing, ladder moving, and the
ring-width of a polygon", Amer. Math. Monthly 1989), so the walk compares
levels and computes no coordinate.  A vertex is keyed by one integer
position per profile, 2i at knot i and 2i + 1 strictly inside piece i;
at least one of the two is a knot, and that knot's value is the vertex's
level.  `walk` is the one climb and returns this level path on the
profiles' own breakpoints, unchecked.  It reads a profile's values only,
through `breakpoints`, so any increasing parameters give the same path.
`path_points` turns it into parameters, and `solve` is `walk`, the maps
g1, g2 read off its points and an exact check of f1∘g1 = f2∘g2, for
callers whose result nothing else checks (the library entry and
`curvepart climb`).  The induction in `pipeline` climbs every level
against one height `Prepared` once per solve, and reads each level path
itself in one pass (`read_path`, on two `Companion`s): its output meets
`partition_curve`'s exact final check of the whole theorem, so a wrong
climb either raises there or leaves a correct partition.

Kernel costs of the walk, for f1 with m pieces, f2 with k pieces and e
edges in the complex:

- Prepared(f1): once for all climbs against f1, the check (two integer
  comparisons per value for the [0, 1] range, `scalar.check_unit_range`)
  and the contraction, then O(m log m) level comparisons to sort f1's
  values and rank its knots, and O(m) integer comparisons of ranks for
  its pieces.
- level_complex_path(f1, f2): O(k log m) integer comparisons to rank every
  knot value of f2 among f1's sorted values (cross-products of their
  numerators and denominators), O(k) for f2's pieces, comparing two
  values only where a piece's ends share a rank, then O(m k) cells, each
  two integer comparisons of ranks, and O(1) more for a cell with an
  edge.  No rational is built, hashed or added.  An f1 that is not
  `Prepared` is ranked first, as `Prepared` ranks it.  The walk itself is
  O(e) steps over integer vertex keys, and at each vertex the step's sign
  pattern picks the edge.
- _contract and _lift: O(m + k + e) steps on integer positions, and no
  rational operation: a quotient keeps its profile's own breakpoints.
- path_points: O(e) exact rational operations, one interpolation per
  coordinate inside a piece.
- Companion(rows, knots): O(rows) to find the profile's knots among the
  rows, and one flag per piece, whether an inner row splits it.
- read_path(path, along1, along2): one pass over the path's vertices.  A
  value read inside a piece is one Fraction, built from integer products
  of its row segment's numerators and denominators and normalised once
  (`scalar.offset`, `scalar.lerp`); f2's side reads q2 and g2 with one
  fraction of the segment; a value at a knot is read as it is.  A step
  along pieces that no inner row splits costs two list reads of the
  split flags, and no call or rational operation; a crossed row adds one
  Fraction for its parameter and one per value read on the other side,
  and a piece split by inner rows one level comparison per row passed.
"""

from bisect import bisect_left
from dataclasses import dataclass
from types import SimpleNamespace

from .errors import InternalInvariantError, PreconditionError
from .plfun import (
    PLFunction,
    compose,
    pl_eval,
)
from .scalar import ONE, ZERO, check_unit_range, lerp, offset, rat


@dataclass(frozen=True)
class ClimbSolution:
    """Reparametrizations g1, g2 with compose(f1,g1) == compose(f2,g2)."""

    g1: PLFunction
    g2: PLFunction


def _check_profile(f, name):
    vs = [v for _, v in f.breakpoints]
    if vs[0] != 0 or vs[-1] != 1:
        raise PreconditionError(f"{name} must map 0 to 0 and 1 to 1")
    check_unit_range(vs, name, PreconditionError)


def _ranked(f):
    """The sorted distinct values of a flat-free first profile f, as
    integer pairs, and its pieces (`_pieces`) with its knots' ranks.

    A knot whose value is the r-th of the sorted distinct values gets rank
    2r.  Any value v of another profile gets 2r when it equals the r-th
    value and 2r - 1 when it lies between the (r-1)-th and the r-th
    (`_ranks_against`), so integer ranks order values of f against values
    of the other profile as the values themselves are ordered.  Two values
    of the other profile may share an odd rank, so only ranks of different
    profiles are compared.
    """
    ordered = sorted(v for _, v in f.breakpoints)
    levels = [ordered[0]]
    levels += [v for u, v in zip(ordered, ordered[1:]) if v != u]
    ranks = [2 * bisect_left(levels, v) for _, v in f.breakpoints]
    levels = [(v.numerator, v.denominator) for v in levels]
    return levels, _pieces(f, ranks, "f1")


def _ranks_against(levels, f):
    """The ranks of f's knot values among another profile's sorted
    distinct values, `levels` as (numerator, denominator) pairs: a binary
    search by integer cross-products, as both denominators are positive.
    A value equal to a level has that level's own pair, as both are in
    lowest terms."""
    out = []
    for _, v in f.breakpoints:
        c, d = v.numerator, v.denominator
        lo, hi = 0, len(levels)
        while lo < hi:
            mid = (lo + hi) // 2
            a, b = levels[mid]
            if a * d < c * b:
                lo = mid + 1
            else:
                hi = mid
        hit = lo < len(levels) and levels[lo] == (c, d)
        out.append(2 * lo if hit else 2 * lo - 1)
    return out


def _pieces(f, ranks, name):
    """Each piece i of a flat-free f as (rank at lo, rank at hi, position at
    lo, position at hi, value at lo, value at hi, rising).

    Different ranks order a piece's ends; values are compared only when
    both ends share an odd rank, strictly between two levels of the other
    profile.  Equal even ranks are equal values, a flat.
    """
    pts = f.breakpoints
    out = []
    for i, ((_, v0), (_, v1)) in enumerate(zip(pts, pts[1:])):
        r0, r1 = ranks[i], ranks[i + 1]
        if r0 != r1:
            rising = r0 < r1
        elif r0 % 2:
            # both ends lie between the same two levels: their values
            # compared by cross-products, as both denominators are positive
            lo = v0.numerator * v1.denominator
            hi = v1.numerator * v0.denominator
            if lo == hi:
                raise PreconditionError(
                    f"{name} must be locally non-constant")
            rising = lo < hi
        else:
            raise PreconditionError(f"{name} must be locally non-constant")
        if rising:
            out.append((r0, r1, 2 * i, 2 * i + 2, v0, v1, True))
        else:
            out.append((r1, r0, 2 * i + 2, 2 * i, v1, v0, False))
    return out


def _complex_edges(f1, f2):
    """The edges of {f1(s) = f2(t)}, at most one per breakpoint rectangle,
    in row-major order (f1's pieces outer), each as (from, to, same): two
    vertices (s, t, level) with t increasing from `from` to `to`, and
    whether s increases too.  f1 may be `Prepared`, whose ranked pieces
    are read as they are.

    Both restrictions to a rectangle are linear with nonzero slope, so the
    solution set there is a segment from level max(lo1, lo2) to level
    min(hi1, hi2), of positive length exactly when lo2 < hi1 and lo1 < hi2.
    At an end level that closes one piece's range the coordinate is that
    piece's knot, and the other lies strictly inside its piece.  s rises
    with the level when f1's piece rises, t when f2's does.
    """
    if isinstance(f1, Prepared):
        levels, rows = f1.levels, f1.pieces
    else:
        levels, rows = _ranked(f1)
    cols = _pieces(f2, _ranks_against(levels, f2), "f2")
    for i, (lo1, hi1, slo, shi, vlo1, vhi1, up1) in enumerate(rows):
        s_in = 2 * i + 1
        for j, col in enumerate(cols):
            lo2, hi2 = col[0], col[1]
            if lo2 >= hi1 or lo1 >= hi2:
                continue
            _, _, tlo, thi, vlo2, vhi2, up2 = col
            t_in = 2 * j + 1
            if lo1 > lo2:
                a = (slo, t_in, vlo1)
            elif lo2 > lo1:
                a = (s_in, tlo, vlo2)
            else:
                a = (slo, tlo, vlo1)
            if hi2 < hi1:
                b = (s_in, thi, vhi2)
            elif hi1 < hi2:
                b = (shi, t_in, vhi1)
            else:
                b = (shi, thi, vhi1)
            yield (a, b, up1 == up2) if up2 else (b, a, up1 == up2)


def level_complex_path(f1, f2):
    """Walk the solution complex of f1(s) = f2(t) from (0,0) to (1,1).

    Both inputs must be flat-free; f1 may be `Prepared`, whose quotient
    is walked with its ranks as they are.  Returns the walk's vertices as
    (s, t, level): s and t are positions on f1's and f2's breakpoints (2i
    at knot i, 2i + 1 strictly inside piece i), and level = f1(s) = f2(t).
    Every vertex of the complex away from the two corners has even degree,
    so a trail that never reuses an edge can only stop at (1,1).  Around a
    vertex each quadrant meets one breakpoint rectangle, and so at most one
    edge: ties at higher-degree vertices take the edge increasing s, then
    the one increasing t, and the sign pattern of the step alone decides.
    """
    adj = {}
    for eid, (a, b, same) in enumerate(_complex_edges(f1, f2)):
        # quadrant rank of the step: 2 (s falls) + 1 (t falls)
        adj.setdefault(a[:2], []).append((0 if same else 2, eid, b))
        adj.setdefault(b[:2], []).append((3 if same else 1, eid, a))

    key = (0, 0)
    goal = (2 * len(f1.breakpoints) - 2, 2 * len(f2.breakpoints) - 2)
    if key not in adj:
        raise InternalInvariantError("no traversal edge leaves (0,0)")
    used = set()
    path = [(0, 0, f1.breakpoints[0][1])]
    while key != goal:
        options = [o for o in adj[key] if o[1] not in used]
        if not options:
            raise InternalInvariantError(
                f"traversal stuck at vertex {path[-1]}")
        _, eid, vertex = min(options)
        used.add(eid)
        path.append(vertex)
        key = vertex[:2]
    return path


def _contract(f):
    """Contract each maximal flat of f to a knot.

    Returns the flat-free quotient q and spans: q's knot k is f's knot
    spans[k][0] and stands for f's knots spans[k][0] .. spans[k][1] (one
    knot, or the two ends of a flat), and q's piece k runs over the levels
    of f's piece spans[k][1].  q has only `breakpoints`, f's own at the
    first knot of each span, as the walk reads them: unlike a PLFunction
    it is not canonical, so a contracted knot stays even where it is
    collinear with its neighbours, and the walk has a vertex wherever a
    climber must cross a plateau.  A flat-free f is its own quotient, with
    spans None.
    """
    pts = f.breakpoints
    parts = [(v.numerator, v.denominator) for _, v in pts]
    spans = [[0, 0]]
    for k in range(1, len(pts)):
        if parts[k] == parts[k - 1]:
            spans[-1][1] = k
        else:
            spans.append([k, k])
    if len(spans) == len(pts):
        return f, None
    return (SimpleNamespace(breakpoints=tuple(pts[lo] for lo, _ in spans)),
            [tuple(s) for s in spans])


def _lift_position(pos, before, after, spans):
    """Positions on f for quotient position pos, in walking order.

    A piece and an uncontracted knot have one.  On a contracted knot the
    climber enters its plateau from the side of `before` and leaves toward
    `after` (None at the start and end of the walk, which count as coming
    from the left and leaving to the right); leaving on the other side
    means crossing the plateau, so both ends are returned.
    """
    if spans is None:
        return (pos,)
    k, inside = divmod(pos, 2)
    lo, hi = spans[k]
    if inside:
        return (2 * hi + 1,)
    enter = 2 * lo if before is None or before < pos else 2 * hi
    leave = 2 * hi if after is None or after > pos else 2 * lo
    return (enter,) if enter == leave else (enter, leave)


def _lift(path, spans1, spans2):
    """Lift a walk of the contracted quotients back to the profiles.

    Every contracted knot is a knot of its quotient, so the walk has a
    vertex wherever it meets one.  There the climber who crosses the
    plateau takes an inserted step at the vertex's level while the other
    waits, f1's climber first.
    """
    lifted = []
    last = len(path) - 1
    for k, (s, t, level) in enumerate(path):
        before = path[k - 1] if k > 0 else (None, None)
        after = path[k + 1] if k < last else (None, None)
        ss = _lift_position(s, before[0], after[0], spans1)
        ts = _lift_position(t, before[1], after[1], spans2)
        for p in ((ss[0], ts[0]), (ss[-1], ts[0]), (ss[-1], ts[-1])):
            if not lifted or lifted[-1][:2] != p:
                lifted.append(p + (level,))
    return lifted


class Prepared:
    """A first profile checked, contracted and ranked once, for every climb
    against it: `walk` takes it in place of the profile itself.

    `profile` is the profile, on whose breakpoints the walk's positions
    lie; `breakpoints` and `spans` are its flat-free quotient's
    (`_contract`), and `levels` and `pieces` the quotient's (`_ranked`).  It is an ordinary value: whoever prepares it keeps it
    as long as they climb against it, and nothing else holds it.
    """

    def __init__(self, f):
        _check_profile(f, "f1")
        q, self.spans = _contract(f)
        self.profile = f
        self.breakpoints = q.breakpoints
        self.levels, self.pieces = _ranked(q)


def walk(f1, f2):
    """Climb: contract the flats of both profiles, walk the solution
    complex of the flat-free quotients, lift the walk back.  Returns the
    level path on f1's and f2's breakpoints, as `level_complex_path` gives
    it; the result is not checked (`solve` checks it).

    Requires first value 0, last value 1 and range [0, 1] on both sides,
    and nothing else.  f1 may be `Prepared` once for several climbs: its
    check, contraction and ranks are then not repeated.  The walk reads
    each profile's `breakpoints` values only, so any increasing
    parameters serve: a PLFunction on [0, 1], or the induction's closing
    sum in its own parameter up to t_stop.  Fold
    levels of f1 and f2 may coincide: a same-level meeting only creates
    even-degree vertices (4 for two maxima or two minima, 0 for a maximum
    and a minimum), so the trail argument still lands at (1,1).
    Flat-free profiles skip the contraction, and their path is the walk
    itself.
    """
    h = f1 if isinstance(f1, Prepared) else Prepared(f1)
    _check_profile(f2, "f2")
    q2, spans2 = _contract(f2)
    path = level_complex_path(h, q2)
    if h.spans or spans2:
        path = _lift(path, h.spans, spans2)
    return path


def _parameter(f, pos, level):
    """The parameter of f at position pos (2i: knot i; 2i + 1: inside piece
    i, where f takes `level`)."""
    pts = f.breakpoints
    k, inside = divmod(pos, 2)
    if not inside:
        return pts[k][0]
    (t0, v0), (t1, v1) = pts[k], pts[k + 1]
    return t0 + (level - v0) * (t1 - t0) / (v1 - v0)


def path_points(f1, f2, path):
    """The (s, t) parameters of a level path's vertices."""
    return [(_parameter(f1, s, v), _parameter(f2, t, v)) for s, t, v in path]


def solution(f1, f2, path):
    """g1 and g2 of a level path: vertex k at parameter k/m, linear between."""
    m = len(path) - 1
    us = [rat(k, m) for k in range(m + 1)]
    pts = path_points(f1, f2, path)
    return ClimbSolution(g1=PLFunction(zip(us, (s for s, _ in pts))),
                         g2=PLFunction(zip(us, (t for _, t in pts))))


class Companion:
    """A function q read along a profile p at the positions and levels of a
    level path.

    rows are (t, p(t), q(t)) with t increasing, at least at every knot of
    p and of q; `knots`, the times of p's breakpoints, are among them.
    Rows strictly inside a piece of p (a knot of q, or a bend that cancels
    in p's canonical form) split it, so q is linear between consecutive
    rows.  `split[k]` records whether any row splits piece k; one more
    entry, False, stands for p's last knot, where no piece starts, so a
    step's piece min(pos0, pos1) // 2 always has a flag.
    """

    def __init__(self, rows, knots):
        self.rows = rows
        self.index = []  # the row of each knot of p
        r = 0
        for t in knots:
            c, d = t.numerator, t.denominator
            while (rows[r][0] is not t
                   and (rows[r][0].numerator != c
                        or rows[r][0].denominator != d)):
                r += 1
            self.index.append(r)
        index = self.index
        self.split = [b > a + 1 for a, b in zip(index, index[1:])] + [False]

    def knot(self, pos):
        """The row of p's knot at position pos (even)."""
        return self.rows[self.index[pos // 2]]

    def segment(self, pos, level):
        """The rows (r0, r1) that bound the segment of piece pos // 2 where
        p takes `level`."""
        rows, k = self.rows, pos // 2
        a, b = self.index[k], self.index[k + 1]
        if b > a + 1:
            rising = rows[a][1] < rows[b][1]
            while a + 1 < b and (rows[a + 1][1] < level) == rising:
                a += 1
        return rows[a], rows[a + 1]

    def at(self, pos, level):
        """q at position pos of p, where p takes `level`."""
        if pos % 2 == 0:
            return self.knot(pos)[2]
        r0, r1 = self.segment(pos, level)
        return lerp(offset(level, r0[1], r1[1]), r0[2], r1[2])

    def inside(self, pos0, pos1, level0, level1):
        """The rows strictly inside one step of a level path, from pos0 at
        level0 to pos1 at level1, in t order.

        A step moves along one piece of p, or waits on one point of it.
        A step at one level crosses a flat piece from knot to knot, and
        every row inside the piece lies on it; a sloped step crosses the
        rows of its piece strictly between its two levels.
        """
        if pos0 == pos1 and (pos0 % 2 == 0 or level0 == level1):
            return ()
        k = min(pos0, pos1) // 2
        inner = self.rows[self.index[k] + 1:self.index[k + 1]]
        if level0 == level1 or not inner:
            return inner
        lo, hi = sorted((level0, level1))
        return [r for r in inner if lo < r[1] < hi]


def read_path(path, along1, along2):
    """q1 o g1 and q2 o g2, for g1 and g2 the maps of a level path (vertex
    k at parameter u = k/m, linear between) and q1, q2 read along its two
    profiles (`Companion`), in one pass over the path; and g2 itself.

    Returns rows (u, q1(g1(u)), q2(g2(u))) at every vertex and at every
    row of either companion that a step crosses, where `plfun.compose`
    would break either function, and g2's points (u, g2(u)) at the
    vertices.  Each value inside a piece is one interpolation on one row
    segment (`scalar.lerp`); on f2's side q2 and g2 share its fraction.
    The rows a step crosses on either side are merged into one u order
    (`_crossed`), which is called only when the step's piece is split on
    one side or the other (`Companion.split`): elsewhere it finds no row.
    """
    m = len(path) - 1
    rows, params = [], []
    split1, split2 = along1.split, along2.split
    prev = None
    for k, (s, t, v) in enumerate(path):
        u = rat(k, m)
        q1 = along1.at(s, v)
        if t % 2:
            r0, r1 = along2.segment(t, v)
            lam = offset(v, r0[1], r1[1])
            q2, g2 = lerp(lam, r0[2], r1[2]), lerp(lam, r0[0], r1[0])
        else:
            g2, _, q2 = along2.knot(t)
        if prev is not None and (split1[min(prev[1], s) // 2]
                                 or split2[min(prev[2], t) // 2]):
            rows += _crossed(prev, (u, s, t, v), along1, along2)
        rows.append((u, q1, q2))
        params.append((u, g2))
        prev = u, s, t, v, q1, q2
    return rows, params


def _crossed(prev, vertex, along1, along2):
    """The rows (u, q1, q2) strictly inside the step from `prev` (u, s, t,
    level, q1, q2) to `vertex` (u, s, t, level), in u order."""
    u0, s0, t0, v0, w1, w2 = prev
    u1, s1, t1, v1 = vertex
    c1 = along1.inside(s0, s1, v0, v1)
    c2 = along2.inside(t0, t1, v0, v1)
    if not (c1 or c2):
        return ()
    if v0 == v1:
        # one climber crosses a flat, its rows placed by parameter, while
        # the other waits with its value
        if c1:
            ta, tb = along1.knot(s0)[0], along1.knot(s1)[0]
            out = [(lerp(offset(r[0], ta, tb), u0, u1), r[2], w2)
                   for r in c1]
        else:
            ta, tb = along2.knot(t0)[0], along2.knot(t1)[0]
            out = [(lerp(offset(r[0], ta, tb), u0, u1), w1, r[2])
                   for r in c2]
    else:
        # both sides share the level at every point of a sloped step: a row
        # is placed by its level and read on the other side's piece there,
        # and a row of each side at one level is one row
        s, t = min(s0, s1) | 1, min(t0, t1) | 1
        by_level = {r[1]: [r[2], None] for r in c1}
        for r in c2:
            by_level.setdefault(r[1], [None, None])[1] = r[2]
        out = [(lerp(offset(p, v0, v1), u0, u1),
                along1.at(s, p) if q1 is None else q1,
                along2.at(t, p) if q2 is None else q2)
               for p, (q1, q2) in by_level.items()]
    return sorted(out)  # by u: the rows' parameters differ


def solve(f1, f2):
    """`walk`, its g1 and g2, then an exact check of their endpoints and of
    f1∘g1 = f2∘g2; raises InternalInvariantError when either fails."""
    sol = solution(f1, f2, walk(f1, f2))
    _assert_solution(f1, f2, sol)
    return sol


def _assert_solution(f1, f2, sol):
    if pl_eval(sol.g1, ZERO) != 0 or pl_eval(sol.g1, ONE) != 1:
        raise InternalInvariantError("g1 endpoint values wrong")
    if pl_eval(sol.g2, ZERO) != 0 or pl_eval(sol.g2, ONE) != 1:
        raise InternalInvariantError("g2 endpoint values wrong")
    if compose(f1, sol.g1) != compose(f2, sol.g2):
        raise InternalInvariantError("composition equality failed")


# An alias of `walk` only: the benchmark's layer trace looks the climb up
# by this name and wraps every binding of the same function object, so it
# counts the induction's calls (`climb.walk`) and `solve`'s (which reads the
# global `walk`) alike.  tests/test_layertrace.py's
# test_traced_solve_records_every_solve_target fails if the alias stops
# naming the induction's climb.
solve_either_orientation = walk
