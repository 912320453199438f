"""Polyline curves in the plane over a strictly increasing knot sequence.

A curve is the pair of its canonical coordinate functions x(t) and y(t),
and every operation that builds a curve works on those two.  A knot stays
where either coordinate bends, so the curve is preserved as a *function*
of the parameter, never just as a point set.

Kernel costs, for curves a and b with m and k segments (each step is O(1)
exact rational operations):

- PLCurve(...): O(m); each coordinate function is built once, and one
  pass keeps the input's own knots and vertices where either one bends.
- x_function(), y_function(): O(1), the stored functions.
- curve(t): O(log m), `pl_eval` of each coordinate.
- curve_from_functions(fx, fy): O(pieces(fx) + pieces(fy)), one
  merge-walk; the functions are stored as given, with no canonical pass.
- swap_curve(curve): O(m), swapping the functions; normalize_tail: O(m),
  a `pl_window` and an affine map of each.
- point_on_curve(curve, q): O(m) side tests against the curve's segment
  lines, built once per curve on first use; it stops at the first segment
  whose line passes through q and whose box holds q.
- point_curve_distance_sq(curve, q): the same O(m) membership test first,
  returning zero for a point on the curve; only a point off the curve pays
  the division-heavy distance to every segment.
- curve_intersections(a, b): the meeting earliest on a, in O(j k) side
  tests when it lies on a's j-th segment (O(m k) when the curves miss),
  plus the exact segment meeting only for the pairs where neither segment
  lies strictly on one side of the other's line.

A side test builds no Fraction: the point (a/b, c/d) is the integers
(a d, c b, b d), a line is the cross product of two such points, and the
sign of a point's dot product with a line is its side.
"""

from dataclasses import dataclass
from functools import cached_property

from .errors import PreconditionError
from .plfun import (
    PLFunction,
    pl_eval,
    pl_scale_values,
    pl_window,
    union_knot_values,
)
from .scalar import ONE, ZERO, rat


@dataclass(frozen=True)
class PLCurve:
    """The curve t -> (x(t), y(t)) of two PL functions on [0, 1], built once
    and returned by x_function() and y_function().  knots are where either
    one bends, and vertices the input's own points there.  Only knots and
    vertices are fields, so they alone take part in ==, hash and repr; the
    side tests' segment lines are built on first use and die with the
    curve."""

    knots: tuple
    vertices: tuple

    def __init__(self, knots, vertices):
        ks = [rat(t) for t in knots]
        vs = [(rat(x), rat(y)) for x, y in vertices]
        if len(ks) != len(vs):
            raise PreconditionError("knot and vertex counts differ")
        fx = PLFunction(zip(ks, (p[0] for p in vs)))
        fy = PLFunction(zip(ks, (p[1] for p in vs)))
        # each canonical form keeps a subsequence of ks: merge the two.  The
        # Fraction backend keeps ks' own objects, so `is` mostly settles it
        xk, yk = fx.knots, fy.knots
        i = j = 0
        kept = []
        for t, p in zip(ks, vs):
            on_x = t is xk[i] or t == xk[i]
            on_y = t is yk[j] or t == yk[j]
            if on_x or on_y:
                kept.append((t, p))
            i, j = i + on_x, j + on_y
        self._set(fx, fy, [t for t, _ in kept], [p for _, p in kept])

    def _set(self, fx, fy, knots, vertices):  # frozen: fill __dict__ directly
        self.__dict__.update(knots=tuple(knots), vertices=tuple(vertices),
                             _x=fx, _y=fy)

    @classmethod
    def _of(cls, fx, fy, knots, vertices):
        """The curve of fx and fy, whose knots and vertices the caller
        already has: no validation and no canonical pass."""
        curve = object.__new__(cls)
        curve._set(fx, fy, knots, vertices)
        return curve

    def __call__(self, t):
        return pl_eval(self._x, t), pl_eval(self._y, t)

    def x_function(self):
        return self._x

    def y_function(self):
        return self._y

    def segments(self):
        """((t0, t1, p0, p1), ...) for each polyline piece."""
        ks, vs = self.knots, self.vertices
        return tuple(zip(ks, ks[1:], vs, vs[1:]))

    @cached_property
    def _lines(self):
        """Each segment's line as integers (A, B, C); a zero-length
        segment's is (0, 0, 0), on which every point lies."""
        ps = [_homogeneous(p) for p in self.vertices]
        return tuple(map(_line, ps, ps[1:]))


def curve_from_functions(fx, fy):
    """The curve (fx, fy); both are canonical, so every union knot is a
    bend of one of them and the curve needs no canonical pass of its own."""
    rows = union_knot_values(fx, fy)
    return PLCurve._of(fx, fy, [t for t, _, _ in rows],
                       [(x, y) for _, x, y in rows])


def diagonal_curve():
    return PLCurve((ZERO, ONE), ((ZERO, ZERO), (ONE, ONE)))


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _homogeneous(p):
    """The rational point (a/b, c/d) as the integers (a d, c b, b d)."""
    x, y = p
    b, d = x.denominator, y.denominator
    return x.numerator * d, y.numerator * b, b * d


def _line(p, q):
    """The line through the homogeneous points p and q: their cross
    product, whose dot product with r has the sign of _cross(p, q, r)."""
    x0, y0, w0 = p
    x1, y1, w1 = q
    return y0 * w1 - w0 * y1, w0 * x1 - x0 * w1, x0 * y1 - y0 * x1


def _sides(u, vs):
    """The sign, -1, 0 or 1, of the dot product of u with each of vs: one
    point's side of each line, or each point's side of one line."""
    a, b, c = u
    return [(d > 0) - (d < 0) for d in (a * x + b * y + c * w for x, y, w in vs)]


@dataclass(frozen=True)
class Intersection:
    """A meeting of two curves: its parameter on each and the common point."""

    t_a: object
    t_b: object
    point: tuple


def _segment_point_param(p0, p1, q):
    """Parameter in [0,1] placing q on segment p0..p1, or None."""
    dx, dy = p1[0] - p0[0], p1[1] - p0[1]
    if dx == 0 and dy == 0:
        return ZERO if q == p0 else None
    if _cross(p0, p1, q) != 0:
        return None
    s = ((q[0] - p0[0]) * dx + (q[1] - p0[1]) * dy) / (dx * dx + dy * dy)
    return s if 0 <= s <= 1 else None


def _earliest_meeting(p0, p1, q0, q1):
    """(s, u, point) of the meeting of the closed segments p0..p1 and q0..q1
    with the smallest s, then the smallest u (both in [0,1]), or None.  A
    collinear overlap meets first at its start on p0..p1."""
    d = _cross((ZERO, ZERO), (p1[0] - p0[0], p1[1] - p0[1]), (q1[0] - q0[0], q1[1] - q0[1]))
    if d != 0:
        r = (q0[0] - p0[0], q0[1] - p0[1])
        s = _cross((ZERO, ZERO), r, (q1[0] - q0[0], q1[1] - q0[1])) / d
        u = _cross((ZERO, ZERO), r, (p1[0] - p0[0], p1[1] - p0[1])) / d
        if 0 <= s <= 1 and 0 <= u <= 1:
            return s, u, (p0[0] + s * (p1[0] - p0[0]), p0[1] + s * (p1[1] - p0[1]))
        return None
    # parallel; a zero-length segment meets at its first parameter
    if p0 == p1:
        u = _segment_point_param(q0, q1, p0)
        return None if u is None else (ZERO, u, p0)
    if q0 == q1:
        s = _segment_point_param(p0, p1, q0)
        return None if s is None else (s, ZERO, q0)
    if _cross(p0, p1, q0) != 0:
        return None
    # collinear: project q's endpoints onto p's parameter
    dx, dy = p1[0] - p0[0], p1[1] - p0[1]
    den = dx * dx + dy * dy
    s_q0 = ((q0[0] - p0[0]) * dx + (q0[1] - p0[1]) * dy) / den
    s_q1 = ((q1[0] - p0[0]) * dx + (q1[1] - p0[1]) * dy) / den
    lo = max(min(s_q0, s_q1), ZERO)
    if lo > min(max(s_q0, s_q1), ONE):
        return None
    return lo, (lo - s_q0) / (s_q1 - s_q0), (p0[0] + lo * dx, p0[1] + lo * dy)


def curve_intersections(a, b):
    """The meeting of two polylines with the smallest parameter on `a`, as a
    list of at most one Intersection.

    A collinear overlap meets at its start, and a tie on `a` keeps the
    smallest parameter on `b`.  Meetings on later segments of `a` lie no
    earlier on `a`, so the scan stops after the first segment of `a` that
    meets `b`.  A pair of segments is skipped when the ends of one lie
    strictly on one side of the other's line; each vertex of `a` is tested
    against b's lines once, for both segments it ends.
    """
    best = None
    b_segs, b_lines = b.segments(), b._lines
    p = _homogeneous(a.vertices[0])
    p_sides = _sides(p, b_lines)
    for ta0, ta1, pa0, pa1 in a.segments():
        q = _homogeneous(pa1)
        q_sides = _sides(q, b_lines)
        line = _line(p, q)
        for j, (sp, sq) in enumerate(zip(p_sides, q_sides)):
            if sp == sq != 0:
                continue
            tb0, tb1, pb0, pb1 = b_segs[j]
            s0, s1 = _sides(line, (_homogeneous(pb0), _homogeneous(pb1)))
            if s0 == s1 != 0:
                continue
            hit = _earliest_meeting(pa0, pa1, pb0, pb1)
            if hit is not None:
                s, u, pt = hit
                ts = (ta0 + s * (ta1 - ta0), tb0 + u * (tb1 - tb0))
                if best is None or ts < best[0]:
                    best = (ts, pt)
        if best is not None:
            return [Intersection(*best[0], best[1])]
        p, p_sides = q, q_sides
    return []


def _segment_nearest(q, p0, p1):
    """(squared distance, point) of the clamped projection of q onto the
    segment p0..p1; a zero-length segment projects to p0."""
    dx, dy = p1[0] - p0[0], p1[1] - p0[1]
    den = dx * dx + dy * dy
    if den == 0:
        cand = p0
    else:
        s = ((q[0] - p0[0]) * dx + (q[1] - p0[1]) * dy) / den
        s = ZERO if s < 0 else ONE if s > 1 else s
        cand = (p0[0] + s * dx, p0[1] + s * dy)
    ex, ey = q[0] - cand[0], q[1] - cand[1]
    return ex * ex + ey * ey, cand


def point_curve_distance_sq(curve, q):
    if _on_polyline(curve, q):
        return ZERO
    return min(
        _segment_nearest(q, p0, p1)[0] for _, _, p0, p1 in curve.segments()
    )


def nearest_point_on_curve(curve, q):
    """Closest curve point to q (stable tie-break: earliest segment)."""
    best = None
    for _, _, p0, p1 in curve.segments():
        d2, cand = _segment_nearest(q, p0, p1)
        if best is None or d2 < best[0]:
            best = (d2, cand)
    return best[1]


def point_on_curve(curve, q):
    """Exact membership: q lies on some segment's line and in its bounding
    box (a zero-length segment's line holds every point, its box one)."""
    return _on_polyline(curve, q)


def _on_polyline(curve, q):
    qx, qy = q
    x, y, w = _homogeneous(q)
    vs = curve.vertices
    for (a, b, c), p0, p1 in zip(curve._lines, vs, vs[1:]):
        if (a * x + b * y + c * w == 0
                and (p0[0] <= qx <= p1[0] or p1[0] <= qx <= p0[0])
                and (p0[1] <= qy <= p1[1] or p1[1] <= qy <= p0[1])):
            return True
    return False


def is_unit_interior(curve):
    """True when the curve stays in the open unit square for t in (0,1).

    Assumes endpoints (0,0) and (1,1); by convexity a polyline violates
    interiority only at a vertex.
    """
    for x, y in curve.vertices[1:-1]:
        if not (0 < x < 1 and 0 < y < 1):
            return False
    return True


def is_lower_triangle_interior(curve):
    """True when all interior-parameter points satisfy 0 < y < x < 1.

    A bare diagonal (no interior vertices) runs on the boundary y = x,
    so it does not qualify.
    """
    verts = curve.vertices[1:-1]
    if not verts:
        return False
    for x, y in verts:
        if not (0 < y and y < x and x < 1):
            return False
    return True


def require_endpoints(curve):
    """The curve must run from (0,0) to (1,1)."""
    s, e = (ZERO, ZERO), (ONE, ONE)
    if curve.vertices[0] != s or curve.vertices[-1] != e:
        raise PreconditionError(
            f"curve endpoints {curve.vertices[0]} .. {curve.vertices[-1]} "
            f"differ from required {s} .. {e}"
        )


def normalize_tail(curve, t_cut):
    """Affinely map the tail curve([t_cut, 1]) so it runs from (0,0) to (1,1).

    Requires curve(t_cut) = (a, a) on the main diagonal with a < 1; each
    coordinate is shifted by -a and scaled by 1/(1-a).  The parameter
    window [t_cut, 1] is re-spread onto [0, 1].
    """
    t_cut = rat(t_cut)
    a, cy = curve(t_cut)  # DomainError outside [0, 1]
    if a != cy:
        raise PreconditionError(f"curve({t_cut}) = ({a}, {cy}) is off the diagonal")
    if a >= 1:
        raise PreconditionError("cut point must differ from (1,1)")
    scale = 1 / (ONE - a)
    fx, fy = (pl_scale_values(pl_window(f, t_cut, ONE), scale, -a * scale)
              for f in (curve.x_function(), curve.y_function()))
    return curve_from_functions(fx, fy), a


def swap_curve(curve):
    return PLCurve._of(curve.y_function(), curve.x_function(), curve.knots,
                       [(y, x) for x, y in curve.vertices])
