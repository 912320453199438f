"""Polyline curves in the plane over a strictly increasing knot sequence.

Canonicalization only removes knots at which both coordinate graphs are
collinear with their neighbors, so the curve is preserved as a *function*
of the parameter, never just as a point set.

Kernel costs, for curves a and b with m and k segments (each step is O(1)
exact rational operations):

- PLCurve(...): O(m); canonicalization tests x and then y with plfun's
  integer collinearity test (`_collinear`), building no Fraction.
- curve(t): O(log m), a bisection of the knots.
- curve_from_functions(fx, fy): O(pieces(fx) + pieces(fy)), one merge-walk.
- point_on_curve(curve, q): O(m) box tests; it stops at the first segment
  whose box holds q and whose line passes through q, without a division.
- point_curve_distance_sq(curve, q): the same O(m) membership test first,
  returning zero for a point on the curve; only a point off the curve pays
  the division-heavy distance to every segment.
- curve_intersections(a, b): O(m k) box tests, plus an exact segment
  intersection only for the pairs whose bounding boxes meet.  With
  first=True it stops after the first segment of a that yields any hit, so
  it costs O(j k) box tests when that is a's j-th segment.
"""

from bisect import bisect_right
from dataclasses import dataclass

from .errors import DomainError, PreconditionError
from .plfun import PLFunction, _collinear, _parts, union_knot_values
from .scalar import ONE, ZERO, rat


def _canonical(knots, verts):
    """Drop interior knots at which both coordinates are collinear with
    their neighbors; the kept knots and vertices are the input's own."""
    out = []
    parts = []  # parts[i] = (t, x, y) of out[i] as (numerator, denominator) pairs
    for t, p in zip(knots, verts):
        q = (_parts(t), _parts(p[0]), _parts(p[1]))
        while len(out) >= 2:
            (t0, x0, y0), (t1, x1, y1) = parts[-2], parts[-1]
            if not (_collinear(t0, t1, q[0], x0, x1, q[1])
                    and _collinear(t0, t1, q[0], y0, y1, q[2])):
                break
            out.pop()
            parts.pop()
        out.append((t, p))
        parts.append(q)
    return out


@dataclass(frozen=True)
class PLCurve:
    """knots: strictly increasing parameters 0..1; vertices: matching points."""

    knots: tuple
    vertices: tuple

    def __init__(self, knots, vertices):
        ks = [rat(t) for t in knots]
        vs = [(rat(x), rat(y)) for x, y in vertices]
        if len(ks) != len(vs):
            raise PreconditionError("knot and vertex counts differ")
        if len(ks) < 2:
            raise PreconditionError("a curve needs at least two vertices")
        if ks[0] != 0 or ks[-1] != 1:
            raise PreconditionError("knots must span t = 0 .. 1")
        for a, b in zip(ks, ks[1:]):
            if not a < b:
                raise PreconditionError(f"knots not strictly increasing at t={b}")
        pairs = _canonical(ks, vs)
        object.__setattr__(self, "knots", tuple(t for t, _ in pairs))
        object.__setattr__(self, "vertices", tuple(p for _, p in pairs))

    def __call__(self, t):
        t = rat(t)
        if t < 0 or t > 1:
            raise DomainError(f"argument {t} outside [0,1]", witness=t)
        ks, vs = self.knots, self.vertices
        i = bisect_right(ks, t) - 1
        t0, (x0, y0) = ks[i], vs[i]
        if t == t0:  # always so at t = 1, the last knot
            return (x0, y0)
        t1, (x1, y1) = ks[i + 1], vs[i + 1]
        w = (t - t0) / (t1 - t0)
        return (x0 + (x1 - x0) * w, y0 + (y1 - y0) * w)

    def x_function(self):
        return PLFunction(tuple(zip(self.knots, (p[0] for p in self.vertices))))

    def y_function(self):
        return PLFunction(tuple(zip(self.knots, (p[1] for p in self.vertices))))

    def segments(self):
        """((t0, t1, p0, p1), ...) for each polyline piece."""
        return tuple(
            (self.knots[i], self.knots[i + 1], self.vertices[i], self.vertices[i + 1])
            for i in range(len(self.knots) - 1)
        )


def curve_from_functions(fx, fy):
    rows = union_knot_values(fx, fy)
    return PLCurve([t for t, _, _ in rows], [(x, y) for _, x, y in rows])


def diagonal_curve():
    return PLCurve((ZERO, ONE), ((ZERO, ZERO), (ONE, ONE)))


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


@dataclass(frozen=True)
class Intersection:
    """A single crossing: curve parameters and the common point."""

    t_a: object
    t_b: object
    point: tuple


@dataclass(frozen=True)
class Overlap:
    """Collinear overlap reported as parameter intervals on both curves."""

    t_a: tuple
    t_b: tuple
    p0: tuple
    p1: tuple


def _segment_point_param(p0, p1, q):
    """Parameter in [0,1] placing q on segment p0..p1, or None."""
    dx, dy = p1[0] - p0[0], p1[1] - p0[1]
    if dx == 0 and dy == 0:
        return rat(0) if q == p0 else None
    if _cross(p0, p1, q) != 0:
        return None
    s = ((q[0] - p0[0]) * dx + (q[1] - p0[1]) * dy) / (dx * dx + dy * dy)
    return s if 0 <= s <= 1 else None


def _intersect_segments(p0, p1, q0, q1):
    """All intersections of two closed segments: list of ('point', s, u, pt)
    or ('overlap', (s0, s1), (u0, u1), pt0, pt1), parameters in [0,1]."""
    d = _cross((ZERO, ZERO), (p1[0] - p0[0], p1[1] - p0[1]), (q1[0] - q0[0], q1[1] - q0[1]))
    if d != 0:
        r = (q0[0] - p0[0], q0[1] - p0[1])
        s = _cross((ZERO, ZERO), r, (q1[0] - q0[0], q1[1] - q0[1])) / d
        u = _cross((ZERO, ZERO), r, (p1[0] - p0[0], p1[1] - p0[1])) / d
        if 0 <= s <= 1 and 0 <= u <= 1:
            pt = (p0[0] + s * (p1[0] - p0[0]), p0[1] + s * (p1[1] - p0[1]))
            return [("point", s, u, pt)]
        return []
    # parallel; handle degenerate (zero-length) segments via point placement
    if p0 == p1:
        u = _segment_point_param(q0, q1, p0)
        return [("point", ZERO, u, p0)] if u is not None else []
    if q0 == q1:
        s = _segment_point_param(p0, p1, q0)
        return [("point", s, ZERO, q0)] if s is not None else []
    if _cross(p0, p1, q0) != 0:
        return []
    # collinear: project q-endpoints onto p's parameter
    dx, dy = p1[0] - p0[0], p1[1] - p0[1]
    den = dx * dx + dy * dy
    s_q0 = ((q0[0] - p0[0]) * dx + (q0[1] - p0[1]) * dy) / den
    s_q1 = ((q1[0] - p0[0]) * dx + (q1[1] - p0[1]) * dy) / den
    lo_s, hi_s = min(s_q0, s_q1), max(s_q0, s_q1)
    lo, hi = max(lo_s, ZERO), min(hi_s, ONE)
    if lo > hi:
        return []
    p_at = lambda s: (p0[0] + s * dx, p0[1] + s * dy)
    u_of = lambda s: (s - s_q0) / (s_q1 - s_q0)
    if lo == hi:
        return [("point", lo, u_of(lo), p_at(lo))]
    return [("overlap", (lo, hi), (u_of(lo), u_of(hi)), p_at(lo), p_at(hi))]


def _box(p0, p1):
    """(x_lo, x_hi, y_lo, y_hi) of the segment p0..p1."""
    x0, x1 = (p0[0], p1[0]) if p0[0] <= p1[0] else (p1[0], p0[0])
    y0, y1 = (p0[1], p1[1]) if p0[1] <= p1[1] else (p1[1], p0[1])
    return x0, x1, y0, y1


def curve_intersections(a, b, first=False):
    """All intersections of two polylines, ordered by parameter on `a`.

    Transversal crossings come back as Intersection, collinear overlaps as
    Overlap with parameter intervals on both curves.  With first=True only
    the hits on the first segment of `a` that meets `b` are returned; hits
    on later segments of `a` lie no earlier on `a`, so the leading item's
    parameter on `a` is the same as with first=False.
    """
    points = {}
    overlaps = []
    b_segs = [(seg, _box(seg[2], seg[3])) for seg in b.segments()]
    for ta0, ta1, pa0, pa1 in a.segments():
        ax0, ax1, ay0, ay1 = _box(pa0, pa1)
        for (tb0, tb1, pb0, pb1), (bx0, bx1, by0, by1) in b_segs:
            # closed segments with disjoint bounding boxes cannot meet
            if bx1 < ax0 or ax1 < bx0 or by1 < ay0 or ay1 < by0:
                continue
            for hit in _intersect_segments(pa0, pa1, pb0, pb1):
                if hit[0] == "point":
                    _, s, u, pt = hit
                    ta = ta0 + s * (ta1 - ta0)
                    tb = tb0 + u * (tb1 - tb0)
                    points.setdefault((ta, tb), pt)
                else:
                    _, (s0, s1), (u0, u1), pt0, pt1 = hit
                    ta = (ta0 + s0 * (ta1 - ta0), ta0 + s1 * (ta1 - ta0))
                    ub = (tb0 + u0 * (tb1 - tb0), tb0 + u1 * (tb1 - tb0))
                    overlaps.append(Overlap(ta, ub, pt0, pt1))
        if first and (points or overlaps):
            break

    merged = _merge_overlaps(overlaps)

    def swallowed(ta, tb):
        # point hits inside a collinear overlap are reported by the overlap
        for ov in merged:
            lo, hi = ov.t_a
            if lo <= ta <= hi and min(ov.t_b) <= tb <= max(ov.t_b):
                return True
        return False

    out = [Intersection(ta, tb, pt) for (ta, tb), pt in points.items()
           if not swallowed(ta, tb)]
    items = sorted(out, key=lambda it: (it.t_a, it.t_b)) + merged
    items.sort(key=lambda it: it.t_a if isinstance(it, Intersection) else it.t_a[0])
    return items


def _merge_overlaps(overlaps):
    if not overlaps:
        return []
    overlaps = sorted(overlaps, key=lambda ov: (ov.t_a[0], ov.t_a[1], min(ov.t_b)))
    merged = [overlaps[0]]
    for ov in overlaps[1:]:
        last = merged[-1]
        if ov.t_a[0] <= last.t_a[1] and ov.t_a == last.t_a and ov.t_b == last.t_b:
            continue
        merged.append(ov)
    return merged


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


def point_segment_distance_sq(q, p0, p1):
    return _segment_nearest(q, p0, p1)[0]


def point_curve_distance_sq(curve, q):
    if _on_polyline(curve.vertices, q):
        return ZERO
    return min(
        point_segment_distance_sq(q, p0, p1) for _, _, p0, p1 in curve.segments()
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
    """Exact membership: q lies in some segment's bounding box and on its
    line (a zero-length segment's box is its one point)."""
    return _on_polyline(curve.vertices, q)


def _on_polyline(vs, q):
    qx, qy = q
    for p0, p1 in zip(vs, vs[1:]):
        if ((p0[0] <= qx <= p1[0] or p1[0] <= qx <= p0[0])
                and (p0[1] <= qy <= p1[1] or p1[1] <= qy <= p0[1])
                and _cross(p0, p1, q) == 0):
            return True
    return False


def first_parameter_at(curve, q):
    """Smallest parameter t with curve(t) == q, or None.  Segments run in t
    order and a stalled segment places q at its start, so the first hit is
    the smallest."""
    for t0, t1, p0, p1 in curve.segments():
        s = _segment_point_param(p0, p1, q)
        if s is not None:
            return t0 + s * (t1 - t0)
    return None


def interior_vertices(curve):
    return curve.vertices[1:-1]


def is_unit_interior(curve):
    """True when the curve stays in the open unit square for t in (0,1).

    Assumes endpoints (0,0) and (1,1); by convexity a polyline violates
    interiority only at a vertex.
    """
    for x, y in interior_vertices(curve):
        if not (0 < x < 1 and 0 < y < 1):
            return False
    return True


def is_lower_triangle_interior(curve):
    """True when all interior-parameter points satisfy 0 < y < x < 1.

    A bare diagonal (no interior vertices) runs on the boundary y = x,
    so it does not qualify.
    """
    verts = interior_vertices(curve)
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
    if not 0 <= t_cut < 1:
        raise PreconditionError(f"cut parameter {t_cut} outside [0,1)")
    cx, cy = curve(t_cut)
    if cx != cy:
        raise PreconditionError(f"curve({t_cut}) = ({cx}, {cy}) is off the diagonal")
    a = cx
    if a >= 1:
        raise PreconditionError("cut point must differ from (1,1)")
    scale = 1 / (ONE - a)
    w = ONE - t_cut
    ts = sorted({(t - t_cut) / w for t in curve.knots if t_cut < t < 1} | {ZERO, ONE})
    verts = []
    for t in ts:
        x, y = curve(t_cut + t * w)
        verts.append(((x - a) * scale, (y - a) * scale))
    return PLCurve(ts, verts), a


def swap_curve(curve):
    return PLCurve(curve.knots, [(y, x) for x, y in curve.vertices])
