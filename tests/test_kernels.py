"""Differential tests: the output-sensitive exact kernels against the plain
implementations they replaced, kept here verbatim as references.

Inputs are seeded random dyadic functions and curves on coarse grids, so
the degenerate cases the fast paths must get right come up often: flat and
decreasing pieces, inner values landing on outer knots, collinear overlaps,
zero-length segments and query points on segment endpoints.  The canonical
forms also get collinear runs over large coprime denominators, the inputs
a deep induction gives them.

The same inputs also pin the two exact identities of `compose` that carry
each climb identity into the partitioning functions, which the pipeline
does not re-check.
"""

import random
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from types import SimpleNamespace

import pytest

from curvepart import (
    DomainError,
    InternalInvariantError,
    PLCurve,
    PLFunction,
    PreconditionError,
    random_curve,
)
from curvepart import climb, oracle, pipeline, plcurve, plfun
from curvepart.plcurve import (
    Intersection,
    curve_from_functions,
    curve_intersections,
    point_curve_distance_sq,
    point_on_curve,
)
from curvepart.plfun import (
    compose,
    pl_combine,
    pl_scale_values,
    pl_window,
)
from curvepart.scalar import ONE, ZERO, rat

from util import (climb_pair, degenerate_lower_curve, float_curve,
                  shared_fold_pair)

# ------------------------------------------------------------- references


def ref_pl_eval(f, t):
    t = rat(t)
    if t < 0 or t > 1:
        raise DomainError(f"argument {t} outside [0,1]", witness=t)
    pts = f.breakpoints
    idx = bisect_right([p[0] for p in pts], t) - 1
    if idx >= len(pts) - 1:
        idx = len(pts) - 2
    t0, v0 = pts[idx]
    t1, v1 = pts[idx + 1]
    if t == t0:
        return v0
    return v0 + (v1 - v0) * (t - t0) / (t1 - t0)


def ref_compose(outer, inner):
    cut_levels = [t for t, _ in outer.breakpoints]
    knots = {t for t, _ in inner.breakpoints}
    pts = inner.breakpoints
    for (t0, v0), (t1, v1) in zip(pts, pts[1:]):
        if v0 == v1:
            continue
        vlo, vhi = (v0, v1) if v0 < v1 else (v1, v0)
        for u in cut_levels:
            if vlo < u < vhi:
                knots.add(t0 + (u - v0) * (t1 - t0) / (v1 - v0))
    ts = sorted(knots)
    return PLFunction([(t, ref_pl_eval(outer, ref_pl_eval(inner, t))) for t in ts])


def ref_pl_combine(f, g, op):
    ts = sorted({t for t, _ in f.breakpoints} | {t for t, _ in g.breakpoints})
    return PLFunction([(t, op(ref_pl_eval(f, t), ref_pl_eval(g, t))) for t in ts])


def ref_curve_from_functions(fx, fy):
    ts = sorted({t for t, _ in fx.breakpoints} | {t for t, _ in fy.breakpoints})
    return PLCurve(ts, [(ref_pl_eval(fx, t), ref_pl_eval(fy, t)) for t in ts])


def ref_fun_canonical(points):
    out = [points[0]]
    for t, v in points[1:]:
        while len(out) >= 2:
            t0, v0 = out[-2]
            t1, v1 = out[-1]
            if (v1 - v0) * (t - t1) == (v - v1) * (t1 - t0):
                out.pop()
            else:
                break
        out.append((t, v))
    return out


def ref_curve_canonical(knots, verts):
    out = [(knots[0], verts[0])]
    for t, p in zip(knots[1:], verts[1:]):
        while len(out) >= 2:
            t0, p0 = out[-2]
            t1, p1 = out[-1]
            keep = False
            for k in (0, 1):
                if (p1[k] - p0[k]) * (t - t1) != (p[k] - p1[k]) * (t1 - t0):
                    keep = True
            if keep:
                break
            out.pop()
        out.append((t, p))
    return out


def ref_curve_call(curve, t):
    fx = PLFunction(tuple(zip(curve.knots, (p[0] for p in curve.vertices))))
    fy = PLFunction(tuple(zip(curve.knots, (p[1] for p in curve.vertices))))
    return (ref_pl_eval(fx, t), ref_pl_eval(fy, t))


@dataclass(frozen=True)
class RefOverlap:
    """Collinear overlap as parameter intervals on both curves."""

    t_a: tuple
    t_b: tuple
    p0: tuple
    p1: tuple


def _ref_cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _ref_segment_point_param(p0, p1, q):
    dx, dy = p1[0] - p0[0], p1[1] - p0[1]
    if dx == 0 and dy == 0:
        return ZERO if q == p0 else None
    if _ref_cross(p0, p1, q) != 0:
        return None
    s = ((q[0] - p0[0]) * dx + (q[1] - p0[1]) * dy) / (dx * dx + dy * dy)
    return s if 0 <= s <= 1 else None


def ref_intersect_segments(p0, p1, q0, q1):
    """All intersections of two closed segments: list of ('point', s, u, pt)
    or ('overlap', (s0, s1), (u0, u1), pt0, pt1), parameters in [0,1]."""
    o = (ZERO, ZERO)
    d = _ref_cross(o, (p1[0] - p0[0], p1[1] - p0[1]), (q1[0] - q0[0], q1[1] - q0[1]))
    if d != 0:
        r = (q0[0] - p0[0], q0[1] - p0[1])
        s = _ref_cross(o, r, (q1[0] - q0[0], q1[1] - q0[1])) / d
        u = _ref_cross(o, r, (p1[0] - p0[0], p1[1] - p0[1])) / d
        if 0 <= s <= 1 and 0 <= u <= 1:
            pt = (p0[0] + s * (p1[0] - p0[0]), p0[1] + s * (p1[1] - p0[1]))
            return [("point", s, u, pt)]
        return []
    if p0 == p1:
        u = _ref_segment_point_param(q0, q1, p0)
        return [("point", ZERO, u, p0)] if u is not None else []
    if q0 == q1:
        s = _ref_segment_point_param(p0, p1, q0)
        return [("point", s, ZERO, q0)] if s is not None else []
    if _ref_cross(p0, p1, q0) != 0:
        return []
    dx, dy = p1[0] - p0[0], p1[1] - p0[1]
    den = dx * dx + dy * dy
    s_q0 = ((q0[0] - p0[0]) * dx + (q0[1] - p0[1]) * dy) / den
    s_q1 = ((q1[0] - p0[0]) * dx + (q1[1] - p0[1]) * dy) / den
    lo, hi = max(min(s_q0, s_q1), ZERO), min(max(s_q0, s_q1), ONE)
    if lo > hi:
        return []
    p_at = lambda s: (p0[0] + s * dx, p0[1] + s * dy)
    u_of = lambda s: (s - s_q0) / (s_q1 - s_q0)
    if lo == hi:
        return [("point", lo, u_of(lo), p_at(lo))]
    return [("overlap", (lo, hi), (u_of(lo), u_of(hi)), p_at(lo), p_at(hi))]


def ref_curve_intersections(a, b):
    """Every crossing (Intersection) and collinear overlap (RefOverlap) of
    two polylines over all segment pairs, ordered by parameter on `a`."""
    points = {}
    overlaps = []
    for ta0, ta1, pa0, pa1 in a.segments():
        for tb0, tb1, pb0, pb1 in b.segments():
            for hit in ref_intersect_segments(pa0, pa1, pb0, pb1):
                if hit[0] == "point":
                    _, s, u, pt = hit
                    ta = ta0 + s * (ta1 - ta0)
                    tb = tb0 + u * (tb1 - tb0)
                    points.setdefault((ta, tb), pt)
                else:
                    _, (s0, s1), (u0, u1), pt0, pt1 = hit
                    ta = (ta0 + s0 * (ta1 - ta0), ta0 + s1 * (ta1 - ta0))
                    ub = (tb0 + u0 * (tb1 - tb0), tb0 + u1 * (tb1 - tb0))
                    overlaps.append(RefOverlap(ta, ub, pt0, pt1))

    merged = sorted(overlaps, key=lambda ov: (ov.t_a[0], ov.t_a[1], min(ov.t_b)))

    def swallowed(ta, tb):
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


def ref_start(item):
    """(t_a, t_b, point) where a reference item starts on `a`."""
    if isinstance(item, RefOverlap):
        return item.t_a[0], item.t_b[0], item.p0
    return item.t_a, item.t_b, item.point


def ref_earliest_meeting(a, b):
    """[Intersection] of the reference item starting first on `a`, ties on
    `a` broken by the smallest parameter on `b`; [] when the curves miss."""
    items = ref_curve_intersections(a, b)
    if not items:
        return []
    t_a = ref_start(items[0])[0]
    t_b, point = min((tb, pt) for ta, tb, pt in map(ref_start, items)
                     if ta == t_a)
    return [Intersection(t_a, t_b, point)]


def ref_point_curve_distance_sq(curve, q):
    return min(plcurve._segment_nearest(q, p0, p1)[0]
               for _, _, p0, p1 in curve.segments())


def ref_point_on_curve(curve, q):
    return ref_point_curve_distance_sq(curve, q) == 0


def ref_cell_edge(s0, s1, fa0, fa1, t0, t1, fb0, fb1):
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


def ref_edge_sort_key(frm, to):
    ds = to[0] - frm[0]
    dt = to[1] - frm[1]
    return (0 if ds > 0 else 1, 0 if dt > 0 else 1, -ds, -dt)


def ref_level_complex_path(f1, f2):
    for f, name in ((f1, "f1"), (f2, "f2")):
        pts = f.breakpoints
        if any(v0 == v1 for (_, v0), (_, v1) in zip(pts, pts[1:])):
            raise PreconditionError(f"{name} must be locally non-constant")

    sp = f1.breakpoints
    tp = f2.breakpoints
    adj = {}
    edges = []
    for (s0, fa0), (s1, fa1) in zip(sp, sp[1:]):
        for (t0, fb0), (t1, fb1) in zip(tp, tp[1:]):
            seg = ref_cell_edge(s0, s1, fa0, fa1, t0, t1, fb0, fb1)
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
        options.sort(key=lambda eo: ref_edge_sort_key(cur, eo[1]))
        eid, nxt = options[0]
        used.add(eid)
        path.append(nxt)
        cur = nxt
        if cur == goal:
            break
    if cur != goal:
        raise InternalInvariantError(f"traversal stuck at vertex {cur}")
    return path


def ref_first_ordinate_hit(curve, target, start, skip=0):
    """The (skip+1)-th distinct parameter >= start where y equals target:
    each segment's hit from start on (its first point when y is at target
    there, else where it reaches target), in t order, with the repeat a
    segment's end and the next one's start make dropped."""
    ks, vs = curve.knots, curve.vertices
    hits = []
    for i in range(len(ks) - 1):
        t0, t1 = ks[i], ks[i + 1]
        if t1 < start:
            continue
        y0, y1 = vs[i][1], vs[i + 1][1]
        lo = max(t0, start)
        w = (lo - t0) / (t1 - t0)
        ylo = y0 + w * (y1 - y0)
        if ylo == target:
            hits.append(lo)
        elif y1 != y0 and ((ylo < target <= y1) or (y1 <= target < ylo)):
            hits.append(t0 + (target - y0) / (y1 - y0) * (t1 - t0))
    distinct = [h for k, h in enumerate(hits) if k == 0 or h != hits[k - 1]]
    return distinct[skip] if skip < len(distinct) else None


# ------------------------------------------------------------- generators


def rand_knots(rng, pieces, denom):
    inner = sorted(rng.sample(range(1, denom), pieces - 1))
    return [rat(0)] + [rat(k, denom) for k in inner] + [rat(1)]


def rand_fun(rng, pieces, vden=8, tden=64):
    """Values in [0, 1] on the grid k / vden, so flats, repeats and shared
    levels are common."""
    return PLFunction([(t, rat(rng.randint(0, vden), vden))
                       for t in rand_knots(rng, pieces, tden)])


def rand_curve(rng, segs, grid=4, tden=64):
    """Vertices on a coarse grid, repeating the previous vertex now and then
    (zero-length segments)."""
    verts = [(rat(rng.randint(0, grid), grid), rat(rng.randint(0, grid), grid))]
    for _ in range(segs):
        if rng.random() < 0.15:
            verts.append(verts[-1])
        else:
            verts.append((rat(rng.randint(0, grid), grid),
                          rat(rng.randint(0, grid), grid)))
    return PLCurve(rand_knots(rng, segs, tden), verts)


# pairwise coprime and not dyadic, 190 to 300 bits each: about the size of
# the denominators a deep induction builds
BIG_DENS = (3**130, 5**90, 7**75, 11**60, 13**80, 17**70, 19**70)


def big_rat(rng, scale=1):
    """A rational in (-scale, scale) over one of BIG_DENS."""
    q = rng.choice(BIG_DENS)
    return rat(rng.randrange(1 - scale * q, scale * q), q)


def big_knots(rng, pieces):
    """0, 1 and up to pieces - 1 inner knots, each over its own BIG_DENS
    entry, so neighbouring knots have coprime denominators."""
    inner = set()
    for _ in range(pieces - 1):
        q = rng.choice(BIG_DENS)
        inner.add(rat(rng.randrange(1, q), q))
    return [rat(0)] + sorted(inner) + [rat(1)]


def run_values(rng, ts):
    """Values at ts made of collinear runs of up to 20 knots, each run on
    its own line a + b t: a of either sign over a BIG_DENS entry, b of
    either sign, zero, steep (up to 2^200) or shallow (down to 3^-200).
    Now and then a point sits off its line by 1/q^2 for a q in BIG_DENS,
    far less than any knot spacing."""
    vs = []
    while len(vs) < len(ts):
        a = big_rat(rng, 4)
        b = rat(rng.randint(-9, 9), rng.randint(1, 9)) * rng.choice(
            (1, 2 ** rng.randint(60, 200), rat(1, 3 ** rng.randint(60, 200))))
        for t in ts[len(vs):len(vs) + rng.randint(1, 20)]:
            v = a + b * t
            if rng.random() < 0.1:
                v += rat(rng.choice((-1, 1)), rng.choice(BIG_DENS) ** 2)
            vs.append(v)
    return vs


# ------------------------------------------------------------------ tests


def _assert_eval_matches_reference(f, t):
    got = plfun.pl_eval(f, t)
    assert got == ref_pl_eval(f, t), (f, t)
    assert type(got) is Fraction
    assert got.denominator > 0 and gcd(got.numerator, got.denominator) == 1


def test_pl_eval_matches_reference():
    # at every knot, at 0 and 1 (as ints too) and inside pieces, on grid
    # functions and on collinear runs over large coprime denominators
    rng = random.Random(29)
    fs = [rand_fun(rng, rng.randint(1, 8)) for _ in range(100)]
    for _ in range(40):
        ts = big_knots(rng, rng.randint(1, 12))
        fs.append(PLFunction(zip(ts, run_values(rng, ts))))
    for f in fs:
        inside = [rat(rng.randint(0, 64), 64) for _ in range(4)]
        inside += [big_rat(rng) % 1 for _ in range(4)]
        for t in list(f.knots) + [0, 1, ZERO, ONE] + inside:
            _assert_eval_matches_reference(f, t)


def test_pl_eval_matches_reference_along_the_induction(monkeypatch):
    # the parameters `xs_at` walks back through the inner maps, and each
    # base and inner table at its knots, up to n = 8
    calls = []
    real = plfun.pl_eval

    def checked(f, t):
        _assert_eval_matches_reference(f, t)
        calls.append(f)
        return real(f, t)

    monkeypatch.setattr(pipeline, "pl_eval", checked)
    curves = [degenerate_lower_curve(seed) for seed in range(4)]
    curves += [random_curve(seed, vertices=8) for seed in range(4)]
    for curve in curves:
        for n in range(2, 9):
            calls.clear()
            pipeline.partition_below_diagonal(curve, n)
            pf = pipeline.build_partitioning_functions(curve, n)
            # extract_points reads y and x_n, and xs_at every inner map
            # and every base, once each
            assert len(calls) == 2 * (n - 1) + 2
            for table in pf.bases + pf.inners:
                for t in table.knots + (0, 1):
                    _assert_eval_matches_reference(table, t)


@pytest.mark.parametrize("t", (rat(-1, 3), rat(4, 3), -1, 2,
                               rat(-1, 3**200), 1 + rat(1, 3**200)))
def test_pl_eval_outside_unit_interval(t):
    f = PLFunction(((0, 0), (rat(1, 2), 1), (1, 0)))
    for evaluate in (plfun.pl_eval, ref_pl_eval):
        with pytest.raises(DomainError) as err:
            evaluate(f, t)
        assert str(err.value) == f"argument {rat(t)} outside [0,1]"
        assert err.value.witness == t


def test_compose_matches_reference():
    rng = random.Random(11)
    hits_on_knots = flat_inner = falling_inner = 0
    for _ in range(300):
        outer = rand_fun(rng, rng.randint(1, 8))
        inner = rand_fun(rng, rng.randint(1, 8))
        assert compose(outer, inner) == ref_compose(outer, inner)
        ov = set(outer.knots)
        pieces = list(zip(inner.breakpoints, inner.breakpoints[1:]))
        hits_on_knots += sum(1 for _, v in inner.breakpoints if v in ov)
        flat_inner += sum(1 for (_, a), (_, b) in pieces if a == b)
        falling_inner += sum(1 for (_, a), (_, b) in pieces if a > b)
    assert hits_on_knots and flat_inner and falling_inner


def test_compose_edge_cases():
    half, quarter = rat(1, 2), rat(1, 4)
    outer = PLFunction([(0, 0), (quarter, rat(3, 4)), (half, rat(1, 8)), (1, 1)])
    inners = [
        # falling across two outer knots, then flat on an outer knot
        PLFunction([(0, 1), (half, 0), (rat(3, 4), quarter), (1, quarter)]),
        # pieces that start and end exactly on outer knots
        PLFunction([(0, 0), (quarter, quarter), (half, half), (1, 1)]),
        PLFunction([(0, half), (1, half)]),
    ]
    for inner in inners:
        assert compose(outer, inner) == ref_compose(outer, inner)
        assert compose(inner, outer) == ref_compose(inner, outer)


def _flat_and_falling(*fs):
    pieces = [p for f in fs for p in zip(f.breakpoints, f.breakpoints[1:])]
    return (sum(1 for (_, a), (_, b) in pieces if a == b),
            sum(1 for (_, a), (_, b) in pieces if a > b))


def test_compress_param_moves_into_inner_scale():
    # one induction step: (w compressed to [0, t]) o g == w o (t * g)
    rng = random.Random(18)
    flat = falling = on_knot = off_knot = 0
    for _ in range(300):
        w = rand_fun(rng, rng.randint(1, 8))
        g = rand_fun(rng, rng.randint(1, 8))
        t_stop = rat(rng.randint(1, 64), 64)
        assert (compose(pl_window(w, 0, t_stop), g)
                == compose(w, pl_scale_values(g, t_stop)))
        f, d = _flat_and_falling(w, g)
        flat, falling = flat + f, falling + d
        on_knot += t_stop in w.knots
        off_knot += t_stop not in w.knots
    assert flat and falling and on_knot and off_knot


def test_window_matches_reference():
    rng = random.Random(20)
    inside = 0
    for _ in range(300):
        f = rand_fun(rng, rng.randint(1, 8))
        lo, hi = sorted(rng.sample(range(65), 2))
        lo, hi = rat(lo, 64), rat(hi, 64)
        w = hi - lo
        ts = {ZERO, ONE} | {(t - lo) / w for t in f.knots if lo < t < hi}
        inside += len(ts) - 2
        ref = PLFunction([(s, ref_pl_eval(f, lo + w * s)) for s in sorted(ts)])
        assert pl_window(f, lo, hi) == ref
    assert inside
    for lo, hi in ((0, 0), (rat(1, 2), rat(1, 4)), (-1, 1), (0, 2)):
        with pytest.raises(PreconditionError):
            pl_window(f, lo, hi)


def test_compose_is_associative():
    rng = random.Random(19)
    flat = falling = 0
    for _ in range(300):
        f, g, h = (rand_fun(rng, rng.randint(1, 8)) for _ in range(3))
        assert compose(f, compose(g, h)) == compose(compose(f, g), h)
        fl, d = _flat_and_falling(g, h)
        flat, falling = flat + fl, falling + d
    assert flat and falling


def test_pl_combine_matches_reference():
    rng = random.Random(12)
    for _ in range(300):
        f = rand_fun(rng, rng.randint(1, 8), tden=16)
        g = rand_fun(rng, rng.randint(1, 8), tden=16)
        for op in (lambda a, b: a + b, lambda a, b: a - b,
                   lambda a, b: 3 * a - b / 2):
            assert pl_combine(f, g, op) == ref_pl_combine(f, g, op)
    f = rand_fun(rng, 5)
    assert pl_combine(f, f, lambda a, b: a - b) == PLFunction([(0, 0), (1, 0)])


def test_curve_from_functions_matches_reference():
    rng = random.Random(13)
    for _ in range(300):
        fx = rand_fun(rng, rng.randint(1, 8), tden=16)
        fy = rand_fun(rng, rng.randint(1, 8), tden=16)
        assert curve_from_functions(fx, fy) == ref_curve_from_functions(fx, fy)


def _curve_points(curve):
    return list(zip(curve.knots, curve.vertices))


def test_canonical_matches_reference():
    rng = random.Random(14)
    dropped_fun = dropped_curve = 0
    for _ in range(400):
        m = rng.randint(1, 12)
        # even knots and short value steps on a coarse grid make collinear
        # runs, sloped as well as flat, common
        if rng.random() < 0.5:
            ts = [rat(i, m) for i in range(m + 1)]
        else:
            ts = rand_knots(rng, m, 32)
        vs = [rat(rng.randint(0, 4), 4)]
        for _ in range(m):
            vs.append(vs[-1] + rat(rng.randint(-1, 1), 4))
        pts = list(zip(ts, vs))
        out = plfun.canonical(pts)
        assert out == ref_fun_canonical(pts)
        dropped_fun += len(pts) - len(out)
        ws = vs if rng.random() < 0.5 else [rat(rng.randint(0, 2), 2) for _ in vs]
        ps = list(zip(vs, ws))
        out = _curve_points(PLCurve(ts, ps))
        assert out == ref_curve_canonical(ts, ps)
        dropped_curve += len(ps) - len(out)
    assert dropped_fun and dropped_curve

    # the inputs a deep induction produces: big coprime denominators, mixed
    # within each collinear run, negative values and extreme slopes
    dropped_fun = dropped_curve = 0
    for _ in range(150):
        ts = big_knots(rng, rng.randint(2, 60))
        vs = run_values(rng, ts)
        pts = list(zip(ts, vs))
        out = plfun.canonical(pts)
        assert out == ref_fun_canonical(pts)
        dropped_fun += len(pts) - len(out)
        # y runs break elsewhere, so a knot goes only where both agree
        ws = vs if rng.random() < 0.3 else run_values(rng, ts)
        ps = list(zip(vs, ws))
        out = _curve_points(PLCurve(ts, ps))
        assert out == ref_curve_canonical(ts, ps)
        dropped_curve += len(ps) - len(out)
    assert dropped_fun and dropped_curve


class Opaque(Fraction):
    """A Fraction that refuses arithmetic and comparison; only numerator
    and denominator can be read."""


def _refuse(self, *args):
    raise AssertionError("rational arithmetic in canonicalization")


for _op in ("add", "sub", "mul", "truediv", "floordiv", "mod", "pow", "divmod"):
    setattr(Opaque, f"__{_op}__", _refuse)
    setattr(Opaque, f"__r{_op}__", _refuse)
for _op in ("neg", "pos", "abs", "eq", "ne", "lt", "le", "gt", "ge"):
    setattr(Opaque, f"__{_op}__", _refuse)


def test_canonical_does_no_rational_arithmetic():
    # each canonical form reads only numerators and denominators, and keeps
    # the input's own point objects
    rng = random.Random(16)
    for _ in range(40):
        ts = big_knots(rng, rng.randint(2, 30))
        vs = run_values(rng, ts)
        ws = run_values(rng, ts)
        ref = ref_fun_canonical(list(zip(ts, vs)))
        index = {t: i for i, t in enumerate(ts)}
        keep = [index[t] for t, _ in ref]
        pts = [(Opaque(t), Opaque(v)) for t, v in zip(ts, vs)]
        out = plfun.canonical(pts)
        assert len(out) == len(keep)
        assert all(p is pts[i] for p, i in zip(out, keep))

        # a curve keeps each knot that either coordinate's canonical form
        # keeps, with the input's own knot and coordinate objects
        qts = [(Opaque(t), Opaque(w)) for t, w in zip(ts, ws)]
        at = {id(q): i for i, q in enumerate(qts)}
        kept = set(keep) | {at[id(q)] for q in plfun.canonical(qts)}
        curve = PLCurve(ts, list(zip(vs, ws)))
        assert [index[t] for t in curve.knots] == sorted(kept)
        assert all(t is ts[index[t]] and x is vs[index[t]] and y is ws[index[t]]
                   for t, (x, y) in zip(curve.knots, curve.vertices))
    with pytest.raises(AssertionError):
        Opaque(1, 3) - Opaque(1, 5)
    with pytest.raises(AssertionError):
        Opaque(1, 3) < Opaque(1, 5)


def _intersection_pairs():
    rng = random.Random(15)
    for _ in range(150):
        yield rand_curve(rng, rng.randint(1, 7)), rand_curve(rng, rng.randint(1, 7))


def _assert_first_meetings_match_reference(pairs):
    overlap_first = point_first = stalls = 0
    for a, b in pairs:
        full = ref_curve_intersections(a, b)
        got = curve_intersections(a, b)
        assert got == ref_earliest_meeting(a, b), (a, b)
        stalls += sum(1 for _, _, p, q in a.segments() + b.segments() if p == q)
        if not got:
            continue
        hit, = got
        assert hit.t_a == ref_start(full[0])[0]
        assert hit.point == a(hit.t_a) == b(hit.t_b)
        overlap_first += isinstance(full[0], RefOverlap)
        point_first += isinstance(full[0], Intersection)
    assert overlap_first and point_first and stalls


def test_curve_intersections_first_matches_reference():
    """The kernel's one meeting is the full reference's earliest, on both
    curves at once."""
    _assert_first_meetings_match_reference(_intersection_pairs())


def big_affine(rng):
    """A random invertible affine map of the plane.  Each output coordinate
    is (a x + b y + c) / q with q in BIG_DENS and integers a, b, c below q
    in magnitude, so grid points map to coordinates of 200 to 300 bits."""
    while True:
        rows = []
        for _ in range(2):
            q = rng.choice(BIG_DENS)
            rows.append([rat(rng.randrange(1 - q, q), q) for _ in range(3)])
        (a, b, _), (c, d, _) = rows
        if a * d != b * c:
            break
    return lambda p: tuple(r[0] * p[0] + r[1] * p[1] + r[2] for r in rows)


def affine_image(curve, f):
    """The curve f(curve) on the same knots.  An invertible affine map keeps
    every bend, touch, collinear overlap and stall, and each point's
    parameter on every segment."""
    return PLCurve(curve.knots, [f(p) for p in curve.vertices])


def test_curve_intersections_first_matches_reference_big_denominators():
    """The same pairs under affine maps with BIG_DENS coefficients: the
    meeting keeps its parameters and moves with the map, and it is still
    the reference's earliest."""
    rng = random.Random(19)
    images = []
    for a, b in _intersection_pairs():
        f = big_affine(rng)
        fa, fb = affine_image(a, f), affine_image(b, f)
        assert fa.knots == a.knots and fb.knots == b.knots
        assert min(v.denominator.bit_length()
                   for p in fa.vertices + fb.vertices for v in p) >= 190
        assert curve_intersections(fa, fb) == [
            Intersection(h.t_a, h.t_b, f(h.point)) for h in curve_intersections(a, b)]
        images.append((fa, fb))
    _assert_first_meetings_match_reference(images)


def _membership_cases():
    """Seeded curves with their queries: every vertex (segment endpoints),
    segment midpoints and grid points."""
    rng = random.Random(16)
    for _ in range(100):
        c = rand_curve(rng, rng.randint(1, 7))
        queries = list(c.vertices)
        queries += [((p[0] + q[0]) / 2, (p[1] + q[1]) / 2)
                    for p, q in zip(c.vertices, c.vertices[1:])]
        queries += [(rat(i, 4), rat(j, 4)) for i in range(5) for j in range(5)]
        yield c, queries


def _big_membership_cases():
    """The membership cases under affine maps with BIG_DENS coefficients,
    each query with whether it lies on the original curve."""
    rng = random.Random(20)
    for c, queries in _membership_cases():
        f = big_affine(rng)
        yield (affine_image(c, f),
               [(f(q), point_on_curve(c, q)) for q in queries])


def test_point_on_curve_matches_reference():
    stalls = 0
    for c, queries in _membership_cases():
        stalls += sum(1 for p, q in zip(c.vertices, c.vertices[1:]) if p == q)
        for q in queries:
            assert point_on_curve(c, q) == ref_point_on_curve(c, q), (c, q)
    assert stalls


def test_point_on_curve_matches_reference_big_denominators():
    """Membership is kept by the map, and still matches the reference."""
    on = off = 0
    for c, queries in _big_membership_cases():
        for q, was_on in queries:
            assert point_on_curve(c, q) == was_on == ref_point_on_curve(c, q), (c, q)
            on += was_on
            off += not was_on
    assert on and off


def test_point_curve_distance_sq_matches_reference():
    on = off = 0
    for c, queries in _membership_cases():
        for q in queries:
            d2 = point_curve_distance_sq(c, q)
            assert d2 == ref_point_curve_distance_sq(c, q), (c, q)
            on += d2 == 0
            off += d2 != 0
    assert on and off


def test_point_curve_distance_sq_matches_reference_big_denominators():
    for c, queries in _big_membership_cases():
        for q, was_on in queries:
            d2 = point_curve_distance_sq(c, q)
            assert d2 == ref_point_curve_distance_sq(c, q), (c, q)
            assert (d2 == 0) == was_on


def test_curve_call_matches_reference():
    rng = random.Random(17)
    for _ in range(100):
        c = rand_curve(rng, rng.randint(1, 7))
        ts = list(c.knots) + [rat(k, 37) for k in range(38)]
        for t in ts:
            assert c(t) == ref_curve_call(c, t)
        for bad in (rat(-1, 64), rat(65, 64)):
            with pytest.raises(DomainError):
                c(bad)


def test_cached_knots_stay_out_of_eq_hash_repr():
    bps = ((rat(0), rat(0)), (rat(1, 3), rat(2, 3)), (rat(1), rat(1)))
    f, g = PLFunction(bps), PLFunction(bps)
    assert f.knots == (rat(0), rat(1, 3), rat(1))
    object.__setattr__(g, "knots", ())
    assert f == g and hash(f) == hash(g) and repr(f) == repr(g)
    assert repr(f) == f"PLFunction(breakpoints={bps!r})"


def test_cached_lines_stay_out_of_eq_hash_repr():
    """A curve's integer segment lines are built on first use and kept in
    the instance: they take no part in ==, hash or repr, and a curve built
    from another by swap_curve or _of builds its own."""
    knots = (rat(0), rat(1, 2), rat(1))
    verts = ((rat(0), rat(0)), (rat(3, 5), rat(1, 7)), (rat(1), rat(1)))
    c, d = PLCurve(knots, verts), PLCurve(knots, verts)
    assert point_on_curve(c, verts[1])
    assert "_lines" in vars(c) and "_lines" not in vars(d)
    assert c == d and hash(c) == hash(d) and repr(c) == repr(d)
    vars(d)["_lines"] = ((0, 0, 0), (0, 0, 0))
    assert c == d and hash(c) == hash(d) and repr(c) == repr(d)
    assert repr(c) == f"PLCurve(knots={knots!r}, vertices={verts!r})"

    s = plcurve.swap_curve(c)
    o = PLCurve._of(c.x_function(), c.y_function(), c.knots, c.vertices)
    for built in (s, o):
        assert "_lines" not in vars(built)
    p = verts[1]
    assert point_on_curve(s, (p[1], p[0])) and not point_on_curve(s, p)
    ps = [plcurve._homogeneous(v) for v in s.vertices]
    assert s._lines == tuple(map(plcurve._line, ps, ps[1:]))
    assert s._lines != c._lines
    assert o._lines == c._lines and o._lines is not c._lines


def _overlap_cells(f1, f2):
    """(lo1, hi1, falling1, lo2, hi2, falling2) for every breakpoint
    rectangle where the pieces' value ranges overlap in an interval."""
    def ranges(f):
        pts = f.breakpoints
        return [(min(a, b), max(a, b), a > b)
                for (_, a), (_, b) in zip(pts, pts[1:])]
    return [r + c for r in ranges(f1) for c in ranges(f2)
            if c[0] < r[1] and r[0] < c[1]]


def _onto_unit(f):
    """f's breakpoints with their times mapped affinely onto [0, 1]."""
    pts = f.breakpoints
    t0, span = pts[0][0], pts[-1][0] - pts[0][0]
    return SimpleNamespace(
        breakpoints=tuple(((t - t0) / span, v) for t, v in pts))


def test_level_complex_path_matches_reference(monkeypatch):
    pairs = []
    for seed in range(60):
        f1, f2 = climb_pair(seed)
        pairs.append((f1, f2))
        f1, f2, _ = shared_fold_pair(seed, seed % 2 == 1)
        pairs.append((f1, f2))
    pairs = [(climb._contract(a)[0], climb._contract(b)[0])
             for f1, f2 in pairs for a, b in ((f1, f2), (f2, f1))]
    # the closing sums of an induction up to t_stop, in their own
    # parameter, against the height
    real = climb.level_complex_path
    monkeypatch.setattr(climb, "level_complex_path",
                        lambda f1, f2: pairs.append((f1, f2)) or real(f1, f2))
    for seed in (1, 3, 4):
        pipeline.build_partitioning_functions(random_curve(seed, vertices=8),
                                              6)
    monkeypatch.undo()
    assert len(pairs) == 240 + 15

    shared_lo = shared_hi = falling1 = falling2 = 0
    for f1, f2 in pairs:
        path = climb.level_complex_path(f1, f2)
        # the reference walks from (0, 0) to (1, 1)
        u1, u2 = _onto_unit(f1), _onto_unit(f2)
        assert climb.path_points(u1, u2, path) == ref_level_complex_path(
            u1, u2)
        for lo1, hi1, d1, lo2, hi2, d2 in _overlap_cells(f1, f2):
            shared_lo += lo1 == lo2
            shared_hi += hi1 == hi2
            falling1 += d1
            falling2 += d2
    assert shared_lo and shared_hi and falling1 and falling2


def test_complex_edges_match_reference_cells():
    # every cell the reference gives an edge, in row-major order, and
    # whether s rises with t along it
    for seed in range(40):
        f1, f2 = (climb._contract(f)[0] for f in climb_pair(seed))
        want = []
        sp, tp = f1.breakpoints, f2.breakpoints
        for (s0, a0), (s1, a1) in zip(sp, sp[1:]):
            for (t0, b0), (t1, b1) in zip(tp, tp[1:]):
                seg = ref_cell_edge(s0, s1, a0, a1, t0, t1, b0, b1)
                if seg is not None:
                    want.append(seg)
        got = [(tuple(climb.path_points(f1, f2, (a, b))), same)
               for a, b, same in climb._complex_edges(f1, f2)]
        assert got == [(seg, seg[0][0] < seg[1][0]) for seg in want]


def test_first_ordinate_hit_matches_linear_scan():
    # stalls (p0 == p1) come from rand_curve, and knots at a target level
    # from its coarse grid: each such knot is one hit, however many
    # segments meet there
    rng = random.Random(22)
    on_knot = stalls = skipped = hits = knot_hits = 0
    for _ in range(200):
        curve = rand_curve(rng, rng.randint(1, 7))
        stalls += sum(1 for _, _, p, q in curve.segments() if p == q)
        for floats in (False, True):
            ch = float_curve(curve) if floats else curve
            conv = float if floats else rat
            starts = list(ch.knots) + [conv(rat(rng.randint(0, 64), 64))
                                       for _ in range(4)]
            for start in starts:
                on_knot += start in ch.knots
                for _ in range(3):
                    target = conv(rat(rng.randint(0, 4), 4))
                    for skip in range(3):
                        got = oracle._first_ordinate_hit(ch, target, start,
                                                         skip)
                        want = ref_first_ordinate_hit(ch, target, start, skip)
                        assert got == want and type(got) is type(want)
                        hits += got is not None
                        skipped += skip > 0 and got is not None
                        knot_hits += skip > 0 and got in ch.knots
    assert on_knot and stalls and skipped and hits and knot_hits


# ------------------------------------------------- induction level reading

def _table(points):
    bps = tuple(points)
    return SimpleNamespace(breakpoints=bps, knots=tuple(t for t, _ in bps))


def _induction_levels(curve, n):
    """Each level of `build_partitioning_functions(curve, n)` as (the rows
    it starts from, its climb's profile, its level path), and the result."""
    levels = []
    real_walk, real_rows = climb.walk, pipeline._closing_rows

    def walk(f1, f2):
        path = real_walk(f1, f2)
        levels[-1] += (f2, path)
        return path

    def closing_rows(rows):
        levels.append((list(rows),))
        return real_rows(rows)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(climb, "walk", walk)
        mp.setattr(pipeline, "_closing_rows", closing_rows)
        pf = pipeline.build_partitioning_functions(curve, n)
    # extract_points is not run, so every closing-rows call is a level's
    return levels, pf


def ref_level(rows, height, width, profile, path):
    """One induction level as it was built before the one-pass reading:
    g1 and tau read off the path as parameters, x = width o g1 and
    y = y o tau composed, merged by `union_knot_values`, then one canonical
    pass.  Returns the rows, tau's points and the two compositions."""
    m = len(path) - 1
    us = [rat(k, m) for k in range(m + 1)]
    pts = climb.path_points(height, profile, path)
    x = compose(width, _table(zip(us, (s for s, _ in pts))))
    tau = tuple(zip(us, (t for _, t in pts)))
    y = compose(_table((t, v) for t, _, v in rows), _table(tau))
    return plfun.canonical(plfun.union_knot_values(x, y)), tau, x, y


def _step_crossings(path, x, y):
    """Which kinds of step of a level path cross a breakpoint of x or y
    strictly inside: on a flat of one side (the other waits), or on a
    sloped step, rows of one side, of both, or of both at one level."""
    m = len(path) - 1
    found = set()
    for k in range(1, m + 1):
        u0, u1 = rat(k - 1, m), rat(k, m)
        ux = {u for u in x.knots if u0 < u < u1}
        uy = {u for u in y.knots if u0 < u < u1}
        if path[k - 1][2] == path[k][2]:
            found |= {"flat, height side"} if ux else set()
            found |= {"flat, closing side"} if uy else set()
            continue
        found |= {"height side"} if ux - uy else set()
        found |= {"closing side"} if uy - ux else set()
        found |= {"both sides"} if ux and uy else set()
        found |= {"both at one level"} if ux & uy else set()
    return found


def _assert_levels_match_reference(curve, n):
    levels, pf = _induction_levels(curve, n)
    height, width = curve.y_function(), curve.x_function()
    found = set()
    for i, (rows, profile, path) in enumerate(levels):
        want, tau, x, y = ref_level(rows, height, width, profile, path)
        got = levels[i + 1][0] if i + 1 < len(levels) else list(pf.rows)
        assert got == want, (i, n)
        assert pf.inners[i].breakpoints == tau, (i, n)
        found |= _step_crossings(path, x, y)
    return found


STEP_CROSSINGS = ("flat, height side", "flat, closing side", "height side",
                  "closing side", "both sides", "both at one level")


def _grid_curve(den, pts):
    m = len(pts) + 1
    verts = [(0, 0)] + [(rat(a, den), rat(b, den)) for a, b in pts] + [(1, 1)]
    return PLCurve([rat(k, m) for k in range(m + 1)], verts)


# a width knot inside a height piece and a bend of y that cancels in the
# closing sum, crossed by one step at one level
ONE_LEVEL_CROSSINGS = _grid_curve(32, [(12, 4), (22, 10), (31, 16), (24, 22),
                                       (31, 14)])
# ... and by one step at two levels
TWO_LEVEL_CROSSINGS = _grid_curve(32, [(5, 1), (9, 2), (15, 1), (3, 2),
                                       (28, 23), (17, 16), (18, 10), (5, 4)])
# the closing sum is flat where y and x bend against each other
FLAT_SUM_CROSSING = _grid_curve(32, [(19, 4), (12, 11), (21, 2), (28, 25),
                                     (27, 19)])


def _has_flat_height(curve):
    vs = curve.y_function().values
    return any(a == b for a, b in zip(vs, vs[1:]))


def test_level_reading_matches_composition():
    # each level's rows and inner map, read in one pass over its level
    # path, equal the compositions they stand for, merged and passed once
    # one kind of crossing per branch of `climb._crossed`
    curves = [degenerate_lower_curve(seed) for seed in range(30)]
    curves += [random_curve(seed, vertices=8) for seed in range(10)]
    curves += [ONE_LEVEL_CROSSINGS, TWO_LEVEL_CROSSINGS, FLAT_SUM_CROSSING]
    assert any(_has_flat_height(c) for c in curves)
    found = set()
    for c in curves:
        for n in (2, 3, 4):
            found |= _assert_levels_match_reference(c, n)
    assert found == set(STEP_CROSSINGS)


@pytest.mark.slow
def test_level_reading_matches_composition_at_scale():
    # scale range: up to 32 vertices and n = 12, so up to 11 levels whose
    # pieces and denominators grow with every level
    rng = random.Random(28)
    for seed in range(24):
        v = rng.choice((8, 16, 32))
        n = rng.randint(2, 12)
        curve = (degenerate_lower_curve(seed, den=64) if seed % 3 == 0
                 else random_curve(seed, vertices=v))
        _assert_levels_match_reference(curve, n)
