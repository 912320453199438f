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
from fractions import Fraction

import pytest

from curvepart import DomainError, PLCurve, PLFunction
from curvepart import plcurve, plfun
from curvepart.plcurve import (
    Intersection,
    _intersect_segments,
    _merge_overlaps,
    curve_from_functions,
    curve_intersections,
    point_curve_distance_sq,
    point_on_curve,
    point_segment_distance_sq,
)
from curvepart.plfun import (
    compose,
    pl_combine,
    pl_compress_param,
    pl_scale_values,
)
from curvepart.scalar import rat

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


def ref_curve_intersections(a, b):
    points = {}
    overlaps = []
    for ta0, ta1, pa0, pa1 in a.segments():
        for tb0, tb1, pb0, pb1 in b.segments():
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
                    overlaps.append(plcurve.Overlap(ta, ub, pt0, pt1))

    merged = _merge_overlaps(overlaps)

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


def ref_point_curve_distance_sq(curve, q):
    return min(point_segment_distance_sq(q, p0, p1)
               for _, _, p0, p1 in curve.segments())


def ref_point_on_curve(curve, q):
    return ref_point_curve_distance_sq(curve, q) == 0


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
        assert (compose(pl_compress_param(w, t_stop), g)
                == compose(w, pl_scale_values(g, t_stop)))
        f, d = _flat_and_falling(w, g)
        flat, falling = flat + f, falling + d
        on_knot += t_stop in w.knots
        off_knot += t_stop not in w.knots
    assert flat and falling and on_knot and off_knot


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
        out = plfun._canonical(pts)
        assert out == ref_fun_canonical(pts)
        dropped_fun += len(pts) - len(out)
        ws = vs if rng.random() < 0.5 else [rat(rng.randint(0, 2), 2) for _ in vs]
        ps = list(zip(vs, ws))
        out = plcurve._canonical(ts, ps)
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
        out = plfun._canonical(pts)
        assert out == ref_fun_canonical(pts)
        dropped_fun += len(pts) - len(out)
        # y runs break elsewhere, so a knot goes only where both agree
        ws = vs if rng.random() < 0.3 else run_values(rng, ts)
        ps = list(zip(vs, ws))
        out = plcurve._canonical(ts, ps)
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
        out = plfun._canonical(pts)
        assert len(out) == len(keep)
        assert all(p is pts[i] for p, i in zip(out, keep))

        ref = ref_curve_canonical(ts, list(zip(vs, ws)))
        keep = [index[t] for t, _ in ref]
        ks = [Opaque(t) for t in ts]
        ps = [(Opaque(v), Opaque(w)) for v, w in zip(vs, ws)]
        out = plcurve._canonical(ks, ps)
        assert len(out) == len(keep)
        assert all(t is ks[i] and p is ps[i] for (t, p), i in zip(out, keep))
    with pytest.raises(AssertionError):
        Opaque(1, 3) - Opaque(1, 5)
    with pytest.raises(AssertionError):
        Opaque(1, 3) < Opaque(1, 5)


def test_curve_intersections_matches_reference():
    rng = random.Random(15)
    overlaps = points = stalls = 0
    for _ in range(150):
        a = rand_curve(rng, rng.randint(1, 7))
        b = rand_curve(rng, rng.randint(1, 7))
        got = curve_intersections(a, b)
        assert got == ref_curve_intersections(a, b)
        overlaps += sum(1 for it in got if isinstance(it, plcurve.Overlap))
        points += sum(1 for it in got if isinstance(it, Intersection))
        stalls += sum(1 for _, _, p, q in a.segments() + b.segments() if p == q)
    assert overlaps and points and stalls


def _leading_t_a(item):
    return item.t_a if isinstance(item, Intersection) else item.t_a[0]


def test_curve_intersections_first_matches_reference():
    rng = random.Random(15)
    shorter = overlap_first = 0
    for _ in range(150):
        a = rand_curve(rng, rng.randint(1, 7))
        b = rand_curve(rng, rng.randint(1, 7))
        full = ref_curve_intersections(a, b)
        got = curve_intersections(a, b, first=True)
        assert bool(got) == bool(full)
        if not full:
            continue
        assert _leading_t_a(got[0]) == _leading_t_a(full[0])
        spans = [(it.t_a, it.t_a) if isinstance(it, Intersection) else it.t_a
                 for it in got]
        assert any(all(t0 <= lo and hi <= t1 for lo, hi in spans)
                   for t0, t1 in zip(a.knots, a.knots[1:])), (a, b, got)
        shorter += len(got) < len(full)
        overlap_first += isinstance(got[0], plcurve.Overlap)
    assert shorter and overlap_first


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


def test_point_on_curve_matches_reference():
    stalls = 0
    for c, queries in _membership_cases():
        stalls += sum(1 for p, q in zip(c.vertices, c.vertices[1:]) if p == q)
        for q in queries:
            assert point_on_curve(c, q) == ref_point_on_curve(c, q), (c, q)
    assert stalls


def test_point_curve_distance_sq_matches_reference():
    on = off = 0
    for c, queries in _membership_cases():
        for q in queries:
            d2 = point_curve_distance_sq(c, q)
            assert d2 == ref_point_curve_distance_sq(c, q), (c, q)
            on += d2 == 0
            off += d2 != 0
    assert on and off


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
