"""Shared generators and independent oracles for the test suite.

The oracles here deliberately avoid the library's solution paths: dense
pointwise evaluation, naive per-piece equation solving, quadratic
all-pairs intersection bookkeeping, and marching-squares path tracing.
"""

import random
from fractions import Fraction

from curvepart import PLCurve, PLFunction, pl_eval
from curvepart.scalar import rat

DENOM = 2**16


def rand_profile(rng, folds, denom=DENOM):
    """Zigzag from 0 to 1 with the requested number of interior kinks."""
    vals = [rat(0)]
    for _ in range(folds):
        vals.append(rat(rng.randrange(1, denom), denom))
    vals.append(rat(1))
    ts = sorted(rng.sample(range(1, 4 * denom), len(vals) - 2))
    knots = [rat(0)] + [rat(t, 4 * denom) for t in ts] + [rat(1)]
    return PLFunction(list(zip(knots, vals)))


def insert_flats(rng, f, count):
    """Replace up to `count` interior breakpoints with short shelves."""
    pts = list(f.breakpoints)
    for _ in range(count):
        if len(pts) < 3:
            mid_t = (pts[0][0] + pts[1][0]) / 2
            mid_v = pl_eval(PLFunction(pts), mid_t)
            pts[1:1] = [(mid_t, mid_v)]
        i = rng.randrange(1, len(pts) - 1)
        t, v = pts[i]
        t0 = pts[i - 1][0]
        t1 = pts[i + 1][0]
        pts[i:i + 1] = [(t - (t - t0) / 4, v), (t + (t1 - t) / 4, v)]
    return PLFunction(pts)


def shelf_at(f, c):
    """f with a short shelf at level c, cut into the first piece that
    reaches c (f takes every level in [0, 1])."""
    pts = list(f.breakpoints)
    for i, ((t0, v0), (t1, v1)) in enumerate(zip(pts, pts[1:])):
        if min(v0, v1) <= c <= max(v0, v1) and v0 != v1:
            r = t0 + (c - v0) * (t1 - t0) / (v1 - v0)
            w = min(r - t0, t1 - r) / 2 or (t1 - t0) / 4
            pts[i + 1:i + 1] = [(max(t0, r - w), c), (min(t1, r + w), c)]
            return PLFunction([p for j, p in enumerate(pts)
                               if j == 0 or p[0] != pts[j - 1][0]])
    raise ValueError(f"no piece reaches level {c}")


def climb_pair(seed):
    """(f1, f2) in criterion-4 shape: f2 carries 1..3 flat shelves.  f1 is
    an unperturbed zigzag, class U or not; every third pair gives it shelves
    of its own, and every third a shelf at the level of one of f2's."""
    rng = random.Random(seed)
    f2 = insert_flats(rng, rand_profile(rng, rng.randrange(0, 4)),
                      rng.randrange(1, 4))
    f1 = rand_profile(rng, rng.randrange(0, 5))
    if seed % 3 == 1:
        f1 = insert_flats(rng, f1, rng.randrange(1, 3))
    elif seed % 3 == 2:
        f1 = shelf_at(f1, rng.choice(flat_levels(f2)))
    return f1, f2


def flat_levels(f):
    """Values of f on its flat pieces."""
    pts = f.breakpoints
    return sorted({v0 for (_, v0), (_, v1) in zip(pts, pts[1:]) if v0 == v1})


def critical_levels(f):
    """Fold levels plus flat levels; the values that can produce degenerate
    vertices in a level-set traversal against another function."""
    return sorted(fold_levels(f) | set(flat_levels(f)))


def fold_levels(f):
    """Values at the interior local extrema of f: the breakpoints where a
    rising piece meets a falling one directly.  A flat between two runs
    is not a fold."""
    vs = f.values
    return {b for a, b, c in zip(vs, vs[1:], vs[2:]) if (b - a) * (c - b) < 0}


def shared_fold_pair(seed, flats):
    """(f1, f2, c): f1 with fold level c, and f2 with a fold at the same
    level c, its two neighbours on one side of it.  With flats, f1 gets a
    shelf at level c and f2 one or two shelves, which may replace its
    fold."""
    rng = random.Random(seed)
    levels = set()
    while not levels:
        f1 = rand_profile(rng, rng.randrange(2, 5))
        levels = fold_levels(f1)
    c = rng.choice(sorted(levels))
    side = (rat(0), c) if rng.random() < 0.5 else (c, rat(1))

    def pick(lo=rat(0), hi=rat(1)):
        return lo + (hi - lo) * rat(rng.randrange(1, DENOM), DENOM)

    vals = ([rat(0)] + [pick() for _ in range(rng.randrange(0, 3))]
            + [pick(*side), c, pick(*side)]
            + [pick() for _ in range(rng.randrange(0, 3))] + [rat(1)])
    ts = sorted(rng.sample(range(1, 4 * DENOM), len(vals) - 2))
    knots = [rat(0)] + [rat(t, 4 * DENOM) for t in ts] + [rat(1)]
    f2 = PLFunction(list(zip(knots, vals)))
    if flats:
        f1 = shelf_at(f1, c)
        f2 = insert_flats(rng, f2, rng.randrange(1, 3))
    return f1, f2, c


def degenerate_lower_curve(seed, den=16):
    """Seeded curve strictly below the diagonal on the 1/den grid, built
    from horizontal runs, vertical runs and free steps whose heights come
    from three levels, so fold levels repeat and both coordinate profiles
    carry flats."""
    rng = random.Random(seed)
    levels = rng.sample(range(1, den - 1), 3)

    def height_below(x):
        return rng.choice([v for v in levels if v < x] or [rng.randrange(1, x)])

    x = rng.randrange(2, den)
    y = height_below(x)
    pts = [(0, 0), (x, y)]
    size = rng.randint(6, 10)
    while len(pts) < size:
        move = rng.choice("hvf")
        if move == "h":
            nx, ny = rng.randrange(y + 1, den), y
        elif move == "v":
            nx, ny = x, height_below(x)
        else:
            nx = rng.randrange(2, den)
            ny = height_below(nx)
        if (nx, ny) != (x, y):
            x, y = nx, ny
            pts.append((x, y))
    pts.append((den, den))
    m = len(pts) - 1
    return PLCurve([rat(k, m) for k in range(m + 1)],
                   [(rat(a, den), rat(b, den)) for a, b in pts])


# ---------------------------------------------------------------- oracles

def eval_grid_equal(f, g, steps=97):
    """Pointwise-evaluation oracle: exact equality on a dense rational grid."""
    for k in range(steps + 1):
        t = rat(k, steps)
        if pl_eval(f, t) != pl_eval(g, t):
            return False
    return True


def naive_level_solutions(f, c):
    """Per-piece linear solve, no sweeping or merging cleverness."""
    c = rat(c)
    sols = set()
    flats = []
    pts = f.breakpoints
    for (t0, v0), (t1, v1) in zip(pts, pts[1:]):
        if v0 == v1:
            if v0 == c:
                flats.append((t0, t1))
            continue
        s = (c - v0) / (v1 - v0)
        if 0 <= s <= 1:
            sols.add(t0 + s * (t1 - t0))
    # merge flats that share endpoints, absorb touching roots
    flats.sort()
    merged = []
    for lo, hi in flats:
        if merged and merged[-1][1] == lo:
            merged[-1] = (merged[-1][0], hi)
        else:
            merged.append((lo, hi))
    items = [(lo, hi) for lo, hi in merged]
    for s in sorted(sols):
        if any(lo <= s <= hi for lo, hi in items):
            continue
        items.append((s, s))
    return sorted(items)


def segment_pairs_hits(a, b):
    """Quadratic all-pairs oracle: set of intersection points via a direct
    parametric solve per pair, floats."""
    import itertools

    hits = set()
    for (t0, t1, p0, p1), (u0, u1, q0, q1) in itertools.product(
        a.segments(), b.segments()
    ):
        ax, ay = float(p0[0]), float(p0[1])
        bx, by = float(p1[0]) - ax, float(p1[1]) - ay
        cx, cy = float(q0[0]), float(q0[1])
        dx, dy = float(q1[0]) - cx, float(q1[1]) - cy
        den = bx * dy - by * dx
        if abs(den) < 1e-15:
            continue
        s = ((cx - ax) * dy - (cy - ay) * dx) / den
        u = ((cx - ax) * by - (cy - ay) * bx) / den
        if -1e-12 <= s <= 1 + 1e-12 and -1e-12 <= u <= 1 + 1e-12:
            hits.add((round(ax + s * bx, 9), round(ay + s * by, 9)))
    return hits


def segment_covered_by_polyline(p0, p1, curve):
    """Exact coverage check: the segment p0..p1 lies inside the union of
    the curve's collinear segments."""
    dx, dy = p1[0] - p0[0], p1[1] - p0[1]
    if dx == 0 and dy == 0:
        from curvepart.plcurve import point_on_curve

        return point_on_curve(curve, p0)
    den = dx * dx + dy * dy
    spans = []
    for _, _, q0, q1 in curve.segments():
        cross0 = (q0[0] - p0[0]) * dy - (q0[1] - p0[1]) * dx
        cross1 = (q1[0] - p0[0]) * dy - (q1[1] - p0[1]) * dx
        if cross0 != 0 or cross1 != 0:
            continue
        s0 = ((q0[0] - p0[0]) * dx + (q0[1] - p0[1]) * dy) / den
        s1 = ((q1[0] - p0[0]) * dx + (q1[1] - p0[1]) * dy) / den
        lo, hi = min(s0, s1), max(s0, s1)
        lo, hi = max(lo, rat(0)), min(hi, rat(1))
        if lo <= hi:
            spans.append((lo, hi))
    spans.sort()
    reach = rat(0)
    for lo, hi in spans:
        if lo > reach:
            return False
        reach = max(reach, hi)
    return reach >= 1


def functions_on_curve(curve, xs, y):
    """Full-coverage membership oracle for partitioning functions."""
    prev = None
    for x in xs:
        knots = sorted(set(x.knots) | set(y.knots) |
                       (set(prev.knots) if prev is not None else set()))
        for t0, t1 in zip(knots, knots[1:]):
            p = lambda t: (
                pl_eval(x, t),
                (pl_eval(prev, t) if prev is not None else rat(0)) + pl_eval(y, t),
            )
            if not segment_covered_by_polyline(p(t0), p(t1), curve):
                return False
        prev = x
    return True


def march_free_space(f1, f2, cells=800):
    """Fine-grid marching oracle for the set {f1(s) = f2(t)}, floats.

    Marks a uniform cell passable when the corner signs of
    f1(s) - f2(t) disagree, then flood-fills passable cells from the
    (0,0) corner.  Returns (reached-cell set, goal_reached): an
    independent connectivity check that only uses sign patterns.
    """
    a = [float(pl_eval(f1, rat(i, cells))) for i in range(cells + 1)]
    b = [float(pl_eval(f2, rat(j, cells))) for j in range(cells + 1)]

    def passable(i, j):
        c = (a[i] - b[j], a[i + 1] - b[j], a[i + 1] - b[j + 1], a[i] - b[j + 1])
        neg = any(v < 0 for v in c)
        pos = any(v > 0 for v in c)
        zero = any(v == 0 for v in c)
        return (neg and pos) or zero

    seen = set()
    stack = [(0, 0)]
    while stack:
        i, j = stack.pop()
        if (i, j) in seen or not (0 <= i < cells and 0 <= j < cells):
            continue
        if not passable(i, j):
            continue
        seen.add((i, j))
        stack.extend(((i + 1, j), (i - 1, j), (i, j + 1), (i, j - 1),
                      (i + 1, j + 1), (i - 1, j - 1), (i + 1, j - 1),
                      (i - 1, j + 1)))
    return seen, (cells - 1, cells - 1) in seen


def fraction_curve(knots, verts):
    return PLCurve([Fraction(str(k)) for k in knots],
                   [(Fraction(str(x)), Fraction(str(y))) for x, y in verts])
