"""Independent verification and a shooting-based brute-force solver.

verify() never throws: it measures and reports.  The shooting oracle
scalarizes the wrap condition: from one free point it chases the forced
ordinate targets along the curve and returns the mismatch at the final
wrap; zeros of that residual are partitions.  Solutions are always
compared through the verifier, never by point equality.

`_chase` is the one chase loop: it places k free points and chases the
rest of a shift-k relation system.  closure_shot runs it at k = 1, and
the explorer at every shift.  `_float_chase` is the same chase reduced to
its residual, the hot path of the grid sweep.

brute_force converts the curve to floats once per call and streams its
grid in O(1) memory.  On a polyline the chase is affine in the free
parameter t for as long as every chased point stays on its segment and
every comparison of the ordinate scan keeps its side: that set of t is
the point's cell, an interval.  The sweep chases every SWEEP_STRIDE-th
grid point in full and records its cell; when two such points share a
cell, feasibility and residual sign, and both lie farther than twice the
chase's forward-error bound from every side change, no grid point
between them can change sign, in exact arithmetic or in float, and the
sweep skips them.  Any other gap is swept point by point, so the sign
changes it yields are those of the full grid, bit for bit.  Bisection of
a sign change chases on the same float copy; a full shot, with its point
sequence and its own copy of the curve, is built only for the root it
returns.
"""

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import islice

from .errors import PreconditionError
from .pipeline import PartitionResult, PipelineTrace, Rearrangement, increments
from .plcurve import point_curve_distance_sq
from .scalar import ZERO, as_float, rat

# bisection steps per sign change in brute_force
BISECT_STEPS = 80

# brute_force's sweep chases every SWEEP_STRIDE-th grid point in full
SWEEP_STRIDE = 32


@dataclass(frozen=True)
class VerifyReport:
    ok: bool
    on_curve_max_dist: object
    increments_positive: bool
    multiset_match: bool
    detected_shift: object
    detected_permutation: object
    tol: object


@dataclass(frozen=True)
class ShotOutcome:
    """Residual of the wrap condition, or an infeasibility marker.

    side is +1 when the chase overshot upward (an ordinate target above
    the reachable range), -1 for the downward direction.
    """

    residual: object
    feasible: bool
    side: int = 0
    points: tuple = ()


def verify(curve, points, tol=ZERO):
    """Check endpoints, curve membership, positivity, and the multiset /
    cyclic-shift structure of the two increment sequences, within tol."""
    tol = rat(tol)
    pts = [(rat(x), rat(y)) for x, y in points]
    if not pts:
        # no endpoints to measure: a failing report
        return VerifyReport(
            ok=False, on_curve_max_dist=ZERO, increments_positive=False,
            multiset_match=False, detected_shift=None,
            detected_permutation=None, tol=tol)
    s = len(pts) - 1
    tol2 = tol * tol

    worst2 = ZERO
    for p in pts:
        worst2 = max(worst2, point_curve_distance_sq(curve, p))
    ex0, ey0 = pts[0]
    ex1, ey1 = pts[-1][0] - 1, pts[-1][1] - 1
    worst2 = max(worst2, ex0 * ex0 + ey0 * ey0, ex1 * ex1 + ey1 * ey1)
    on_curve = worst2 <= tol2

    dx, dy = increments(pts)
    positive = all(d > 0 for d in dx) and all(d > 0 for d in dy)

    # in one dimension, pairing in sorted order matches within tol whenever
    # any pairing does; ties pair in index order
    order_dx = sorted(range(s), key=lambda j: dx[j])
    order_dy = sorted(range(s), key=lambda i: dy[i])
    multiset = all(abs(dy[i] - dx[j]) <= tol for i, j in zip(order_dy, order_dx))

    shift = None
    if multiset and s > 0:
        for k in range(s):
            if all(abs(dy[i] - dx[(i - k) % s]) <= tol for i in range(s)):
                shift = k
                break

    perm = None
    if multiset and shift is None:
        pairs = dict(zip(order_dy, order_dx))
        perm = tuple(pairs[i] for i in range(s))

    return VerifyReport(
        ok=bool(on_curve and positive and multiset),
        on_curve_max_dist=worst2,
        increments_positive=positive,
        multiset_match=multiset,
        detected_shift=shift,
        detected_permutation=perm,
        tol=tol,
    )


class _Chaser:
    """Ordinate-target chasing over one polyline; works for exact
    rationals and for plain floats alike."""

    def __init__(self, curve, float_mode=False):
        self.conv = conv = as_float if float_mode else rat
        self.knots = [conv(t) for t in curve.knots]
        self.verts = [(conv(x), conv(y)) for x, y in curve.vertices]

    def at(self, t):
        ks = self.knots
        lo = bisect_right(ks, t, 1, len(ks) - 1) - 1  # 0 <= lo <= len - 2
        t0, t1 = ks[lo], ks[lo + 1]
        (x0, y0), (x1, y1) = self.verts[lo], self.verts[lo + 1]
        if t1 == t0:
            return x0, y0
        w = (t - t0) / (t1 - t0)
        return x0 + w * (x1 - x0), y0 + w * (y1 - y0)

    def first_ordinate_hit(self, target, start, skip=0, cell=None):
        """The (skip+1)-th parameter >= start where y equals target, None
        when fewer occurrences exist.

        The scan starts at the last segment that begins before start:
        every earlier one ends before start, so none of them can hit.
        With cell a list, each segment i the scan compares appends
        (i, ylo - target, y1 - target): the signs are the sides of its
        comparisons, and their sizes how far each is from flipping.
        """
        ks, vs = self.knots, self.verts
        for i in range(max(bisect_left(ks, start) - 1, 0), len(ks) - 1):
            t0, t1 = ks[i], ks[i + 1]
            if t1 == t0:
                continue
            y0, y1 = vs[i][1], vs[i + 1][1]
            lo = start if start > t0 else t0
            w = (lo - t0) / (t1 - t0)
            ylo = y0 + w * (y1 - y0)
            if cell is not None:
                cell.append((i, ylo - target, y1 - target))
            hit = None
            if ylo == target:
                hit = lo
            elif y1 != y0 and ((ylo < target <= y1) or (y1 <= target < ylo)):
                hit = t0 + (target - y0) / (y1 - y0) * (t1 - t0)
            if hit is not None:
                if skip == 0:
                    return hit
                skip -= 1
        return None


def _chase(ch, frees, k, s, branches=()):
    """The points A_0..A_s of one chase of the shift-k relations
    dy_j = dx_{j-k}: A_0 = (0,0), A_1..A_k at the free parameters,
    A_{k+1}..A_{s-1} forced by the relations j = k..s-2, and A_s = (1,1).
    The relations j = s-1 and j = 0..k-2 are left to the caller.  Step j
    takes the earliest ordinate hit after the previous point, skipping
    branches[j-k] earlier ones.  Returns (points, None), or the points so
    far and the first ordinate target with no hit."""
    zero = ch.conv(0)
    pts = [(zero, zero)]
    cursor = zero
    for t in frees:
        pts.append(ch.at(t))
        cursor = t
    for j in range(k, s - 1):
        target = pts[-1][1] + (pts[j - k + 1][0] - pts[j - k][0])
        skip = branches[j - k] if j - k < len(branches) else 0
        cursor = ch.first_ordinate_hit(target, cursor, skip)
        if cursor is None:
            return pts, target
        pts.append(ch.at(cursor))
    one = ch.conv(1)
    pts.append((one, one))
    return pts, None


def closure_shot(curve, n, t1, float_mode=False, branches=()):
    """Build the chased point sequence from the free parameter t1.

    Points A_1..A_{n+1} follow the shifted ordinate targets
    y_{i+1} = y_i + (x_i - x_{i-1}); the returned residual is how far the
    forced final wrap lands from closing at (1,1).  Step i takes the
    earliest ordinate hit by default; branches[i] skips that many earlier
    occurrences, selecting a different solution branch.
    """
    if n < 0:
        raise PreconditionError("n must be nonnegative")
    ch = _Chaser(curve, float_mode)
    pts, missed = _chase(ch, (ch.conv(t1),), 1, n + 2, branches)
    if missed is not None:
        side = 1 if missed > pts[-1][1] else -1
        return ShotOutcome(residual=None, feasible=False, side=side,
                           points=tuple(pts))
    # the wrap forces one more ordinate step of size dx_n ending at (1,1)
    residual = pts[-1][1] - pts[-2][1] - (pts[-2][0] - pts[-3][0])
    return ShotOutcome(residual=residual, feasible=True, points=tuple(pts))


def _vectors_with_sum(total, n, width):
    """All n-tuples over range(width) summing to total, in lex order."""
    if n == 0:
        if total == 0:
            yield ()
        return
    # the first entry leaves a total the other n - 1 entries can still reach
    for first in range(max(0, total - (n - 1) * (width - 1)),
                       min(total, width - 1) + 1):
        for rest in _vectors_with_sum(total - first, n - 1, width):
            yield (first,) + rest


def _branch_vectors(curve, n, cap=128):
    """Deterministic enumeration of chase-branch choices, nearest first:
    the first `cap` tuples of product(range(width), repeat=n) in (sum, lex)
    order, generated lazily so the work is O(cap * n) for any width."""
    if n <= 0:
        return [()]
    width = max(2, len(curve.knots) - 1)
    ordered = (v for total in range(n * (width - 1) + 1)
               for v in _vectors_with_sum(total, n, width))
    return list(islice(ordered, cap))


def _float_residual(ch, n, t, branches):
    """closure_shot(curve, n, t, float_mode=True, branches).residual from a
    float _Chaser of the curve: _float_chase without a record."""
    return _float_chase(ch, n, t, branches)


def _float_chase(ch, n, t, branches, cell=None):
    """The residual of closure_shot with the same float operations, but
    without the point sequence: only the last two chased points are kept.

    With cell a list, the chase also records its cell there: the scan's
    comparisons (first_ordinate_hit), and each chased point on segment k,
    t first, as (~k, distance to the segment's start, distance to its end).
    """
    px = 0.0
    x, y = ch.at(t)
    cursor = t
    if cell is not None:
        ks = ch.knots
        k = bisect_right(ks, t, 1, len(ks) - 1) - 1
        cell.append((~k, t - ks[k], ks[k + 1] - t))
    for i in range(n):
        skip = branches[i] if i < len(branches) else 0
        cursor = ch.first_ordinate_hit(y + (x - px), cursor, skip, cell)
        if cursor is None:
            return None
        if cell is not None:
            k = cell[-1][0]
            cell.append((~k, cursor - ks[k], ks[k + 1] - cursor))
        px = x
        x, y = ch.at(cursor)
    return 1.0 - y - (x - px)


def _error_factors(ch):
    """(base, at, hit): the forward-error bound of a float chase on ch is
    base * at[k0] * hit[k1] * ... * hit[kn] for t on segment k0 and chased
    points on segments k1..kn.

    With u = 2^-53 and S = max(1, |coordinate|), each float operation adds
    at most u S of error to a chased quantity.  A point placed on a segment
    (dt, dx, dy) by `at` carries the error of its parameter into x and y
    amplified by a_at = 1 + (|dx| + |dy|) / dt; a hit on that segment
    carries the error of its target into the parameter and x amplified by
    a_hit = 1 + (dt + |dx|) / |dy|.  Adding up the rounding of each step
    gives the bound 64 u S * 4 a_at(k0) * prod 4 a_hit(kj) 4 a_at(kj), with
    ample slack, on the residual, every chased parameter and coordinate and
    every difference the scan compares.  A flat or zero-length segment's
    factor is infinite: no cell with a chased point on it is certified."""
    ks, vs = ch.knots, ch.verts
    inf = float("inf")
    at, hit = [], []
    for t0, t1, (x0, y0), (x1, y1) in zip(ks, ks[1:], vs, vs[1:]):
        dt, dx, dy = t1 - t0, abs(x1 - x0), abs(y1 - y0)
        a = 4 * (1 + (dx + dy) / dt) if dt > 0 else inf
        at.append(a)
        hit.append(4 * (1 + (dt + dx) / dy) * a if dy > 0 else inf)
    scale = max(1.0, max(abs(c) for p in vs for c in p))
    return 64 * 2.0 ** -53 * scale, at, hit


def _sweep_point(ch, n, t, branches, factors):
    """(residual, cell, margin, bound) of one recorded float chase at t.

    cell is the residual's side (or None when infeasible) followed by the
    segment and the sides of every recorded comparison; margin is the
    smallest |difference| among them and |residual|; bound is the chase's
    forward-error bound (_error_factors)."""
    rec = []
    r = _float_chase(ch, n, t, branches, rec)
    base, at, hit = factors
    cell = [None if r is None else r < 0]
    margin = abs(r) if r is not None else float("inf")
    bound = base * at[~rec[0][0]]
    for j, (i, a, b) in enumerate(rec):
        cell.append((i, a > 0, b > 0))
        margin = min(margin, abs(a), abs(b))
        if i < 0 and j:
            bound *= hit[~i]
    return r, cell, margin, bound


def _swept_points(ch, n, grid, branches, factors):
    """(t, residual) at t = g / grid for g = 1..grid-1 in order, except the
    grid points inside certified gaps.

    The points g = 1, 1 + SWEEP_STRIDE, ... and grid - 1 are chased with
    their cells.  A gap between two of them is certified when both have
    the same cell, hence the same feasibility and residual sign, and both
    margins exceed twice the bound.  Then every exact quantity the chase
    compares, affine in t on the cell, is farther than the bound from zero
    at both ends and so all along the gap, and every float chase inside
    the gap takes the same sides: the skipped points share the ends'
    feasibility and sign.  Every other gap is chased point by point."""
    prev = None
    coarse = list(range(1, grid, SWEEP_STRIDE))
    if coarse and coarse[-1] != grid - 1:
        coarse.append(grid - 1)
    for g in coarse:
        t = g / grid
        r, cell, margin, bound = _sweep_point(ch, n, t, branches, factors)
        if prev is not None:
            g0, cell0, margin0 = prev
            if not (cell == cell0 and min(margin, margin0) > 2 * bound):
                for h in range(g0 + 1, g):
                    th = h / grid
                    yield th, _float_chase(ch, n, th, branches)
        yield t, r
        prev = g, cell, margin


def _sign_changes(ch, n, grid, vectors):
    """Sweep t = g / grid (0 < g < grid) along each branch vector in turn
    and yield (branches, t0, t1, r0) wherever two neighbouring feasible
    residuals differ in sign: those of every grid point, though only the
    points _swept_points returns are chased.  At n = 1 the sweep stops
    after the first vector with a nonzero entry on which no grid point is
    feasible, since a larger skip at the one step finds fewer hits; at
    n >= 2 the (sum, lex) order is not monotone, and every vector is
    swept."""
    factors = _error_factors(ch)
    for branches in vectors:
        any_feasible = False
        t0 = r0 = None
        for t, r in _swept_points(ch, n, grid, branches, factors):
            if r is not None:
                any_feasible = True
                if r0 is not None and (r0 < 0) != (r < 0):
                    yield branches, t0, t, r0
            t0, r0 = t, r
        if n == 1 and not any_feasible and any(branches):
            return


def brute_force(curve, n, grid=10_000, tol=rat(1, 10**6)):
    """Sweep the free parameter over every chase branch, bisect sign
    changes, and return all verified partitions.  Every branch vector of
    _branch_vectors is swept, except that at n = 1 the sweep stops after
    the first skip on which no grid point is feasible (_sign_changes).
    Runs in float mode; an empty list is a valid outcome, not an error."""
    if n < 0:
        raise PreconditionError("n must be nonnegative")
    tol_f = as_float(tol)
    ch = _Chaser(curve, float_mode=True)
    results = []
    for branches, t0, t1, r0 in _sign_changes(ch, n, grid,
                                              _branch_vectors(curve, n)):
        root = _bisect_shot(curve, ch, n, t0, t1, r0, branches)
        if root is not None:
            results.append(root)

    out = []
    seen = []
    for t_root, shot in sorted(results, key=lambda r: r[0]):
        if shot.residual is None or abs(shot.residual) > tol_f:
            continue
        rep = verify(curve, shot.points, tol)
        if not rep.ok:
            continue
        if any(abs(t_root - t_old) < 1.0 / grid / 4 for t_old in seen):
            continue
        seen.append(t_root)
        out.append(
            PartitionResult(
                points=shot.points,
                rearrangement=(
                    Rearrangement(shift=rep.detected_shift)
                    if rep.detected_shift is not None
                    else Rearrangement(perm=rep.detected_permutation)
                ),
                exact=False,
                residual=abs(shot.residual),
                trace=PipelineTrace(branch="shooting"),
            )
        )
    return out


def _bisect_shot(curve, ch, n, lo, hi, f_lo, branches=()):
    """(t, shot) at the last feasible midpoint of a bisection of [lo, hi],
    or None.  The bisection reads `_float_residual` of ch, the caller's
    float copy of the curve; the full closure_shot is built only for the
    returned t.  It stops once the midpoint no longer moves, within about
    55 halvings of a bracket of width 1/grid, well inside BISECT_STEPS."""
    best = mid = None
    for _ in range(BISECT_STEPS):
        prev, mid = mid, (lo + hi) / 2
        if mid == prev:  # float resolution: lo, hi and best stay fixed
            break
        r = _float_residual(ch, n, as_float(mid), branches)
        if r is None:
            # shrink toward the known-feasible side
            hi = mid
            continue
        best = mid
        if r == 0:
            break
        if (r < 0) == (f_lo < 0):
            lo = mid
        else:
            hi = mid
    if best is None:
        return None
    return best, closure_shot(curve, n, best, float_mode=True,
                              branches=branches)
