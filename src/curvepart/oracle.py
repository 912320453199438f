"""Independent verification and a shooting-based brute-force solver.

verify() never throws: it measures and reports.  The shooting oracle
scalarizes the wrap condition: from one free point it chases the forced
ordinate targets along the curve and returns the mismatch at the final
wrap; zeros of that residual are partitions.  Every partition
brute_force returns passes the verifier at tol 0.

`_chase` is the one chase loop: it places k free points on the curve
itself (`_at`), chases the rest of a shift-k relation system
(`_first_ordinate_hit`) and returns the wrap mismatches of the relations
it leaves open.  closure_shot reads its residual there at k = 1,
brute_force on `_Affine` numbers, and the explorer its values and, on
`_Affine` numbers too, its Newton Jacobian at every shift: no float
enters a chase.

On a polyline the chase is affine in the free parameter t for as long as
every chased point stays on its segment and every comparison the chase
makes keeps its side: that set of t is a cell, an interval with rational
ends.  brute_force walks the cells of each branch vector in t order.  One
chase per cell, on the affine quantity t = t_lo + s just right of the
cell's start t_lo, gives every chased quantity as an exact affine
function of s; each comparison records its difference, and the first
positive root among them ends the cell.  The residual is affine on the
cell, so its root there is exact, and one exact closure_shot confirms it.
No float and no grid enters: no root inside a cell, or reached at a
cell's end, is missed.  The branch vectors are walked depth-first in lex
order (`_shift_one_roots`): a vector none of whose cells is feasible
rules out its later siblings at its deepest miss and all that follows
them there, since a larger skip finds fewer hits, each hit a distinct
parameter.  The walk holds one vector, and past CELL_BUDGET cells it
raises ConvergenceError instead of returning part of the roots.

Kernel costs of the walk, for a curve of m segments at order n:

- one cell: one chase on `_Affine` numbers, n forced steps, each a scan
  over at most m segments.  Every add, subtract, scale and comparison
  on an `_Affine` is integer products on one (A, B, D) triple, with no
  Fraction and no gcd; each step's target is reduced once (one gcd), and
  each comparison records its difference.  A scan step still subtracts
  the segment's own t1 - t0 and y1 - y0 as Fractions.  The cell's end,
  the smallest positive root among the differences, is chosen by
  integer cross-products and built as one Fraction; the residual's root
  on the cell is read off its two coefficients, as Fractions.
- one candidate: one exact `closure_shot` on the walk's curve (one
  chase on Fractions), and `verify` at tol 0 when its residual is 0.
- one branch vector: its cells, then its candidates; at most
  CELL_BUDGET cells per walk.
"""

from bisect import bisect_right
from dataclasses import dataclass
from math import gcd

from .errors import ConvergenceError, DomainError, PreconditionError
from .pipeline import PartitionResult, PipelineTrace, Rearrangement, increments
from .plcurve import point_curve_distance_sq
from .scalar import ONE, ZERO, rat

# brute_force raises ConvergenceError past this many cells, one chase each
CELL_BUDGET = 65536


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

    side is +1 when the missed ordinate target lies above the last
    chased point, one positive x increment up, and -1 otherwise.
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


def _at(curve, t):
    """The point of curve at parameter t, rational or `_Affine`."""
    ks, vs = curve.knots, curve.vertices
    i = bisect_right(ks, t, 1, len(ks) - 1) - 1  # 0 <= i <= len - 2
    t0, t1 = ks[i], ks[i + 1]
    (x0, y0), (x1, y1) = vs[i], vs[i + 1]
    w = (t - t0) / (t1 - t0)
    return x0 + w * (x1 - x0), y0 + w * (y1 - y0)


def _first_ordinate_hit(curve, target, start, skip=0):
    """The (skip+1)-th distinct parameter >= start where y equals target,
    None when fewer exist.

    The scan starts at the segment that holds start, as `_at` finds it:
    every earlier one ends at or before start.  Each segment is read from
    lo, the later of its first knot and start.  Its hit is lo when y is at
    target there (a flat at target counts from its first point), else the
    point past lo where it crosses target.  A segment that reaches target
    at its end leaves that hit to the next segment, whose lo it is, so
    each parameter counts once; only the last segment counts its end."""
    ks, vs = curve.knots, curve.vertices
    last = len(ks) - 2
    for i in range(bisect_right(ks, start, 1, last + 1) - 1, last + 1):
        t0, t1 = ks[i], ks[i + 1]
        y0, y1 = vs[i][1], vs[i + 1][1]
        lo = start if start > t0 else t0
        w = (lo - t0) / (t1 - t0)
        ylo = y0 + w * (y1 - y0)
        if ylo == target:
            hit = lo
        elif y1 != y0 and ((ylo < target < y1) or (y1 < target < ylo)
                           or (i == last and target == y1)):
            hit = t0 + (target - y0) / (y1 - y0) * (t1 - t0)
        else:
            continue
        if skip == 0:
            return hit
        skip -= 1
    return None


def _chase(curve, frees, k, s, branches=()):
    """The points A_0..A_s of one chase of the shift-k relations
    dy_j = dx_{j-k} over curve, and its wrap mismatches dy_j - dx_{j-k}
    for the relations it leaves open: j = s-1 first, then j = 0..k-2.
    A_0 = (0,0), A_1..A_k lie at the free parameters, A_{k+1}..A_{s-1} are
    forced by the relations j = k..s-2, and A_s = (1,1).  Step j takes the
    earliest ordinate hit after the previous point, skipping branches[j-k]
    earlier ones; when it finds none, the points so far come back with
    None for the mismatches.  On `_Affine` numbers, which no operation
    reduces, each target is reduced once (one gcd)."""
    pts = [(ZERO, ZERO)]
    cursor = ZERO
    for t in frees:
        pts.append(_at(curve, t))
        cursor = t
    for j in range(k, s - 1):
        target = pts[-1][1] + (pts[j - k + 1][0] - pts[j - k][0])
        if type(target) is _Affine:
            target = target.reduced()
        skip = branches[j - k] if j - k < len(branches) else 0
        cursor = _first_ordinate_hit(curve, target, cursor, skip)
        if cursor is None:
            return pts, None
        pts.append(_at(curve, cursor))
    pts.append((ONE, ONE))
    mismatches = []
    for j in (s - 1, *range(k - 1)):
        i = (j - k) % s
        mismatches.append(pts[j + 1][1] - pts[j][1]
                          - (pts[i + 1][0] - pts[i][0]))
    return pts, mismatches


def closure_shot(curve, n, t1, branches=()):
    """Build the chased point sequence from the free parameter t1 in [0, 1].

    Points A_1..A_{n+1} follow the shifted ordinate targets
    y_{i+1} = y_i + (x_i - x_{i-1}); the returned residual is how far the
    forced final wrap lands from closing at (1,1), the one mismatch of
    `_chase` at shift 1.  Step i takes the earliest ordinate hit by
    default; branches[i] skips that many earlier occurrences, selecting a
    different solution branch.
    """
    if n < 0:
        raise PreconditionError("n must be nonnegative")
    t1 = rat(t1)
    if not 0 <= t1 <= 1:
        raise DomainError(f"argument {t1} outside [0,1]", witness=t1)
    pts, mismatches = _chase(curve, (t1,), 1, n + 2, branches)
    if mismatches is None:
        # the missed target lies one x increment above the last point
        side = 1 if pts[-1][0] > pts[-2][0] else -1
        return ShotOutcome(residual=None, feasible=False, side=side,
                           points=tuple(pts))
    return ShotOutcome(residual=mismatches[0], feasible=True,
                       points=tuple(pts))


class _Affine:
    """The quantity a + b*s at t = t_lo + s, read just right of t_lo.

    It is held as one integer triple (A, B, D), meaning (A + B*s)/D with
    D > 0 and not in lowest terms; `a` and `b` read it as Fractions.  The
    chase adds and subtracts these with rationals and with each other and
    scales them by rationals; it never multiplies two of them.  Each
    operation reads a rational operand's numerator and denominator once
    and forms integer products: it builds no Fraction and takes no gcd.
    A comparison reads the sign of the difference just right of t_lo, the
    sign of A, or of B when A is 0, and appends the difference to the
    shared list rec: the comparison keeps its side up to that difference's
    first positive root, -A/B.

    `_Affine(a, b, rec)` takes rationals a and b; the operations pass the
    integer triple, `_Affine(A, B, rec, D)`."""

    __slots__ = ("A", "B", "D", "rec")

    def __init__(self, a, b, rec, d=None):
        if d is None:
            a, b = rat(a), rat(b)
            d = a.denominator * b.denominator
            a, b = a.numerator * b.denominator, b.numerator * a.denominator
        self.A, self.B, self.D, self.rec = a, b, d, rec

    @property
    def a(self):
        return rat(self.A, self.D)

    @property
    def b(self):
        return rat(self.B, self.D)

    def __add__(self, o):
        d = self.D
        if type(o) is _Affine:
            e = o.D
            return _Affine(self.A * e + o.A * d, self.B * e + o.B * d,
                           self.rec, d * e)
        p, q = o.numerator, o.denominator
        return _Affine(self.A * q + p * d, self.B * q, self.rec, d * q)

    __radd__ = __add__

    def __sub__(self, o):
        d = self.D
        if type(o) is _Affine:
            e = o.D
            return _Affine(self.A * e - o.A * d, self.B * e - o.B * d,
                           self.rec, d * e)
        p, q = o.numerator, o.denominator
        return _Affine(self.A * q - p * d, self.B * q, self.rec, d * q)

    def __rsub__(self, o):
        p, q = o.numerator, o.denominator
        d = self.D
        return _Affine(p * d - self.A * q, -self.B * q, self.rec, d * q)

    def __mul__(self, c):
        p, q = c.numerator, c.denominator
        return _Affine(self.A * p, self.B * p, self.rec, self.D * q)

    __rmul__ = __mul__

    def __truediv__(self, c):
        p, q = c.numerator, c.denominator
        if p < 0:
            p, q = -p, -q
        elif not p:
            raise ZeroDivisionError("_Affine division by zero")
        return _Affine(self.A * q, self.B * q, self.rec, self.D * p)

    def reduced(self):
        """The same quantity with A, B and D divided by their gcd."""
        g = gcd(self.A, self.B, self.D)
        if g == 1:
            return self
        return _Affine(self.A // g, self.B // g, self.rec, self.D // g)

    def _sign(self, o):
        """A number with the sign of self - o just right of t_lo; records
        the difference."""
        d = self - o
        self.rec.append(d)
        return d.A or d.B

    def __lt__(self, o):
        return self._sign(o) < 0

    def __le__(self, o):
        return self._sign(o) <= 0

    def __gt__(self, o):
        return self._sign(o) > 0

    def __ge__(self, o):
        return self._sign(o) >= 0

    def __eq__(self, o):
        return self._sign(o) == 0


def _value_slope(q):
    """A chased quantity's (value, slope) at t_lo: an `_Affine`'s a and b,
    or a rational, which the free parameter does not move, with slope 0."""
    return (q.a, q.b) if type(q) is _Affine else (q, ZERO)


def _cell_roots(curve, n, branches):
    """(candidates, missed, cells): the parameters where the shift-1
    residual of the chase over curve on one branch vector may vanish, in
    increasing order; None when any cell of the vector is feasible, else
    the deepest branch index at which a cell's chase missed, len(pts) - 2
    of the missed `_chase`; and the number of cells, one chase each.

    The walk chases on _Affine(t_lo, 1) from t_lo = 0; the cell ends at
    the first positive root of a recorded difference, or at 1.  That end
    is chosen on integers: a difference (A + B*s)/D has a root at s > 0
    when A and B have opposite signs, at -A/B, and the smallest is kept as
    an integer pair by cross-products, so the cell builds one Fraction for
    its width.  On a feasible cell the residual is affine in s
    (`_value_slope`: slope 0 when no chased point moves with t).  Its
    candidates are its root inside the cell or at the cell's end, a zero
    at t_lo and, when it is zero on the whole cell, the cell's midpoint as
    the one representative of that stretch."""
    out = []
    feasible = False
    deepest = -1
    cells = 0
    t_lo = ZERO
    while t_lo < 1:
        cells += 1
        rec = []
        pts, mismatches = _chase(curve, (_Affine(t_lo, ONE, rec),), 1,
                                 n + 2, branches)
        width = 1 - t_lo
        p, q = width.numerator, width.denominator  # the end so far, p/q
        for d in rec:
            a, b = d.A, d.B
            if a < 0 < b or b < 0 < a:  # a root at s = -a/b > 0
                if b < 0:
                    a, b = -a, -b
                if -a * q < p * b:
                    p, q = -a, b
        width = rat(p, q)
        if mismatches is not None:
            feasible = True
            a, b = _value_slope(mismatches[0])
            if a == 0:
                if not out or out[-1] != t_lo:
                    out.append(t_lo)
                if b == 0:
                    out.append(t_lo + width / 2)
            elif b and 0 < -a / b <= width:
                out.append(t_lo - a / b)
        else:
            deepest = max(deepest, len(pts) - 2)
        t_lo += width
    return out, None if feasible else deepest, cells


def _vector_roots(curve, n, branches):
    """(roots, missed, cells) on one branch vector: (t, shot) for each
    candidate of `_cell_roots` whose one exact closure_shot has residual
    0, in t order, then `_cell_roots`' missed and cells."""
    ts, missed, cells = _cell_roots(curve, n, branches)
    roots = []
    for t in ts:
        shot = closure_shot(curve, n, t, branches=branches)
        if shot.residual == 0:
            roots.append((t, shot))
    return roots, missed, cells


def _shift_one_roots(curve, n):
    """(t, shot) for each root of the shift-1 residual on every branch
    vector, walked depth-first in lex order from (0, ..., 0).

    A larger skip at the same step finds fewer ordinate hits.  So when no
    cell of a vector b is feasible and its chases missed at branch index m
    at the deepest, no vector that keeps b's first m entries and has an
    entry >= b[m] at index m has a feasible cell, at any t: the walk adds
    1 at index m - 1 and sets every later entry to 0.  After a vector with
    a feasible cell it adds 1 at index n - 1.  It ends when that index
    falls below 0.  An entry stops growing once the chase runs out of
    hits, so no width bound is needed.  The walk holds one vector, and
    once its vectors have chased more than CELL_BUDGET cells it raises
    ConvergenceError."""
    b = [0] * n
    cells = 0
    while True:
        roots, missed, used = _vector_roots(curve, n, tuple(b))
        cells += used
        if cells > CELL_BUDGET:
            raise ConvergenceError(
                f"the shift-1 walk at n = {n} needs more than {CELL_BUDGET} "
                "cells")
        yield from roots
        i = n - 1 if missed is None else missed - 1
        if i < 0:
            return
        b[i] += 1
        b[i + 1:] = [0] * (n - 1 - i)


def brute_force(curve, n, grid=None):
    """Every shift-1 partition on every chase branch, exact and verified
    at tol 0, sorted by the free parameter; repeated point sequences are
    dropped.

    "Every" holds for the roots inside a cell and at a cell end the
    residual reaches from one side: the walk of _shift_one_roots passes
    over only vectors with no feasible cell, so an empty list proves that
    none lies there, and is a valid outcome, not an error.  A root at a
    single cell end whose chase matches neither neighbouring cell is not
    looked for.  A walk that needs more than CELL_BUDGET cells raises
    ConvergenceError and returns no part of the list.  `grid` is
    accepted for callers of the earlier grid sweep and is not read."""
    if n < 0:
        raise PreconditionError("n must be nonnegative")
    roots = sorted(_shift_one_roots(curve, n), key=lambda root: root[0])
    out = []
    seen = set()
    for _, shot in roots:
        rep = verify(curve, shot.points)
        if not rep.ok or shot.points in seen:
            continue
        seen.add(shot.points)
        out.append(
            PartitionResult(
                points=shot.points,
                rearrangement=(
                    Rearrangement(shift=rep.detected_shift)
                    if rep.detected_shift is not None
                    else Rearrangement(perm=rep.detected_permutation)
                ),
                exact=True,
                residual=ZERO,
                trace=PipelineTrace(branch="shooting"),
            )
        )
    return out
