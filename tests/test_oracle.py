import hashlib
import json
import operator
import random
from itertools import islice, product

import pytest

from curvepart import (
    ConvergenceError,
    DomainError,
    PLCurve,
    PreconditionError,
    brute_force,
    closure_shot,
    diagonal_curve,
    partition_below_diagonal,
    random_curve,
    verify,
)
from curvepart import oracle, partition_curve
from curvepart.oracle import (
    _Affine,
    _cell_roots,
    _chase,
    _first_ordinate_hit,
    _vector_roots,
)
from curvepart.fileio import EXACT, result_to_obj
from curvepart.scalar import rat

from util import float_curve

R = rat

BENT = PLCurve([0, R(1, 2), 1], [(0, 0), (R(4, 5), R(1, 5)), (1, 1)])
SECTION5 = PLCurve([0, R(1, 2), 1], [(0, 0), (1, 0), (1, 1)])


def _every_vector(curve, n):
    """Every branch vector that can hold a feasible cell: a step finds at
    most one ordinate hit per segment, so a larger skip finds none."""
    return product(range(len(curve.knots) - 1), repeat=n)


def _walked(curve, n, monkeypatch):
    """{branch vector: its missed} for each vector brute_force's walk
    reads, in walking order."""
    walked = {}
    real = oracle._vector_roots

    def spy(curve, n, branches):
        out = real(curve, n, branches)
        walked[branches] = out[1]
        return out

    with monkeypatch.context() as mp:
        mp.setattr(oracle, "_vector_roots", spy)
        brute_force(curve, n)
    return walked


class TestVerify:
    def test_diagonal_points_pass(self):
        pts = [(0, 0), (R(1, 2), R(1, 2)), (1, 1)]
        rep = verify(diagonal_curve(), pts, tol=0)
        assert rep.ok
        assert rep.detected_shift == 0
        assert rep.on_curve_max_dist == 0

    def test_worked_example_shift_one(self):
        pts = [(0, 0), (R(4, 9), R(1, 9)), (R(8, 9), R(5, 9)), (1, 1)]
        rep = verify(BENT, pts, tol=0)
        assert rep.ok and rep.detected_shift == 1

    def test_zero_increment_fails_positivity(self):
        pts = [(0, 0), (R(1, 2), R(1, 2)), (R(1, 2), R(1, 2)), (1, 1)]
        rep = verify(diagonal_curve(), pts, tol=0)
        assert not rep.ok
        assert not rep.increments_positive

    def test_off_curve_detected(self):
        pts = [(0, 0), (R(1, 2), R(1, 4)), (1, 1)]
        rep = verify(diagonal_curve(), pts, tol=0)
        assert not rep.ok
        assert rep.on_curve_max_dist == R(1, 32)

    def test_wrong_endpoint_detected(self):
        pts = [(0, R(1, 10)), (R(1, 2), R(1, 2)), (1, 1)]
        rep = verify(diagonal_curve(), pts, tol=0)
        assert not rep.ok

    def test_empty_points_fail_without_raising(self):
        rep = verify(BENT, [], tol=R(1, 2))
        assert not rep.ok
        assert not rep.increments_positive and not rep.multiset_match
        assert rep.detected_shift is None

    def test_tolerance_band(self):
        eps = R(1, 10**12)
        pts = [(0, 0), (R(1, 2), R(1, 2) + eps), (1, 1)]
        assert not verify(diagonal_curve(), pts, tol=0).ok
        assert verify(diagonal_curve(), pts, tol=R(1, 10**5)).ok

    def test_permutation_detection(self):
        # dx = (12,4,3,5)/24 and dy = (12,3,4,5)/24: same multiset, no shift
        pts = [(0, 0), (R(1, 2), R(1, 2)), (R(2, 3), R(5, 8)),
               (R(19, 24), R(19, 24)), (1, 1)]
        c = PLCurve([0, R(1, 4), R(1, 2), R(3, 4), 1], pts)
        rep = verify(c, pts, tol=0)
        assert rep.multiset_match and rep.ok
        assert rep.detected_shift is None
        perm = rep.detected_permutation
        dx = [b[0] - a[0] for a, b in zip(pts, pts[1:])]
        dy = [b[1] - a[1] for a, b in zip(pts, pts[1:])]
        for i in range(4):
            assert dy[i] == dx[perm[i]]


    def test_permutation_within_tol(self):
        # dx = (1,3,4)/8 and dy = (2,1,5)/8: no shift matches within 1/8,
        # but the permutation (1,0,2) does; a search that gives dy_0 the
        # smallest dx within tol leaves no dx for dy_1
        pts = [(0, 0), (R(1, 8), R(2, 8)), (R(4, 8), R(3, 8)), (1, 1)]
        c = PLCurve([0, R(1, 3), R(2, 3), 1], pts)
        rep = verify(c, pts, tol=R(1, 8))
        assert rep.ok and rep.multiset_match
        assert rep.detected_shift is None
        assert rep.detected_permutation == (1, 0, 2)


class TestClosureResidual:
    def test_diagonal_midpoint(self):
        assert closure_shot(diagonal_curve(), 1, R(1, 3)).residual == 0

    def test_zero_at_known_solution(self):
        # parameter of (4/9, 1/9) on the bent curve
        assert closure_shot(BENT, 1, R(5, 18)).residual == 0

    def test_positive_near_zero(self):
        r = closure_shot(BENT, 1, R(1, 100)).residual
        assert r is not None and r > 0

    def test_sign_flips_across_solution(self):
        lo = closure_shot(BENT, 1, R(5, 18) - R(1, 50)).residual
        hi = closure_shot(BENT, 1, R(5, 18) + R(1, 50)).residual
        assert lo is not None and hi is not None
        assert (lo > 0) != (hi > 0)

    def test_infeasible_marker(self):
        shot = closure_shot(BENT, 3, R(9, 10))
        assert not shot.feasible
        assert shot.residual is None
        assert shot.side == 1

    def test_knot_at_the_target_level_is_one_hit(self):
        # y rises through 1/2 once, at the knot t = 1/2: the segment that
        # reaches the level at its end and the one that starts there meet
        # in one hit, so a chase that skips it has no hit left
        c = PLCurve([0, R(1, 2), 1], [(0, 0), (R(3, 4), R(1, 2)), (1, 1)])
        assert [_first_ordinate_hit(c, R(1, 2), start, skip)
                for start in (0, R(1, 2)) for skip in (0, 1)] == [
            R(1, 2), None, R(1, 2), None]
        assert closure_shot(c, 1, R(1, 5)).residual == R(1, 20)
        shot = closure_shot(c, 1, R(1, 5), branches=(1,))
        assert not shot.feasible and shot.residual is None

    def test_parameter_outside_the_unit_interval_is_refused(self):
        c = random_curve(0, vertices=5)
        for t in (R(3, 2), R(-1, 7)):
            with pytest.raises(DomainError) as err:
                closure_shot(c, 1, t)
            assert str(err.value) == f"argument {t} outside [0,1]"
            with pytest.raises(DomainError):
                c(t)
        assert closure_shot(c, 1, 1).points[1] == (1, 1)


@pytest.mark.parametrize("n", [-1, -2])
class TestNegativeOrderRefused:
    def test_brute_force(self, n):
        with pytest.raises(PreconditionError) as err:
            brute_force(BENT, n, grid=200)
        assert str(err.value) == "n must be nonnegative"

    def test_closure_shot(self, n):
        with pytest.raises(PreconditionError) as err:
            closure_shot(BENT, n, R(1, 3))
        assert str(err.value) == "n must be nonnegative"


class TestBruteForce:
    def test_finds_worked_example(self):
        found = brute_force(BENT, 1)
        assert len(found) == 1
        res = found[0]
        assert res.exact and res.residual == 0
        assert res.points[1] == (R(4, 9), R(1, 9))
        rep = verify(BENT, res.points, tol=0)
        assert rep.ok and rep.detected_shift == 1

    def test_diagonal_curve_solution(self):
        found = brute_force(diagonal_curve(), 1)
        assert found
        for res in found:
            assert verify(diagonal_curve(), res.points, tol=0).ok

    def test_counterexample_curve_empty(self):
        for n in range(1, 5):
            assert brute_force(SECTION5, n) == []

    def test_all_solutions_verify(self):
        for seed in (0, 3, 5):
            c = random_curve(seed, vertices=6, curve_class="deltaInterior")
            for n in (0, 1):
                for res in brute_force(c, n):
                    rep = verify(c, res.points, tol=0)
                    assert rep.ok

    def test_agreement_with_pipeline(self):
        # agreement is by verifier pass, never by point equality
        for seed in (1, 2, 4):
            c = random_curve(seed, vertices=6, curve_class="deltaInterior")
            found = brute_force(c, 1)
            assert found, seed
            exact = partition_below_diagonal(c, 1)
            pts_float = [(float(x), float(y)) for x, y in exact.points]
            rep = verify(c, pts_float, tol=R(1, 10**9))
            assert rep.ok

    def test_every_branch_vector_swept_at_higher_order(self, monkeypatch):
        # at n = 2 no cell of (1, 1) is feasible, and its chases miss at
        # branch index 1 at the deepest: that rules out (1, j) for j >= 1
        # only, and the walk goes on at (2, 0), which holds the partition
        # at x_1 = 0.3177
        c = random_curve(0, vertices=5, curve_class="deltaInterior")
        assert _cell_roots(c, 2, (1, 1))[:2] == ([], 1)
        walked = list(_walked(c, 2, monkeypatch))
        assert walked[walked.index((1, 1)) + 1] == (2, 0)
        assert any(abs(shot.points[1][0] - 0.31771) < 1e-5
                   for _, shot in _vector_roots(c, 2, (2, 0))[0])
        found = brute_force(c, 2)
        assert len(found) == 5
        for res in found:
            assert verify(c, res.points, tol=0).ok
        assert any(abs(res.points[1][0] - 0.31771) < 1e-5 for res in found)

    def test_finds_the_root_a_capped_walk_drops(self):
        # (6, 2, 0) comes 162nd in (sum, lex) order on this 11-segment
        # curve, so a walk of the first 128 vectors in that order drops
        # the partition it holds
        c = random_curve(0, vertices=12, curve_class="interior")
        order = sorted(_every_vector(c, 3), key=lambda v: (sum(v), v))
        assert order.index((6, 2, 0)) == 161
        shot = closure_shot(c, 3, R(7151633462891600750,
                                    110947465294982991003),
                            branches=(6, 2, 0))
        assert shot.residual == 0
        found = brute_force(c, 3)
        assert len(found) == 15
        assert shot.points in [res.points for res in found]
        for res in found:
            assert verify(c, res.points, tol=0).ok

    def test_grid_is_not_read(self):
        for seed in (1, 2):
            c = random_curve(seed, vertices=6, curve_class="interior")
            for n in (0, 1):
                assert brute_force(c, n, grid=10_000) == brute_force(c, n)
        assert brute_force(BENT, 1, grid=3) == brute_force(BENT, 1)


class TestDuplicateRoots:
    # x + y exceeds 1 after t = 1/5 and comes back to exactly 1 at the
    # vertex (5/8, 3/8), t = 1/2: the n = 0 residual 1 - x - y touches
    # zero from below at a cell end, the root of the cell before it and
    # the zero at the start of the cell after it
    TOUCH = PLCurve([0, R(1, 4), R(1, 2), 1],
                    [(0, 0), (R(3, 4), R(1, 2)), (R(5, 8), R(3, 8)), (1, 1)])

    def test_touching_root_is_reported_once(self):
        assert _cell_roots(self.TOUCH, 0, ())[:2] == (
            [R(1, 5), R(1, 2)], None)
        found = brute_force(self.TOUCH, 0)
        assert [r.points[1] for r in found] == [(R(3, 5), R(2, 5)),
                                                (R(5, 8), R(3, 8))]


# --------------------------------------------------------------- cell walk

def _walk(curve, n, branches):
    """The cells _cell_roots walks on one branch vector, captured from its
    chases: (t_lo, t_hi, rec, pts, residual) per cell, in order, the
    residual None on a cell whose chase misses."""
    chases = []

    def spy(curve, frees, k, s, br):
        pts, mismatches = _chase(curve, frees, k, s, br)
        chases.append((frees[0], pts, mismatches))
        return pts, mismatches

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "_chase", spy)
        _cell_roots(curve, n, branches)
    ends = [f.a for f, _, _ in chases[1:]] + [R(1)]
    return [(f.a, t_hi, f.rec, pts, mismatches and mismatches[0])
            for (f, pts, mismatches), t_hi in zip(chases, ends)]


def _at(q, s):
    """The value of an _Affine, or of a rational, at offset s."""
    return q.a + q.b * s if isinstance(q, _Affine) else q


def _float_residual(ch, n, t, branches):
    """The shift-1 residual of a float chase at t, or None when infeasible."""
    mismatches = _chase(ch, (t,), 1, n + 2, branches)[1]
    return mismatches and mismatches[0]


def ref_float_roots(curve, n, grid):
    """The point-by-point float reference: every sign change of the float
    residual between neighbouring grid points of each branch vector,
    bisected to float resolution, kept when its residual is within 1e-6
    and its points verify within 1e-6.  Yields (branches, t, points)."""
    ch = float_curve(curve)
    for branches in _every_vector(curve, n):
        t0 = r0 = None
        for g in range(1, grid):
            t = g / grid
            r = _float_residual(ch, n, t, branches)
            if r is not None:
                if r0 is not None and (r0 < 0) != (r < 0):
                    root = _bisect(ch, n, t0, t, r0, branches)
                    if root is not None and abs(root[1]) <= 1e-6:
                        pts = _chase(ch, (root[0],), 1, n + 2, branches)[0]
                        if verify(curve, pts, R(1, 10**6)).ok:
                            yield branches, root[0], pts
            t0, r0 = t, r


def _bisect(ch, n, lo, hi, r_lo, branches):
    """(t, residual) at the last feasible midpoint of a bisection of
    [lo, hi] to float resolution, or None when no midpoint is feasible."""
    best = None
    while True:
        mid = (lo + hi) / 2
        if mid in (lo, hi):
            break
        r = _float_residual(ch, n, mid, branches)
        if r is None:
            hi = mid
            continue
        best = (mid, r)
        if r == 0:
            break
        if (r < 0) == (r_lo < 0):
            lo = mid
        else:
            hi = mid
    return best


CELL_FEATURES = ("flat", "free", "vertical", "stall", "free", "nearflat",
                 "free")


def _cell_curve(seed):
    """A seeded curve with 3-9 vertices whose knots are mostly j/m for m in
    (4, 8, 10, 16, 20), and whose pieces cycle through CELL_FEATURES:
    flats, vertical pieces, stalls (a repeated vertex) and near-flat pieces
    with |dy| = 2^-12, 2^-20 or 2^-30, with dyadic coordinates that floats
    hold exactly."""
    rng = random.Random(seed)
    v = rng.randint(3, 9)
    m = rng.choice((4, 8, 10, 16, 20))
    knots = [R(0)]
    for j in sorted(rng.sample(range(1, m), min(v - 2, m - 1))):
        off = 0 if rng.random() < 0.7 else R(rng.randrange(1, 1 << 10), m << 12)
        knots.append(R(j, m) + off)
    knots.append(R(1))
    pts = [(R(0), R(0))]
    for i in range(len(knots) - 2):
        x, y = pts[-1]
        rx, ry = (R(rng.randrange(1 << 10), 1 << 10) for _ in range(2))
        kind = CELL_FEATURES[(seed + i) % len(CELL_FEATURES)]
        if kind == "flat":
            pts.append((rx, y))
        elif kind == "vertical":
            pts.append((x, ry))
        elif kind == "stall":
            pts.append((x, y))
        elif kind == "nearflat":
            dy = R(rng.choice((-1, 1)), 1 << rng.choice((12, 20, 30)))
            pts.append((rx, y + dy))
        else:
            pts.append((rx, ry))
    pts.append((R(1), R(1)))
    return PLCurve(knots, pts)


# on its middle piece x + y = 1, so the n = 0 residual is 0 on a whole
# stretch, where float rounding alone decides its sign: a float sweep
# brackets hundreds of sign changes there
ANTIDIAGONAL = PLCurve([0, R(1, 10), R(9, 10), 1],
                       [(0, 0), (R(3, 4), R(1, 4)), (R(1, 4), R(3, 4)),
                        (1, 1)])


# the second piece runs along x + y = 3/5, and the fourth is near-flat
# around y = 3/5
NEARFLAT_HIT = PLCurve(
    [0, R(1, 5), R(2, 5), R(3, 5), R(4, 5), 1],
    [(0, 0), (R(1, 2), R(1, 10)), (R(1, 10), R(1, 2)),
     (R(1, 4), R(3, 5) - R(1, 2**31)), (R(3, 4), R(3, 5) + R(1, 2**31)),
     (1, 1)])

WALK_CURVES = ([_cell_curve(seed) for seed in range(16)]
               + [BENT, TestDuplicateRoots.TOUCH, NEARFLAT_HIT, SECTION5,
                  ANTIDIAGONAL])


def _cover(curve, n, branches, t, pts, found):
    """How a float root (t, pts) on branches is among the exact results
    `found`: "points" when some result's points lie within 1e-6 of pts,
    "stretch" when t lies in a cell where the residual is zero throughout
    and the walk's representative of that cell is among the results, and
    None otherwise."""
    for res in found:
        if max(abs(float(a) - b) for p, q in zip(res.points, pts)
               for a, b in zip(p, q)) <= 1e-6:
            return "points"
    for t_lo, t_hi, _, _, r in _walk(curve, n, branches):
        if r is not None and t_lo <= t <= t_hi:
            if _at(r, 0) == 0 and _at(r, 1) == 0:
                mid = closure_shot(curve, n, (t_lo + t_hi) / 2,
                                   branches=branches)
                if mid.points in [res.points for res in found]:
                    return "stretch"
    return None


def _covers(curves, ns):
    """How each float root of the reference on curves at each n in ns is
    among brute_force's results (see _cover); fails on the first that is
    not."""
    covers = []
    for curve in curves:
        for n in ns:
            found = brute_force(curve, n)
            for branches, t, pts in ref_float_roots(curve, n, 1000):
                covers.append(_cover(curve, n, branches, t, pts, found))
                assert covers[-1], (curve, n, branches, t)
    return covers


# every partition the point-by-point float reference finds within 1e-6 is
# among the walk's exact results, or in a zero stretch it represents
class TestCellSweep:
    def test_matches_point_by_point_sweep(self):
        covers = _covers([_cell_curve(seed) for seed in range(16)]
                         + [ANTIDIAGONAL, NEARFLAT_HIT], (0, 1))
        # ANTIDIAGONAL's float roots lie in its zero stretch
        assert len(covers) > 250 and set(covers) == {"points", "stretch"}

    def test_matches_point_by_point_sweep_on_random_curves(self):
        covers = _covers([random_curve(seed, vertices=9,
                                       curve_class="interior")
                          for seed in range(20)], (0, 1))
        assert len(covers) > 150 and set(covers) == {"points"}

    def test_curves_cover_the_cases(self):
        curves = [_cell_curve(seed) for seed in range(16)]
        knots = {t for c in curves for t in c.knots[1:-1]}
        steps = [(b[0] - a[0], b[1] - a[1]) for c in curves
                 for a, b in zip(c.vertices, c.vertices[1:])]
        assert any(t * 1000 == int(t * 1000) for t in knots)
        assert any(dx and not dy for dx, dy in steps)
        assert any(dy and not dx for dx, dy in steps)
        assert any(not dx and not dy for dx, dy in steps)
        assert {abs(dy) for _, dy in steps} >= {R(1, 2**12), R(1, 2**20),
                                                R(1, 2**30)}


# both curve classes, 4-9 vertices between them
SWEEP_CURVES = [
    random_curve(seed, vertices=v, curve_class=cls)
    for seed, v, cls in ((4, 4, "deltaInterior"), (6, 6, "deltaInterior"),
                         (5, 5, "interior"), (3, 9, "interior"))
]


class TestStreamedSweep:
    def test_residual_matches_closure_shot(self):
        # the reference's float residual is closure_shot's on the float
        # copy of the curve
        grid = 257
        feasible = infeasible = skipped_feasible = 0
        for curve in SWEEP_CURVES:
            ch = float_curve(curve)
            for n in range(4):
                for branches in _every_vector(curve, n):
                    for g in range(1, grid):
                        t = g / grid
                        ref = closure_shot(ch, n, t,
                                           branches=branches).residual
                        assert (_float_residual(ch, n, t, branches)
                                == ref), (curve, n, branches, t)
                        if ref is None:
                            infeasible += 1
                        else:
                            feasible += 1
                            skipped_feasible += any(branches)
        assert feasible and infeasible and skipped_feasible

    def test_brute_force_matches_per_shot_reference(self):
        curves = [BENT, TestDuplicateRoots.TOUCH, SECTION5] + SWEEP_CURVES
        covers = _covers(curves, (0, 1))
        assert len(covers) > 20 and set(covers) == {"points"}


class TestShotConsistency:
    # on BENT at n = 1 the chase is feasible for t <= 1/2 only, and its one
    # root is t = 5/18, A_1 = (4/9, 1/9): the reference's bisection and the
    # walk agree on both

    def test_bisection_converges_between_signs(self):
        grid = 64
        prev = None
        crossings = 0
        bracket = None
        for g in range(1, grid):
            t = R(g, grid)
            r = closure_shot(BENT, 1, t).residual
            if prev is not None and r is not None and (prev[1] > 0) != (r > 0):
                crossings += 1
                bracket = bracket or (prev[0], t, prev[1])
            prev = (t, r) if r is not None else None
        assert crossings >= 1
        lo, hi, r_lo = bracket
        ch = float_curve(BENT)
        t_root, r = _bisect(ch, 1, float(lo), float(hi), float(r_lo), (0,))
        # the exact residual vanishes at 5/18 (test_zero_at_known_solution)
        assert abs(t_root - R(5, 18)) < 1e-12 and abs(r) < 1e-12
        assert _cell_roots(BENT, 1, (0,))[:2] == ([R(5, 18)], None)

    def test_infeasible_midpoints_shrink_toward_the_feasible_end(self):
        ch = float_curve(BENT)
        lo, hi = 0.45, 0.9
        assert _float_residual(ch, 1, (lo + hi) / 2, (0,)) is None
        t, _ = _bisect(ch, 1, lo, hi, _float_residual(ch, 1, lo, (0,)), (0,))
        assert lo < t <= 0.5
        # the walk's last feasible cell ends at 1/2 exactly
        feasible = [(t_lo, t_hi) for t_lo, t_hi, _, _, r
                    in _walk(BENT, 1, (0,)) if r is not None]
        assert feasible[-1][1] == R(1, 2)

    def test_bracket_without_a_feasible_midpoint_is_none(self):
        ch = float_curve(BENT)
        assert _bisect(ch, 1, 0.6, 0.9, 1.0, (0,)) is None
        # no cell beyond 1/2 is feasible, so none yields a candidate
        cells = _walk(BENT, 1, (0,))
        assert any(t_lo >= R(1, 2) for t_lo, *_ in cells)
        assert all(r is None for t_lo, *_, r in cells if t_lo >= R(1, 2))
        assert all(t < R(1, 2) for t in _cell_roots(BENT, 1, (0,))[0])


class TestCellWalk:
    def test_zero_stretch_has_one_representative(self):
        # the residual 1 - x - y falls to 0 at the end of the first cell,
        # t = 1/10, is 0 on the whole second, represented by its midpoint,
        # and is 0 at the start of the third, t = 9/10, only: from there it
        # falls with slope -10
        assert _cell_roots(ANTIDIAGONAL, 0, ())[:2] == (
            [R(1, 10), R(1, 2), R(9, 10)], None)
        found = brute_force(ANTIDIAGONAL, 0)
        assert [r.points[1] for r in found] == [
            (R(3, 4), R(1, 4)), (R(1, 2), R(1, 2)), (R(1, 4), R(3, 4))]

    def test_bent_root_and_feasibility_edge(self):
        # at n = 1 BENT's chase is feasible for t <= 1/2 only, and its one
        # root is t = 5/18, A_1 = (4/9, 1/9): both come out exact
        cells = _walk(BENT, 1, (0,))
        feasible = [(t_lo, t_hi) for t_lo, t_hi, _, _, r in cells
                    if r is not None]
        assert feasible[-1][1] == R(1, 2)
        assert all(r is None for t_lo, *_, r in cells if t_lo >= R(1, 2))
        assert _cell_roots(BENT, 1, (0,))[:2] == ([R(5, 18)], None)

    def test_results_are_exact(self):
        count = 0
        for curve in WALK_CURVES:
            for n in range(3):
                for res in brute_force(curve, n):
                    assert res.exact and res.residual == 0
                    assert verify(curve, res.points, tol=0).ok
                    count += 1
        assert count > 50

    def test_constant_residual_is_lifted(self):
        # a hit at a segment's start knot leaves no chased point moving with
        # t: the residual is a plain rational on the whole cell
        constant = 0
        for seed in (2, 3, 9, 10):
            curve = _cell_curve(seed)
            for branches in _every_vector(curve, 2):
                for *_, pts, r in _walk(curve, 2, branches):
                    if r is not None:
                        constant += not any(isinstance(c, _Affine)
                                            for p in pts[-3:] for c in p)
            found = brute_force(curve, 2)
            assert found, seed
            for res in found:
                assert verify(curve, res.points, tol=0).ok
        assert constant

    def test_cells_tile_the_parameter_range(self):
        # each cell starts where the last ended, from 0 to 1; on the open
        # cell no recorded difference changes sign, and the exact chase at
        # points inside it equals the affine one
        rng = random.Random(5)
        checked = 0
        for curve in WALK_CURVES:
            for n in range(3):
                for branches in islice(_every_vector(curve, n), 4):
                    cells = _walk(curve, n, branches)
                    assert cells[0][0] == 0 and cells[-1][1] == 1
                    for (t_lo, t_hi, rec, pts, r), nxt in zip(
                            cells, cells[1:] + [None]):
                        assert t_lo < t_hi
                        assert nxt is None or nxt[0] == t_hi
                        w = t_hi - t_lo
                        for d in rec:
                            signs = {(d.a + d.b * s > 0) - (d.a + d.b * s < 0)
                                     for s in (w / 3, w / 2, w)}
                            assert len(signs - {0}) <= 1
                        s = w * R(rng.randrange(1, 1000), 1000)
                        shot = closure_shot(curve, n, t_lo + s,
                                            branches=branches)
                        assert shot.feasible == (r is not None)
                        if r is not None:
                            assert shot.points == tuple(
                                (_at(x, s), _at(y, s)) for x, y in pts)
                            checked += 1
        assert checked > 200

    def test_one_exact_shot_per_candidate(self, monkeypatch):
        # each shot runs on the vector's own curve
        shots = []
        real = oracle.closure_shot

        def spy(curve, n, t, **kwargs):
            shots.append((curve, t))
            return real(curve, n, t, **kwargs)

        monkeypatch.setattr(oracle, "closure_shot", spy)
        for curve in WALK_CURVES:
            for n, branches in ((0, ()), (1, (0,)), (1, (1,))):
                shots.clear()
                roots = [t for t, _ in _vector_roots(curve, n, branches)[0]]
                candidates = _cell_roots(curve, n, branches)[0]
                assert [t for _, t in shots] == candidates
                assert candidates == sorted(set(candidates))
                assert all(c is curve for c, _ in shots)
                assert set(roots) <= set(candidates)

    def test_every_shot_runs_on_the_walks_curve(self, monkeypatch):
        # brute_force confirms every candidate on the curve it was given
        shots = []
        real = oracle.closure_shot
        monkeypatch.setattr(oracle, "closure_shot",
                            lambda *a, **k: shots.append(a) or real(*a, **k))
        curve = random_curve(0, vertices=5, curve_class="deltaInterior")
        assert len(brute_force(curve, 2)) == 5
        assert len(shots) >= 5
        assert all(a[0] is curve for a in shots)


def _rand_rational(rng):
    return R(rng.randint(-40, 40), rng.choice((1, 3, 4, 7, 12, 1 << 20)))


class _RefAffine:
    """The reference for `_Affine`: a + b*s as two Fractions, each
    operation on Fractions, the same comparisons and recorded differences."""

    def __init__(self, a, b, rec):
        self.a, self.b, self.rec = R(a), R(b), rec

    def __add__(self, o):
        if isinstance(o, _RefAffine):
            return _RefAffine(self.a + o.a, self.b + o.b, self.rec)
        return _RefAffine(self.a + o, self.b, self.rec)

    __radd__ = __add__

    def __sub__(self, o):
        if isinstance(o, _RefAffine):
            return _RefAffine(self.a - o.a, self.b - o.b, self.rec)
        return _RefAffine(self.a - o, self.b, self.rec)

    def __rsub__(self, o):
        return _RefAffine(o - self.a, -self.b, self.rec)

    def __mul__(self, c):
        return _RefAffine(self.a * c, self.b * c, self.rec)

    __rmul__ = __mul__

    def __truediv__(self, c):
        return _RefAffine(self.a / c, self.b / c, self.rec)

    def _sign(self, o):
        d = self - o
        self.rec.append(d)
        return d.a or d.b

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


class TestAffine:
    def test_each_comparison_records_its_difference(self):
        rec = []
        t = _Affine(R(1, 3), R(1), rec)
        assert t < R(1, 2)
        assert R(1, 3) < t  # reflected: equal at t_lo, then above
        assert not t == R(1, 3)
        assert t - t == 0
        assert t * 2 + 1 > t
        assert [(d.a, d.b) for d in rec] == [
            (R(-1, 6), 1), (0, 1), (0, 1), (0, 0), (1 + R(1, 3), 1)]

    def test_arithmetic(self):
        rec = []
        t = _Affine(R(1, 4), R(1), rec)
        q = (1 - t) / 2 * 3 + t - R(1, 8)
        assert (q.a, q.b) == (R(9, 8) + R(1, 4) - R(1, 8), R(-1, 2))
        assert q.rec is rec and rec == []

    def test_integer_triple_matches_fraction_reference(self):
        # seeded chains of the chase's operations on _Affine and on the
        # two-Fraction reference: the same values, the same comparisons
        # and the same recorded differences in the same order, and each
        # value a + b*s is the chain evaluated on Fractions at t_lo + s
        rng = random.Random(30)
        seen = dict.fromkeys(("add", "sub", "radd", "rsub", "mul", "div",
                              "negdiv", "cmp", "rcmp", "slope0"), 0)
        for _ in range(60):
            rec, ref_rec = [], []
            a0, b0 = _rand_rational(rng), R(rng.choice((1, 1, 2, -3)))
            # entries (the _Affine, the reference, the chain on Fractions)
            pool = [(_Affine(a0, b0, rec), _RefAffine(a0, b0, ref_rec),
                     lambda s, a0=a0, b0=b0: a0 + b0 * s)]
            for _ in range(25):
                q, r, f = rng.choice(pool)
                q2, r2, f2 = rng.choice(pool)
                c = (_rand_rational(rng) if rng.random() < 0.7
                     else rng.randint(-3, 3))
                kind = rng.choice(("add", "sub", "radd", "rsub", "mul",
                                   "div", "cmp", "slope0"))
                if kind in ("add", "sub") and rng.random() < 0.5:
                    c, q2, r2, f2 = None, c, c, (lambda s, c=c: c)
                if kind == "add":
                    out = q + q2, r + r2, lambda s, f=f, g=f2: f(s) + g(s)
                elif kind == "sub":
                    out = q - q2, r - r2, lambda s, f=f, g=f2: f(s) - g(s)
                elif kind == "radd":
                    out = c + q, c + r, lambda s, f=f, c=c: c + f(s)
                elif kind == "rsub":
                    out = c - q, c - r, lambda s, f=f, c=c: c - f(s)
                elif kind == "mul":
                    out = ((q * c, r * c) if rng.random() < 0.5
                           else (c * q, c * r))
                    out += (lambda s, f=f, c=c: f(s) * c,)
                elif kind == "div":
                    if not c:
                        continue
                    kind = "negdiv" if c < 0 else "div"
                    out = q / c, r / c, lambda s, f=f, c=c: f(s) / c
                elif kind == "cmp":
                    op = rng.choice((operator.lt, operator.le, operator.gt,
                                     operator.ge, operator.eq))
                    if rng.random() < 0.5:
                        assert op(q, q2) == op(r, r2)
                    elif rng.random() < 0.5:
                        assert op(q, c) == op(r, c)
                    else:  # a rational on the left, reflected to _Affine
                        kind = "rcmp"
                        assert op(R(c), q) == op(R(c), r)
                    seen[kind] += 1
                    continue
                else:
                    out = q - q, r - r, lambda s: R(0)
                if rng.random() < 0.3:
                    out = (out[0].reduced(),) + out[1:]
                seen[kind] += 1
                pool.append(out)
            for q, r, f in pool:
                assert q.D > 0 and q.rec is rec
                assert (q.a, q.b) == (r.a, r.b)
                for s in (R(0), R(1, 7), R(-2, 3), R(5)):
                    assert q.a + q.b * s == f(s) == r.a + r.b * s
            assert [(d.a, d.b) for d in rec] == [(d.a, d.b) for d in ref_rec]
            seen["slope0"] += sum(1 for q, _, _ in pool[1:] if q.B == 0)
        assert all(seen.values()), seen


class TestPipelineCrossCheck:
    # the shift-1 partition partition_curve returns is one of the oracle's,
    # point for point
    MISSES = [(15, 4, 3), (15, 6, 3), (15, 7, 3), (15, 9, 3), (70, 9, 3),
              (81, 4, 4)]

    @staticmethod
    def check(seed, v, S):
        c = random_curve(seed, vertices=v, curve_class="deltaInterior")
        res = partition_curve(c, S - 1)
        assert res.rearrangement.shift == 1
        assert res.points in [r.points for r in brute_force(c, S - 2)], (
            seed, v, S)

    def test_documented_float_sweep_misses(self):
        # roots inside one grid gap of the float sweep
        for seed, v, S in self.MISSES:
            self.check(seed, v, S)

    def test_slice(self):
        for seed in range(20):
            for v in (4, 6):
                for S in (2, 3):
                    self.check(seed, v, S)

    @pytest.mark.slow
    def test_full_range(self):
        # every deltaInterior curve of seeds 0-99 at v = 4, 6 and 9, at
        # S = 2, 3 and 4: 900 cases (about 43 s of CPU)
        for seed in range(100):
            for v in (4, 6, 9):
                for S in (2, 3, 4):
                    self.check(seed, v, S)


def _brute_force_of_every_vector(curve, n, monkeypatch):
    """brute_force on the roots of every vector of _every_vector, each
    read on its own, so that the walk passes over none."""
    roots = [root for branches in _every_vector(curve, n)
             for root in _vector_roots(curve, n, branches)[0]]
    with monkeypatch.context() as mp:
        mp.setattr(oracle, "_shift_one_roots", lambda *_: iter(roots))
        return brute_force(curve, n)


class TestDeadPrefixes:
    # (seed, vertices, class, vectors walked at n = 3)
    CURVES = ((0, 9, "interior", 66), (1, 6, "deltaInterior", 16))

    def test_skips_only_vectors_without_feasible_cells(self, monkeypatch):
        for seed, v, cls, count in self.CURVES:
            curve = random_curve(seed, vertices=v, curve_class=cls)
            walked = _walked(curve, 3, monkeypatch)
            assert len(walked) == count
            assert list(walked) == sorted(walked)
            # a vector the walk passes over has no feasible cell and no
            # candidate, and is ruled out by a vector a walked before it
            # whose cells all missed, at branch index m at the deepest: it
            # keeps a's first m entries and has an entry >= a[m] at m
            skipped = [b for b in _every_vector(curve, 3) if b not in walked]
            assert skipped
            for b in skipped:
                assert any(a < b and a[:m] == b[:m] and b[m] >= a[m]
                           for a, m in walked.items() if m is not None)
                candidates, missed, _ = _cell_roots(curve, 3, b)
                assert candidates == [] and missed is not None

    def test_results_equal_the_walk_of_every_vector(self, monkeypatch):
        curve = random_curve(1, vertices=6, curve_class="deltaInterior")
        assert brute_force(curve, 3) == _brute_force_of_every_vector(
            curve, 3, monkeypatch)

    @pytest.mark.slow
    def test_results_equal_the_walk_of_every_vector_at_scale(
            self, monkeypatch):
        # the interior curve above and TestPipelineCrossCheck's slice, at
        # n = 2 and 3 (about 9 s)
        curves = [(random_curve(0, vertices=9, curve_class="interior"), 3)]
        curves += [(random_curve(seed, vertices=v,
                                 curve_class="deltaInterior"), n)
                   for seed in range(20) for v in (4, 6) for n in (2, 3)]
        for curve, n in curves:
            assert brute_force(curve, n) == _brute_force_of_every_vector(
                curve, n, monkeypatch)


class TestVectorBudget:
    def test_walk_past_the_budget_raises(self, monkeypatch):
        # the budget counts the cells the walk chases, one chase on an
        # _Affine each: TestDeadPrefixes' deltaInterior curve takes 271 at
        # n = 3, over its 16 vectors
        curve = random_curve(1, vertices=6, curve_class="deltaInterior")
        cells = []
        real = oracle._chase

        def spy(curve, frees, k, s, branches=()):
            cells.append(type(frees[0]) is _Affine)
            return real(curve, frees, k, s, branches)

        with monkeypatch.context() as mp:
            mp.setattr(oracle, "_chase", spy)
            full = brute_force(curve, 3)
        assert sum(cells) == 271
        assert len(_walked(curve, 3, monkeypatch)) == 16
        monkeypatch.setattr(oracle, "CELL_BUDGET", 271)
        assert brute_force(curve, 3) == full
        monkeypatch.setattr(oracle, "CELL_BUDGET", 270)
        with pytest.raises(ConvergenceError, match="more than 270 cells"):
            brute_force(curve, 3)


class TestPinnedResults:
    # sha256 of the sorted-key JSON of fileio.result_to_obj(..., EXACT) of
    # every result of brute_force, at orders the benchmark's oracle
    # digests (n <= 1) do not reach: TestDeadPrefixes.CURVES at n = 3 and
    # deltaInterior curves at n = 2
    PINS = {
        (0, 9, "interior", 3):
            "4ee63efaaafddc5d903549cb72f3d934e6b5f2b0a7738889b03099396930ff9d",
        (1, 6, "deltaInterior", 3):
            "6e8b9dcbf4c7c9562198540a683801c263e7c1186d6c10942c9aa50c45cbd2c4",
        (0, 4, "deltaInterior", 2):
            "0221371f496257e204271a36f844559c75f943559adf02c0afc408eed6cdfe19",
        (1, 4, "deltaInterior", 2):
            "026a308c22b4835f49d8807be9988759ddd2756c0405c80298845dbf84710c65",
        (2, 4, "deltaInterior", 2):
            "9a447792e5d0426791241a66463e45f351122803c2c89d2fba6c76b686b6f4b1",
        (3, 4, "deltaInterior", 2):
            "dfa685e48861016e1a0760d57e09771dfad13b1c47dd3f2551cd98f243684d58",
        (4, 4, "deltaInterior", 2):
            "f281153d3fd3a3f4ca45aa8bf969011ef815233e7b6a96a88fe6426976a4b18a",
        (0, 6, "deltaInterior", 2):
            "e0570a2b96451b31276f1c0aea441cb893fdde05546e6f8a0a9c75d35eb1f45a",
        (1, 6, "deltaInterior", 2):
            "28dbe3d61eeb7ed51e84f9a650e6964090ec5bfb3c2736ecc0d2430067ee5b99",
        (2, 6, "deltaInterior", 2):
            "57046800d157e4ccf50488670b6ac6e54e8c4e6809c5503b20bf4f479fe377fc",
        (3, 6, "deltaInterior", 2):
            "69b5471fbced133105d628cacd70db45aa7c8fdd0c1d4be11db0256480ca4f98",
        (4, 6, "deltaInterior", 2):
            "c6be2f5d3a681f65a2afd606f05f1238f042cca3be8423a2b8f4dd0b869b421d",
    }

    @pytest.mark.parametrize("seed, v, cls, n", list(PINS))
    def test_results_are_pinned(self, seed, v, cls, n):
        found = brute_force(random_curve(seed, vertices=v, curve_class=cls), n)
        text = json.dumps([result_to_obj(r, EXACT) for r in found],
                          sort_keys=True)
        assert (hashlib.sha256(text.encode()).hexdigest()
                == self.PINS[seed, v, cls, n])

    def test_pins_cover_the_dead_prefix_curves(self):
        dead = TestDeadPrefixes.CURVES
        assert {(seed, v, cls, 3) for seed, v, cls, _ in dead} <= set(self.PINS)
