import random
from bisect import bisect_right
from fractions import Fraction
from itertools import product

import pytest

from curvepart import (
    PLCurve,
    PreconditionError,
    brute_force,
    closure_shot,
    diagonal_curve,
    partition_below_diagonal,
    random_curve,
    verify,
)
from curvepart import oracle
from curvepart.oracle import (
    SWEEP_STRIDE,
    _bisect_shot,
    _branch_vectors,
    _Chaser,
    _error_factors,
    _float_chase,
    _float_residual,
    _sign_changes,
    _sweep_point,
)
from curvepart.pipeline import (
    PartitionResult,
    PipelineTrace,
    Rearrangement,
)
from curvepart.scalar import as_float, rat

R = rat

BENT = PLCurve([0, R(1, 2), 1], [(0, 0), (R(4, 5), R(1, 5)), (1, 1)])
SECTION5 = PLCurve([0, R(1, 2), 1], [(0, 0), (1, 0), (1, 1)])


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
        found = brute_force(BENT, 1, grid=1000)
        assert len(found) == 1
        res = found[0]
        assert res.residual < R(1, 10**6)
        assert abs(res.points[1][0] - R(4, 9)) < R(1, 10**4)
        rep = verify(BENT, res.points, tol=R(1, 10**6))
        assert rep.ok and rep.detected_shift == 1

    def test_diagonal_curve_solution(self):
        found = brute_force(diagonal_curve(), 1, grid=500)
        assert found
        for res in found:
            assert verify(diagonal_curve(), res.points, tol=R(1, 10**6)).ok

    def test_counterexample_curve_empty(self):
        for n in range(1, 5):
            assert brute_force(SECTION5, n, grid=500) == []

    def test_all_solutions_verify(self):
        for seed in (0, 3, 5):
            c = random_curve(seed, vertices=6, curve_class="deltaInterior")
            for n in (0, 1):
                for res in brute_force(c, n, grid=2000):
                    rep = verify(c, res.points, tol=R(1, 10**6))
                    assert rep.ok

    def test_agreement_with_pipeline(self):
        # agreement is by verifier pass, never by point equality
        for seed in (1, 2, 4):
            c = random_curve(seed, vertices=6, curve_class="deltaInterior")
            found = brute_force(c, 1, grid=4000)
            assert found, seed
            exact = partition_below_diagonal(c, 1)
            pts_float = [(float(x), float(y)) for x, y in exact.points]
            rep = verify(c, pts_float, tol=R(1, 10**9))
            assert rep.ok

    def test_every_branch_vector_swept_at_higher_order(self):
        # at n = 2 the vectors in (sum, lex) order are not monotone in
        # feasibility: no grid point of (1, 1) is feasible, and (2, 0),
        # swept after it, holds the partition at x_1 = 0.3177
        c = random_curve(0, vertices=5, curve_class="deltaInterior")
        ch = _Chaser(c, float_mode=True)
        vectors = _branch_vectors(c, 2)
        assert vectors.index((1, 1)) < vectors.index((2, 0))
        assert all(_float_residual(ch, 2, g / 400, (1, 1)) is None
                   for g in range(1, 400))
        assert any(b == (2, 0) for b, *_ in _sign_changes(ch, 2, 400, vectors))
        found = brute_force(c, 2, grid=400)
        assert len(found) == 5
        for res in found:
            assert verify(c, res.points, tol=R(1, 10**6)).ok
        assert any(abs(res.points[1][0] - 0.31771) < 1e-5 for res in found)


class TestShotConsistency:
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
        ch = _Chaser(BENT, float_mode=True)
        t_root, shot = _bisect_shot(BENT, ch, 1, lo, hi, r_lo)
        # the exact residual vanishes at 5/18 (test_zero_at_known_solution)
        assert abs(t_root - R(5, 18)) < 1e-12
        assert shot.feasible


    def test_infeasible_midpoints_shrink_toward_the_feasible_end(self):
        # on BENT at n = 1 the chase is feasible for t <= 1/2 only
        ch = _Chaser(BENT, float_mode=True)
        lo, hi = 0.45, 0.9
        assert _float_residual(ch, 1, (lo + hi) / 2, ()) is None
        t, shot = _bisect_shot(BENT, ch, 1, lo, hi,
                               _float_residual(ch, 1, lo, ()))
        assert lo < t <= 0.5 and shot.feasible

    def test_bracket_without_a_feasible_midpoint_is_none(self):
        ch = _Chaser(BENT, float_mode=True)
        assert _bisect_shot(BENT, ch, 1, 0.6, 0.9, 1.0) is None


class TestDuplicateRoots:
    # x + y exceeds 1 after t = 1/5 and comes back to exactly 1 at the
    # vertex (5/8, 3/8), t = 1/2: the n = 0 residual 1 - x - y touches
    # zero from below at a grid point, so both neighbouring brackets
    # bisect to it
    TOUCH = PLCurve([0, R(1, 4), R(1, 2), 1],
                    [(0, 0), (R(3, 4), R(1, 2)), (R(5, 8), R(3, 8)), (1, 1)])

    def test_touching_root_is_reported_once(self):
        ch = _Chaser(self.TOUCH, float_mode=True)
        brackets = list(_sign_changes(ch, 0, 100, [()]))
        assert [b[1:3] for b in brackets] == [(0.19, 0.2), (0.49, 0.5),
                                              (0.5, 0.51)]
        roots = [_bisect_shot(self.TOUCH, ch, 0, t0, t1, r0)[0]
                 for _, t0, t1, r0 in brackets]
        assert abs(roots[1] - roots[2]) < 1 / 100 / 4
        found = brute_force(self.TOUCH, 0, grid=100)
        assert [c for r in found for c in r.points[1]] == pytest.approx(
            [0.6, 0.4, 0.625, 0.375])


# ------------------------------------------------------------- streamed sweep

# both curve classes, 4-9 vertices between them
SWEEP_CURVES = [
    random_curve(seed, vertices=v, curve_class=cls)
    for seed, v, cls in ((4, 4, "deltaInterior"), (6, 6, "deltaInterior"),
                         (5, 5, "interior"), (3, 9, "interior"))
]


def ref_brute_force(curve, n, grid=10_000, tol=rat(1, 10**6)):
    """The per-shot sweep brute_force ran before it streamed the grid: one
    closure_shot, with its own float copy of the curve, per grid point.
    It stops after a wholly infeasible vector only at n = 1, where a larger
    skip finds fewer hits; at n >= 2 it sweeps every vector."""
    tol_f = as_float(tol)
    ch = _Chaser(curve, float_mode=True)
    results = []
    for branches in _branch_vectors(curve, n):
        prev = None
        any_feasible = False
        for g in range(1, grid):
            t = g / grid
            shot = closure_shot(curve, n, t, float_mode=True,
                                branches=branches)
            any_feasible = any_feasible or shot.feasible
            cur = (t, shot)
            if prev is not None:
                t0, s0 = prev
                if (
                    s0.feasible
                    and shot.feasible
                    and s0.residual is not None
                    and shot.residual is not None
                    and (s0.residual < 0) != (shot.residual < 0)
                ):
                    root = _bisect_shot(curve, ch, n, t0, t, s0.residual,
                                        branches)
                    if root is not None:
                        results.append(root)
            prev = cur
        if n == 1 and not any_feasible and any(branches):
            break

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


class TestStreamedSweep:
    def test_residual_matches_closure_shot(self):
        grid = 257
        feasible = infeasible = skipped_feasible = 0
        for curve in SWEEP_CURVES:
            ch = _Chaser(curve, float_mode=True)
            for n in range(4):
                for branches in _branch_vectors(curve, n):
                    for g in range(1, grid):
                        t = g / grid
                        fast = _float_residual(ch, n, t, branches)
                        ref = closure_shot(curve, n, t, float_mode=True,
                                           branches=branches).residual
                        assert fast == ref, (curve, n, branches, t)
                        if ref is None:
                            infeasible += 1
                        else:
                            feasible += 1
                            skipped_feasible += any(branches)
        assert feasible and infeasible and skipped_feasible

    def test_brute_force_matches_per_shot_reference(self):
        # n >= 2 sweeps up to 128 vectors per curve: a coarser grid there
        # keeps the per-shot reference cheap
        found = 0
        for curve in SWEEP_CURVES:
            for n in range(4):
                grid = 1000 if n < 2 else 100
                got = brute_force(curve, n, grid=grid)
                assert got == ref_brute_force(curve, n, grid=grid), (curve, n)
                found += len(got)
        assert found

    def test_one_float_copy_per_call(self, monkeypatch):
        built = []

        class CountingChaser(_Chaser):
            def __init__(self, *args, **kwargs):
                built.append(args)
                super().__init__(*args, **kwargs)

        shots = []
        closure_shot = oracle.closure_shot

        def counting_shot(*args, **kwargs):
            shots.append(args)
            return closure_shot(*args, **kwargs)

        monkeypatch.setattr(oracle, "_Chaser", CountingChaser)
        monkeypatch.setattr(oracle, "closure_shot", counting_shot)
        assert brute_force(BENT, 1, grid=2000)
        # the sweep and every bisection share one copy; each closure_shot,
        # built once per bisected root, makes its own
        assert shots
        assert len(built) == 1 + len(shots)


def ref_sign_changes(ch, n, grid, vectors):
    """The point-by-point sweep: _float_residual at every grid point of
    every vector, stopping after a wholly infeasible vector at n = 1 only."""
    for branches in vectors:
        any_feasible = False
        t0 = r0 = None
        for g in range(1, grid):
            t = g / grid
            r = _float_residual(ch, n, t, branches)
            if r is not None:
                any_feasible = True
                if r0 is not None and (r0 < 0) != (r < 0):
                    yield branches, t0, t, r0
            t0, r0 = t, r
        if n == 1 and not any_feasible and any(branches):
            return


CELL_FEATURES = ("flat", "free", "vertical", "stall", "free", "nearflat",
                 "free")


def _cell_curve(seed):
    """A seeded curve with 3-9 vertices whose knots are mostly j/m for m in
    (4, 8, 10, 16, 20), so many land on grid points, and whose pieces cycle
    through CELL_FEATURES: flats, vertical pieces, stalls (a repeated
    vertex) and near-flat pieces with |dy| = 2^-12, 2^-20 or 2^-30, with
    dyadic coordinates that floats hold exactly."""
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


# on its middle piece x + y = 1, so the n = 0 residual is 0 in exact
# arithmetic and float rounding alone decides its sign: the full grid
# brackets hundreds of float sign changes there
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


def _chase_error(curve, n, branches, t):
    """(err, bound): the largest distance between a recorded float chase's
    values and the same chase's in exact arithmetic, and its stated bound;
    err is 0 where the exact chase takes another path."""
    ch = _Chaser(curve, float_mode=True)
    rec, exact = [], []
    r = _float_chase(ch, n, t, branches, rec)
    bound = _sweep_point(ch, n, t, branches, _error_factors(ch))[3]
    r_ex = _exact_chase(ch, n, t, branches, exact)
    if [e[0] for e in rec] != [e[0] for e in exact]:
        return 0, bound
    diffs = [abs(Fraction(a) - b) for fl, ex in zip(rec, exact)
             for a, b in zip(fl[1:], ex[1:])]
    if r is not None:
        diffs.append(abs(Fraction(r) - r_ex))
    return float(max(diffs)), bound


def _exact_chase(ch, n, t, branches, rec):
    """_float_chase(ch, n, t, branches, rec) in exact arithmetic on the
    float copy's own values."""
    ex = _Chaser.__new__(_Chaser)
    ex.conv = Fraction
    ex.knots = [Fraction(k) for k in ch.knots]
    ex.verts = [(Fraction(x), Fraction(y)) for x, y in ch.verts]
    ks, t = ex.knots, Fraction(t)
    px = Fraction(0)
    x, y = ex.at(t)
    cursor = t
    k = bisect_right(ks, t, 1, len(ks) - 1) - 1
    rec.append((~k, t - ks[k], ks[k + 1] - t))
    for i in range(n):
        skip = branches[i] if i < len(branches) else 0
        cursor = ex.first_ordinate_hit(y + (x - px), cursor, skip, rec)
        if cursor is None:
            return None
        k = rec[-1][0]
        rec.append((~k, cursor - ks[k], ks[k + 1] - cursor))
        px = x
        x, y = ex.at(cursor)
    return 1 - y - (x - px)


class TestCellSweep:
    GRIDS = (1, 2, 3, SWEEP_STRIDE - 1, SWEEP_STRIDE, SWEEP_STRIDE + 1)
    # finer grids where fewer vectors make them cheap
    FINE = {0: (100, 1000), 1: (100, 1000), 2: (100,), 3: ()}

    def test_matches_point_by_point_sweep(self, monkeypatch):
        # both paths run: some gaps are skipped (fewer chases than the
        # reference's) and some swept point by point (chases without a
        # record)
        recorded = []
        monkeypatch.setattr(
            oracle, "_float_chase",
            lambda *a: recorded.append(len(a) == 5) or _float_chase(*a))
        skipped = swept = 0
        curves = ([_cell_curve(seed) for seed in range(16)]
                  + [ANTIDIAGONAL, NEARFLAT_HIT])
        for curve in curves:
            ch = _Chaser(curve, float_mode=True)
            for n in range(4):
                vectors = _branch_vectors(curve, n)
                for grid in self.GRIDS + self.FINE[n]:
                    recorded.clear()
                    got = list(_sign_changes(ch, n, grid, vectors))
                    chases, plain = len(recorded), recorded.count(False)
                    recorded.clear()
                    ref = list(ref_sign_changes(ch, n, grid, vectors))
                    assert got == ref, (curve, n, grid)
                    skipped += chases < len(recorded)
                    swept += plain > 0
        assert skipped and swept

    def test_matches_point_by_point_sweep_on_random_curves(self):
        # 9-vertex interior curves, swept at n = 1 with every skip: a target
        # can pass over a whole segment between two chased points that
        # share their segments, and only the sides of the scan's
        # comparisons tell the two apart
        for seed in range(20):
            curve = random_curve(seed, vertices=9, curve_class="interior")
            ch = _Chaser(curve, float_mode=True)
            for n in (0, 1):
                vectors = _branch_vectors(curve, n)
                assert (list(_sign_changes(ch, n, 1000, vectors))
                        == list(ref_sign_changes(ch, n, 1000, vectors))), seed

    def test_curves_cover_the_cases(self):
        curves = [_cell_curve(seed) for seed in range(16)]
        knots = {t for c in curves for t in c.knots[1:-1]}
        steps = [(b[0] - a[0], b[1] - a[1]) for c in curves
                 for a, b in zip(c.vertices, c.vertices[1:])]
        assert any(t * g == int(t * g) for t in knots
                   for g in self.GRIDS[3:] + self.FINE[0])
        assert any(dx and not dy for dx, dy in steps)
        assert any(dy and not dx for dx, dy in steps)
        assert any(not dx and not dy for dx, dy in steps)
        assert {abs(dy) for _, dy in steps} >= {R(1, 2**12), R(1, 2**20),
                                                R(1, 2**30)}

    def test_matches_point_by_point_sweep_at_full_grid(self):
        curve = _cell_curve(3)
        ch = _Chaser(curve, float_mode=True)
        vectors = _branch_vectors(curve, 1)
        got = list(_sign_changes(ch, 1, 10_000, vectors))
        assert got
        assert got == list(ref_sign_changes(ch, 1, 10_000, vectors))

    def test_error_bound_covers_float_chase(self):
        # every value a recorded chase compares, and its residual, lies
        # within the stated bound of the same chase in exact arithmetic
        rng = random.Random(7)
        checked = 0
        for seed in range(24):
            curve = _cell_curve(seed)
            for n in range(4):
                for branches in _branch_vectors(curve, n)[:6]:
                    for _ in range(4):
                        t = rng.randrange(1, 1000) / 1000
                        err, bound = _chase_error(curve, n, branches, t)
                        assert err <= bound, (curve, n, branches, t)
                        checked += bound < float("inf")
        assert checked > 500

    def test_error_bound_covers_near_flat_hit(self):
        # for t on the second piece the n = 1 target is y + x = 3/5, which
        # only the near-flat piece of height 3/5 +- 2^-31 reaches: the hit
        # amplifies the target's rounding by about 2^30
        worst = 0.0
        for g in range(101, 200):
            err, bound = _chase_error(NEARFLAT_HIT, 1, (0,), g / 500)
            assert err <= bound, g
            worst = max(worst, err)
        assert worst > 1e-10

    def test_work_count(self, monkeypatch):
        # the full grid chases grid - 1 points per swept vector; the cell
        # sweep, bisection included, at most an eighth of that
        for curve in SWEEP_CURVES:
            chased = []
            monkeypatch.setattr(
                oracle, "_float_chase",
                lambda *a: chased.append(a[3]) or _float_chase(*a))
            assert brute_force(curve, 1, grid=10_000)
            monkeypatch.undo()
            assert len(chased) <= 9_999 * len(set(chased)) / 8, curve


def _curve_of_width(width):
    """A below-diagonal curve with `width` segments and no collinear knots."""
    knots = [R(i, width) for i in range(width + 1)]
    return PLCurve(knots, [(t, t * t) for t in knots])


class TestBranchVectors:
    def test_matches_sorted_product_prefix(self):
        for width in range(2, 7):
            curve = _curve_of_width(width)
            for n in range(5):
                full = sorted(product(range(width), repeat=n),
                              key=lambda v: (sum(v), v))
                for cap in (1, 5, 128):
                    assert _branch_vectors(curve, n, cap) == full[:cap], (width, n, cap)

    def test_wide_curve_stays_bounded(self):
        # product(range(63), repeat=4) has about 15.8M tuples; the first 128
        # in (sum, lex) order are the 126 with sum <= 5, then two of sum 6
        vectors = _branch_vectors(_curve_of_width(63), 4)
        low = sorted((v for v in product(range(6), repeat=4) if sum(v) <= 5),
                     key=lambda v: (sum(v), v))
        assert len(low) == 126
        assert vectors == low + [(0, 0, 0, 6), (0, 0, 1, 5)]
