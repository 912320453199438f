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
    _bisect_shot,
    _branch_vectors,
    _Chaser,
    _float_residual,
    _sign_changes,
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
    closure_shot, with its own float copy of the curve, per grid point."""
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
        if not any_feasible and branches and max(branches) > 0:
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
        found = 0
        for curve in SWEEP_CURVES:
            for n in range(4):
                got = brute_force(curve, n, grid=1000)
                assert got == ref_brute_force(curve, n, grid=1000), (curve, n)
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
