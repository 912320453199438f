
import pytest

from curvepart import (
    ClassUError,
    InternalInvariantError,
    PLFunction,
    PreconditionError,
    apply_bumps,
    compose,
    identity,
    plan_bumps,
    pl_eval,
    solve,
)
from curvepart import climb
from curvepart.climb import level_complex_path, solve_either_orientation
from curvepart.plfun import monotone_decompose
from curvepart.scalar import rat

from util import climb_pair, fold_levels, march_free_space, shared_fold_pair

R = rat


def F(*bps):
    return PLFunction(bps)


ZIGZAG = F((0, 0), (R(1, 3), R(2, 3)), (R(2, 3), R(1, 3)), (1, 1))
ONE_FLAT = F((0, 0), (R(1, 4), R(1, 2)), (R(3, 4), R(1, 2)), (1, 1))


class TestTraversal:
    def test_identity_pair(self):
        sol = solve(identity(), identity())
        assert sol.g1 == identity() and sol.g2 == identity()
        assert sol.plans == ()

    def test_zigzag_against_identity_is_forced(self):
        sol = solve(ZIGZAG, identity())
        assert sol.g1 == identity()
        assert sol.g2 == ZIGZAG

    def test_two_zigzags_composition_equality(self):
        f1 = F((0, 0), (R(2, 5), R(4, 5)), (R(3, 5), R(2, 5)), (1, 1))
        f2 = F((0, 0), (R(1, 2), R(3, 5)), (R(7, 10), R(1, 5)), (1, 1))
        sol = solve(f1, f2)
        assert compose(f1, sol.g1) == compose(f2, sol.g2)
        for k in range(65):
            t = R(k, 64)
            assert pl_eval(f1, pl_eval(sol.g1, t)) == pl_eval(
                f2, pl_eval(sol.g2, t))

    def test_two_zigzags_match_marching_oracle(self):
        f1 = F((0, 0), (R(2, 5), R(4, 5)), (R(3, 5), R(2, 5)), (1, 1))
        f2 = F((0, 0), (R(1, 2), R(3, 5)), (R(7, 10), R(1, 5)), (1, 1))
        cells = 800
        reached, goal = march_free_space(f1, f2, cells)
        assert goal
        path = level_complex_path(f1, f2)
        # every traversal vertex lies in a cell the flood fill reached
        for s, t in path:
            i = min(int(float(s) * cells), cells - 1)
            j = min(int(float(t) * cells), cells - 1)
            near = any(
                (i + di, j + dj) in reached
                for di in (-1, 0, 1) for dj in (-1, 0, 1)
            )
            assert near, (float(s), float(t))
        # and each leg midpoint too: the solver path stays inside the
        # (0,0)-connected free region the oracle found
        for (s0, t0), (s1, t1) in zip(path, path[1:]):
            ms = float(s0 + s1) / 2
            mt = float(t0 + t1) / 2
            i = min(int(ms * cells), cells - 1)
            j = min(int(mt * cells), cells - 1)
            near = any(
                (i + di, j + dj) in reached
                for di in (-1, 0, 1) for dj in (-1, 0, 1)
            )
            assert near, (ms, mt)

    def test_not_class_u_rejected(self):
        f = F((0, 0), (R(1, 5), R(1, 2)), (R(2, 5), R(1, 4)),
              (R(3, 5), R(3, 4)), (R(4, 5), R(1, 2)), (1, 1))
        with pytest.raises(ClassUError):
            solve(f, identity())

    def test_shared_fold_level_solved(self):
        # a fold of f2 at one of f1's fold levels is a degenerate vertex
        # of the complex; the engine still solves exactly
        shared = {False: 0, True: 0}
        for seed in range(100):
            flats = seed % 2 == 1
            f1, f2, c = shared_fold_pair(seed, flats)
            shared[flats] += c in fold_levels(f2)
            sol = solve(f1, f2)
            assert compose(f1, sol.g1) == compose(f2, sol.g2), seed
            for g in (sol.g1, sol.g2):
                assert pl_eval(g, 0) == 0 and pl_eval(g, 1) == 1, seed
        # inserted shelves may replace the shared fold; enough keep it
        assert shared[False] >= 25 and shared[True] >= 25, shared

    def test_boundary_values_checked(self):
        bad = F((0, R(1, 10)), (1, 1))
        with pytest.raises(PreconditionError):
            solve(bad, identity())
        # and the [0, 1] range on the other side
        high = F((0, 0), (R(1, 2), R(3, 2)), (1, 1))
        with pytest.raises(PreconditionError):
            solve(identity(), high)

    def test_cell_edges_match_sign_scan(self):
        # per breakpoint rectangle, the computed edge agrees with a
        # refined-grid sign-change scan of f1(s) - f2(t)
        f1 = F((0, 0), (R(2, 5), R(4, 5)), (R(3, 5), R(2, 5)), (1, 1))
        f2 = F((0, 0), (R(1, 2), R(3, 5)), (R(7, 10), R(1, 5)), (1, 1))
        from curvepart.climb import _cell_edge
        from curvepart.plfun import pl_eval

        sp, tp = f1.breakpoints, f2.breakpoints
        sub = 6
        for (s0, a0), (s1, a1) in zip(sp, sp[1:]):
            for (t0, b0), (t1, b1) in zip(tp, tp[1:]):
                edge = _cell_edge(s0, s1, a0, a1, t0, t1, b0, b1)
                signs = set()
                for i in range(sub + 1):
                    for j in range(sub + 1):
                        s = s0 + (s1 - s0) * R(i, sub)
                        t = t0 + (t1 - t0) * R(j, sub)
                        d = pl_eval(f1, s) - pl_eval(f2, t)
                        signs.add(0 if d == 0 else (1 if d > 0 else -1))
                scan_says_crossing = len(signs) > 1 or signs == {0}
                if edge is not None:
                    assert scan_says_crossing
                    for p in edge:
                        assert pl_eval(f1, p[0]) == pl_eval(f2, p[1])
                else:
                    # no edge: the scan may still see a corner-only touch
                    if scan_says_crossing and 0 not in signs:
                        assert False, (s0, t0)


class TestBumpPlans:
    def test_no_flats_empty(self):
        assert plan_bumps(identity(), ZIGZAG) == []

    def test_single_flat_plan(self):
        (plan,) = plan_bumps(identity(), ONE_FLAT)
        assert (plan.start, plan.end) == (R(1, 4), R(3, 4))
        assert plan.level == R(1, 2)
        assert plan.preimage == (R(1, 2),)
        assert plan.half_width == R(1, 4)
        assert plan.sign == "plus"

    def test_minus_sign_at_min_fold_level(self):
        f1 = F((0, 0), (R(2, 5), R(4, 5)), (R(3, 5), R(2, 5)), (1, 1))
        f2 = F((0, 0), (R(3, 10), R(2, 5)), (R(7, 10), R(2, 5)), (1, 1))
        (plan,) = plan_bumps(f1, f2)
        assert plan.sign == "minus"
        assert plan.preimage == (R(1, 5), R(3, 5))
        # nearest other fold level of f1 is 4/5, at distance 2/5
        assert plan.half_width == R(1, 5)

    def test_rejects_non_class_u(self):
        with pytest.raises(ClassUError):
            plan_bumps(ONE_FLAT, identity())


class TestApplyBumps:
    def test_empty_plans_identity(self):
        assert apply_bumps(ONE_FLAT, []) == ONE_FLAT

    def test_tent_formula(self):
        plans = plan_bumps(identity(), ONE_FLAT)
        f3 = apply_bumps(ONE_FLAT, plans)
        assert f3.breakpoints == (
            (R(0), R(0)), (R(1, 4), R(1, 2)), (R(1, 2), R(3, 4)),
            (R(3, 4), R(1, 2)), (R(1), R(1)))
        # tent height follows c + d (1 - |2x - a - b| / (b - a))
        for num in range(0, 33):
            x = R(num, 32)
            if R(1, 4) <= x <= R(3, 4):
                expected = R(1, 2) + R(1, 4) * (
                    1 - abs(2 * x - 1) / R(1, 2))
                assert pl_eval(f3, x) == expected

    def test_two_flats_opposite_signs(self):
        f1 = F((0, 0), (R(2, 5), R(4, 5)), (R(3, 5), R(2, 5)), (1, 1))
        f2 = F((0, 0), (R(1, 5), R(1, 10)), (R(3, 10), R(1, 10)),
               (R(1, 2), R(2, 5)), (R(7, 10), R(2, 5)), (1, 1))
        plans = plan_bumps(f1, f2)
        assert [p.sign for p in plans] == ["plus", "minus"]
        f3 = apply_bumps(f2, plans)
        ts = sorted(set(f2.knots) | set(f3.knots))
        sup = max(abs(pl_eval(f3, t) - pl_eval(f2, t)) for t in ts)
        assert sup == max(p.half_width for p in plans)
        assert monotone_decompose(f3).local_extrema  # locally non-constant


class TestSolve:
    def test_no_flats_reduces_to_traversal(self):
        f2 = F((0, 0), (R(1, 2), R(3, 5)), (R(7, 10), R(1, 5)), (1, 1))
        f1 = F((0, 0), (R(2, 5), R(4, 5)), (R(3, 5), R(2, 5)), (1, 1))
        path = level_complex_path(f1, f2)
        m = len(path) - 1
        sol = solve(f1, f2)
        assert sol.g1 == F(*((R(k, m), s) for k, (s, _) in enumerate(path)))
        assert sol.g2 == F(*((R(k, m), t) for k, (_, t) in enumerate(path)))
        assert sol.plans == ()

    def test_identity_with_flat_partner_forced(self):
        sol = solve(identity(), ONE_FLAT)
        assert sol.g2 == identity()
        assert sol.g1 == ONE_FLAT
        assert sol.plans[0].collapse_intervals == ((R(1, 4), R(3, 4)),)
        # the walk alone refuses the flat; solve tents it first
        with pytest.raises(PreconditionError):
            level_complex_path(identity(), ONE_FLAT)

    def test_flat_at_fold_level(self):
        # the flat of f2 sits exactly at f1's min-fold level
        f1 = F((0, 0), (R(2, 5), R(4, 5)), (R(3, 5), R(2, 5)), (1, 1))
        f2 = F((0, 0), (R(3, 10), R(2, 5)), (R(7, 10), R(2, 5)), (1, 1))
        sol = solve(f1, f2)
        assert compose(f1, sol.g1) == compose(f2, sol.g2)

    def test_collapse_keeps_continuity(self):
        f1 = ZIGZAG
        f2 = F((0, 0), (R(1, 5), R(1, 2)), (R(2, 5), R(1, 2)),
               (R(3, 5), R(1, 4)), (1, 1))
        sol = solve(f1, f2)
        assert compose(f1, sol.g1) == compose(f2, sol.g2)
        for plan in sol.plans:
            for u, v in plan.collapse_intervals:
                assert pl_eval(sol.g1, u) == pl_eval(sol.g1, v)

    def test_flat_at_level_zero_start(self):
        # the tent must rise here: f1 >= 0 cannot track a dip below zero
        f2 = F((0, 0), (R(1, 4), 0), (1, 1))
        (plan,) = plan_bumps(identity(), f2)
        assert plan.sign == "plus"
        sol = solve(identity(), f2)
        assert compose(identity(), sol.g1) == compose(f2, sol.g2)

    def test_flat_at_level_one_end(self):
        f2 = F((0, 0), (R(3, 4), 1), (1, 1))
        (plan,) = plan_bumps(identity(), f2)
        assert plan.sign == "minus"
        sol = solve(identity(), f2)
        assert compose(identity(), sol.g1) == compose(f2, sol.g2)

    def test_two_flats_at_same_level(self):
        f2 = F((0, 0), (R(1, 5), R(1, 2)), (R(3, 10), R(1, 2)),
               (R(2, 5), R(5, 8)), (R(1, 2), R(1, 2)), (R(7, 10), R(1, 2)),
               (1, 1))
        sol = solve(identity(), f2)
        assert len(sol.plans) == 2
        assert compose(identity(), sol.g1) == compose(f2, sol.g2)

    def test_wrong_collapse_rejected(self, monkeypatch):
        # a reparametrized g1 keeps its endpoints but breaks f1∘g1 = f2∘g2
        real = climb._collapse
        bent = F((0, 0), (R(1, 2), R(1, 4)), (1, 1))
        monkeypatch.setattr(climb, "_collapse",
                            lambda h, spans: compose(real(h, spans), bent))
        f2 = F((0, 0), (R(1, 5), R(1, 2)), (R(2, 5), R(1, 2)),
               (R(3, 5), R(1, 4)), (1, 1))
        with pytest.raises(InternalInvariantError,
                           match="composition equality failed"):
            solve(ZIGZAG, f2)

    def test_randomized_suite(self):
        for seed in range(25):
            f1, f2 = climb_pair(seed)
            sol = solve(f1, f2)
            assert compose(f1, sol.g1) == compose(f2, sol.g2), seed
            assert pl_eval(sol.g1, 0) == 0 and pl_eval(sol.g1, 1) == 1
            assert pl_eval(sol.g2, 0) == 0 and pl_eval(sol.g2, 1) == 1
            lo1, hi1 = sol.g1.range_bounds()
            lo2, hi2 = sol.g2.range_bounds()
            assert lo1 >= 0 and hi1 <= 1 and lo2 >= 0 and hi2 <= 1


class TestEitherOrientation:
    def test_swaps_when_only_f2_qualifies(self):
        sol = solve_either_orientation(ONE_FLAT, identity())
        assert compose(ONE_FLAT, sol.g1) == compose(identity(), sol.g2)

    def test_raises_when_neither_qualifies(self):
        bad = F((0, 0), (R(1, 5), R(1, 2)), (R(2, 5), R(1, 4)),
                (R(3, 5), R(3, 4)), (R(4, 5), R(1, 2)), (1, 1))
        with pytest.raises(ClassUError):
            solve_either_orientation(bad, bad)
