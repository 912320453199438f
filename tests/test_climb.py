
import random
from fractions import Fraction
from math import gcd
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings, strategies as st

from curvepart import (
    InternalInvariantError,
    PLFunction,
    PreconditionError,
    compose,
    identity,
    pl_eval,
    random_curve,
    solve,
)
from curvepart import climb
from curvepart.climb import level_complex_path, path_points
from curvepart.pipeline import build_partitioning_functions
from curvepart.scalar import rat

from util import climb_pair, fold_levels, march_free_space, shared_fold_pair

R = rat


def F(*bps):
    return PLFunction(bps)


ZIGZAG = F((0, 0), (R(1, 3), R(2, 3)), (R(2, 3), R(1, 3)), (1, 1))
ONE_FLAT = F((0, 0), (R(1, 4), R(1, 2)), (R(3, 4), R(1, 2)), (1, 1))


def _retimed(f, rng):
    """f's values at other increasing times, anywhere on the line."""
    ts = sorted(rng.sample(range(-10**6, 10**6), len(f.breakpoints)))
    return SimpleNamespace(breakpoints=tuple(
        (R(t, 997), v) for t, (_, v) in zip(ts, f.breakpoints)))


class TestTraversal:
    def test_identity_pair(self):
        sol = solve(identity(), identity())
        assert sol.g1 == identity() and sol.g2 == identity()

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
        path = path_points(f1, f2, level_complex_path(f1, f2))
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

    def test_not_class_u_solved(self):
        # a max and a min of f share level 1/2; the walk needs no class U
        f = F((0, 0), (R(1, 5), R(1, 2)), (R(2, 5), R(1, 4)),
              (R(3, 5), R(3, 4)), (R(4, 5), R(1, 2)), (1, 1))
        for f1, f2 in ((f, identity()), (identity(), f), (f, f)):
            sol = solve(f1, f2)
            assert compose(f1, sol.g1) == compose(f2, sol.g2)

    def test_shared_fold_level_solved(self):
        # a fold of f2 at one of f1's fold levels is a degenerate vertex
        # of the complex; the engine still solves exactly
        shared = {False: 0, True: 0}
        for seed in range(100):
            flats = seed % 2 == 1
            f1, f2, c = shared_fold_pair(seed, flats)
            shared[flats] += c in fold_levels(f2)
            for a, b in ((f1, f2), (f2, f1)):
                sol = solve(a, b)
                assert compose(a, sol.g1) == compose(b, sol.g2), seed
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
        from bisect import bisect_right

        from curvepart.climb import _complex_edges
        from curvepart.plfun import pl_eval

        sp, tp = f1.breakpoints, f2.breakpoints
        # both coordinates change strictly along an edge, so its midpoint
        # lies inside the one rectangle that holds it
        cell_edge = {}
        for a, b, same in _complex_edges(f1, f2):
            edge = (sa, ta), (sb, tb) = path_points(f1, f2, (a, b))
            assert ta < tb and (sa < sb) == same
            cell = (bisect_right(f1.knots, (sa + sb) / 2) - 1,
                    bisect_right(f2.knots, (ta + tb) / 2) - 1)
            assert cell not in cell_edge
            cell_edge[cell] = edge
        sub = 6
        for i, ((s0, a0), (s1, a1)) in enumerate(zip(sp, sp[1:])):
            for j, ((t0, b0), (t1, b1)) in enumerate(zip(tp, tp[1:])):
                edge = cell_edge.get((i, j))
                signs = set()
                for ii in range(sub + 1):
                    for jj in range(sub + 1):
                        s = s0 + (s1 - s0) * R(ii, sub)
                        t = t0 + (t1 - t0) * R(jj, sub)
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

    def test_walk_hashes_no_fraction(self, monkeypatch):
        # vertices are keyed by integers: Fraction.__hash__ computes a
        # modular inverse on every call.  The walk only compares levels, so
        # it builds no Fraction either.  The pair is the flat-free
        # quotients of the last climb of a depth-8 induction.
        seen = []
        monkeypatch.setattr(climb, "level_complex_path",
                            lambda f1, f2: seen.append((f1, f2))
                            or level_complex_path(f1, f2))
        build_partitioning_functions(random_curve(4, vertices=8), 8)
        monkeypatch.undo()
        f1, f2 = seen[-1]

        hashed, built = [], []
        real_hash, real_new = Fraction.__hash__, Fraction.__new__

        def hashing(self):
            hashed.append(self)
            return real_hash(self)

        def building(cls, *args, **kwargs):
            built.append(args)
            return real_new(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__hash__", hashing)
        monkeypatch.setattr(Fraction, "__new__", building)
        # the counters see what they should: one sum builds one Fraction
        assert hash(f1.breakpoints[1][1] + 1) is not None
        assert len(hashed) == 1 and len(built) == 1
        del hashed[:], built[:]
        path = level_complex_path(f1, f2)
        monkeypatch.undo()
        assert len(path) > 50
        assert hashed == [] and built == []


class TestSolve:
    def test_no_flats_reduces_to_traversal(self):
        f2 = F((0, 0), (R(1, 2), R(3, 5)), (R(7, 10), R(1, 5)), (1, 1))
        f1 = F((0, 0), (R(2, 5), R(4, 5)), (R(3, 5), R(2, 5)), (1, 1))
        path = path_points(f1, f2, level_complex_path(f1, f2))
        m = len(path) - 1
        sol = solve(f1, f2)
        assert sol.g1 == F(*((R(k, m), s) for k, (s, _) in enumerate(path)))
        assert sol.g2 == F(*((R(k, m), t) for k, (_, t) in enumerate(path)))

    def test_identity_with_flat_partner_forced(self):
        # the quotient of ONE_FLAT is the identity with the contracted
        # knot 1/2 kept: the walk has a vertex there, and f2's climber
        # crosses [1/4, 3/4] while f1's waits
        sol = solve(identity(), ONE_FLAT)
        assert sol.g1 == F((0, 0), (R(1, 3), R(1, 2)), (R(2, 3), R(1, 2)),
                           (1, 1))
        assert sol.g2 == F((0, 0), (R(1, 3), R(1, 4)), (R(2, 3), R(3, 4)),
                           (1, 1))
        # the walk alone refuses the flat; solve contracts it first
        with pytest.raises(PreconditionError):
            level_complex_path(identity(), ONE_FLAT)

    def test_contract_flat_to_point(self):
        # the flat's two knots become one, ONE_FLAT's own breakpoint at the
        # flat's first knot, kept although it is collinear with its
        # neighbours; the quotient's pieces are ONE_FLAT's first and last
        q, spans = climb._contract(ONE_FLAT)
        assert q.breakpoints == ((0, 0), (R(1, 4), R(1, 2)), (1, 1))
        assert q.breakpoints[1] is ONE_FLAT.breakpoints[1]
        assert spans == [(0, 0), (1, 2), (3, 3)]
        assert climb._contract(ZIGZAG) == (ZIGZAG, None)

    def test_flats_on_both_sides_cross_in_turn(self):
        # both climbers meet their plateaus at level 1/2 together; f1's
        # climber crosses first, then f2's
        sol = solve(ONE_FLAT, ONE_FLAT)
        assert sol.g1.breakpoints == (
            (0, 0), (R(1, 4), R(1, 4)), (R(1, 2), R(3, 4)),
            (R(3, 4), R(3, 4)), (1, 1))
        assert sol.g2.breakpoints == (
            (0, 0), (R(1, 4), R(1, 4)), (R(1, 2), R(1, 4)),
            (R(3, 4), R(3, 4)), (1, 1))

    def test_flat_and_non_class_u_profiles_exact(self):
        # profiles the tents could not take: flats on f1's side, flats at
        # both ends, flats meeting folds and flats of the other side at
        # one level, and shared max/min levels on both sides
        profiles = [
            ONE_FLAT,
            F((0, 0), (R(1, 4), 0), (R(1, 2), R(1, 2)), (R(3, 4), 1), (1, 1)),
            F((0, 0), (R(1, 5), R(1, 2)), (R(2, 5), R(1, 2)),
              (R(3, 5), R(1, 4)), (1, 1)),
            F((0, 0), (R(1, 6), R(1, 2)), (R(1, 3), R(1, 4)),
              (R(1, 2), R(1, 2)), (R(2, 3), R(1, 2)), (R(5, 6), R(3, 4)),
              (1, 1)),
            F((0, 0), (R(1, 5), R(1, 2)), (R(2, 5), R(1, 4)),
              (R(3, 5), R(3, 4)), (R(4, 5), R(1, 2)), (1, 1)),
            F((0, 0), (R(1, 8), R(3, 4)), (R(3, 8), R(3, 4)),
              (R(1, 2), R(1, 4)), (R(5, 8), R(1, 4)), (R(3, 4), R(3, 4)),
              (1, 1)),
        ]
        for f1 in profiles:
            for f2 in profiles:
                sol = solve(f1, f2)
                assert compose(f1, sol.g1) == compose(f2, sol.g2)
                for g in (sol.g1, sol.g2):
                    lo, hi = min(g.values), max(g.values)
                    assert pl_eval(g, 0) == 0 and pl_eval(g, 1) == 1
                    assert lo >= 0 and hi <= 1

    def test_flat_at_fold_level(self):
        # the flat of f2 sits exactly at f1's min-fold level
        f1 = F((0, 0), (R(2, 5), R(4, 5)), (R(3, 5), R(2, 5)), (1, 1))
        f2 = F((0, 0), (R(3, 10), R(2, 5)), (R(7, 10), R(2, 5)), (1, 1))
        sol = solve(f1, f2)
        assert compose(f1, sol.g1) == compose(f2, sol.g2)

    def test_collapse_keeps_continuity(self):
        # while f2's climber crosses its plateau [1/5, 2/5] at level 1/2,
        # f1's climber waits at s = 1/4, where ZIGZAG is 1/2
        f1 = ZIGZAG
        f2 = F((0, 0), (R(1, 5), R(1, 2)), (R(2, 5), R(1, 2)),
               (R(3, 5), R(1, 4)), (1, 1))
        sol = solve(f1, f2)
        assert compose(f1, sol.g1) == compose(f2, sol.g2)
        a, b = R(1, 6), R(1, 3)
        assert (pl_eval(sol.g2, a), pl_eval(sol.g2, b)) == (R(1, 5), R(2, 5))
        assert pl_eval(sol.g1, a) == pl_eval(sol.g1, b) == R(1, 4)

    def test_flat_at_level_zero_start(self):
        # the start counts as coming from the left: f2's climber first
        # crosses the plateau [0, 1/4] while f1's waits at 0
        f2 = F((0, 0), (R(1, 4), 0), (1, 1))
        sol = solve(identity(), f2)
        assert compose(identity(), sol.g1) == compose(f2, sol.g2)
        assert sol.g1 == F((0, 0), (R(1, 2), 0), (1, 1))
        assert sol.g2 == F((0, 0), (R(1, 2), R(1, 4)), (1, 1))

    def test_flat_at_level_one_end(self):
        # the end counts as leaving to the right: f2's climber crosses
        # the plateau [3/4, 1] last, while f1's waits at 1
        f2 = F((0, 0), (R(3, 4), 1), (1, 1))
        sol = solve(identity(), f2)
        assert compose(identity(), sol.g1) == compose(f2, sol.g2)
        assert sol.g1 == F((0, 0), (R(1, 2), 1), (1, 1))
        assert sol.g2 == F((0, 0), (R(1, 2), R(3, 4)), (1, 1))

    def test_two_flats_at_same_level(self):
        f2 = F((0, 0), (R(1, 5), R(1, 2)), (R(3, 10), R(1, 2)),
               (R(2, 5), R(5, 8)), (R(1, 2), R(1, 2)), (R(7, 10), R(1, 2)),
               (1, 1))
        for f1, g in ((identity(), f2), (f2, identity()), (f2, f2)):
            sol = solve(f1, g)
            assert compose(f1, sol.g1) == compose(g, sol.g2)

    def test_wrong_collapse_rejected(self, monkeypatch):
        # a lift that bends the levels keeps the endpoints (levels 0 and
        # 1) but breaks f1∘g1 = f2∘g2
        real = climb._lift
        monkeypatch.setattr(climb, "_lift", lambda *args: [
            (s, t, v * v) for s, t, v in real(*args)])
        f2 = F((0, 0), (R(1, 5), R(1, 2)), (R(2, 5), R(1, 2)),
               (R(3, 5), R(1, 4)), (1, 1))
        with pytest.raises(InternalInvariantError,
                           match="composition equality failed"):
            solve(ZIGZAG, f2)

    def test_randomized_suite(self):
        for seed in range(25):
            pair = climb_pair(seed)
            for f1, f2 in (pair, pair[::-1]):
                sol = solve(f1, f2)
                assert compose(f1, sol.g1) == compose(f2, sol.g2), seed
                assert pl_eval(sol.g1, 0) == 0 and pl_eval(sol.g1, 1) == 1
                assert pl_eval(sol.g2, 0) == 0 and pl_eval(sol.g2, 1) == 1
                lo1, hi1 = min(sol.g1.values), max(sol.g1.values)
                lo2, hi2 = min(sol.g2.values), max(sol.g2.values)
                assert lo1 >= 0 and hi1 <= 1 and lo2 >= 0 and hi2 <= 1

    def test_walk_is_solve_without_the_check(self):
        # the induction's unchecked climb returns the path of the checked
        # one
        for seed in range(25):
            pair = climb_pair(seed)
            for f1, f2 in (pair, pair[::-1]):
                path = climb.walk(f1, f2)
                assert climb.solution(f1, f2, path) == solve(f1, f2), seed

    def test_walk_returns_a_wrong_collapse_unchecked(self, monkeypatch):
        # the lift of test_wrong_collapse_rejected: only solve raises
        real = climb._lift
        monkeypatch.setattr(climb, "_lift", lambda *args: [
            (s, t, v * v) for s, t, v in real(*args)])
        f2 = F((0, 0), (R(1, 5), R(1, 2)), (R(2, 5), R(1, 2)),
               (R(3, 5), R(1, 4)), (1, 1))
        sol = climb.solution(ZIGZAG, f2, climb.walk(ZIGZAG, f2))
        assert compose(ZIGZAG, sol.g1) != compose(f2, sol.g2)

    def test_walk_reads_levels_only(self):
        # the walk reads each profile's values and none of its times: the
        # same values at any other increasing times, which need not span
        # [0, 1], give the same level path.  The seeded pairs carry flats
        # on either side and shared fold levels.
        rng = random.Random(24)
        flats = shared = 0
        for seed in range(40):
            f1, f2 = climb_pair(seed)
            g1, g2, c = shared_fold_pair(seed, seed % 2 == 1)
            shared += c in fold_levels(g2)
            for a, b in ((f1, f2), (f2, f1), (g1, g2), (g2, g1)):
                flats += climb._contract(a)[1] is not None
                path = climb.walk(a, b)
                for ra, rb in ((_retimed(a, rng), b), (a, _retimed(b, rng)),
                               (_retimed(a, rng), _retimed(b, rng))):
                    assert climb.walk(ra, rb) == path, seed
        assert flats >= 40 and shared >= 10, (flats, shared)

    def test_walk_builds_no_fraction(self, monkeypatch):
        # a quotient keeps its profile's own breakpoints, so a walk over
        # flats builds no Fraction, from the profile check to the lift
        pairs = [climb_pair(seed) for seed in range(12)]
        assert all(climb._contract(f2)[1] for _, f2 in pairs)
        built = []
        real_new = Fraction.__new__

        def building(cls, *args, **kwargs):
            built.append(args)
            return real_new(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", building)
        paths = [climb.walk(f1, f2) for f1, f2 in pairs]
        monkeypatch.undo()
        assert built == [] and all(len(path) > 2 for path in paths)

    def test_prepared_height_walks_as_the_height(self):
        # a height prepared once gives every climb against it the walk of
        # the height itself
        for seed in range(30):
            f1, f2 = climb_pair(seed)
            g1, g2, _ = shared_fold_pair(seed, seed % 2 == 1)
            for a, b in ((f1, f2), (f2, f1), (g1, g2), (g2, g1)):
                prepared = climb.Prepared(a)
                assert prepared.profile is a
                assert climb.walk(prepared, b) == climb.walk(a, b), seed
                assert climb.walk(prepared, a) == climb.walk(a, a), seed


RATIONALS = st.fractions(max_denominator=10**30)


class TestIntegerInterpolation:
    """`_lerp(_offset(level, p0, p1), q0, q1)` is one Fraction built from
    integer products, the value the Fraction arithmetic gives."""

    @pytest.mark.parametrize("rising", (True, False))
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(RATIONALS, RATIONALS, RATIONALS, RATIONALS, RATIONALS)
    def test_matches_fraction_arithmetic(self, rising, p0, p1, q0, q1, level):
        assume(p0 != p1)
        if (p0 < p1) != rising:
            p0, p1 = p1, p0
        got = climb._lerp(climb._offset(level, p0, p1), q0, q1)
        assert got == q0 + (level - p0) * (q1 - q0) / (p1 - p0)
        assert type(got) is Fraction
        # lowest terms with a positive denominator, as a normalised
        # Fraction is and one built with _normalize=False need not be
        assert got.denominator > 0
        assert gcd(got.numerator, got.denominator) == 1
        assert climb._lerp(climb._offset(p0, p0, p1), q0, q1) == q0
        assert climb._lerp(climb._offset(p1, p0, p1), q0, q1) == q1
