import math
import random

import pytest

from curvepart import (
    PLCurve,
    PLFunction,
    PreconditionError,
    identity,
    partition_curve,
    pl_eval,
    solve_graph,
    verify,
)
from curvepart.graphcase import chain_functions, graph_increments
from curvepart.scalar import rat

R = rat


def F(*bps):
    return PLFunction(bps)


def below_identity_profile(rng, kinks=4):
    """Random f with f(0)=0, f(1)=1, f(t) <= t, strictly."""
    ts = sorted(rng.sample(range(1, 255), kinks))
    pts = [(R(0), R(0))]
    for t in ts:
        tt = R(t, 256)
        pts.append((tt, tt * R(rng.randrange(1, 64), 64)))
    pts.append((R(1), R(1)))
    return PLFunction(pts)


def bisect_root_oracle(fn, lo, hi, iters=120):
    flo = fn(lo)
    assert flo <= 0 <= fn(hi)
    for _ in range(iters):
        mid = (lo + hi) / 2
        if fn(mid) <= 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


class TestLargestRootChain:
    def test_identity_closed_form(self):
        roots = solve_graph(identity(), 3).roots
        assert roots == (R(1, 2), R(2, 3), R(3, 4))

    def test_single_kink(self):
        f = F((0, 0), (R(1, 2), R(1, 4)), (1, 1))
        # largest root of t - 1 + f(t): on [1/2,1] the piece solves to 3/5
        assert solve_graph(f, 1).roots == (R(3, 5),)

    def test_strictly_below_identity_pushes_roots_right(self):
        rng = random.Random(7)
        for _ in range(5):
            f = below_identity_profile(rng)
            (a1,) = solve_graph(f, 1).roots
            assert a1 > R(1, 2)

    def test_rejects_f_above_identity(self):
        f = F((0, 0), (R(1, 2), R(3, 4)), (1, 1))
        with pytest.raises(PreconditionError) as err:
            solve_graph(f, 1)
        assert err.value.witness == R(1, 2)

    def test_rejects_bad_boundary(self):
        with pytest.raises(PreconditionError):
            solve_graph(F((0, 0), (1, R(1, 2))), 1)


class TestSolveGraph:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_identity_uniform(self, n):
        sol = solve_graph(identity(), n)
        assert list(sol.abscissae) == [R(i, n + 1) for i in range(n + 2)]

    def test_wrap_identities_hold(self):
        rng = random.Random(11)
        for _ in range(8):
            f = below_identity_profile(rng)
            n = rng.randrange(1, 5)
            sol = solve_graph(f, n)
            xs = sol.abscissae
            for i in range(n + 1):
                prev = xs[n] - 1 if i == 0 else xs[i - 1]
                assert pl_eval(f, xs[i + 1]) - pl_eval(f, xs[i]) == xs[i] - prev
            assert all(a < b for a, b in zip(xs, xs[1:]))

    def test_n1_forces_anti_diagonal(self):
        rng = random.Random(3)
        for _ in range(6):
            f = below_identity_profile(rng)
            sol = solve_graph(f, 1)
            x1 = sol.abscissae[1]
            assert pl_eval(f, x1) == 1 - x1

    def test_shift_by_one_increment_match(self):
        rng = random.Random(5)
        for _ in range(6):
            f = below_identity_profile(rng)
            n = rng.randrange(1, 5)
            sol = solve_graph(f, n)
            dx, dy = graph_increments(f, sol)
            s = n + 1
            assert sorted(dx) == sorted(dy)
            for i in range(s):
                assert dy[i] == dx[(i - 1) % s]

    def test_square_polyline_golden_section(self):
        pieces = 4096
        f = PLFunction([(R(k, pieces), R(k, pieces) ** 2)
                        for k in range(pieces + 1)])
        sol = solve_graph(f, 1)
        golden = (math.sqrt(5) - 1) / 2
        assert abs(float(sol.abscissae[1]) - golden) < 1e-4

    def test_matches_bisection_oracle(self):
        rng = random.Random(17)
        for _ in range(4):
            f = below_identity_profile(rng)
            n = rng.randrange(1, 4)
            gs = chain_functions(f, n)
            sol = solve_graph(f, n)
            # float bisection on the last auxiliary function, swept from
            # the right to isolate its largest root
            g = gs[n]
            gf = lambda x: float(pl_eval(g, R(x)))
            hi = 1.0
            lo = None
            steps = 4096
            for k in range(steps - 1, 0, -1):
                if gf(k / steps) <= 0:
                    lo = k / steps
                    break
            assert lo is not None
            root = bisect_root_oracle(gf, lo, hi)
            assert abs(root - float(sol.roots[-1])) < 1e-9


    def test_rejects_order_below_one(self):
        with pytest.raises(PreconditionError) as err:
            solve_graph(identity(), 0)
        assert str(err.value) == "n must be a positive integer"


class TestAgainstPartitionCurve:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_both_exact_solvers_verify(self, n):
        # the graph of f <= id is a curve below the diagonal; both solvers
        # must place S = n + 1 increments on it that verify at tol 0
        for seed in range(4):
            f = below_identity_profile(random.Random(1000 * n + seed))
            curve = PLCurve(f.knots, f.breakpoints)
            graph_pts = [(x, pl_eval(f, x))
                         for x in solve_graph(f, n).abscissae]
            pipe_pts = partition_curve(curve, n).points
            for pts in (graph_pts, pipe_pts):
                assert len(pts) == n + 2
                assert verify(curve, pts, tol=0).ok


class TestChainFunctions:
    def test_identity_chain_is_affine(self):
        gs = chain_functions(identity(), 3)
        for i, g in enumerate(gs):
            # g_i(x) = (i+1) x - i wherever it stays in range
            assert pl_eval(g, 1) == 1
            if i:
                assert pl_eval(g, R(i, i + 1)) == 0

    def test_domain_clamping_keeps_largest_roots(self):
        f = F((0, 0), (R(1, 2), R(1, 4)), (1, 1))
        gs = chain_functions(f, 2)
        hits = [h for h in _roots(gs[2])]
        assert hits, "second chain function must still have roots"

    @staticmethod
    def test_wrap_check_guards_regressions():
        # sanity: a doctored solution would fail the wrap identities
        f = identity()
        sol = solve_graph(f, 2)
        xs = list(sol.abscissae)
        xs[1] = xs[1] + R(1, 100)
        with pytest.raises(AssertionError):
            for i in range(3):
                prev = xs[2] - 1 if i == 0 else xs[i - 1]
                lhs = pl_eval(f, xs[i + 1]) - pl_eval(f, xs[i])
                assert lhs == xs[i] - prev


def _roots(g):
    from curvepart import level_set

    return level_set(g, 0)
