import gc
import operator
import random
import weakref
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from curvepart import (
    ConvergenceError,
    InternalInvariantError,
    NonInteriorCurveError,
    PLCurve,
    PLFunction,
    PreconditionError,
    build_partitioning_functions,
    compose,
    diagonal_curve,
    extract_points,
    partition_below_diagonal,
    partition_curve,
    partition_densities,
    pl_eval,
    random_curve,
    verify,
)
from curvepart import climb, pipeline
from curvepart.pipeline import (
    Rearrangement,
    pl_density_cumulative,
    step_cumulative,
)
from curvepart.plcurve import curve_intersections, point_on_curve
from curvepart.plfun import (level_set, pl_combine, pl_scale_values,
                             pl_window)
from curvepart.scalar import rat

from test_kernels import ref_earliest_meeting
from util import (
    degenerate_lower_curve,
    fold_levels,
    full_closing_curve,
    functions_on_curve,
)

R = rat

BENT = PLCurve([0, R(1, 2), 1], [(0, 0), (R(4, 5), R(1, 5)), (1, 1)])
SECTION5 = PLCurve([0, R(1, 2), 1], [(0, 0), (1, 0), (1, 1)])
# the tail after the diagonal touch dips back to height 0; n = 3 accepts
# the fourth cut
DIPPING_TAIL = PLCurve([0, R(1, 4), R(1, 2), R(3, 4), 1],
                       [(0, 0), (R(1, 2), R(1, 2)), (R(7, 10), R(3, 10)),
                        (R(9, 10), R(17, 20)), (1, 1)])

# the height has a flat at 1/5
FLAT_HEIGHT = PLCurve([0, R(1, 4), R(1, 2), R(3, 4), 1],
                      [(0, 0), (R(2, 5), R(1, 5)), (R(3, 5), R(1, 5)),
                       (R(4, 5), R(2, 5)), (1, 1)])


def assert_shifted(res, k=1):
    for i in range(res.S):
        assert res.dy[i] == res.dx[(i - k) % res.S]
    assert all(d > 0 for d in res.dx + res.dy)


class TestBuildPartitioningFunctions:
    def test_base_case_takes_components(self):
        pf = build_partitioning_functions(BENT, 1)
        assert pf.xs == (BENT.x_function(),)
        assert pf.y == BENT.y_function()

    def test_diagonal_n2(self):
        pf = build_partitioning_functions(diagonal_curve(), 2)
        assert pl_eval(pf.xs[-1], 1) == 1
        assert pl_eval(pf.xs[0], 1) + pl_eval(pf.y, 1) == 1
        # on the diagonal the ordinate equals the abscissa pointwise
        for k in range(9):
            t = R(k, 8)
            assert pl_eval(pf.xs[0], t) + pl_eval(pf.y, t) == pl_eval(
                pf.xs[1], t)

    def test_membership_oracle_full_coverage(self):
        c = PLCurve([0, R(1, 3), R(2, 3), 1],
                    [(0, 0), (R(1, 2), R(1, 5)), (R(7, 10), R(2, 5)), (1, 1)])
        for n in (1, 2, 3):
            pf = build_partitioning_functions(c, n)
            assert functions_on_curve(c, list(pf.xs), pf.y)

    def test_boundary_conditions_of_functions(self):
        pf = build_partitioning_functions(BENT, 3)
        for x in pf.xs:
            assert pl_eval(x, 0) == 0
        assert pl_eval(pf.y, 0) == 0
        assert pl_eval(pf.xs[-1], 1) == 1

    def test_rejects_boundary_curve(self):
        with pytest.raises(NonInteriorCurveError):
            build_partitioning_functions(SECTION5, 1)

    def test_wrong_climb_solution_rejected(self, monkeypatch):
        # the induction's climb is unchecked; `_final_verify` is the judge
        real = pipeline.climb.walk
        moved = []

        def wrong_level(f1, f2):
            path = real(f1, f2)
            # the first vertex with a coordinate inside a piece, whose
            # level the induction reads
            k = next(k for k, (s, t, _) in enumerate(path) if (s | t) & 1)
            s, t, v = path[k]
            moved.append(k)
            return path[:k] + [(s, t, v + TAMPER)] + path[k + 1:]

        monkeypatch.setattr(pipeline.climb, "walk", wrong_level)
        # n = 3 runs one climb; the moved level carries the points off the
        # curve
        with pytest.raises(InternalInvariantError, match="off the curve"):
            partition_curve(BENT, 3)
        assert len(moved) == 1


TAMPER = R(1, 2**20)


def _tampering_walk(real, rng, skip, tampered):
    """climb.walk that moves the level v of one vertex of the returned
    level path by 2^-20, on the first climb after `skip` that has a vertex
    with 2^-20 < v < 1 - 2^-20 and a coordinate inside a piece (where the
    induction reads the level); records which vertex it moved."""
    count = [0]

    def walk(f1, f2):
        path = real(f1, f2)
        count[0] += 1
        if count[0] <= skip or tampered:
            return path
        spots = [k for k, (s, t, v) in enumerate(path)
                 if (s | t) & 1 and TAMPER < v < 1 - TAMPER]
        if not spots:
            return path
        k = rng.choice(spots)
        s, t, v = path[k]
        tampered.append(k)
        return (path[:k] + [(s, t, v + rng.choice((TAMPER, -TAMPER)))]
                + path[k + 1:])

    return walk


class TestUncheckedInduction:
    """The induction's climbs are not checked; `partition_curve`'s exact
    `_final_verify` is the judge, so a wrong climb never yields a wrong
    result."""

    def test_tampered_climb_raises_or_stays_exact(self, monkeypatch):
        real = climb.walk
        outcomes = {"raised": 0, "exact": 0}
        for seed in range(80):
            rng = random.Random(seed)
            n = rng.randint(3, 5)  # n - 2 = 1..3 climbs
            c = random_curve(seed, vertices=rng.randint(4, 7))
            tampered = []
            monkeypatch.setattr(climb, "walk", _tampering_walk(
                real, rng, rng.randrange(n - 2), tampered))
            try:
                res = partition_curve(c, n)
            except InternalInvariantError:
                outcomes["raised"] += 1
            else:
                assert verify(c, res.points, tol=0).ok, seed
                outcomes["exact"] += 1
            assert len(tampered) == 1, seed
        assert outcomes["raised"] > 0 and outcomes["exact"] > 0, outcomes


def ref_partitioning_functions(curve, n):
    """y and x_1..x_n as the induction once carried them: every level
    composes y and every x_i with its inner map."""
    height, width = curve.y_function(), curve.x_function()
    y, xs = height, [width]
    for _ in range(1, n):
        w = pl_combine(xs[-1], y, operator.add)
        t_stop = level_set(w, 1)[0][0]
        sol = climb.solve(height, pl_window(w, 0, t_stop))
        inner = pl_scale_values(sol.g2, t_stop)
        y = compose(y, inner)
        xs = [compose(x, inner) for x in xs] + [compose(width, sol.g1)]
    return y, tuple(xs)


def ref_extract_points(curve, y, xs):
    """Points read off the fully composed y and x_1..x_n."""
    t0 = ref_earliest_meeting(full_closing_curve(xs[-1], y), curve)[0].t_a
    yt = pl_eval(y, t0)
    vals = [pl_eval(x, t0) for x in xs]
    lows = [R(0)] + vals[:-1]
    return (((0, 0),) + tuple((v, lo + yt) for v, lo in zip(vals, lows))
            + ((1 - yt, vals[-1] + yt), (1, 1)))


# the first level's closing sum x + y is flat on [1/4, 5/8], where y bends
# at 1/2 and x bends back
FLAT_SUM_BEND = PLCurve([0, R(1, 4), R(1, 2), R(5, 8), 1],
                        [(0, 0), (R(1, 2), R(3, 10)), (R(3, 5), R(1, 5)),
                         (R(7, 10), R(1, 10)), (1, 1)])
# x + y rises linearly on [1/5, 3/5] through a bend of y at 2/5, and the
# height's knot value 4/5 lies on that piece beyond the bend
SLOPED_SUM_BEND = PLCurve([R(k, 5) for k in range(6)],
                          [(0, 0), (R(2, 5), R(1, 10)), (R(1, 2), R(1, 5)),
                           (R(4, 5), R(1, 10)), (R(19, 20), R(4, 5)),
                           (1, 1)])
# curves for the special cases the seeded sets miss; seed 88 puts a
# vertex inside a height piece beyond a knot of the width
EXTRA_CHAIN_CURVES = (FLAT_SUM_BEND, SLOPED_SUM_BEND,
                      degenerate_lower_curve(88))

SPECIAL_CASES = (
    "height flat",
    "closing-sum flat",
    "bend cancelled in the closing sum",
    "width knot inside a height piece",
    "edge across a width knot, sloped",
    "edge across a width knot, flat",
    "edge across a cancelled bend, sloped",
    "edge across a cancelled bend, flat",
    "vertex beyond a width knot in its piece",
    "vertex beyond a cancelled bend in its piece",
)


def _has_flat(f):
    pts = f.breakpoints
    return any(v0 == v1 for (_, v0), (_, v1) in zip(pts, pts[1:]))


def _special_cases(curve, n):
    """The special cases of the induction's level reading that one solve
    meets (SPECIAL_CASES): flats of the height or of a closing sum, a
    bend of y that the closing sum's canonical form drops (x bends back
    there), a knot of the width strictly inside a height piece, a
    path edge across either kind of knot, on a sloped or a flat piece, and
    a path vertex inside a piece beyond either kind of knot.  The edges
    and vertices are read off each climb's path as parameters."""
    walks, sums = [], []
    real_walk, real_rows = climb.walk, pipeline._closing_rows

    def walk(f1, f2):
        # the induction prepares the height once and climbs against it
        walks.append((f1.profile, f2, real_walk(f1, f2)))
        return walks[-1][2]

    def closing_rows(rows):
        # each level's table (t, x, y) has a row wherever y bends
        y = PLFunction([(t, v) for t, _, v in rows])
        sums.append((y, real_rows(rows)))
        return sums[-1][1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(climb, "walk", walk)
        mp.setattr(pipeline, "_closing_rows", closing_rows)
        build_partitioning_functions(curve, n)
    height, width = curve.y_function(), curve.x_function()
    inside = [t for t in width.knots if t not in height.knots]
    found = set()
    if _has_flat(height):
        found.add("height flat")
    if inside:
        found.add("width knot inside a height piece")
    for (f1, f2, path), (y, closing) in zip(walks, sums):
        # the climb's profile ends at the closing rows' t_stop
        assert f2.breakpoints[-1][0] is closing[-1][0]
        if _has_flat(f2):
            found.add("closing-sum flat")
        # in the closing sum's own parameter, as the path's t
        knots = [t for t, _ in f2.breakpoints]
        cancelled = [t for t in y.knots if t < knots[-1] and t not in knots]
        if cancelled:
            found.add("bend cancelled in the closing sum")
        pts = climb.path_points(f1, f2, path)
        for (s, t, _), (sp, tp) in zip(path, pts):
            if s % 2 and any(f1.knots[s // 2] < u < sp for u in inside):
                found.add("vertex beyond a width knot in its piece")
            if t % 2 and any(knots[t // 2] < u < tp for u in cancelled):
                found.add("vertex beyond a cancelled bend in its piece")
        for k, ((s0, t0), (s1, t1)) in enumerate(zip(pts, pts[1:])):
            piece = "flat" if path[k][2] == path[k + 1][2] else "sloped"
            if any(min(s0, s1) < u < max(s0, s1) for u in inside):
                found.add(f"edge across a width knot, {piece}")
            if any(min(t0, t1) < u < max(t0, t1) for u in cancelled):
                found.add(f"edge across a cancelled bend, {piece}")
    return found


def _random_chain_inputs():
    rng = random.Random(18)
    return [(random_curve(seed, vertices=rng.randint(3, 10)),
             rng.randint(1, 10)) for seed in range(16)]


class TestCompositionChain:
    """The induction stores the older x_i as built with the inner maps
    after them, and reads y, the newest x and the inner map off each
    climb's level path: they equal the full composition."""

    @pytest.mark.parametrize("n", (2, 4, 8))
    def test_fixed_compositions_per_level(self, monkeypatch, n):
        calls = []

        def counting(outer, inner):
            calls.append(1)
            return compose(outer, inner)

        monkeypatch.setattr(pipeline, "compose", counting)
        monkeypatch.setattr(climb, "compose", counting)
        pf = build_partitioning_functions(random_curve(n, vertices=6), n)
        # y, x and the inner map are read off each climb's level path, and
        # the climb is not checked: nothing is composed
        assert calls == [] and len(pf.inners) == n - 1

    def _assert_matches_reference(self, c, n):
        # extract_points builds the closing curve from the last level's
        # rows up to t_stop only: its first meeting t0 lies there, and the
        # points are those of the full closing curve
        meetings = []

        def recording(a, b):
            hits = curve_intersections(a, b)
            meetings.append(hits[0].t_a)
            return hits

        pf = build_partitioning_functions(c, n)
        y, xs = ref_partitioning_functions(c, n)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pipeline, "curve_intersections", recording)
            assert extract_points(c, pf).points == ref_extract_points(c, y, xs)
        w = pl_combine(xs[-1], y, operator.add)
        assert meetings[0] <= level_set(w, 1)[0][0]
        assert pf.y == y and pf.xs == xs

    def test_random_curves_match_full_composition(self):
        for c, n in _random_chain_inputs():
            self._assert_matches_reference(c, n)

    @pytest.mark.parametrize("n", (2, 3, 4))
    def test_degenerate_curves_match_full_composition(self, n):
        for seed in range(60):
            self._assert_matches_reference(degenerate_lower_curve(seed), n)

    @pytest.mark.parametrize("n", (2, 3, 4))
    def test_extra_curves_match_full_composition(self, n):
        for c in EXTRA_CHAIN_CURVES:
            self._assert_matches_reference(c, n)

    def test_curve_sets_meet_every_special_case(self):
        # the three sets above, together, meet every special case of the
        # level reading; random_curve alone meets none
        inputs = (_random_chain_inputs()
                  + [(degenerate_lower_curve(seed), n)
                     for n in (2, 3, 4) for seed in range(60)]
                  + [(c, n) for n in (2, 3, 4) for c in EXTRA_CHAIN_CURVES])
        found = set()
        for c, n in inputs:
            found |= _special_cases(c, n)
        assert found == set(SPECIAL_CASES)


class TestExtractPoints:
    def test_worked_example(self):
        pf = build_partitioning_functions(BENT, 1)
        res = extract_points(BENT, pf)
        assert res.points == (
            (R(0), R(0)), (R(4, 9), R(1, 9)), (R(8, 9), R(5, 9)),
            (R(1), R(1)))
        assert res.dx == (R(4, 9), R(4, 9), R(1, 9))
        assert res.dy == (R(1, 9), R(4, 9), R(4, 9))
        assert res.rearrangement == Rearrangement(shift=1)
        assert res.exact and res.residual == 0

    def test_diagonal_gives_equal_increments(self):
        for n in (1, 2, 3):
            pf = build_partitioning_functions(diagonal_curve(), n)
            res = extract_points(diagonal_curve(), pf)
            assert res.dx == res.dy

    def test_tampered_functions_rejected(self, monkeypatch):
        real = pipeline.build_partitioning_functions

        def tampered(curve, n):
            # x_1 of a two-level solve is the stored width, read at the
            # inner map's value
            pf = real(curve, n)
            off = pl_scale_values(pf.bases[0], R(1, 2))
            return replace(pf, bases=(off,) + pf.bases[1:])

        monkeypatch.setattr(pipeline, "build_partitioning_functions", tampered)
        with pytest.raises(InternalInvariantError, match="off the curve"):
            partition_curve(BENT, 3)

    def test_interior_curves_satisfy_shift_exactly(self):
        for seed in range(8):
            c = random_curve(seed, vertices=5, curve_class="interior")
            pf = build_partitioning_functions(c, 1)
            res = extract_points(c, pf)
            rep = verify(c, res.points, tol=0)
            assert rep.on_curve_max_dist == 0
            assert rep.multiset_match and rep.detected_shift == 1


class TestPartitionBelowDiagonal:
    def test_worked_example_matches_extract(self):
        res = partition_below_diagonal(BENT, 1)
        assert res.points[1] == (R(4, 9), R(1, 9))
        assert res.points[2] == (R(8, 9), R(5, 9))
        assert_shifted(res)

    def test_closing_point_case(self):
        res = partition_below_diagonal(BENT, 0)
        x, y = res.points[1]
        assert x + y == 1 and 0 < y < x < 1
        assert_shifted(res)

    def test_exact_when_height_is_class_u(self):
        for seed in range(10):
            c = random_curve(seed, vertices=7, curve_class="deltaInterior")
            for n in (0, 1, 2):
                res = partition_below_diagonal(c, n)
                assert res.exact
                assert_shifted(res)
                assert verify(c, res.points, tol=0).ok

    def test_flat_height_exact_through_climb(self):
        c = FLAT_HEIGHT
        res = partition_below_diagonal(c, 2)
        assert res.exact and res.residual == 0
        assert_shifted(res)
        assert verify(c, res.points, tol=0).ok

    def test_climbs_run_the_height_first(self, monkeypatch):
        # the height has a flat and the compressed closing sum rises
        # throughout; the climb still takes the height as f1, as at every
        # level of the induction, prepared once per solve
        real = pipeline.climb.walk
        calls = []

        def recording(f1, f2):
            calls.append(f1)
            return real(f1, f2)

        monkeypatch.setattr(pipeline.climb, "walk", recording)
        partition_below_diagonal(FLAT_HEIGHT, 2)
        assert [f.profile for f in calls] == [FLAT_HEIGHT.y_function()]
        assert all(isinstance(f, climb.Prepared) for f in calls)

    def test_prepared_heights_are_not_kept(self, monkeypatch):
        # each solve prepares its height once and drops it with the solve:
        # no cache outlives it, so none grows with the curves solved
        real = pipeline.climb.walk
        refs = []

        def recording(f1, f2):
            refs.append(weakref.ref(f1))
            return real(f1, f2)

        monkeypatch.setattr(pipeline.climb, "walk", recording)
        for seed in range(6):
            res = partition_below_diagonal(random_curve(seed, vertices=6), 3)
            assert res.exact
        gc.collect()
        # n = 3 climbs twice per solve, against one prepared height: a live
        # object has one weakref, so there is one per solve
        assert len(refs) == 12 and len(set(map(id, refs))) == 6
        assert all(r() is None for r in refs)

    def test_exact_when_neither_orientation_is_class_u(self):
        # the height has a max and a min at level 2/5, and the width a
        # flat; the climbs solve it as it is, with no perturbation
        knots = [R(k, 6) for k in range(7)]
        ys = [0, R(2, 5), R(1, 5), R(9, 20), R(2, 5), R(7, 10), 1]
        xs = [0, R(1, 2), R(2, 5), R(1, 2), R(1, 2), R(3, 4), 1]
        c = PLCurve(knots, list(zip(xs, ys)))
        for n in (1, 2, 3):
            res = partition_below_diagonal(c, n)
            assert res.exact and res.residual == 0
            assert not res.trace.perturbations
            assert_shifted(res)
            rep = verify(c, res.points, tol=0)
            assert rep.ok and rep.detected_shift == 1

    def test_rejects_diagonal(self):
        with pytest.raises(NonInteriorCurveError):
            partition_below_diagonal(diagonal_curve(), 1)

    def test_exact_fold_level_collision_still_exact(self):
        # the height and the compressed closing sum share fold level 1/2,
        # so the walk meets a degenerate vertex; the climb engine must
        # still solve exactly, inside the pipeline and on its own
        from curvepart import solve
        from curvepart.plfun import pl_window
        from curvepart.plfun import level_set as ls

        knots = [0, R(1, 8), R(1, 4), R(3, 8), R(1, 2), 1]
        ys = [0, R(1, 5), R(1, 10), R(1, 2), R(1, 4), 1]
        xs = [0, R(3, 10), R(1, 5), R(11, 20), R(3, 5), 1]
        c = PLCurve(knots, list(zip(xs, ys)))
        y = c.y_function()
        w = pl_combine(c.x_function(), y, operator.add)
        f2 = pl_window(w, 0, ls(w, 1)[0][0])
        assert fold_levels(y) & fold_levels(f2) == {R(1, 2)}

        res = partition_below_diagonal(c, 2)
        assert res.exact
        assert_shifted(res)
        assert verify(c, res.points, tol=0).ok

        sol = solve(y, f2)
        assert compose(y, sol.g1) == compose(f2, sol.g2)


class TestPartitionCurve:
    def test_requested_increment_count(self):
        for n in (1, 2, 3, 4):
            res = partition_curve(BENT, n)
            assert res.S == n + 1
            assert len(res.points) == n + 2

    def test_below_matches_direct_route(self):
        res = partition_curve(BENT, 2)
        direct = partition_below_diagonal(BENT, 1)
        assert res.points == direct.points
        assert res.trace.branch == "below"
        assert res.trace.last_touch == 0

    def test_diagonal_branch_uniform(self):
        res = partition_curve(diagonal_curve(), 2)
        assert res.points == (
            (R(0), R(0)), (R(1, 3), R(1, 3)), (R(2, 3), R(2, 3)),
            (R(1), R(1)))
        assert res.rearrangement == Rearrangement(shift=0)
        assert res.trace.branch == "diagonal"
        assert res.dx == res.dy

    def test_diagonal_tail_branch(self):
        c = PLCurve([0, R(1, 4), R(1, 2), 1],
                    [(0, 0), (R(3, 5), R(1, 5)), (R(1, 2), R(1, 2)), (1, 1)])
        res = partition_curve(c, 3)
        assert res.trace.branch == "diagonal"
        assert res.dx == res.dy
        assert res.points[1] == (R(5, 8), R(5, 8))

    def test_above_branch_mirrors(self):
        above = PLCurve([0, R(1, 2), 1], [(0, 0), (R(1, 5), R(4, 5)), (1, 1)])
        res = partition_curve(above, 2)
        assert res.trace.branch == "above"
        assert res.trace.swapped
        assert_shifted(res, k=res.S - 1)
        assert res.points[1] == (R(1, 9), R(4, 9))

    def test_tail_normalization_composite_permutation(self):
        c = PLCurve([0, R(1, 4), R(1, 2), R(3, 4), 1],
                    [(0, 0), (R(1, 5), R(2, 5)), (R(1, 2), R(1, 2)),
                     (R(4, 5), R(3, 5)), (1, 1)])
        res = partition_curve(c, 2)
        assert res.trace.last_touch == R(1, 2)
        assert res.points[1] == (R(1, 2), R(1, 2))
        perm = res.rearrangement.as_perm(res.S)
        assert perm[0] == 0
        for i in range(res.S):
            assert res.dy[i] == res.dx[perm[i]]
        assert res.exact

    def test_n1_dichotomy(self):
        for seed in range(20):
            c = random_curve(seed, vertices=6, curve_class="interior")
            res = partition_curve(c, 1)
            x, y = res.points[1]
            assert x == y or x + y == 1
            assert res.exact

    def test_counterexample_rejected(self):
        for n in range(1, 5):
            with pytest.raises(NonInteriorCurveError):
                partition_curve(SECTION5, n)

    def test_boundary_join_on_dipping_tail(self):
        tol = R(1, 10**9)
        res = partition_curve(DIPPING_TAIL, 3, tol=tol)
        assert res.trace.boundary_joins
        rep = verify(DIPPING_TAIL, res.points, tol=tol)
        assert rep.ok

    def test_boundary_join_after_swap(self):
        # the tail rides above the diagonal and dips left of the anchor
        c = PLCurve([0, R(1, 4), R(1, 2), R(3, 4), 1],
                    [(0, 0), (R(2, 5), R(1, 5)), (R(1, 2), R(1, 2)),
                     (R(3, 10), R(7, 10)), (1, 1)])
        tol = R(1, 10**9)
        res = partition_curve(c, 3, tol=tol)
        assert res.trace.swapped
        assert res.trace.boundary_joins
        assert verify(c, res.points, tol=tol).ok

    def test_densities_with_common_zero_mass_gap(self):
        f = ("step", [R(0), R(2, 5), R(1, 2), R(1)], [R(5, 4), R(0), R(1)])
        g = ("step", [R(0), R(2, 5), R(1, 2), R(1)], [R(2), R(0), R(2, 5)])
        out = partition_densities(f, g, 2)
        assert out.result.exact
        ts = out.parameters
        for a, b in zip(ts, ts[1:]):
            assert a < b

    def test_inverse_affine_consistency(self):
        c = PLCurve([0, R(1, 4), R(1, 2), R(3, 4), 1],
                    [(0, 0), (R(1, 5), R(2, 5)), (R(1, 2), R(1, 2)),
                     (R(4, 5), R(3, 5)), (1, 1)])
        # the tail after the touch rides above the diagonal
        swapped = TestAssembleAndMembership.TOUCHING_ABOVE
        for curve, is_swapped in ((c, False), (swapped, True)):
            res = partition_curve(curve, 2)
            assert res.trace.swapped == is_swapped
            a = res.trace.anchor
            mapped = [((x - a) / (1 - a), (y - a) / (1 - a))
                      for x, y in res.points[1:]]
            if res.trace.swapped:
                mapped = [(y, x) for x, y in mapped]
            assert tuple(mapped) == res.trace.solver_frame_points
            # the solver's frame lies below the diagonal
            assert all(y < x for x, y in mapped[1:-1])


class TestAssembleAndMembership:
    """`_assemble` maps the one tail-frame solve back to the input, and
    `_final_verify` asks every branch for exact curve membership."""

    TOUCHING = PLCurve([0, R(1, 4), R(1, 2), R(3, 4), 1],
                       [(0, 0), (R(1, 4), R(3, 8)), (R(1, 2), R(1, 2)),
                        (R(3, 4), R(5, 8)), (1, 1)])
    # the tail after the touch rides above the diagonal
    TOUCHING_ABOVE = PLCurve([0, R(1, 4), R(1, 2), R(3, 4), 1],
                             [(0, 0), (R(1, 2), R(1, 4)), (R(1, 2), R(1, 2)),
                              (R(5, 8), R(3, 4)), (1, 1)])

    def test_one_increment_tail_is_shift_0(self):
        for c in (self.TOUCHING, self.TOUCHING_ABOVE):
            res = partition_curve(c, 1)
            assert res.trace.last_touch == R(1, 2)
            assert res.rearrangement == Rearrangement(shift=0)
            assert res.points[1] == (R(1, 2), R(1, 2))

    def test_longer_tail_is_the_perm(self):
        for c, swapped in ((self.TOUCHING, False), (self.TOUCHING_ABOVE, True)):
            for n in (2, 3, 4):
                res = partition_curve(c, n)
                assert res.trace.swapped == swapped
                # the tail solve has shift 1; the mirror makes it -1 mod S
                s_eta = res.S - 1
                k = -1 % s_eta if swapped else 1
                perm = (0,) + tuple(1 + (i - k) % s_eta for i in range(s_eta))
                assert res.rearrangement == Rearrangement(perm=perm)

    def test_interior_points_lie_on_the_curve(self):
        joined = 0
        for seed in range(12):
            c = random_curve(seed, vertices=6, curve_class="interior")
            res = partition_curve(c, 3)
            joined += bool(res.trace.boundary_joins)
            assert all(point_on_curve(c, p) for p in res.points), seed
            # no accepted join snaps: every result is exact
            assert res.exact and res.residual == 0, seed
        assert joined

    def test_inexact_point_off_the_curve_rejected(self):
        # within tol of the diagonal, and within tol of the identity, but
        # not on the curve
        eps, tol = R(1, 10**12), R(1, 10**9)
        res = pipeline.PartitionResult(
            points=((0, 0), (R(1, 2), R(1, 2) + eps), (1, 1)),
            rearrangement=Rearrangement(shift=0), exact=False, residual=eps)
        with pytest.raises(InternalInvariantError, match="off the curve"):
            pipeline._final_verify(diagonal_curve(), res, tol)


class TestPipelineProperties:
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(st.integers(0, 10**9), st.integers(1, 6), st.integers(0, 2))
    def test_lower_triangle_partitions_exact(self, seed, verts, n):
        rng = random.Random(seed)
        c = _random_lower_triangle_curve(rng, verts)
        res = partition_below_diagonal(c, n)
        assert res.exact
        assert_shifted(res)
        rep = verify(c, res.points, tol=0)
        assert rep.ok and rep.on_curve_max_dist == 0
        # strictly increasing coordinates
        for (x0, y0), (x1, y1) in zip(res.points, res.points[1:]):
            assert x0 < x1 and y0 < y1

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(st.integers(0, 10**9), st.integers(1, 4))
    def test_unit_square_partitions_verify(self, seed, n):
        c = random_curve(seed, vertices=4 + seed % 4, curve_class="interior")
        res = partition_curve(c, n)
        rep = verify(c, res.points, tol=0 if res.exact else R(1, 10**9))
        assert rep.ok
        perm = res.rearrangement.as_perm(res.S)
        assert sorted(perm) == list(range(res.S))


def assert_best_so_far(err):
    """A ConvergenceError's history is the running best residual."""
    assert err.history
    assert err.history == sorted(err.history, reverse=True)
    assert err.best_residual == err.history[-1]


class TestDegenerateCurves:
    """Dyadic curves below the diagonal with horizontal and vertical runs
    and repeated fold levels: their climbs meet flats and max/min pairs at
    one level on either side, and every solve is exact."""

    @pytest.mark.parametrize("n", (2, 3, 4))
    def test_exact_at_tol_zero(self, n):
        for seed in range(60):
            c = degenerate_lower_curve(seed)
            res = partition_curve(c, n, tol=0)
            assert res.exact, seed
            assert verify(c, res.points, tol=0).ok, seed


class TestRetryBudgets:
    """Boundary joining, the one inexact route, raises ConvergenceError
    once its fixed budget is spent."""

    def test_join_cuts_exhausted(self, monkeypatch):
        tol = R(1, 10**9)
        res = partition_curve(DIPPING_TAIL, 3, tol=tol)
        assert len(res.trace.boundary_joins) == 4
        monkeypatch.setattr(pipeline, "JOIN_CUTS", 3)
        with pytest.raises(ConvergenceError) as exc:
            partition_curve(DIPPING_TAIL, 3, tol=tol)
        err = exc.value
        assert str(err) == "boundary joining failed to verify within 3 cuts"
        assert len(err.history) <= 3
        assert_best_so_far(err)
        assert err.best_residual > tol
        assert err.history == list(res.trace.residual_history[:len(err.history)])


class TestWideClosingCurves:
    """Curves of 32-64 vertices at n 2-3, whose closing curves have tens to
    hundreds of segments and meet the input many times."""

    @pytest.mark.parametrize("seed", range(6))
    def test_first_hit_scan_matches_full_scan(self, seed):
        rng = random.Random(seed)
        c = _random_lower_triangle_curve(rng, rng.randint(30, 62))
        n = rng.randint(2, 3)
        pf = build_partitioning_functions(c, n)
        eta = full_closing_curve(pf.x, pf.y)
        assert curve_intersections(eta, c) == ref_earliest_meeting(eta, c)
        res = partition_below_diagonal(c, n)
        assert res.exact
        assert verify(c, res.points, tol=0).ok


class TestDeepClosingCurves:
    """Solves at n 8, 10 and 12, whose closing curves have 55 to 128
    segments and denominators of 274 to 432 bits."""

    @pytest.mark.parametrize("n", (8, 10, 12))
    def test_first_hit_scan_matches_full_scan(self, n):
        c = random_curve(n, vertices=8)
        pf = build_partitioning_functions(c, n)
        eta = full_closing_curve(pf.x, pf.y)
        assert max(v.denominator.bit_length()
                   for p in eta.vertices for v in p) >= 190
        assert curve_intersections(eta, c) == ref_earliest_meeting(eta, c)


def _random_lower_triangle_curve(rng, interior_vertices):
    pts = [(R(0), R(0))]
    for _ in range(interior_vertices):
        x = R(rng.randrange(1, 2**12), 2**12)
        y = x * R(rng.randrange(1, 2**12), 2**12)
        pts.append((x, y))
    pts.append((R(1), R(1)))
    knots = [R(i, len(pts) - 1) for i in range(len(pts))]
    return PLCurve(knots, pts)


class TestPreconditions:
    @pytest.mark.parametrize("call, message", (
        (lambda: partition_curve(BENT, 0), "n must be a positive integer"),
        (lambda: partition_below_diagonal(BENT, -1), "n must be nonnegative"),
        (lambda: build_partitioning_functions(BENT, 0),
         "n must be a positive integer"),
        (lambda: step_cumulative([R(0), R(1)], [R(1), R(0)]),
         "step density needs one more knot than values"),
        (lambda: step_cumulative([R(0), R(1, 2), R(1)], [R(3), R(-1)]),
         "density values must be nonnegative"),
        (lambda: pl_density_cumulative(
            PLFunction([(0, 2), (R(1, 2), R(-1, 2)), (1, 2)])),
         "density must be nonnegative"),
    ), ids=("partition-n0", "below-n-1", "build-n0", "step-lengths",
            "step-negative", "pl-negative"))
    def test_refused(self, call, message):
        with pytest.raises(PreconditionError) as err:
            call()
        assert str(err.value) == message


class TestPartitionDensities:
    def test_uniform_densities_uniform_split(self):
        dens = ("step", [R(0), R(1)], [R(1)])
        for n in (1, 2, 3):
            out = partition_densities(dens, dens, n)
            assert out.parameters == tuple(R(i, n + 1) for i in range(n + 2))

    def test_step_densities_interval_masses_match(self):
        f = ("step", [R(0), R(1, 2), R(1)], [R(3, 2), R(1, 2)])
        g = ("step", [R(0), R(1, 4), R(1)], [R(2), R(2, 3)])
        out = partition_densities(f, g, 2)
        ts = out.parameters
        # independent quadrature of both densities over the split intervals
        mass_f = [_step_mass(f, a, b) for a, b in zip(ts, ts[1:])]
        mass_g = [_step_mass(g, a, b) for a, b in zip(ts, ts[1:])]
        perm = out.result.rearrangement.as_perm(out.result.S)
        for i in range(out.result.S):
            assert mass_g[i] == mass_f[perm[i]]
        assert mass_f == list(out.result.dx)
        assert mass_g == list(out.result.dy)

    def test_pl_density_pre_sampling(self):
        tent = PLFunction([(0, 0), (R(1, 2), 2), (1, 0)])
        cum = pl_density_cumulative(tent)
        assert pl_eval(cum, 1) == 1
        assert pl_eval(cum, R(1, 2)) == R(1, 2)
        # each tent piece is sampled at DENSITY_SUBDIV points of the exact
        # quadratic, 2t^2 on [0, 1/2]
        step = R(1, 2) / pipeline.DENSITY_SUBDIV
        assert cum.breakpoints[1] == (step, 2 * step * step)
        assert pl_eval(cum, R(1, 4)) == R(1, 8)
        out = partition_densities(("pl", tent), ("pl", tent), 1)
        assert out.result.dx == out.result.dy

    def test_bad_total_mass_rejected(self):
        bad = ("step", [R(0), R(1)], [R(2)])
        with pytest.raises(PreconditionError) as err:
            partition_densities(bad, bad, 1)
        assert err.value.witness == 2

    def test_leading_zero_mass_rejected(self):
        bad = ("step", [R(0), R(1, 2), R(1)], [R(0), R(2)])
        good = ("step", [R(0), R(1)], [R(1)])
        with pytest.raises(PreconditionError) as err:
            partition_densities(bad, good, 1)
        assert str(err.value) == "density f has no mass on [0, 1/2]"

    def test_trailing_zero_mass_rejected(self):
        bad = ("step", [R(0), R(1, 2), R(1)], [R(2), R(0)])
        good = ("step", [R(0), R(1)], [R(1)])
        with pytest.raises(PreconditionError) as err:
            partition_densities(good, bad, 1)
        assert str(err.value) == "density g has no mass on [1/2, 1]"
        assert err.value.witness == R(1, 2)

    def test_step_cumulative_values(self):
        cum = step_cumulative([R(0), R(1, 2), R(1)], [R(3, 2), R(1, 2)])
        assert pl_eval(cum, R(1, 2)) == R(3, 4)
        assert pl_eval(cum, 1) == 1


def _step_mass(dens, a, b):
    _, knots, values = dens
    total = R(0)
    for (k0, k1), v in zip(zip(knots, knots[1:]), values):
        lo, hi = max(k0, a), min(k1, b)
        if lo < hi:
            total += v * (hi - lo)
    return total
