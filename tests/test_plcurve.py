import random

import pytest

from curvepart import (
    Intersection,
    PLCurve,
    PreconditionError,
    curve_intersections,
    diagonal_curve,
    normalize_tail,
)
from curvepart.plcurve import (
    curve_from_functions,
    is_lower_triangle_interior,
    is_unit_interior,
    point_curve_distance_sq,
    point_on_curve,
    require_endpoints,
    swap_curve,
)
from curvepart.plfun import PLFunction
from curvepart.scalar import rat

from util import segment_pairs_hits

R = rat


def C(knots, verts):
    return PLCurve(knots, verts)


ANTIDIAG = C([0, 1], [(0, 1), (1, 0)])
BENT = C([0, R(1, 2), 1], [(0, 0), (R(4, 5), R(1, 5)), (1, 1)])


class TestConstruction:
    def test_component_functions(self):
        assert BENT.x_function().breakpoints == (
            (R(0), R(0)), (R(1, 2), R(4, 5)), (R(1), R(1)))
        assert BENT.y_function()(R(1, 4)) == R(1, 10)

    def test_canonical_keeps_parameter_kinks(self):
        # spatially collinear but with a speed change: the knot must stay
        c = C([0, R(1, 4), 1], [(0, 0), (R(1, 2), R(1, 2)), (1, 1)])
        assert len(c.knots) == 3

    def test_canonical_drops_redundant_knot(self):
        c = C([0, R(1, 2), 1], [(0, 0), (R(1, 2), R(1, 2)), (1, 1)])
        assert c == diagonal_curve()

    def test_coordinate_functions_are_stored(self):
        fx, fy = BENT.x_function(), BENT.y_function()
        assert BENT.x_function() is fx and BENT.y_function() is fy
        swapped = swap_curve(BENT)
        assert swapped.x_function() is fy and swapped.y_function() is fx
        joined = curve_from_functions(fy, fx)
        assert joined.x_function() is fy and joined == swapped

    def test_stored_functions_match_knots_and_vertices(self):
        rng = random.Random(3)
        for _ in range(50):
            inner = sorted(rng.sample(range(1, 32), rng.randint(0, 7)))
            ts = [R(0)] + [R(k, 32) for k in inner] + [R(1)]
            vs = ([(R(0), R(0))]
                  + [(R(rng.randint(1, 7), 8), R(rng.randint(1, 7), 8))
                     for _ in inner]
                  + [(R(1), R(1))])
            c = C(ts, vs)
            # c shrunk onto [1/2, 1]^2 behind a diagonal segment: its tail is c
            head = C([0] + [(1 + t) / 2 for t in ts],
                     [(0, 0)] + [((1 + x) / 2, (1 + y) / 2) for x, y in vs])
            cut, anchor = normalize_tail(head, R(1, 2))
            assert cut == c and anchor == R(1, 2)
            for curve in (c, swap_curve(c), cut):
                fx = PLFunction(zip(curve.knots, (p[0] for p in curve.vertices)))
                fy = PLFunction(zip(curve.knots, (p[1] for p in curve.vertices)))
                assert curve.x_function() == fx and curve.y_function() == fy

    def test_rejects_bad_knots(self):
        with pytest.raises(PreconditionError):
            C([0, R(1, 2), R(1, 2), 1], [(0, 0), (0, 1), (1, 0), (1, 1)])
        with pytest.raises(PreconditionError):
            C([0, R(1, 2)], [(0, 0), (1, 1)])
        with pytest.raises(PreconditionError):
            C([0, R(1, 2), 1], [(0, 0), (1, 1)])


class TestIntersections:
    def test_diagonals_cross_at_center(self):
        hits = curve_intersections(diagonal_curve(), ANTIDIAG)
        assert len(hits) == 1
        hit = hits[0]
        assert isinstance(hit, Intersection)
        assert hit.point == (R(1, 2), R(1, 2))
        assert hit.t_a == R(1, 2) and hit.t_b == R(1, 2)

    def test_disjoint_parallel_segments(self):
        a = C([0, 1], [(0, 0), (1, 0)])
        b = C([0, 1], [(0, R(1, 2)), (1, R(1, 2))])
        assert curve_intersections(a, b) == []

    def test_bent_curve_vs_diagonal(self):
        # the two meet at both ends: the one earliest on `a` comes back
        hit, = curve_intersections(diagonal_curve(), BENT)
        assert (hit.t_a, hit.t_b, hit.point) == (0, 0, (0, 0))
        backward = C([0, 1], [(1, 1), (0, 0)])
        hit, = curve_intersections(backward, BENT)
        assert (hit.t_a, hit.t_b, hit.point) == (0, 1, (1, 1))
        # the all-pairs float oracle finds these two points and no other
        assert segment_pairs_hits(diagonal_curve(), BENT) == {(0.0, 0.0),
                                                             (1.0, 1.0)}

    def test_collinear_overlap_meets_at_its_start(self):
        a = diagonal_curve()
        b = C([0, R(1, 2), 1],
              [(R(1, 4), R(1, 4)), (R(3, 4), R(3, 4)), (1, 0)])
        start = (R(1, 4), R(1, 4))
        assert curve_intersections(a, b) == [Intersection(R(1, 4), 0, start)]
        # b reaches the overlap's start twice: the tie on `a` keeps the
        # smaller parameter on b, whether that is the overlap's or a crossing's
        after = C([0, R(1, 3), R(2, 3), 1],
                  [start, (R(3, 4), R(3, 4)), (R(1, 4), 1), start])
        before = C([0, R(1, 4), R(1, 2), 1],
                   [start, (0, 1), start, (R(3, 4), R(3, 4))])
        for b in (after, before):
            assert curve_intersections(a, b) == [
                Intersection(R(1, 4), 0, start)]
        assert curve_intersections(before, a) == [
            Intersection(0, R(1, 4), start)]

    def test_symmetry(self):
        # each direction's earliest meeting is also a meeting of the other
        # direction, so it lies no earlier on that direction's first curve
        met = 0
        for seed in range(5):
            rng = random.Random(seed)
            a = _rand_curve(rng)
            b = _rand_curve(rng)
            fwd = curve_intersections(a, b)
            rev = curve_intersections(b, a)
            assert len(fwd) == len(rev) <= 1
            for f, r in zip(fwd, rev):
                assert f.point == a(f.t_a) == b(f.t_b)
                assert r.point == b(r.t_a) == a(r.t_b)
                assert f.t_a <= r.t_b and r.t_a <= f.t_b
                met += 1
        assert met


def _rand_curve(rng, nv=5):
    knots = [R(0)] + sorted(
        R(rng.randrange(1, 63), 64) for _ in range(nv - 2)) + [R(1)]
    while len(set(knots)) != len(knots):
        knots = [R(0)] + sorted(
            R(rng.randrange(1, 63), 64) for _ in range(nv - 2)) + [R(1)]
    verts = [(R(rng.randrange(0, 65), 64), R(rng.randrange(0, 65), 64))
             for _ in range(nv)]
    return PLCurve(knots, verts)


class TestPointQueries:
    def test_point_on_curve(self):
        assert point_on_curve(BENT, (R(2, 5), R(1, 10)))
        assert not point_on_curve(BENT, (R(2, 5), R(1, 5)))

    def test_distance_squared(self):
        d2 = point_curve_distance_sq(diagonal_curve(), (R(1), R(0)))
        assert d2 == R(1, 2)


class TestRegions:
    def test_unit_interior(self):
        assert is_unit_interior(BENT)
        assert is_unit_interior(diagonal_curve())
        boundary = C([0, R(1, 2), 1], [(0, 0), (1, 0), (1, 1)])
        assert not is_unit_interior(boundary)

    def test_lower_triangle(self):
        assert is_lower_triangle_interior(BENT)
        assert not is_lower_triangle_interior(diagonal_curve())
        above = C([0, R(1, 2), 1], [(0, 0), (R(1, 5), R(4, 5)), (1, 1)])
        assert not is_lower_triangle_interior(above)


class TestEndpoints:
    def test_unit_endpoints_accepted(self):
        require_endpoints(BENT)

    def test_other_endpoints_refused(self):
        short = C([0, 1], [(0, 0), (1, R(1, 2))])
        with pytest.raises(PreconditionError) as err:
            require_endpoints(short)
        assert str(err.value) == (
            f"curve endpoints {(R(0), R(0))} .. {(R(1), R(1, 2))} differ "
            f"from required {(R(0), R(0))} .. {(R(1), R(1))}")


class TestNormalizeTail:
    def test_cut_at_zero_is_identity(self):
        eta, anchor = normalize_tail(BENT, 0)
        assert eta == BENT and anchor == 0

    def test_straight_tail_maps_to_diagonal(self):
        c = C([0, R(1, 2), 1],
              [(0, 0), (R(1, 2), R(1, 2)), (1, 1)])
        eta, anchor = normalize_tail(c, R(1, 2))
        assert anchor == R(1, 2)
        assert eta == diagonal_curve()

    def test_componentwise_affine(self):
        c = C([0, R(1, 2), R(3, 4), 1],
              [(0, 0), (R(1, 2), R(1, 2)), (R(3, 4), R(5, 8)), (1, 1)])
        eta, anchor = normalize_tail(c, R(1, 2))
        assert eta.vertices == ((R(0), R(0)), (R(1, 2), R(1, 4)), (R(1), R(1)))

    def test_inverse_restores_tail(self):
        c = C([0, R(1, 4), R(1, 2), R(3, 4), 1],
              [(0, 0), (R(1, 5), R(2, 5)), (R(1, 2), R(1, 2)),
               (R(4, 5), R(3, 5)), (1, 1)])
        eta, anchor = normalize_tail(c, R(1, 2))
        for t_eta, (x, y) in zip(eta.knots, eta.vertices):
            back = (anchor + x * (1 - anchor), anchor + y * (1 - anchor))
            t_orig = R(1, 2) + t_eta * R(1, 2)
            assert c(t_orig) == back

    def test_off_diagonal_cut_rejected(self):
        with pytest.raises(PreconditionError):
            normalize_tail(BENT, R(1, 2))

    @pytest.mark.parametrize("t_cut", (R(-1, 2), R(1), R(3, 2)))
    def test_cut_outside_the_unit_interval_rejected(self, t_cut):
        with pytest.raises(PreconditionError):
            normalize_tail(BENT, t_cut)

    def test_swap(self):
        assert swap_curve(BENT).vertices[1] == (R(1, 5), R(4, 5))
        assert swap_curve(swap_curve(BENT)) == BENT
