import operator
import random

import pytest
from hypothesis import given, settings, strategies as st

from curvepart import (
    DomainError,
    PLFunction,
    PreconditionError,
    compose,
    identity,
    level_set,
    pl_eval,
)
from curvepart.plfun import (
    canonical,
    clamp_to_unit,
    pl_combine,
    pl_scale_values,
    pl_sub,
    pl_window,
    union_knot_values,
)
from curvepart.scalar import rat

from util import (
    critical_levels,
    eval_grid_equal,
    insert_flats,
    naive_level_solutions,
    rand_profile,
)

R = rat


def F(*bps):
    return PLFunction(bps)


ZIGZAG = F((0, 0), (R(1, 3), R(2, 3)), (R(2, 3), R(1, 3)), (1, 1))
FLATTOP = F((0, 0), (R(1, 2), 1), (1, 1))


class TestEval:
    def test_identity(self):
        assert pl_eval(identity(), R(1, 3)) == R(1, 3)

    def test_midpoint_of_linear_piece(self):
        assert pl_eval(FLATTOP, R(1, 4)) == R(1, 2)

    def test_flat_piece(self):
        assert pl_eval(FLATTOP, R(3, 4)) == 1

    def test_domain_error(self):
        with pytest.raises(DomainError):
            pl_eval(FLATTOP, R(3, 2))
        with pytest.raises(DomainError):
            pl_eval(FLATTOP, R(-1, 2))

    def test_breakpoint_values(self):
        for t, v in ZIGZAG.breakpoints:
            assert pl_eval(ZIGZAG, t) == v


class TestCanonicalForm:
    def test_collinear_breakpoint_removed(self):
        f = F((0, 0), (R(1, 2), R(1, 2)), (1, 1))
        assert f == identity()
        assert len(f.breakpoints) == 2

    def test_flat_run_merges(self):
        f = F((0, 0), (R(1, 4), R(1, 2)), (R(1, 2), R(1, 2)),
              (R(3, 4), R(1, 2)), (1, 1))
        assert len(f.breakpoints) == 4

    def test_kinks_survive(self):
        assert len(ZIGZAG.breakpoints) == 4

    @pytest.mark.parametrize("ts, at", [
        ((0, R(1, 2), R(1, 2), 1), "1/2"),
        ((0, R(2, 3), R(1, 3), 1), "1/3"),
        # 1/4 is dropped as collinear once 1/2 is read; 1/3 still meets 1/2
        ((0, R(1, 4), R(1, 2), R(1, 3), 1), "1/3"),
    ])
    def test_times_must_strictly_increase(self, ts, at):
        with pytest.raises(PreconditionError,
                           match=f"^breakpoint times not strictly increasing at t={at}$"):
            F(*((t, t) for t in ts))


@st.composite
def joint_rows(draw):
    """Rows (t, a(t), b(t)) of two PL functions on shared times.  Slopes
    come from a small set, so collinear runs are common; on each piece b
    runs with a, stays flat (a flat shared with a flat of a), mirrors a
    about a fixed sum slope (a + b stays straight where a and b bend), or
    takes a slope of its own."""
    gaps = draw(st.lists(st.integers(1, 3), min_size=1, max_size=14))
    total = sum(gaps)
    sum_slope = draw(st.sampled_from((0, 1, 2)))
    ts, a, b = [R(0)], [R(draw(st.integers(0, 4)), 4)], [R(0)]
    for gap in gaps:
        sa = draw(st.sampled_from((-1, 0, 1, 2)))
        sb = draw(st.sampled_from(("with", "flat", "mirror", "own")))
        sb = {"with": sa, "flat": 0, "mirror": sum_slope - sa}.get(
            sb, draw(st.sampled_from((-1, 0, 1))))
        dt = R(gap, total)
        ts.append(ts[-1] + dt)
        a.append(a[-1] + sa * dt)
        b.append(b[-1] + sb * dt)
    return list(zip(ts, a, b))


class TestJointCanonicalForm:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(joint_rows())
    def test_keeps_the_union_of_both_canonical_forms(self, rows):
        fa = PLFunction([(t, v) for t, v, _ in rows])
        fb = PLFunction([(t, v) for t, _, v in rows])
        out = canonical(rows)
        # row for row, with exact values, and the input's own tuples
        assert out == union_knot_values(fa, fb)
        assert all(any(r is q for q in rows) for r in out)

    def test_bend_that_cancels_in_the_sum_stays(self):
        # a bends up and b down at 1/2, so a + b is straight there
        rows = [(R(0), R(0), R(0)), (R(1, 2), R(1, 2), R(0)),
                (R(1), R(1, 2), R(1, 2))]
        assert canonical(rows) == rows
        assert canonical([(t, a + b) for t, a, b in rows]) == [
            (R(0), R(0)), (R(1), R(1))]

    def test_shared_collinear_row_goes(self):
        rows = [(R(0), R(0), R(1)), (R(1, 3), R(1, 3), R(1)),
                (R(1), R(1), R(1))]
        assert canonical(rows) == [rows[0], rows[2]]


class TestCompose:
    def test_identity_outer(self):
        assert compose(identity(), ZIGZAG) == ZIGZAG

    def test_identity_inner(self):
        assert compose(ZIGZAG, identity()) == ZIGZAG

    def test_halfspeed_cancels_doubling(self):
        outer = FLATTOP
        inner = F((0, 0), (1, R(1, 2)))
        assert compose(outer, inner) == identity()

    def test_pointwise_oracle_on_zigzags(self):
        outer = ZIGZAG
        inner = F((0, 0), (R(1, 4), R(3, 4)), (R(1, 2), R(1, 4)), (1, 1))
        comp = compose(outer, inner)
        for k in range(101):
            t = R(k, 100)
            assert pl_eval(comp, t) == pl_eval(outer, pl_eval(inner, t))

    def test_range_escape_rejected(self):
        inner = F((0, 0), (R(1, 2), R(3, 2)), (1, 1))
        with pytest.raises(DomainError):
            compose(identity(), inner)

    @pytest.mark.parametrize("bad", (R(-1, 2), R(3, 2)))
    def test_range_escape_message(self, bad):
        inner = F((0, 0), (R(1, 4), 1), (R(1, 2), bad), (1, 1))
        with pytest.raises(DomainError) as err:
            compose(identity(), inner)
        lo, hi = min(inner.values), max(inner.values)
        assert str(err.value) == f"inner range [{lo}, {hi}] escapes [0,1]"

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.integers(0, 10**6), st.integers(1, 5), st.integers(1, 5))
    def test_compose_matches_pointwise_eval(self, seed, k1, k2):
        rng = random.Random(seed)
        outer = rand_profile(rng, k1)
        inner = rand_profile(rng, k2)
        comp = compose(outer, inner)
        for j in range(0, 33):
            t = R(j, 32)
            assert pl_eval(comp, t) == pl_eval(outer, pl_eval(inner, t))


class TestLevelSet:
    def test_identity_half(self):
        assert level_set(identity(), R(1, 2)) == [(R(1, 2), R(1, 2))]

    def test_flat_at_level(self):
        assert level_set(FLATTOP, 1) == [(R(1, 2), R(1, 1))]

    def test_zigzag_three_roots(self):
        # per-piece linear solve oracle: pieces cross 1/2 at 1/4, 1/2, 3/4
        expected = naive_level_solutions(ZIGZAG, R(1, 2))
        assert expected == [(R(1, 4), R(1, 4)), (R(1, 2), R(1, 2)),
                            (R(3, 4), R(3, 4))]
        assert level_set(ZIGZAG, R(1, 2)) == expected

    def test_no_solutions(self):
        assert level_set(ZIGZAG, 2) == []

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.integers(0, 10**6), st.integers(0, 6), st.integers(0, 3),
           st.integers(0, 32))
    def test_complete_against_naive_oracle(self, seed, folds, flats, cnum):
        # flats put shelves at breakpoint values; those levels are tested
        # beside a grid level
        rng = random.Random(seed)
        f = insert_flats(rng, rand_profile(rng, folds), flats)
        for c in (R(cnum, 32), rng.choice(f.values)):
            assert level_set(f, c) == naive_level_solutions(f, c)


class TestHelpers:
    def test_pl_add_sub(self):
        s = pl_combine(ZIGZAG, identity(), operator.add)
        d = pl_sub(s, identity())
        assert d == ZIGZAG

    def test_scale_values(self):
        g = pl_scale_values(identity(), R(-1), 1)
        assert pl_eval(g, R(1, 4)) == R(3, 4)

    def test_compress_param(self):
        g = pl_window(ZIGZAG, 0, R(1, 3))
        assert eval_grid_equal(
            g, F((0, 0), (1, R(2, 3))), steps=64
        )

    def test_clamp(self):
        f = F((0, 0), (R(1, 2), R(3, 2)), (1, 1))
        g = clamp_to_unit(f)
        lo, hi = min(g.values), max(g.values)
        assert lo == 0 and hi == 1
        assert pl_eval(g, R(1, 2)) == 1

    def test_critical_levels_include_flats(self):
        assert critical_levels(FLATTOP) == [R(1)]
        assert critical_levels(ZIGZAG) == [R(1, 3), R(2, 3)]
