import hashlib
import json
import sys

import pytest

from curvepart import (
    CyclicPermutation,
    InputError,
    PLCurve,
    PreconditionError,
    batch,
    brute_force,
    conjecture_search,
    diagonal_curve,
    random_curve,
    verify,
)
from curvepart import explore
from curvepart.pipeline import _shift_residual, increments
from curvepart.plcurve import is_lower_triangle_interior, is_unit_interior
from curvepart.scalar import rat

R = rat


class TestRandomCurve:
    def test_deterministic(self):
        a = random_curve(42, vertices=5, curve_class="deltaInterior")
        b = random_curve(42, vertices=5, curve_class="deltaInterior")
        assert a == b

    def test_delta_interior_membership(self):
        for seed in range(20):
            c = random_curve(seed, vertices=6, curve_class="deltaInterior")
            assert is_lower_triangle_interior(c)
            # dense parameter scan stays strictly below the diagonal
            for k in range(1, 64):
                x, y = c(R(k, 64))
                assert 0 < y < x < 1

    def test_single_bend(self):
        c = random_curve(1, vertices=3, curve_class="deltaInterior")
        assert len(c.vertices) == 3
        assert is_lower_triangle_interior(c)

    def test_interior_membership(self):
        for seed in range(10):
            c = random_curve(seed, vertices=5, curve_class="interior")
            assert is_unit_interior(c)

    def test_planar_only_endpoints_pinned(self):
        c = random_curve(7, vertices=8, curve_class="planar")
        assert c.vertices[0] == (0, 0) and c.vertices[-1] == (1, 1)

    def test_bad_specs(self):
        with pytest.raises(PreconditionError):
            random_curve(0, vertices=1)
        with pytest.raises(PreconditionError):
            random_curve(0, vertices=2, curve_class="deltaInterior")

    def test_unknown_class(self):
        with pytest.raises(InputError) as err:
            random_curve(0, vertices=4, curve_class="spiral")
        assert str(err.value) == "unknown curve class 'spiral'"


@pytest.mark.parametrize("size, shift", [(3, 3), (3, -1), (1, 1)])
def test_cyclic_permutation_range(size, shift):
    with pytest.raises(PreconditionError) as err:
        CyclicPermutation(size=size, shift=shift)
    assert str(err.value) == "shift must satisfy 0 <= shift < size"


class TestConjectureSearch:
    def test_shift_one_agrees_with_brute_force(self):
        for seed in range(6):
            c = random_curve(seed, vertices=5, curve_class="deltaInterior")
            for n in (1, 2):
                theta = CyclicPermutation(size=n + 1, shift=1)
                rec = conjecture_search(c, n, theta, grid=2000)
                brute = brute_force(c, n - 1)
                assert (rec.outcome == "found") == bool(brute), (seed, n)

    def test_identity_shift_on_diagonal(self):
        theta = CyclicPermutation(size=3, shift=0)
        rec = conjecture_search(diagonal_curve(), 2, theta)
        assert rec.outcome == "found"
        assert rec.points[1] == (pytest.approx(1 / 3), pytest.approx(1 / 3))

    def test_identity_shift_below_diagonal_not_found(self):
        c = random_curve(3, vertices=5, curve_class="deltaInterior")
        rec = conjecture_search(c, 2, CyclicPermutation(size=3, shift=0))
        assert rec.outcome == "notFound"

    def test_shift_two_records_outcome(self):
        c = random_curve(11, vertices=6, curve_class="deltaInterior")
        rec = conjecture_search(c, 2, CyclicPermutation(size=3, shift=2),
                                grid=900)
        assert rec.outcome in ("found", "notFound")
        if rec.outcome == "found":
            dx, dy = increments(rec.points)
            for i in range(3):
                assert dy[i] == dx[(i - 2) % 3]

    @pytest.mark.parametrize("n", [3, 4])
    def test_shift_two_forces_the_chased_points(self, n):
        # with k = 2 < n, the relations dy_j = dx_{j-2}, j = 2..n-1, force
        # the points after the two free ones
        found = 0
        for seed in range(4):
            c = random_curve(seed, vertices=5, curve_class="deltaInterior")
            rec = conjecture_search(c, n, CyclicPermutation(size=n + 1,
                                                            shift=2))
            if rec.outcome != "found":
                continue
            found += 1
            assert len(rec.points) == n + 2
            assert verify(c, rec.points, 0).ok
            dx, dy = increments(rec.points)
            for i in range(n + 1):
                assert dy[i] == dx[(i - 2) % (n + 1)]
        assert found >= 1

    def test_fixed_high_shift_set(self):
        # 500 trials: seeds 0-49, two curve classes, n 2-4, shifts 2-3.
        # scipy's hybr polish from the best coarse combo found 318 of them;
        # exact Newton from eight starts, halving infeasible steps, finds
        # 413 exact partitions.  A float search's 37 more finds were float
        # neighbours of degenerate partitions, with increments exactly 0
        found = 0
        for seed in range(50):
            for vertices, cls in ((5, "deltaInterior"), (6, "interior")):
                c = random_curve(seed, vertices=vertices, curve_class=cls)
                for n in (2, 3, 4):
                    for shift in range(2, min(n, 3) + 1):
                        rec = conjecture_search(
                            c, n, CyclicPermutation(size=n + 1, shift=shift),
                            grid=200)
                        if rec.outcome != "found":
                            continue
                        found += 1
                        assert verify(c, rec.points, 0).ok
                        dx, dy = increments(rec.points)
                        assert all(d > 0 for d in dx + dy)
                        assert _shift_residual(dx, dy, shift) == 0
        assert found >= 413

    def test_degenerate_root_is_not_found(self, monkeypatch):
        # a float search reported this trial found, with a smallest
        # increment of 7.06e-9: its points neighbour a degenerate
        # partition.  Exact Newton reaches such roots, with increments
        # exactly 0, and rejects them
        roots = []
        real = explore._newton

        def spy(s, k, frees, curve):
            pts = real(s, k, frees, curve)
            roots.append(pts)
            return pts

        monkeypatch.setattr(explore, "_newton", spy)
        c = random_curve(2, vertices=5, curve_class="deltaInterior")
        rec = conjecture_search(c, 3, CyclicPermutation(size=4, shift=2),
                                grid=200)
        assert rec.outcome == "notFound" and rec.points == ()
        degenerate = [pts for pts in roots if pts is not None]
        assert degenerate
        for pts in degenerate:
            dx, dy = increments(pts)
            assert _shift_residual(dx, dy, 2) == 0
            assert min(dx + dy) == 0

    def test_identity_shift_spreads_over_diagonal_contacts(self):
        # contacts with y = x: the two ends and the segment (3/5) .. (4/5)
        c = PLCurve([0, R(1, 5), R(2, 5), R(3, 5), R(4, 5), 1],
                    [(0, 0), (R(1, 2), R(1, 4)), (R(3, 5), R(3, 5)),
                     (R(4, 5), R(4, 5)), (R(9, 10), R(1, 2)), (1, 1)])
        rec = conjecture_search(c, 2, CyclicPermutation(size=3, shift=0))
        assert rec.outcome == "found"
        # candidates 0, the segment cut in thirds, 1; four picks spread
        # over those six
        picks = [R(0), R(2, 3), R(11, 15), R(1)]
        assert rec.points == tuple((v, v) for v in picks)

    def test_theta_size_must_match(self):
        with pytest.raises(PreconditionError):
            conjecture_search(diagonal_curve(), 2,
                              CyclicPermutation(size=5, shift=1))


class TestNewtonPolish:
    def test_solve_linear_pivots(self):
        # a zero on the diagonal needs a row swap; the solve is exact
        a = [[R(0), R(2), R(1)], [R(1), R(1), R(0)], [R(2), R(0), R(3)]]
        x = explore._solve_linear(a, [R(7), R(3), R(11)])
        assert x == [R(1), R(2), R(3)]

    def test_solve_linear_singular_is_none(self):
        assert explore._solve_linear([[R(1), R(2)], [R(2), R(4)]],
                                     [R(1), R(2)]) is None
        assert explore._solve_linear([[R(0), R(0)], [R(0), R(0)]],
                                     [R(1), R(1)]) is None

    def test_jacobian_is_the_chase_slope(self):
        # the chase is affine in each free just right of it, so the slope
        # read off the _Affine chase equals an exact difference quotient
        h = R(1, 2**60)
        checked = 0
        for seed in range(6):
            c = random_curve(seed, vertices=6, curve_class="interior")
            for s, k in ((3, 2), (4, 2), (4, 3)):
                for g in range(1, 7 - k):
                    frees = [R(g + i, 8) for i in range(k)]
                    res, _ = explore._theta_residuals(s, k, frees, c)
                    jac = explore._jacobian(s, k, frees, c)
                    if res is None or jac is None:
                        continue
                    for i in range(k):
                        moved = frees[:i] + [frees[i] + h] + frees[i + 1:]
                        res_h, _ = explore._theta_residuals(s, k, moved, c)
                        assert [row[i] for row in jac] == [
                            (b - a) / h for a, b in zip(res, res_h)]
                        checked += 1
        assert checked > 50

    def test_singular_jacobian_ends_the_polish(self, monkeypatch):
        # points that do not move with the free ones give mismatches with
        # slope 0: a zero Jacobian, and every start gives up instead of
        # raising
        pts = [(R(0), R(0)), (R(1, 4), R(1, 8)), (R(1, 2), R(1, 2)),
               (R(3, 4), R(5, 8)), (R(1), R(1))]
        monkeypatch.setattr(explore, "_chase", lambda curve, frees, k, s: (
            pts, [R(1, 8), R(-1, 8)]))
        c = random_curve(0, vertices=5, curve_class="deltaInterior")
        frees = [R(1, 4), R(1, 2)]
        assert explore._theta_residuals(4, 2, frees, c) == (
            [R(1, 8), R(-1, 8)], pts)
        assert explore._jacobian(4, 2, frees, c) == [[0, 0], [0, 0]]
        assert explore._newton(4, 2, frees, c) is None
        assert explore._search_high_shift(c, 4, 2, 200) is None

    def test_infeasible_step_is_halved(self, monkeypatch):
        # each mismatch is g(f): slope 1/10 below 1/5, slope 1 from there,
        # with its root at 1/2.  From 1/10 and 3/20 the full Newton step
        # lands beyond 1, outside the feasible box; a quarter of it lands
        # on the slope-1 piece, and the next step on the root
        def g(f):
            if f >= R(1, 5):
                return f - R(1, 2)
            return (f - R(1, 5)) / 10 - R(3, 10)

        def residuals(s, k, frees, curve):
            if not all(0 <= f <= 1 for f in frees):
                return None, None
            return [g(f) for f in frees], tuple(frees)

        def jacobian(s, k, frees, curve):
            return [[(R(1) if f >= R(1, 5) else R(1, 10)) * (i == j)
                     for j in range(k)] for i, f in enumerate(frees)]

        monkeypatch.setattr(explore, "_theta_residuals", residuals)
        monkeypatch.setattr(explore, "_jacobian", jacobian)
        start = [R(1, 10), R(3, 20)]
        assert explore._newton(4, 2, start, None) == (R(1, 2), R(1, 2))
        monkeypatch.setattr(explore, "NEWTON_HALVINGS", 0)
        assert explore._newton(4, 2, start, None) is None

    def test_rejected_hit_moves_on_to_the_next_start(self, monkeypatch):
        # a start that converges to points out of order, or to a
        # degenerate partition with an increment of 0, is not the answer;
        # the next start's accepted hit is (dy is dx shifted by 2)
        out_of_order = [(R(0), R(0)), (R(1, 2), R(3, 10)),
                        (R(1, 5), R(4, 5)), (R(1), R(1))]
        degenerate = [(R(0), R(0)), (R(0), R(0)), (R(1, 2), R(1, 2)),
                      (R(1), R(1))]
        accepted = [(R(0), R(0)), (R(1, 5), R(3, 10)), (R(1, 2), R(4, 5)),
                    (R(1), R(1))]
        hits = iter([out_of_order, degenerate, accepted])
        monkeypatch.setattr(explore, "_newton",
                            lambda s, k, frees, curve: next(hits))
        c = random_curve(0, vertices=5, curve_class="deltaInterior")
        assert explore._search_high_shift(c, 3, 2, 200) == accepted


class TestBatch:
    CONFIG = {
        "seeds": {"start": 0, "count": 4},
        "curves": [{"vertices": 5, "class": "deltaInterior"}],
        "n": [1, 2],
        "shifts": [0, 1],
        "grid": 400,
    }

    def test_batch_writes_records_and_summary(self, tmp_path):
        log = tmp_path / "trials.jsonl"
        batch(self.CONFIG, str(log))
        lines = [json.loads(b) for b in log.read_text().splitlines()]
        assert len(lines) == 4 * 2 * 2
        for rec in lines:
            assert rec["outcome"] in ("found", "notFound", "error")
            assert (rec["error"] is None) == (rec["outcome"] != "error")
        summary = json.loads((tmp_path / "trials.jsonl.summary.json").read_text())
        counts = summary["counts"]
        assert counts["found"] + counts["notFound"] + counts["error"] == len(lines)

    def test_rerun_is_idempotent(self, tmp_path):
        log = tmp_path / "trials.jsonl"
        batch(self.CONFIG, str(log))
        first = log.read_text()
        batch(self.CONFIG, str(log))
        assert log.read_text() == first

    def test_found_records_reverify_from_log_alone(self, tmp_path):
        log = tmp_path / "trials.jsonl"
        batch(self.CONFIG, str(log))
        from curvepart import verify

        for line in log.read_text().splitlines():
            rec = json.loads(line)
            if rec["outcome"] != "found":
                continue
            curve = PLCurve(
                [R(str(t)) for t in rec["curve"]["knots"]],
                [(R(str(x)), R(str(y))) for x, y in rec["curve"]["points"]],
            )
            pts = [(R(str(x)), R(str(y))) for x, y in rec["points"]]
            rep = verify(curve, pts, tol=R(1, 10**4))
            assert rep.ok

    def test_log_deterministic_modulo_walltime(self, tmp_path):
        log_a = tmp_path / "a.jsonl"
        log_b = tmp_path / "b.jsonl"
        batch(self.CONFIG, str(log_a))
        batch(self.CONFIG, str(log_b))

        def strip(path):
            rows = []
            for line in path.read_text().splitlines():
                rec = json.loads(line)
                rec.pop("wallTime")
                rows.append(rec)
            return rows

        assert strip(log_a) == strip(log_b)

    def test_error_record_keeps_exception(self, tmp_path, monkeypatch):
        from curvepart import explore

        def fail(curve, n, theta, **kwargs):
            raise ValueError(f"no search at n={n}")

        monkeypatch.setattr(explore, "conjecture_search", fail)
        config = dict(self.CONFIG, seeds=[3], n=[2], shifts=[1])
        log = tmp_path / "trials.jsonl"
        batch(config, str(log))
        (rec,) = [json.loads(b) for b in log.read_text().splitlines()]
        assert rec["outcome"] == "error"
        assert rec["error"] == "ValueError: no search at n=2"
        assert rec["curveSpec"] == config["curves"][0]
        assert rec["seed"] == 3 and rec["theta"] == {"size": 3, "shift": 1}
        summary = json.loads((tmp_path / "trials.jsonl.summary.json").read_text())
        assert summary["counts"]["error"] == 1


    def test_torn_last_line_runs_again(self, tmp_path):
        log = tmp_path / "trials.jsonl"
        batch(self.CONFIG, str(log))
        whole = log.read_bytes()
        log.write_bytes(whole[:-40])
        batch(self.CONFIG, str(log))
        text = log.read_text()
        assert text.endswith("\n")
        rows = [json.loads(b) for b in text.splitlines()]
        assert len(rows) == 4 * 2 * 2
        for rec in rows:
            rec.pop("wallTime")
        reference = [json.loads(b) for b in whole.decode().splitlines()]
        for rec in reference:
            rec.pop("wallTime")
        assert rows == reference
        summary = json.loads((tmp_path / "trials.jsonl.summary.json").read_text())
        assert summary["counts"]["skipped"] == len(rows) - 1

    def test_corrupt_line_is_an_input_error(self, tmp_path):
        # any line but a torn last one must be a trial record (or blank)
        log = tmp_path / "trials.jsonl"
        batch(self.CONFIG, str(log))
        lines = log.read_text().splitlines(keepends=True)
        for bad in ("[1, 2]", "{not json", '"outcome"', '{"outcome": "found"}'):
            lines[2] = bad + "\n"
            log.write_text("".join(lines))
            with pytest.raises(InputError, match="line 3 "):
                batch(self.CONFIG, str(log))


class TestExplorerGolden:
    """Golden bytes of the explorer: the digest of a batch log, wallTime
    dropped, over both bounded curve classes, n 1-3 and shifts 0-3.  It
    reaches every search: the diagonal level set (shift 0), the oracle's
    exact cell walk (shift 1), and the coarse grid and its polish
    (shifts 2 and 3), with found and notFound outcomes."""

    CONFIG = {
        "seeds": {"start": 0, "count": 4},
        "curves": [{"vertices": 5, "class": "deltaInterior"},
                   {"vertices": 6, "class": "interior"}],
        "n": [1, 2, 3],
        "shifts": [0, 1, 2, 3],
        "grid": 200,
    }
    SHA256 = "d827fbbe7f47fc7537f712c37fab135fe31dbc14ce3601cadf13e5d743d7b1b1"

    def test_batch_bytes(self, tmp_path):
        self.check_digest(tmp_path)

    def test_batch_bytes_without_scipy(self, tmp_path, monkeypatch):
        # the bytes do not depend on what else is installed
        for name in [m for m in sys.modules if m.split(".")[0] == "scipy"]:
            monkeypatch.setitem(sys.modules, name, None)
        monkeypatch.setitem(sys.modules, "scipy", None)
        self.check_digest(tmp_path)

    def check_digest(self, tmp_path):
        log = tmp_path / "trials.jsonl"
        batch(self.CONFIG, str(log))
        rows = []
        for line in log.read_text().splitlines():
            rec = json.loads(line)
            rec.pop("wallTime")
            rows.append(rec)
        assert len(rows) == 4 * 2 * (2 + 3 + 4)
        assert {r["outcome"] for r in rows} == {"found", "notFound"}
        text = json.dumps(rows, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == self.SHA256
