import hashlib
import json
import math
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
                rec = conjecture_search(c, n, theta, grid=2000,
                                        tol=R(1, 10**6))
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
            dx = [b[0] - a[0] for a, b in zip(rec.points, rec.points[1:])]
            dy = [b[1] - a[1] for a, b in zip(rec.points, rec.points[1:])]
            for i in range(3):
                assert abs(float(dy[i]) - float(dx[(i - 2) % 3])) < 1e-5

    @pytest.mark.parametrize("n", [3, 4])
    def test_shift_two_forces_the_chased_points(self, n):
        # with k = 2 < n, the relations dy_j = dx_{j-2}, j = 2..n-1, force
        # the points after the two free ones
        tol = R(1, 10**6)
        found = 0
        for seed in range(4):
            c = random_curve(seed, vertices=5, curve_class="deltaInterior")
            rec = conjecture_search(c, n, CyclicPermutation(size=n + 1,
                                                            shift=2), tol=tol)
            if rec.outcome != "found":
                continue
            found += 1
            assert len(rec.points) == n + 2
            assert verify(c, rec.points, tol).ok
            dx = [b[0] - a[0] for a, b in zip(rec.points, rec.points[1:])]
            dy = [b[1] - a[1] for a, b in zip(rec.points, rec.points[1:])]
            for i in range(n + 1):
                assert abs(dy[i] - dx[(i - 2) % (n + 1)]) <= float(tol)
        assert found >= 1

    def test_fixed_high_shift_set(self):
        # 500 trials: seeds 0-49, two curve classes, n 2-4, shifts 2-3.
        # scipy's hybr polish from the best coarse combo found 318 of them;
        # Newton from eight starts, halving infeasible steps, finds 450
        tol = R(1, 10**6)
        found = 0
        for seed in range(50):
            for vertices, cls in ((5, "deltaInterior"), (6, "interior")):
                c = random_curve(seed, vertices=vertices, curve_class=cls)
                for n in (2, 3, 4):
                    for shift in range(2, min(n, 3) + 1):
                        rec = conjecture_search(
                            c, n, CyclicPermutation(size=n + 1, shift=shift),
                            grid=200, tol=tol)
                        if rec.outcome != "found":
                            continue
                        found += 1
                        dx, dy = increments(rec.points)
                        assert all(d > 0 for d in dx + dy)
                        assert _shift_residual(dx, dy, shift) <= float(tol)
        assert found >= 450

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
        assert rec.points == tuple((float(v), float(v)) for v in picks)

    def test_theta_size_must_match(self):
        with pytest.raises(PreconditionError):
            conjecture_search(diagonal_curve(), 2,
                              CyclicPermutation(size=5, shift=1))


class TestNewtonPolish:
    def test_solve_linear_pivots(self):
        # a zero on the diagonal needs a row swap
        a = [[0.0, 2.0, 1.0], [1.0, 1.0, 0.0], [2.0, 0.0, 3.0]]
        x = explore._solve_linear(a, [7.0, 3.0, 11.0])
        assert x == pytest.approx([1.0, 2.0, 3.0])

    def test_solve_linear_singular_is_none(self):
        assert explore._solve_linear([[1.0, 2.0], [2.0, 4.0]],
                                     [1.0, 2.0]) is None
        assert explore._solve_linear([[0.0, 0.0], [0.0, 0.0]],
                                     [1.0, 1.0]) is None

    def test_singular_jacobian_ends_the_polish(self, monkeypatch):
        # a residual that does not move with the free points has a zero
        # Jacobian: every start gives up instead of raising
        monkeypatch.setattr(explore, "_theta_residuals",
                            lambda s, k, frees, ch: ([0.5] * k, ()))
        c = random_curve(0, vertices=5, curve_class="deltaInterior")
        assert explore._newton(4, 2, [0.25, 0.5], None, 1e-6) is None
        assert explore._search_high_shift(c, 4, 2, 200, 1e-6) == (None, None)

    def test_infeasible_step_is_halved(self, monkeypatch):
        # from 0.1 a full Newton step on atan(5 (f - 1/2)) lands beyond 1,
        # outside the feasible box; halving it reaches the root
        def residuals(s, k, frees, ch):
            if not all(0 <= f <= 1 for f in frees):
                return None, None
            return [math.atan(5 * (f - 0.5)) for f in frees], tuple(frees)

        monkeypatch.setattr(explore, "_theta_residuals", residuals)
        pts, score = explore._newton(4, 2, [0.1, 0.15], None, 1e-6)
        assert pts == pytest.approx((0.5, 0.5)) and score <= 1e-6
        monkeypatch.setattr(explore, "NEWTON_HALVINGS", 0)
        assert explore._newton(4, 2, [0.1, 0.15], None, 1e-6) is None

    def test_rejected_hit_moves_on_to_the_next_start(self, monkeypatch):
        # a start that converges to points out of order is not the answer;
        # the next start's accepted hit is (dy is dx shifted by 2)
        out_of_order = [(0.0, 0.0), (0.5, 0.3), (0.2, 0.8), (1.0, 1.0)]
        accepted = [(0.0, 0.0), (0.2, 0.3), (0.5, 0.8), (1.0, 1.0)]
        hits = iter([(out_of_order, 0.0), (accepted, 0.0)])
        monkeypatch.setattr(explore, "_newton",
                            lambda s, k, frees, ch, tol_f: next(hits))
        c = random_curve(0, vertices=5, curve_class="deltaInterior")
        assert explore._search_high_shift(c, 3, 2, 200, 1e-6) == (accepted, 0.0)


class TestBatch:
    CONFIG = {
        "seeds": {"start": 0, "count": 4},
        "curves": [{"vertices": 5, "class": "deltaInterior"}],
        "n": [1, 2],
        "shifts": [0, 1],
        "grid": 400,
        "tol": "1/1000000",
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
        "tol": "1/1000000",
    }
    SHA256 = "dec7218c3c128be4c75011969c2617655a66d9e35da6b782c43a2e6d3325636a"

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
