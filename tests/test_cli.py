import json
import re
from dataclasses import replace
from fractions import Fraction

import pytest

from curvepart import pipeline
from curvepart.cli import run
from curvepart.fileio import curve_to_obj, dump_json
from curvepart.plfun import PLFunction, pl_eval
from curvepart.scalar import format_rational

from test_pipeline import DIPPING_TAIL


# an empty list, a pair missing its ordinate, a top-level list
MALFORMED_POINTS = (
    {"points": []},
    {"points": [["0/1", "0/1"], ["1/1"]]},
    [["0/1", "0/1"], ["1/1", "1/1"]],
)


@pytest.fixture
def diag_file(tmp_path):
    path = tmp_path / "diag.json"
    dump_json({"knots": ["0/1", "1/1"],
               "points": [["0/1", "0/1"], ["1/1", "1/1"]]}, path)
    return str(path)


@pytest.fixture
def bent_file(tmp_path):
    path = tmp_path / "bent.json"
    dump_json({"knots": ["0/1", "1/2", "1/1"],
               "points": [["0/1", "0/1"], ["4/5", "1/5"], ["1/1", "1/1"]]},
              path)
    return str(path)


@pytest.fixture
def lshape_file(tmp_path):
    path = tmp_path / "lshape.json"
    dump_json({"knots": ["0/1", "1/2", "1/1"],
               "points": [["0/1", "0/1"], ["1/1", "0/1"], ["1/1", "1/1"]]},
              path)
    return str(path)


class TestPartition:
    def test_diagonal_partition(self, diag_file, tmp_path, capsys):
        out = tmp_path / "res.json"
        code = run(["partition", "--input", diag_file, "--n", "2",
                    "--output", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["S"] == 3
        assert doc["dx"] == doc["dy"]
        assert doc["verify"]["pass"] is True

    def test_bent_curve_shift(self, bent_file, tmp_path):
        out = tmp_path / "res.json"
        code = run(["partition", "--input", bent_file, "--n", "2",
                    "--output", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["rearrangement"] == {"shift": 1}
        assert doc["points"][1] == ["4/9", "1/9"]

    def test_counterexample_exit_2(self, lshape_file, tmp_path, capsys):
        code = run(["partition", "--input", lshape_file, "--n", "1"])
        assert code == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"]["type"] == "NonInteriorCurveError"

    def test_join_budget_exhausted_exit_3(self, tmp_path, capsys,
                                          monkeypatch):
        # at tol 0 none of the first three joined cuts snaps back exactly
        path = tmp_path / "dipping.json"
        dump_json(curve_to_obj(DIPPING_TAIL), path)
        monkeypatch.setattr(pipeline, "JOIN_CUTS", 3)
        code = run(["partition", "--input", str(path), "--n", "3",
                    "--tol", "0"])
        assert code == 3
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"]["type"] == "convergence"
        assert err["error"]["message"] == (
            "boundary joining failed to verify within 3 cuts")

    def test_exact_output_only_rationals(self, bent_file, tmp_path):
        out = tmp_path / "res.json"
        run(["partition", "--input", bent_file, "--n", "1",
             "--output", str(out)])
        doc = json.loads(out.read_text())

        def walk(node):
            if isinstance(node, dict):
                for v in node.values():
                    walk(v)
            elif isinstance(node, list):
                for v in node:
                    walk(v)
            elif isinstance(node, str) and node not in (
                    "below", "above", "diagonal"):
                assert re.fullmatch(r"-?\d+/\d+", node), node
            else:
                assert not isinstance(node, float), node

        walk(doc)

    def test_float_mode_output_only_decimals(self, bent_file, tmp_path):
        out = tmp_path / "res.json"
        run(["partition", "--input", bent_file, "--n", "1", "--mode", "float",
             "--output", str(out)])
        doc = json.loads(out.read_text())
        assert isinstance(doc["points"][1][0], float)
        assert all(isinstance(d, float) for d in doc["dx"])

    def test_svg_and_csv(self, bent_file, tmp_path):
        out = tmp_path / "res.json"
        svg = tmp_path / "res.svg"
        csv = tmp_path / "res.csv"
        code = run(["partition", "--input", bent_file, "--n", "1",
                    "--output", str(out), "--svg", str(svg),
                    "--csv", str(csv)])
        assert code == 0
        text = svg.read_text()
        assert text.startswith("<svg") and "polyline" in text
        assert "A1" in text
        rows = csv.read_text().splitlines()
        assert rows[0] == "i,dx,dy"
        assert len(rows) == 3  # header + S = 2 increments

    def test_decimal_rejected_in_exact_mode(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        dump_json({"knots": [0, 1], "points": [[0, 0], [1.0, 1.0]]}, path)
        code = run(["partition", "--input", str(path), "--n", "1"])
        assert code == 1
        assert "allow-inexact" in capsys.readouterr().err

    def test_decimal_allowed_with_flag(self, tmp_path):
        path = tmp_path / "c.json"
        dump_json({"knots": [0, 0.5, 1],
                   "points": [[0, 0], [0.8, 0.2], [1, 1]]}, path)
        out = tmp_path / "res.json"
        code = run(["partition", "--input", str(path), "--n", "2",
                    "--allow-inexact", "--output", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["points"][1] == ["4/9", "1/9"]


class TestGraphCase:
    def test_golden_section_report(self, tmp_path, capsys):
        pieces = 4096
        path = tmp_path / "fsq.json"
        bps = [[f"{k}/{pieces}", f"{k * k}/{pieces * pieces}"]
               for k in range(pieces + 1)]
        dump_json({"breakpoints": bps}, path)
        out = tmp_path / "res.json"
        code = run(["graph-case", "--input", str(path), "--n", "1",
                    "--output", str(out)])
        assert code == 0
        err = capsys.readouterr().err
        assert re.search(r"x1 ~= 0\.6180", err)
        doc = json.loads(out.read_text())
        num, den = doc["x"][1].split("/")
        assert abs(int(num) / int(den) - 0.618034) < 1e-4

    def test_identity_exact(self, tmp_path):
        path = tmp_path / "id.json"
        dump_json({"breakpoints": [["0/1", "0/1"], ["1/1", "1/1"]]}, path)
        out = tmp_path / "res.json"
        run(["graph-case", "--input", str(path), "--n", "2",
             "--output", str(out)])
        doc = json.loads(out.read_text())
        assert doc["x"] == ["0/1", "1/3", "2/3", "1/1"]


class TestClimb:
    def test_writes_g_function_files(self, tmp_path, capsys):
        path = tmp_path / "pair.json"
        dump_json({
            "f1": {"breakpoints": [["0/1", "0/1"], ["1/1", "1/1"]]},
            "f2": {"breakpoints": [["0/1", "0/1"], ["1/4", "1/2"],
                                   ["3/4", "1/2"], ["1/1", "1/1"]]},
        }, path)
        base = tmp_path / "sol"
        code = run(["climb", "--input", str(path), "--output", str(base)])
        assert code == 0
        g1 = json.loads((tmp_path / "sol.g1.json").read_text())
        g2 = json.loads((tmp_path / "sol.g2.json").read_text())
        # f2's climber crosses the plateau [1/4, 3/4] while f1's waits
        assert g1["breakpoints"] == [["0/1", "0/1"], ["1/3", "1/2"],
                                     ["2/3", "1/2"], ["1/1", "1/1"]]
        assert g2["breakpoints"] == [["0/1", "0/1"], ["1/3", "1/4"],
                                     ["2/3", "3/4"], ["1/1", "1/1"]]
        summary = json.loads(capsys.readouterr().out)
        assert summary == {"g1": f"{base}.g1.json", "g2": f"{base}.g2.json"}

    def test_non_class_u_f1_exit_0(self, tmp_path, capsys):
        # f1 is not class U: it has a flat at 1/2, the level of its max
        path = tmp_path / "pair.json"
        dump_json({
            "f1": {"breakpoints": [["0/1", "0/1"], ["1/5", "1/2"],
                                   ["2/5", "1/4"], ["3/5", "1/2"],
                                   ["4/5", "1/2"], ["1/1", "1/1"]]},
            "f2": {"breakpoints": [["0/1", "0/1"], ["1/1", "1/1"]]},
        }, path)
        base = tmp_path / "sol"
        code = run(["climb", "--input", str(path), "--output", str(base)])
        assert code == 0
        assert set(json.loads(capsys.readouterr().out)) == {"g1", "g2"}


@pytest.mark.parametrize("command", ["climb", "graph-case"])
def test_tol_not_an_option(tmp_path, capsys, command):
    code = run([command, "--input", str(tmp_path / "in.json"),
                "--tol", "1/2"])
    assert code == 1
    assert "unrecognized arguments: --tol" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["partition", "verify", "densities"])
def test_negative_tol_exit_1(tmp_path, capsys, bent_file, command):
    # verify squares tol for its on-curve test, where -1 would act as 1
    dens = tmp_path / "dens.json"
    step = {"kind": "step", "knots": ["0/1", "1/1"], "values": ["1/1"]}
    dump_json({"f": step, "g": step}, dens)
    pts = tmp_path / "pts.json"
    dump_json({"points": [["0/1", "0/1"], ["1/1", "1/1"]]}, pts)
    argv = {"partition": ["--input", bent_file, "--n", "2"],
            "verify": ["--input", bent_file, "--points", str(pts)],
            "densities": ["--input", str(dens), "--n", "2"]}[command]
    code = run([command, *argv, "--tol=-1"])
    assert code == 1
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "input" and "negative" in err["message"]


def test_huge_decimal_exponent_exit_1(tmp_path, capsys, bent_file):
    pts = tmp_path / "pts.json"
    dump_json({"points": [["0/1", "0/1"], ["1/1", "1/1"]]}, pts)
    code = run(["verify", "--input", bent_file, "--points", str(pts),
                "--tol", "1e-999999999"])
    assert code == 1
    err = json.loads(capsys.readouterr().err)["error"]
    assert err == {"type": "input", "message": "decimal exponent of "
                   "'1e-999999999' exceeds 4300 in magnitude"}


def test_failed_verification_exit_3(bent_file, capsys, monkeypatch):
    dispatch = pipeline._dispatch

    def off_curve(curve, s_total, tol):
        res = dispatch(curve, s_total, tol)
        (x, y), *rest = res.points[1:]
        return replace(res, points=(res.points[0], (x, y + Fraction(1, 97)),
                                    *rest))

    monkeypatch.setattr(pipeline, "_dispatch", off_curve)
    code = run(["partition", "--input", bent_file, "--n", "2"])
    assert code == 3
    err = json.loads(capsys.readouterr().err)["error"]
    assert err == {"type": "InternalInvariantError",
                   "message": "rearrangement identity failed"}


class TestVerifyCommand:
    def test_round_trip(self, bent_file, tmp_path):
        out = tmp_path / "res.json"
        run(["partition", "--input", bent_file, "--n", "2",
             "--output", str(out)])
        rep_path = tmp_path / "rep.json"
        code = run(["verify", "--input", bent_file, "--points", str(out),
                    "--output", str(rep_path)])
        assert code == 0
        rep = json.loads(rep_path.read_text())
        assert rep["pass"] is True and rep["detectedShift"] == 1

    def test_failing_points_exit_3(self, diag_file, tmp_path):
        pts = tmp_path / "pts.json"
        dump_json({"points": [["0/1", "0/1"], ["1/2", "1/4"],
                              ["1/1", "1/1"]]}, pts)
        code = run(["verify", "--input", diag_file, "--points", str(pts)])
        assert code == 3

    @pytest.mark.parametrize("doc", MALFORMED_POINTS)
    def test_malformed_points_exit_1(self, bent_file, tmp_path, capsys, doc):
        pts = tmp_path / "pts.json"
        pts.write_text(json.dumps(doc))
        code = run(["verify", "--input", bent_file, "--points", str(pts)])
        assert code == 1
        assert json.loads(capsys.readouterr().err)["error"]["type"] == "input"

    def test_float_mode_round_trip(self, bent_file, tmp_path):
        out = tmp_path / "res.json"
        run(["partition", "--input", bent_file, "--n", "2", "--mode", "float",
             "--output", str(out)])
        rep_path = tmp_path / "rep.json"
        code = run(["verify", "--input", bent_file, "--points", str(out),
                    "--mode", "float", "--output", str(rep_path)])
        assert code == 0
        assert json.loads(rep_path.read_text())["pass"] is True


class TestDensities:
    def test_uniform_split(self, tmp_path):
        path = tmp_path / "dens.json"
        dump_json({
            "f": {"kind": "step", "knots": ["0/1", "1/1"], "values": ["1/1"]},
            "g": {"kind": "step", "knots": ["0/1", "1/1"], "values": ["1/1"]},
        }, path)
        out = tmp_path / "res.json"
        code = run(["densities", "--input", str(path), "--n", "3",
                    "--output", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["parameters"] == ["0/1", "1/4", "1/2", "3/4", "1/1"]

    def test_pl_density_is_exact_for_its_sampled_cumulative(self, tmp_path):
        # f = 1/2 + t against a step g (3/2, then 1/2): dx and dy are the
        # interval masses of f's cumulative sampled at DENSITY_SUBDIV points
        # per piece and of g's exact cumulative; f's own masses differ
        path = tmp_path / "dens.json"
        dump_json({
            "f": {"breakpoints": [["0/1", "1/2"], ["1/1", "3/2"]]},
            "g": {"kind": "step", "knots": ["0/1", "1/2", "1/1"],
                  "values": ["3/2", "1/2"]},
        }, path)
        out = tmp_path / "res.json"
        code = run(["densities", "--input", str(path), "--n", "3",
                    "--output", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["result"]["exact"] is True
        ts = [Fraction(t) for t in doc["parameters"]]
        cum_f = pipeline.pl_density_cumulative(
            PLFunction([(0, Fraction(1, 2)), (1, Fraction(3, 2))]))
        cum_g = pipeline.step_cumulative(
            [0, Fraction(1, 2), 1], [Fraction(3, 2), Fraction(1, 2)])
        for key, cum in (("dx", cum_f), ("dy", cum_g)):
            assert doc["result"][key] == [
                format_rational(pl_eval(cum, b) - pl_eval(cum, a))
                for a, b in zip(ts, ts[1:])]
        true_f = [(b - a) * (1 + a + b) / 2 for a, b in zip(ts, ts[1:])]
        gap = max(abs(Fraction(d) - m)
                  for d, m in zip(doc["result"]["dx"], true_f))
        assert 0 < gap < Fraction(2, 1000)

    @pytest.mark.parametrize("spec", ([], 5))
    def test_non_object_spec_exit_1(self, tmp_path, capsys, spec):
        path = tmp_path / "dens.json"
        dump_json({"f": spec, "g": spec}, path)
        code = run(["densities", "--input", str(path), "--n", "2"])
        assert code == 1
        assert json.loads(capsys.readouterr().err)["error"]["type"] == "input"


class TestExploreAndPlot:
    def test_explore_then_plot(self, tmp_path, bent_file):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "seeds": {"start": 0, "count": 2},
            "curves": [{"vertices": 4, "class": "deltaInterior"}],
            "n": [1], "shifts": [1], "grid": 300, "tol": "1/1000000",
        }))
        log = tmp_path / "log.jsonl"
        code = run(["explore", "--config", str(cfg), "--log", str(log)])
        assert code == 0
        assert len(log.read_text().splitlines()) == 2

        res = tmp_path / "res.json"
        run(["partition", "--input", bent_file, "--n", "1",
             "--output", str(res)])
        svg = tmp_path / "plot.svg"
        code = run(["plot", "--input", str(res), "--curve", bent_file,
                    "--svg", str(svg)])
        assert code == 0
        assert svg.read_text().startswith("<svg")

    @pytest.mark.parametrize("text", (
        '{"seeds": [0,',               # not valid JSON
        '[{"seeds": [0]}]',            # a list, not an object
        '{"seeds": {"start": 0}}',     # seeds range without a count
        '{"seeds": {"start": "a", "count": 2}}',  # range start not an int
        '{"curves": [5]}',             # a curve spec that is not an object
        '{"n": 3}',                    # n not a list
        '{"n": ["a"]}',                # n entry not an int
        '{"shifts": ["1"]}',           # shift entry not an int
        '{"curves": [{"vertices": "4"}]}',  # vertices not an int
        '{"curves": [{"vertices": 2}]}',    # deltaInterior needs 3
        '{"curves": [{"vertices": 1, "class": "planar"}]}',  # needs 2
        '{"curves": [{"class": ["planar"]}]}',  # class not a name
        '{"n": [-1]}',                 # n entry negative
        '{"n": [2], "shifts": [-1]}',  # shift entry negative
        '{"tol": "abc"}',              # tol not a number
        '{"tol": "-1"}',               # tol negative
        '{"tol": -0.5}',               # decimal tol negative
        '{"tol": "1e-4301"}',          # tol exponent beyond the bound
        '{"grid": "x"}',               # grid not an int
    ))
    def test_explore_malformed_config_exit_1(self, tmp_path, capsys, text):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        log = tmp_path / "log.jsonl"
        code = run(["explore", "--config", str(cfg), "--log", str(log)])
        assert code == 1
        assert json.loads(capsys.readouterr().err)["error"]["type"] == "input"
        assert not log.exists()

    def test_explore_missing_config_is_input_error(self, tmp_path, capsys):
        log = tmp_path / "log.jsonl"
        code = run(["explore", "--config", str(tmp_path / "missing.json"),
                    "--log", str(log)])
        assert code == 1
        assert json.loads(capsys.readouterr().err)["error"]["type"] == "input"
        assert not log.exists()

    def test_explore_config_read_as_utf8(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes('{"seeds": [0], "note": "\u00e9"}'.encode("latin-1"))
        log = tmp_path / "log.jsonl"
        code = run(["explore", "--config", str(cfg), "--log", str(log)])
        assert code == 1
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "input" and "not valid JSON" in err["message"]
        assert not log.exists()

    def test_explore_numeric_tol(self, tmp_path):
        logs = []
        for tol in ("1/1000000", 0.000001, 1e-6, 0):
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"seeds": [0], "n": [1], "grid": 300,
                                       "tol": tol}))
            log = tmp_path / f"log{len(logs)}.jsonl"
            code = run(["explore", "--config", str(cfg), "--log", str(log)])
            assert code == 0
            rec = json.loads(log.read_text())
            logs.append((rec["outcome"], rec["residual"]))
        # a decimal tol reads as its literal fraction: 1e-6 is 1/1000000
        assert logs[0] == logs[1] == logs[2]

    @pytest.mark.parametrize("doc", MALFORMED_POINTS)
    def test_plot_malformed_points_exit_1(self, tmp_path, capsys, doc):
        res = tmp_path / "res.json"
        res.write_text(json.dumps(doc))
        svg = tmp_path / "plot.svg"
        code = run(["plot", "--input", str(res), "--svg", str(svg)])
        assert code == 1
        assert json.loads(capsys.readouterr().err)["error"]["type"] == "input"
        assert not svg.exists()

    @pytest.mark.parametrize("incs", (
        {"dx": 5, "dy": ["1/1"]},                   # dx not a list
        {"dx": ["1/2", "1/2"], "dy": ["1/1"]},      # lengths differ
        {"dx": ["1/1", "0/1"], "dy": ["1/1", "0/1"]},  # 2 points, 1 increment
        {"dx": ["1/1"]},                            # dy missing
    ))
    def test_plot_malformed_increments_exit_1(self, tmp_path, capsys, incs):
        res = tmp_path / "res.json"
        res.write_text(json.dumps(
            {"points": [["0/1", "0/1"], ["1/1", "1/1"]], **incs}))
        svg = tmp_path / "plot.svg"
        code = run(["plot", "--input", str(res), "--svg", str(svg)])
        assert code == 1
        assert json.loads(capsys.readouterr().err)["error"]["type"] == "input"
        assert not svg.exists()

    def test_plot_draws_given_increments(self, tmp_path):
        res = tmp_path / "res.json"
        res.write_text(json.dumps(
            {"points": [["0/1", "0/1"], ["1/1", "1/1"]],
             "dx": ["1/3"], "dy": ["2/3"]}))
        svg, csv = tmp_path / "plot.svg", tmp_path / "inc.csv"
        code = run(["plot", "--input", str(res), "--svg", str(svg),
                    "--csv", str(csv)])
        assert code == 0
        assert svg.read_text().startswith("<svg")
        assert csv.read_text() == "i,dx,dy\n0,1/3,2/3\n"

    def test_plot_bare_points_file_uses_their_increments(self, tmp_path):
        res = tmp_path / "pts.json"
        res.write_text(json.dumps(
            {"points": [["0/1", "0/1"], ["1/4", "1/2"], ["1/1", "1/1"]]}))
        svg, csv = tmp_path / "plot.svg", tmp_path / "inc.csv"
        code = run(["plot", "--input", str(res), "--svg", str(svg),
                    "--csv", str(csv)])
        assert code == 0
        assert svg.read_text().startswith("<svg")
        assert csv.read_text() == "i,dx,dy\n0,1/4,1/2\n1,3/4,1/2\n"

    @pytest.mark.parametrize("command, doc", (
        ("climb", {"f1": {"breakpoints": [["0/1", "0/1"], ["1/1", "1/1"]]}}),
        ("climb", [1, 2]),
        ("densities", {"g": {"kind": "step", "knots": ["0/1", "1/1"],
                             "values": ["1/1"]}}),
        ("densities", "fg"),
    ))
    def test_document_without_its_keys_exit_1(self, tmp_path, capsys,
                                              command, doc):
        path = tmp_path / "doc.json"
        dump_json(doc, path)
        code = run([command, "--input", str(path),
                    "--output", str(tmp_path / "out")])
        assert code == 1
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "input" and "input must be" in err["message"]

    def test_unknown_input_exit_1(self, tmp_path, capsys):
        code = run(["partition", "--input", str(tmp_path / "missing.json"),
                    "--n", "1"])
        assert code == 1

    @pytest.mark.parametrize("content, reason", (
        (b'{"knots": [', "Expecting value"),
        (b'{"knots": ["\xe9"]}', "'utf-8' codec can't decode byte 0xe9"),
        (b'{"knots": [' + b"1" * 5000 + b"]}", "Exceeds the limit (4300 digits)"),
    ), ids=("invalid-json", "not-utf8", "overlong-integer"))
    def test_unreadable_input_exit_1(self, tmp_path, capsys, content, reason):
        path = tmp_path / "in.json"
        path.write_bytes(content)
        code = run(["partition", "--input", str(path), "--n", "1"])
        assert code == 1
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "input"
        assert err["message"].startswith(f"{path} is not valid JSON: ")
        assert reason in err["message"]


class TestDeterminism:
    def test_partition_reruns_byte_identical(self, bent_file, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        run(["partition", "--input", bent_file, "--n", "3", "--output", str(a)])
        run(["partition", "--input", bent_file, "--n", "3", "--output", str(b)])
        assert a.read_bytes() == b.read_bytes()
