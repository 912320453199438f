"""Command-line interface.

Subcommands: partition, graph-case, climb, verify, densities, explore,
plot.  Exit codes: 0 success, 1 I/O or parse error, 2 precondition
violation (e.g. a curve touching the square boundary), 3 convergence or
verification failure.  Every error is also emitted as one JSON object on
stderr.
"""

import argparse
import json
import sys

from . import explore as explore_mod
from . import fileio, graphcase, oracle, pipeline, render
from . import climb as climb_mod
from .errors import (
    ConvergenceError,
    CurvepartError,
    InputError,
    PreconditionError,
)
from .scalar import as_float, parse_rational

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_PRECONDITION = 2
EXIT_CONVERGENCE = 3


def _emit_error(kind, exc):
    payload = {"error": {"type": kind, "message": str(exc)}}
    detail = getattr(exc, "witness", None)
    if detail is not None:
        payload["error"]["detail"] = repr(detail)
    print(json.dumps(payload, sort_keys=True), file=sys.stderr)


def build_parser():
    p = argparse.ArgumentParser(
        prog="curvepart",
        description="Equal-increment partitions of plane curves, exactly.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, needs_n=True):
        sp.add_argument("--input", required=True, help="input JSON file")
        if needs_n:
            sp.add_argument("--n", type=int, default=1,
                            help="partition order (S = n + 1 increments)")
        sp.add_argument("--mode", choices=("exact", "float"), default="exact",
                        help="number format of inputs and outputs")
        sp.add_argument("--allow-inexact", action="store_true",
                        help="accept decimal inputs in exact mode, read "
                             "literally as decimal fractions")
        sp.add_argument("--output", help="result JSON path (default stdout)")

    sp = sub.add_parser("partition", help="partition a curve from (0,0) to (1,1)")
    common(sp)
    sp.add_argument("--svg", help="write an SVG rendering here")
    sp.add_argument("--csv", help="write the increment table here")

    sp = sub.add_parser("graph-case", help="partition the graph of f <= id")
    common(sp)

    sp = sub.add_parser("climb", help="solve the coordinated-level problem "
                                      "for {'f1':..., 'f2':...}")
    common(sp, needs_n=False)

    sp = sub.add_parser("verify", help="verify a points file against a curve")
    common(sp, needs_n=False)
    sp.add_argument("--points", required=True,
                    help="result JSON or bare points file")

    sp = sub.add_parser("densities", help="split two unit-mass densities "
                                          "from {'f':..., 'g':...}")
    common(sp)

    sp = sub.add_parser("explore", help="run a conjecture-search batch")
    sp.add_argument("--config", required=True, help="batch config JSON")
    sp.add_argument("--log", required=True, help="JSONL trial log path")

    sp = sub.add_parser("plot", help="render a result file as SVG")
    sp.add_argument("--input", required=True, help="result JSON file")
    sp.add_argument("--curve", help="optional curve JSON to overlay")
    sp.add_argument("--svg", required=True, help="output SVG path")
    sp.add_argument("--csv", help="optional increment CSV path")
    sp.add_argument("--mode", choices=("exact", "float"), default="exact")
    sp.add_argument("--allow-inexact", action="store_true")

    for name in ("partition", "verify", "densities"):
        sub.choices[name].add_argument(
            "--tol", default="1e-9",
            help="tolerance for inexact branches (default 1e-9)")
    return p


def _write_output(obj, path):
    text = fileio.dump_json(obj, path)
    if path is None:
        print(text)


def _cmd_partition(args):
    curve = fileio.load_curve(args.input, args.mode, args.allow_inexact)
    tol = parse_rational(args.tol)
    res = pipeline.partition_curve(curve, args.n, tol=tol)
    rep = oracle.verify(curve, res.points,
                        tol=0 if res.exact else tol)
    obj = fileio.result_to_obj(res, args.mode)
    obj["verify"] = fileio.report_to_obj(rep, args.mode)
    _write_output(obj, args.output)
    if args.svg:
        svg = render.render_partition_svg(curve, res.points, res.dx, res.dy)
        with open(args.svg, "w") as fh:
            fh.write(svg)
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(render.render_increments_csv(res.dx, res.dy, args.mode))
    return EXIT_OK if rep.ok else EXIT_CONVERGENCE


def _cmd_graph_case(args):
    f = fileio.load_function(args.input, args.mode, args.allow_inexact)
    sol = graphcase.solve_graph(f, args.n)
    dx, dy = graphcase.graph_increments(f, sol)
    obj = {
        "n": sol.n,
        "roots": [fileio.write_number(a, args.mode) for a in sol.roots],
        "x": [fileio.write_number(x, args.mode) for x in sol.abscissae],
        "dx": [fileio.write_number(d, args.mode) for d in dx],
        "dy": [fileio.write_number(d, args.mode) for d in dy],
    }
    _write_output(obj, args.output)
    print(f"x1 ~= {as_float(sol.abscissae[1]):.6f}", file=sys.stderr)
    return EXIT_OK


def _cmd_climb(args):
    doc = fileio.load_json(args.input)
    if not isinstance(doc, dict) or "f1" not in doc or "f2" not in doc:
        raise InputError("climb input must be {'f1': ..., 'f2': ...}")
    f1 = fileio.function_from_obj(doc["f1"], args.mode, args.allow_inexact)
    f2 = fileio.function_from_obj(doc["f2"], args.mode, args.allow_inexact)
    sol = climb_mod.solve(f1, f2)
    base = args.output or "climb"
    for name, g in (("g1", sol.g1), ("g2", sol.g2)):
        fileio.dump_json(fileio.function_to_obj(g, args.mode),
                         f"{base}.{name}.json")
    summary = {
        "g1": f"{base}.g1.json",
        "g2": f"{base}.g2.json",
    }
    print(fileio.dump_json(summary, None))
    return EXIT_OK


def _cmd_verify(args):
    curve = fileio.load_curve(args.input, args.mode, args.allow_inexact)
    pts = fileio.result_points_from_obj(
        fileio.load_json(args.points), args.mode, args.allow_inexact
    )
    tol = parse_rational(args.tol)
    rep = oracle.verify(curve, pts, tol=tol)
    _write_output(fileio.report_to_obj(rep, args.mode), args.output)
    return EXIT_OK if rep.ok else EXIT_CONVERGENCE


def _cmd_densities(args):
    doc = fileio.load_json(args.input)
    if not isinstance(doc, dict) or "f" not in doc or "g" not in doc:
        raise InputError("densities input must be {'f': ..., 'g': ...}")
    dens_f = fileio.density_from_obj(doc["f"], args.mode, args.allow_inexact)
    dens_g = fileio.density_from_obj(doc["g"], args.mode, args.allow_inexact)
    tol = parse_rational(args.tol)
    out = pipeline.partition_densities(dens_f, dens_g, args.n, tol=tol)
    obj = {
        "parameters": [fileio.write_number(t, args.mode)
                       for t in out.parameters],
        "result": fileio.result_to_obj(out.result, args.mode),
    }
    _write_output(obj, args.output)
    return EXIT_OK


def _cmd_explore(args):
    with open(args.config) as fh:
        try:
            config = json.load(fh)
        except ValueError as exc:  # not JSON, or not even text
            raise InputError(f"{args.config} is not valid JSON: {exc}") from exc
    path = explore_mod.batch(config, args.log)
    print(json.dumps({"log": str(path)}))
    return EXIT_OK


def _cmd_plot(args):
    doc = fileio.load_json(args.input)
    pts = fileio.result_points_from_obj(doc, args.mode, args.allow_inexact)
    dx, dy = fileio.result_increments_from_obj(
        doc, pts, args.mode, args.allow_inexact)
    curve = None
    if args.curve:
        curve = fileio.load_curve(args.curve, args.mode, args.allow_inexact)
    svg = render.render_partition_svg(curve, pts, dx, dy)
    with open(args.svg, "w") as fh:
        fh.write(svg)
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(render.render_increments_csv(dx, dy, args.mode))
    return EXIT_OK


_COMMANDS = {
    "partition": _cmd_partition,
    "graph-case": _cmd_graph_case,
    "climb": _cmd_climb,
    "verify": _cmd_verify,
    "densities": _cmd_densities,
    "explore": _cmd_explore,
    "plot": _cmd_plot,
}


def run(argv):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else EXIT_OK
    try:
        return _COMMANDS[args.command](args)
    except InputError as exc:
        _emit_error("input", exc)
        return EXIT_INPUT
    except ConvergenceError as exc:
        _emit_error("convergence", exc)
        return EXIT_CONVERGENCE
    except PreconditionError as exc:
        _emit_error(type(exc).__name__, exc)
        return EXIT_PRECONDITION
    except CurvepartError as exc:
        _emit_error(type(exc).__name__, exc)
        return EXIT_INPUT
    except OSError as exc:
        _emit_error("io", exc)
        return EXIT_INPUT


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
