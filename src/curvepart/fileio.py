"""JSON file formats shared by the library and the CLI.

Numbers are either JSON decimals or "p/q" strings.  Exact-mode writers
always emit "p/q"; float-mode writers always emit decimals; the two are
never mixed in one document.  Exact-mode readers reject decimal inputs
unless explicitly allowed, in which case the decimal text is converted
literally (0.1 -> 1/10), never through binary floating point.
"""

import json

from .errors import InputError
from .plcurve import PLCurve
from .plfun import PLFunction
from .scalar import as_float, format_rational, parse_rational

EXACT = "exact"
FLOAT = "float"


def load_json(path):
    try:
        with open(path) as fh:
            # floats arrive as raw strings so their decimal text survives
            return json.load(fh, parse_float=lambda s: ("decimal", s))
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc


def dump_json(obj, path):
    text = json.dumps(obj, indent=2, sort_keys=True)
    if path is None:
        return text
    try:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc
    return text


def read_number(v, mode=EXACT, allow_inexact=False):
    if isinstance(v, bool):
        raise InputError(f"not a number: {v!r}")
    if isinstance(v, int):
        return parse_rational(v)
    if isinstance(v, tuple) and len(v) == 2 and v[0] == "decimal":
        if mode == EXACT and not allow_inexact:
            raise InputError(
                f"decimal {v[1]} in exact mode; pass --allow-inexact to read "
                "it as the literal decimal fraction"
            )
        return parse_rational(v[1])
    if isinstance(v, str):
        if "/" not in v:
            raise InputError(
                f"string number {v!r} must be 'p/q'; decimals go unquoted"
            )
        return parse_rational(v)
    raise InputError(f"not a number: {v!r}")


def write_number(x, mode=EXACT):
    return format_rational(x) if mode == EXACT else as_float(x)


def curve_from_obj(obj, mode=EXACT, allow_inexact=False):
    try:
        knots = [read_number(t, mode, allow_inexact) for t in obj["knots"]]
        pts = [
            (read_number(x, mode, allow_inexact), read_number(y, mode, allow_inexact))
            for x, y in obj["points"]
        ]
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad curve object: {exc}") from exc
    return PLCurve(knots, pts)


def curve_to_obj(curve, mode=EXACT):
    return {
        "knots": [write_number(t, mode) for t in curve.knots],
        "points": [[write_number(x, mode), write_number(y, mode)]
                   for x, y in curve.vertices],
    }


def function_from_obj(obj, mode=EXACT, allow_inexact=False):
    try:
        bps = [
            (read_number(t, mode, allow_inexact), read_number(v, mode, allow_inexact))
            for t, v in obj["breakpoints"]
        ]
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad function object: {exc}") from exc
    return PLFunction(bps)


def function_to_obj(f, mode=EXACT):
    return {
        "breakpoints": [[write_number(t, mode), write_number(v, mode)]
                        for t, v in f.breakpoints]
    }


def load_curve(path, mode=EXACT, allow_inexact=False):
    return curve_from_obj(load_json(path), mode, allow_inexact)


def load_function(path, mode=EXACT, allow_inexact=False):
    return function_from_obj(load_json(path), mode, allow_inexact)


def rearrangement_to_obj(r):
    if r.shift is not None:
        return {"shift": r.shift}
    return {"perm": list(r.perm)}


def trace_to_obj(trace, mode=EXACT):
    return {
        "T": write_number(trace.last_touch, mode),
        "branch": trace.branch,
        "boundaryJoins": [write_number(t, mode) for t in trace.boundary_joins],
        "perturbations": [write_number(d, mode) for d in trace.perturbations],
        "residualHistory": [write_number(r, mode)
                            for r in trace.residual_history],
        "anchor": write_number(trace.anchor, mode),
        "swapped": trace.swapped,
        "solverFramePoints": [
            [write_number(x, mode), write_number(y, mode)]
            for x, y in trace.solver_frame_points
        ],
    }


def result_to_obj(res, mode=EXACT):
    return {
        "S": res.S,
        "points": [[write_number(x, mode), write_number(y, mode)]
                   for x, y in res.points],
        "dx": [write_number(d, mode) for d in res.dx],
        "dy": [write_number(d, mode) for d in res.dy],
        "rearrangement": rearrangement_to_obj(res.rearrangement),
        "exact": res.exact,
        "residual": write_number(res.residual, mode),
        "trace": trace_to_obj(res.trace, mode),
    }


def result_points_from_obj(obj, mode=EXACT, allow_inexact=False):
    """Points list from either a full result file or a bare points file:
    an object whose "points" is a nonempty list of [x, y] pairs."""
    if not isinstance(obj, dict) or not obj.get("points"):
        raise InputError("no 'points' list in input")
    try:
        return [
            (read_number(x, mode, allow_inexact), read_number(y, mode, allow_inexact))
            for x, y in obj["points"]
        ]
    except (TypeError, ValueError) as exc:
        raise InputError(f"bad points list: {exc}") from exc


def result_increments_from_obj(obj, points, mode=EXACT, allow_inexact=False):
    """(dx, dy) from a result file, or the points' own increments when the
    file has neither list.  Given lists must both be lists with one entry
    per increment of `points`."""
    if "dx" not in obj and "dy" not in obj:
        return ([b[0] - a[0] for a, b in zip(points, points[1:])],
                [b[1] - a[1] for a, b in zip(points, points[1:])])
    count = len(points) - 1
    lists = []
    for key in ("dx", "dy"):
        vals = obj.get(key)
        if not isinstance(vals, list):
            raise InputError(f"'{key}' is not a list")
        if len(vals) != count:
            raise InputError(
                f"'{key}' has {len(vals)} entries; {len(points)} points give {count}"
            )
        lists.append([read_number(d, mode, allow_inexact) for d in vals])
    return tuple(lists)


def report_to_obj(rep, mode=EXACT):
    return {
        "pass": rep.ok,
        "onCurveMaxDistSq": write_number(rep.on_curve_max_dist, mode),
        "incrementsPositive": rep.increments_positive,
        "multisetMatch": rep.multiset_match,
        "detectedShift": rep.detected_shift,
        "detectedPermutation": (
            None if rep.detected_permutation is None
            else list(rep.detected_permutation)
        ),
        "tol": write_number(rep.tol, mode),
    }


def density_from_obj(obj, mode=EXACT, allow_inexact=False):
    """A density is either a step spec or a PL function spec.

    step: {"kind": "step", "knots": [t0..tm], "values": [v1..vm]}
    pl:   {"breakpoints": [[t, v], ...]}  (kind optional)
    """
    if obj.get("kind") == "step":
        try:
            knots = [read_number(t, mode, allow_inexact) for t in obj["knots"]]
            values = [read_number(v, mode, allow_inexact) for v in obj["values"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"bad step density: {exc}") from exc
        if len(knots) != len(values) + 1:
            raise InputError("step density needs one more knot than values")
        return ("step", knots, values)
    return ("pl", function_from_obj(obj, mode, allow_inexact))
