"""Numerical experimentation for the two open generalizations.

Searches for point sequences whose increment sequences match under an
arbitrary cyclic shift (not just shift-by-one), and for partitions of
curves that leave the unit square.  Every search is exact, and a trial is
found only as an exact partition.  Shift 1 takes the oracle's first exact
root on the nearest chase branch; shifts >= 2 run Newton's method on
exact rationals from a coarse grid and are exploratory: notFound at a
finite grid proves nothing, and the records say so.  The log writes the
exact points as floats, the same on every install.
"""

import json
import random
import time
from dataclasses import dataclass, replace
from itertools import combinations

from .errors import InputError, PreconditionError
from .fileio import FLOAT, curve_to_obj
from .oracle import _Affine, _chase, _value_slope, _vector_roots
from .pipeline import _shift_residual, increments
from .plcurve import PLCurve
from .scalar import ONE, ZERO, as_float, rat

# the fewest polyline vertices of each curve class: deltaInterior needs an
# interior vertex, as the bare diagonal lies on the boundary
MIN_VERTICES = {"deltaInterior": 3, "interior": 2, "planar": 2}
CURVE_CLASSES = tuple(MIN_VERTICES)
_DENOM = 2**20
# Newton polish for shifts >= 2: iterates per start (the start included),
# starts from the best coarse combos, and halvings of a step that lands on
# an infeasible iterate
NEWTON_STEPS = 12
NEWTON_STARTS = 8
NEWTON_HALVINGS = 10


@dataclass(frozen=True)
class CyclicPermutation:
    """theta(i) = (i + shift) mod size."""

    size: int
    shift: int

    def __post_init__(self):
        if not 0 <= self.shift < self.size:
            raise PreconditionError("shift must satisfy 0 <= shift < size")


@dataclass(frozen=True)
class TrialRecord:
    seed: int
    curve_spec: dict
    curve: PLCurve
    n: int
    theta: CyclicPermutation
    outcome: str  # found | notFound | error
    residual: object
    points: tuple
    wall_time: float
    error: object = None  # "Type: message" of an error outcome


def _rand_rat(rng, lo=0, hi=1):
    span = hi - lo
    return rat(lo) + rat(rng.randrange(1, _DENOM), _DENOM) * rat(span)


def random_curve(seed, vertices=4, curve_class="deltaInterior"):
    """Deterministic random polyline from (0,0) to (1,1).

    vertices counts all polyline vertices including the endpoints, at
    least MIN_VERTICES of the class.
    deltaInterior keeps every interior vertex strictly below the diagonal
    (the region is convex, so the whole curve follows); interior keeps
    them in the open unit square; planar is unconstrained.
    """
    if curve_class not in CURVE_CLASSES:
        raise InputError(f"unknown curve class {curve_class!r}")
    if vertices < MIN_VERTICES[curve_class]:
        raise PreconditionError(f"a {curve_class} curve needs at least "
                                f"{MIN_VERTICES[curve_class]} vertices")
    rng = random.Random(seed)
    inner = vertices - 2
    pts = [(ZERO, ZERO)]
    for _ in range(inner):
        if curve_class == "deltaInterior":
            x = _rand_rat(rng)
            y = x * rat(rng.randrange(1, _DENOM), _DENOM)
            pts.append((x, y))
        elif curve_class == "interior":
            pts.append((_rand_rat(rng), _rand_rat(rng)))
        else:
            pts.append((_rand_rat(rng, -1, 2), _rand_rat(rng, -1, 2)))
    pts.append((ONE, ONE))
    knots = [rat(i, vertices - 1) for i in range(vertices)]
    return PLCurve(knots, pts)


def _theta_residuals(s, k, frees, curve):
    """Chase the theta-relation system from the free points.

    frees are the parameters of A_1..A_k, nondecreasing in [0, 1].
    Relations dy_j = dx_{j-k} for j = k..s-2 force A_{k+1}..A_{s-1}; the
    returned vector holds `_chase`'s wrap mismatches, None when the frees
    are out of order or a forced step finds no hit."""
    if not all(a <= b for a, b in zip([ZERO] + frees, frees + [ONE])):
        return None, None
    pts, mismatches = _chase(curve, frees, k, s)
    return mismatches, pts


def _search_shift_zero(curve, s):
    """Identity relation: every chosen point must sit on y = x."""
    from .plfun import level_set, pl_sub

    items = level_set(pl_sub(curve.y_function(), curve.x_function()), ZERO)
    candidates = []  # ordered disjoint items give increasing candidates
    for lo, hi in items:
        if lo == hi:
            candidates.append(lo)
        else:
            candidates += [lo + (hi - lo) * rat(j, s) for j in range(s + 1)]
    if not candidates or candidates[0] != 0 or candidates[-1] != 1:
        return None
    # keep a strictly x-increasing subsequence, then spread s+1 picks
    filtered = []
    last_x = None
    for t in candidates:
        x, _ = curve(t)
        if last_x is None or x > last_x:
            filtered.append(t)
            last_x = x
    if len(filtered) < s + 1 or filtered[0] != 0 or filtered[-1] != 1:
        return None
    idx = [round(j * (len(filtered) - 1) / s) for j in range(s + 1)]
    if len(set(idx)) != s + 1:
        return None
    pts = [curve(filtered[i]) for i in idx]
    dx, dy = increments(pts)
    if any(d <= 0 for d in dx + dy):
        return None
    return pts


def conjecture_search(curve, n, theta, grid=400, seed=0):
    """Sweep for points matching the theta-shifted increment relation.

    shift 1 takes the brute-force oracle's first exact root on the nearest
    chase branch (grid is not read); shift 0
    looks for level crossings of y - x; shifts >= 2 sweep a coarse grid
    over the free points and polish the best few with Newton's method.
    Found points are an exact partition (`_accepted`), with residual 0.
    Outcomes are recorded honestly: notFound is evidence, never disproof.
    """
    start = time.perf_counter()
    s = n + 1
    if theta.size != s:
        raise PreconditionError(f"theta size {theta.size} != n + 1 = {s}")
    k = theta.shift

    if k == 0:
        found_pts = _search_shift_zero(curve, s)
    elif k == 1:
        roots = _vector_roots(curve, s - 2, ())[0]
        found_pts = roots[0][1].points if roots else None
    else:
        found_pts = _search_high_shift(curve, s, k, grid)

    found = found_pts is not None and _accepted(found_pts, k)
    return TrialRecord(
        seed=seed,
        curve_spec={},
        curve=curve,
        n=n,
        theta=theta,
        outcome="found" if found else "notFound",
        residual=ZERO if found else None,
        points=tuple(found_pts) if found else (),
        wall_time=time.perf_counter() - start,
    )


def _accepted(pts, k):
    """An exact partition: every increment positive and a shift-k
    residual of exactly 0."""
    dx, dy = increments(pts)
    return all(d > 0 for d in dx + dy) and _shift_residual(dx, dy, k) == 0


def _solve_linear(a, b):
    """x with a x = b by Gauss-Jordan elimination with partial pivoting;
    None when a is singular."""
    rows = [list(row) + [v] for row, v in zip(a, b)]
    for c in range(len(rows)):
        p = max(range(c, len(rows)), key=lambda i: abs(rows[i][c]))
        if rows[p][c] == 0:
            return None
        rows[c], rows[p] = rows[p], rows[c]
        for r in rows:
            if r is not rows[c]:
                f = r[c] / rows[c][c]
                r[:] = [v - f * w for v, w in zip(r, rows[c])]
    return [r[-1] / r[c] for c, r in enumerate(rows)]


def _jacobian(s, k, frees, curve):
    """The wrap mismatches' slopes in the free parameters just right of
    frees, or None when that side is infeasible: column i is read off one
    chase with free i an `_Affine(f_i, 1)` (`_value_slope`)."""
    cols = []
    for i, f in enumerate(frees):
        _, mismatches = _chase(curve, frees[:i] + [_Affine(f, ONE, [])]
                               + frees[i + 1:], k, s)
        if mismatches is None:
            return None
        cols.append([_value_slope(r)[1] for r in mismatches])
    return [list(row) for row in zip(*cols)]


def _newton(s, k, frees, curve):
    """Newton's method on the wrap mismatches of _theta_residuals from the
    rational free parameters frees, each step an exact solve against
    `_jacobian`: the points of the first iterate whose mismatches are all
    0, or None.  The chase is affine in the frees on each cell, so a step
    that stays in its cell lands on the root.  A step whose iterate is
    infeasible is halved, at most NEWTON_HALVINGS times."""
    res, pts = _theta_residuals(s, k, frees, curve)
    for _ in range(NEWTON_STEPS - 1):
        if not any(res):
            return pts
        jac = _jacobian(s, k, frees, curve)
        step = None if jac is None else _solve_linear(jac, res)
        if step is None:
            return None
        for h in range(NEWTON_HALVINGS + 1):
            nxt = [f - d / 2**h for f, d in zip(frees, step)]
            res, pts = _theta_residuals(s, k, nxt, curve)
            if res is not None:
                break
        else:
            return None
        frees = nxt
    return None if any(res) else pts


def _search_high_shift(curve, s, k, grid):
    """Score the coarse grid g/coarse of the k free parameters by their
    wrap mismatches, largest first, so that an exact tie of the largest
    goes to the smaller next one; then run Newton from the best few combos
    in score order: the points of the first root that is an exact
    partition, or None."""
    coarse = max(8, int(round(grid ** (1.0 / k))))
    scored = []
    for idx in combinations(range(1, coarse), k):
        combo = [rat(g, coarse) for g in idx]
        res, _ = _theta_residuals(s, k, combo, curve)
        if res is not None:
            scored.append((sorted(map(abs, res), reverse=True), combo))
    scored.sort(key=lambda sc: sc[0])
    for _, combo in scored[:NEWTON_STARTS]:
        pts = _newton(s, k, combo, curve)
        if pts is not None and _accepted(pts, k):
            return pts
    return None


def _record_to_jsonable(rec):
    return {
        "seed": rec.seed,
        "curveSpec": rec.curve_spec,
        "curve": curve_to_obj(rec.curve, FLOAT),
        "n": rec.n,
        "theta": {"size": rec.theta.size, "shift": rec.theta.shift},
        "outcome": rec.outcome,
        "residual": None if rec.residual is None else as_float(rec.residual),
        "points": [[as_float(x), as_float(y)] for x, y in rec.points],
        "wallTime": rec.wall_time,
        "error": rec.error,
    }


def _trial_key(seed, spec, n, shift):
    return json.dumps([seed, spec, n, shift], sort_keys=True)


def _is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


def _require_ints(vals, name):
    if not isinstance(vals, list) or not all(_is_int(v) for v in vals):
        raise InputError(f"{name} must be a list of integers")
    return vals


def batch(config, log_path):
    """Run the configured trial grid, appending one JSON record per line.

    Reruns skip every (seed, curve spec, n, shift) key already present in
    the log, so interrupted batches resume without duplicates; a last line
    torn mid-write is dropped and its trial runs again.  A summary
    with found/notFound counts is written next to the log.
    """
    if not isinstance(config, dict):
        raise InputError("explore config must be a JSON object")
    if config.get("generalPermutations", False):
        raise InputError(
            "generalPermutations is a reserved extension flag; the search "
            "implements cyclic shifts only"
        )
    seeds = config.get("seeds", [0])
    if isinstance(seeds, dict):
        if "start" not in seeds or "count" not in seeds:
            raise InputError("a seeds range needs 'start' and 'count'")
        if not (_is_int(seeds["start"]) and _is_int(seeds["count"])):
            raise InputError("seeds 'start' and 'count' must be integers")
        seeds = list(range(seeds["start"], seeds["start"] + seeds["count"]))
    _require_ints(seeds, "seeds")
    curve_specs = config.get("curves", [{"vertices": 4, "class": "deltaInterior"}])
    if not isinstance(curve_specs, list) or not all(
            isinstance(spec, dict) for spec in curve_specs):
        raise InputError("curves must be a list of objects")
    kinds = [(spec.get("vertices", 4), spec.get("class", "deltaInterior"))
             for spec in curve_specs]
    if not all(c in CURVE_CLASSES and _is_int(v) and v >= MIN_VERTICES[c]
               for v, c in kinds):
        raise InputError(f"each curve needs a 'class' in {CURVE_CLASSES} and "
                         f"an integer 'vertices', at least {MIN_VERTICES}")
    ns = _require_ints(config.get("n", [1]), "n")
    shifts = _require_ints(config.get("shifts", [1]), "shifts")
    if any(v < 0 for v in ns + shifts):
        raise InputError("n and shifts must be nonnegative")
    grid = config.get("grid", 400)
    if not _is_int(grid) or grid < 1:
        raise InputError("grid must be a positive integer")

    done = set()
    try:
        with open(log_path, "rb+") as fh:
            data = fh.read()
            # cut off a torn final write (no newline); its trial runs again
            data = data[:data.rfind(b"\n") + 1]
            fh.truncate(len(data))
    except FileNotFoundError:
        data = b""
    for number, line in enumerate(data.splitlines(), 1):
        try:
            rec = json.loads(line) if line.strip() else {}
            if "outcome" in rec:
                done.add(_trial_key(rec["seed"], rec["curveSpec"],
                                    rec["n"], rec["theta"]["shift"]))
        except (ValueError, TypeError, KeyError):
            rec = None
        if not isinstance(rec, dict):
            raise InputError(f"{log_path} line {number} is not a trial record")

    counts = {"found": 0, "notFound": 0, "error": 0, "skipped": 0}
    with open(log_path, "a") as fh:
        for seed in seeds:
            for spec, (vertices, curve_class) in zip(curve_specs, kinds):
                for n in ns:
                    for shift in shifts:
                        if shift > n:
                            continue
                        key = _trial_key(seed, spec, n, shift)
                        if key in done:
                            counts["skipped"] += 1
                            continue
                        curve = random_curve(seed, vertices=vertices,
                                             curve_class=curve_class)
                        theta = CyclicPermutation(size=n + 1, shift=shift)
                        try:
                            rec = conjecture_search(
                                curve, n, theta, grid=grid, seed=seed
                            )
                        except Exception as exc:  # recorded, not raised
                            rec = TrialRecord(
                                seed=seed, curve_spec={}, curve=curve,
                                n=n, theta=theta, outcome="error",
                                residual=None, points=(), wall_time=0.0,
                                error=f"{type(exc).__name__}: {exc}",
                            )
                        rec = replace(rec, curve_spec=dict(spec))
                        fh.write(json.dumps(_record_to_jsonable(rec),
                                            sort_keys=True) + "\n")
                        counts[rec.outcome] += 1
                        done.add(key)

    summary = {"counts": counts, "trials": len(done)}
    with open(str(log_path) + ".summary.json", "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
    return log_path
