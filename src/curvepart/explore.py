"""Numerical experimentation for the two open generalizations.

Searches for point sequences whose increment sequences match under an
arbitrary cyclic shift (not just shift-by-one), and for partitions of
curves that leave the unit square.  Everything here is float-mode and
exploratory: notFound at a finite grid proves nothing, and the records
say so.
"""

import json
import random
import time
from dataclasses import dataclass, replace

from .errors import InputError, PreconditionError
from .fileio import FLOAT, curve_to_obj
from .oracle import _bisect_shot, _Chaser, _sign_changes, verify
from .pipeline import increments
from .plcurve import PLCurve
from .scalar import ONE, ZERO, as_float, rat

CURVE_CLASSES = ("deltaInterior", "interior", "planar")
_DENOM = 2**20


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

    vertices counts all polyline vertices including the endpoints.
    deltaInterior keeps every interior vertex strictly below the diagonal
    (the region is convex, so the whole curve follows); interior keeps
    them in the open unit square; planar is unconstrained.
    """
    if vertices < 2:
        raise PreconditionError("a curve needs at least 2 vertices")
    if curve_class not in CURVE_CLASSES:
        raise InputError(f"unknown curve class {curve_class!r}")
    if curve_class == "deltaInterior" and vertices < 3:
        raise PreconditionError(
            "deltaInterior needs at least one interior vertex: the bare "
            "diagonal lies on the boundary"
        )
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


def _theta_residuals(curve, s, theta_shift, frees, chaser):
    """Chase the theta-relation system from the free points.

    frees are the parameters of A_1..A_k (k = theta shift).  Relations
    dy_j = dx_{j-k} for j = k..n-1 force A_{k+1}..A_n; the returned vector
    holds the wrap mismatches (relation j = n, then j = 0..k-2)."""
    k = theta_shift
    pts = [(0.0, 0.0)]
    cursor = 0.0
    for t in frees:
        if not cursor <= t <= 1.0:
            return None, None
        pts.append(chaser.at(t))
        cursor = t
    for j in range(k, s - 1):
        target = pts[-1][1] + (pts[j - k + 1][0] - pts[j - k][0])
        nxt = chaser.first_ordinate_hit(target, cursor)
        if nxt is None:
            return None, None
        cursor = nxt
        pts.append(chaser.at(nxt))
    pts.append((1.0, 1.0))
    dx, dy = increments(pts)
    res = [dy[s - 1] - dx[(s - 1 - k) % s]]
    for j in range(0, k - 1):
        res.append(dy[j] - dx[(j - k) % s])
    return res, pts


def _search_shift_zero(curve, s):
    """Identity relation: every chosen point must sit on y = x."""
    from .plfun import level_set, pl_sub

    items = level_set(pl_sub(curve.y_function(), curve.x_function()), ZERO)
    candidates = set()
    for lo, hi in items:
        if lo == hi:
            candidates.add(lo)
        else:
            for j in range(s + 1):
                candidates.add(lo + (hi - lo) * rat(j, s))
    if ZERO not in candidates or ONE not in candidates:
        return None
    # keep a strictly x-increasing subsequence, then spread s+1 picks
    filtered = []
    last_x = None
    for t in sorted(candidates):
        x, _ = curve(t)
        if last_x is None or x > last_x:
            filtered.append(t)
            last_x = x
    if len(filtered) < s + 1 or filtered[0] != 0 or filtered[-1] != 1:
        return None
    idx = [round(j * (len(filtered) - 1) / s) for j in range(s + 1)]
    if len(set(idx)) != s + 1:
        return None
    pts = [tuple(map(as_float, curve(filtered[i]))) for i in idx]
    dx, dy = increments(pts)
    if any(d <= 0 for d in dx + dy):
        return None
    return pts


def conjecture_search(curve, n, theta, grid=400, tol=rat(1, 10**6), seed=0):
    """Sweep for points matching the theta-shifted increment relation.

    shift 1 is exactly the wrap-chase of the brute-force oracle; shift 0
    looks for level crossings of y - x; shifts >= 2 sweep a coarse grid
    over the free points and polish with a local root finder.  Outcomes
    are recorded honestly: notFound is evidence, never disproof.
    """
    start = time.perf_counter()
    s = n + 1
    if theta.size != s:
        raise PreconditionError(f"theta size {theta.size} != n + 1 = {s}")
    k = theta.shift
    tol_f = as_float(tol)
    found_pts = None
    residual = None

    if k == 0:
        pts = _search_shift_zero(curve, s)
        if pts is not None:
            found_pts, residual = pts, 0.0
    elif k == 1:
        ch = _Chaser(curve, float_mode=True)
        for _, lo, hi, r0 in _sign_changes(ch, s - 2, grid, [()]):
            root = _bisect_shot(curve, s - 2, lo, hi, r0, 60)
            best = root[1] if root else None
            if best and abs(best.residual) <= tol_f:
                found_pts, residual = best.points, abs(best.residual)
                break
    else:
        found_pts, residual = _search_high_shift(curve, s, k, grid, tol_f)

    outcome = "notFound"
    points = ()
    if found_pts is not None:
        rep = verify(curve, found_pts, tol)
        perm_ok = _theta_relation_holds(found_pts, k, tol_f)
        if rep.increments_positive and perm_ok:
            outcome = "found"
            points = tuple(found_pts)
        else:
            found_pts = None
    return TrialRecord(
        seed=seed,
        curve_spec={},
        curve=curve,
        n=n,
        theta=theta,
        outcome=outcome,
        residual=residual if outcome == "found" else None,
        points=points,
        wall_time=time.perf_counter() - start,
    )


def _theta_relation_holds(pts, k, tol_f):
    dx, dy = increments(pts)
    s = len(dx)
    return all(abs(as_float(dy[i]) - as_float(dx[(i - k) % s])) <= tol_f
               for i in range(s))


def _search_high_shift(curve, s, k, grid, tol_f):
    try:
        from scipy.optimize import root
    except ImportError:  # pragma: no cover
        root = None
    ch = _Chaser(curve, float_mode=True)

    def residual_vec(frees):
        res, _ = _theta_residuals(curve, s, k, list(frees), ch)
        if res is None:
            return [1.0 + abs(f) for f in frees]
        return res

    coarse = max(8, int(round(grid ** (1.0 / k))))
    best = None
    for combo in _increasing_grid(coarse, k):
        res, pts = _theta_residuals(curve, s, k, list(combo), ch)
        if res is None:
            continue
        score = max(abs(r) for r in res)
        if best is None or score < best[0]:
            best = (score, combo, pts)
    if best is None:
        return None, None
    score, combo, pts = best
    if score <= tol_f:
        return pts, score
    if root is not None:
        sol = root(residual_vec, list(combo), method="hybr")
        if sol.success:
            res, pts = _theta_residuals(curve, s, k, list(sol.x), ch)
            if res is not None:
                score = max(abs(r) for r in res)
                if score <= tol_f:
                    return pts, score
    return None, None


def _increasing_grid(m, k):
    def rec(prefix, start):
        if len(prefix) == k:
            yield tuple(prefix)
            return
        for g in range(start, m):
            yield from rec(prefix + [g / m], g + 1)

    yield from rec([], 1)


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


def batch(config, log_path):
    """Run the configured trial grid, appending one JSON record per line.

    Reruns skip every (seed, curve spec, n, shift) key already present in
    the log, so interrupted batches resume without duplicates.  A summary
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
        seeds = list(range(seeds["start"], seeds["start"] + seeds["count"]))
    curve_specs = config.get("curves", [{"vertices": 4, "class": "deltaInterior"}])
    ns = config.get("n", [1])
    shifts = config.get("shifts", [1])
    grid = config.get("grid", 400)
    tol = rat(str(config.get("tol", "1/1000000")))

    done = set()
    try:
        with open(log_path) as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                rec = json.loads(line)
                if "outcome" in rec:
                    done.add(_trial_key(rec["seed"], rec["curveSpec"],
                                        rec["n"], rec["theta"]["shift"]))
    except FileNotFoundError:
        pass

    counts = {"found": 0, "notFound": 0, "error": 0, "skipped": 0}
    with open(log_path, "a") as fh:
        for seed in seeds:
            for spec in curve_specs:
                for n in ns:
                    for shift in shifts:
                        if shift > n:
                            continue
                        key = _trial_key(seed, spec, n, shift)
                        if key in done:
                            counts["skipped"] += 1
                            continue
                        curve = random_curve(
                            seed,
                            vertices=spec.get("vertices", 4),
                            curve_class=spec.get("class", "deltaInterior"),
                        )
                        theta = CyclicPermutation(size=n + 1, shift=shift)
                        try:
                            rec = conjecture_search(
                                curve, n, theta, grid=grid, tol=tol, seed=seed
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
