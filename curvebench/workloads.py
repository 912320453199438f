"""Workload table, seeded input generator and per-op checks.

Each workload owns a fixed pool of base shapes, drawn once from a constant
seed.  The run's --seed then jitters every vertex of every shape, with fresh
jitter on each cycle through the pool, so no two ops of a run and no two
seeds see the same exact input.  Why not redraw whole curves per seed: at a
fixed (vertices, order) a full redraw moves the cost of one deep-induction
solve anywhere from 0.12 s to 5.7 s, so the median of the ~25 solves that fit
in a run would differ by tens of percent between seeds.  A jitter of at most
a quarter of the base grid step keeps each shape's fold pattern, and so its
cost, within about 10 %.

Vertices are exact dyadic rationals k / 2^18 (a 2^-10 base grid plus 8 jitter
bits); knots are i / (v - 1).  Curves reach the library through
fileio.curve_from_obj with "p/q" strings, as `curvepart partition` reads them.
This generator is the benchmark's own; it shares no code with
curvepart.explore or the tests, so edits there cannot shift the load.
"""

import hashlib
import json
import random
from dataclasses import dataclass

BASE_BITS = 10
JITTER_BITS = 8
JITTER = 1 << (JITTER_BITS - 2)  # a quarter of the base grid step
POOL_SEED = "curvebench-pool-1"

BELOW = "below"        # 0 < y < x < 1 at every interior vertex
INTERIOR = "interior"  # anywhere in the open unit square


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str          # "solve" or "oracle"
    classes: tuple     # curve classes, cycled over the pool
    vertices: tuple    # inclusive range, endpoints counted
    orders: tuple      # inclusive range of n
    pool: int          # base shapes; odd, so p50 falls inside one shape's band
    tail_pct: int      # inside a band too, with >= 10 baseline ops beyond it
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "deep-induction", "solve", (BELOW,), (6, 10), (8, 12), 9, 61,
            "below-diagonal, 6-10 vertices, n 8-12: n-1 climbs per solve, "
            "PL pieces and denominators grow; loads climb, plfun.compose/"
            "pl_eval and scalar",
        ),
        Workload(
            "wide-curve", "solve", (BELOW,), (32, 64), (2, 3), 9, 72,
            "below-diagonal, 32-64 vertices, n 2-3: few levels over many "
            "segments; loads plcurve membership scans and all-pairs "
            "curve_intersections",
        ),
        Workload(
            "interior-joins", "solve", (INTERIOR,), (6, 24), (3, 6), 41, 96,
            "vertices anywhere in the open square, 6-24 vertices, n 3-6: "
            "tail normalization, swap above the diagonal and boundary-join "
            "retries in pipeline",
        ),
        Workload(
            "oracle-sweep", "oracle", (BELOW, INTERIOR), (5, 8), (0, 1), 13, 73,
            "brute_force at grid 10000, 5-8 vertices, order 0-1: only the "
            "float oracle works; the bypass workload for exact-core changes",
        ),
    )
}


def _base_pool(wl):
    """The workload's fixed shapes: (class, vertices, order, grid points).

    Vertex counts spread evenly over the range and orders cycle, so even a
    small pool covers the stated input sizes.
    """
    rng = random.Random(f"{POOL_SEED}/{wl.name}")
    top = (1 << BASE_BITS) - 1
    v_lo, v_hi = wl.vertices
    o_lo, o_hi = wl.orders
    pool = []
    for i in range(wl.pool):
        cls = wl.classes[i % len(wl.classes)]
        v = v_lo + i * (v_hi - v_lo + 1) // wl.pool
        n = o_lo + (i // len(wl.classes)) % (o_hi - o_lo + 1)
        pts = []
        for _ in range(v - 2):
            if cls == BELOW:
                x = rng.randrange(2, top)
                y = rng.randrange(1, x)
            else:
                x = rng.randrange(1, top + 1)
                y = rng.randrange(1, top + 1)
            pts.append((x, y))
        pool.append((cls, v, n, pts))
    return pool


def _jittered_obj(v, pts, rng):
    den = 1 << (BASE_BITS + JITTER_BITS)

    def coord(k):
        return f"{(k << JITTER_BITS) + rng.randrange(-JITTER, JITTER)}/{den}"

    points = [["0/1", "0/1"]]
    points += [[coord(x), coord(y)] for x, y in pts]
    points.append(["1/1", "1/1"])
    return {"knots": [f"{i}/{v - 1}" for i in range(v)], "points": points}


@dataclass(frozen=True)
class OpInput:
    shape: int
    cls: str
    n: int
    curve: object


def make_cycle(wl, fileio, seed, cycle):
    """Inputs for one cycle through the pool, in a seeded order so that a
    run cut mid-cycle favours no shape; the same (seed, cycle) always gives
    the same curves."""
    rng = random.Random(f"{seed}/{wl.name}/{cycle}")
    shapes = list(enumerate(_base_pool(wl)))
    rng.shuffle(shapes)
    return [
        OpInput(i, cls, n, fileio.curve_from_obj(_jittered_obj(v, pts, rng)))
        for i, (cls, v, n, pts) in shapes
    ]


SOLVE_TOL = "1e-9"     # the CLI's default --tol
ORACLE_TOL = "1e-6"    # brute_force's own acceptance tolerance


def run_op(wl, mods, inp):
    """One op, as the CLI would run it minus file I/O.

    solve: partition_curve then oracle.verify; oracle: brute_force.
    Returns (result, report); report is None for oracle ops.
    """
    pipeline, oracle = mods["pipeline"], mods["oracle"]
    if wl.kind == "solve":
        tol = mods["scalar"].parse_rational(SOLVE_TOL)
        res = pipeline.partition_curve(inp.curve, inp.n, tol=tol)
        rep = oracle.verify(inp.curve, res.points, tol=0 if res.exact else tol)
        return res, rep
    return oracle.brute_force(inp.curve, inp.n, grid=10_000), None


def check_op(wl, mods, inp, res, rep):
    """Why an op's output is wrong, or None when it is correct."""
    oracle, scalar = mods["oracle"], mods["scalar"]
    if wl.kind == "oracle":
        if not res and inp.cls == BELOW:
            return "below-diagonal sweep found no partition"
        tol = scalar.parse_rational(ORACLE_TOL)
        for sol in res:
            if sol.S != inp.n + 2 or not oracle.verify(inp.curve, sol.points, tol).ok:
                return "sweep returned a partition that does not verify"
        return None
    if not rep.ok:
        return "result does not verify"
    if res.S != inp.n + 1 or len(res.points) != inp.n + 2:
        return f"wrong increment count {res.S}"
    tol = 0 if res.exact else scalar.parse_rational(SOLVE_TOL)
    perm = res.rearrangement.as_perm(res.S)
    if any(abs(res.dy[i] - res.dx[perm[i]]) > tol for i in range(res.S)):
        return "claimed rearrangement does not hold"
    if res.exact and res.residual != 0:
        return "exact result with nonzero residual"
    return None


def canonical_bytes(wl, fileio, res):
    """Sorted-key JSON of fileio.result_to_obj; the oracle's float results
    use float mode."""
    if wl.kind == "oracle":
        obj = [fileio.result_to_obj(s, fileio.FLOAT) for s in res]
    else:
        obj = fileio.result_to_obj(res, fileio.EXACT)
    return json.dumps(obj, sort_keys=True).encode()


def digest(chunks):
    h = hashlib.sha256()
    for c in chunks:
        h.update(c)
        h.update(b"\n")
    return h.hexdigest()
