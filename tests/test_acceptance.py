"""Acceptance suite: each criterion prints one PASS/FAIL line and is
guarded by its runtime budget.  The determinism criterion re-runs every
producer and compares canonical result bytes.

Runnable standalone: python tests/test_acceptance.py
"""

import json
import math
import random
import sys
import time

from curvepart import (
    NonInteriorCurveError,
    PLCurve,
    PLFunction,
    brute_force,
    compose,
    identity,
    partition_curve,
    partition_densities,
    pl_eval,
    random_curve,
    solve,
    solve_graph,
    verify,
)
from curvepart.cli import run as cli_run
from curvepart.fileio import dump_json, result_to_obj, write_number
from curvepart.scalar import rat

from util import climb_pair

R = rat

_ARTIFACTS = {}


def _canonical_bytes(obj):
    return json.dumps(obj, sort_keys=True).encode()


def _record(name, producer, budget_s):
    start = time.perf_counter()
    ok, detail, artifact = producer()
    elapsed = time.perf_counter() - start
    line = (f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} "
            f"({detail}; {elapsed:.1f}s of {budget_s}s budget)")
    print(line)
    _ARTIFACTS[name] = artifact
    assert ok, line
    assert elapsed < budget_s, line
    return artifact


# ---------------------------------------------------------------- criteria

def produce_exact_shift():
    results = []
    for seed in range(50):
        c = random_curve(seed, vertices=3 + seed % 6,
                         curve_class="deltaInterior")
        for s in range(2, 7):
            res = partition_curve(c, s - 1)
            if not res.exact:
                return False, f"seed {seed} S={s} inexact", b""
            for i in range(res.S):
                if res.dy[i] != res.dx[(i - 1) % res.S]:
                    return False, f"seed {seed} S={s} shift broken", b""
            if any(d <= 0 for d in res.dx + res.dy):
                return False, f"seed {seed} S={s} increments", b""
            rep = verify(c, res.points, tol=0)
            if not rep.ok or rep.on_curve_max_dist != 0:
                return False, f"seed {seed} S={s} off curve", b""
            results.append(result_to_obj(res, "exact"))
    return True, "50 curves x S=2..6 exact", _canonical_bytes(results)


def produce_dichotomy():
    results = []
    for seed in range(100):
        c = random_curve(seed, vertices=3 + seed % 5, curve_class="interior")
        res = partition_curve(c, 1)
        x1, y1 = res.points[1]
        if not (x1 == y1 or x1 + y1 == 1):
            return False, f"seed {seed} violates dichotomy", b""
        if not res.exact:
            return False, f"seed {seed} inexact", b""
        results.append(result_to_obj(res, "exact"))
    return True, "100 interior curves, single point on a diagonal",\
        _canonical_bytes(results)


def produce_graph_closed_forms():
    results = []
    for n in range(1, 7):
        sol = solve_graph(identity(), n)
        if list(sol.abscissae) != [R(i, n + 1) for i in range(n + 2)]:
            return False, f"identity closed form failed at n={n}", b""
        results.append([write_number(x, "exact") for x in sol.abscissae])
    pieces = 4096
    f = PLFunction([(R(k, pieces), R(k, pieces) ** 2)
                    for k in range(pieces + 1)])
    sol = solve_graph(f, 1)
    golden = (math.sqrt(5) - 1) / 2
    gap = abs(float(sol.abscissae[1]) - golden)
    if gap >= 1e-4:
        return False, f"golden-section gap {gap}", b""
    results.append([write_number(x, "exact") for x in sol.abscissae])
    return True, f"identity n<=6 exact; square-curve gap {gap:.2e}",\
        _canonical_bytes(results)


def produce_climb_exactness():
    results = []
    for seed in range(100):
        f1, f2 = climb_pair(seed)
        sol = solve(f1, f2)
        if compose(f1, sol.g1) != compose(f2, sol.g2):
            return False, f"seed {seed} composition differs", b""
        for g in (sol.g1, sol.g2):
            if pl_eval(g, 0) != 0 or pl_eval(g, 1) != 1:
                return False, f"seed {seed} endpoints", b""
        results.append({
            "g1": [[write_number(t, "exact"), write_number(v, "exact")]
                   for t, v in sol.g1.breakpoints],
            "g2": [[write_number(t, "exact"), write_number(v, "exact")]
                   for t, v in sol.g2.breakpoints],
        })
    return True, "100 pairs, canonical composition equality",\
        _canonical_bytes(results)


def produce_oracle_agreement():
    results = []
    for seed in range(20):
        c = random_curve(seed, vertices=4 + seed % 4,
                         curve_class="deltaInterior")
        for s in (2, 3):
            found = brute_force(c, s - 2)
            if not found:
                return False, f"seed {seed} S={s}: oracle found nothing", b""
            res = partition_curve(c, s - 1)
            if res.points not in [r.points for r in found]:
                return False, f"seed {seed} S={s}: not an oracle root", b""
            results.append({
                "seed": seed, "S": s, "oracleSolutions": len(found),
                "pipeline": result_to_obj(res, "exact"),
            })
    return True, "20 curves x S=2,3: the pipeline's partition is an oracle root",\
        _canonical_bytes(results)


def produce_counterexample_rejection():
    curve = PLCurve([0, R(1, 2), 1], [(0, 0), (1, 0), (1, 1)])
    results = []
    for n in range(1, 5):
        try:
            partition_curve(curve, n)
            return False, f"n={n} accepted a boundary curve", b""
        except NonInteriorCurveError:
            pass
        if brute_force(curve, n, grid=1000) != []:
            return False, f"n={n} oracle found phantom solutions", b""
        results.append({"n": n, "rejected": True, "bruteEmpty": True})
    # the CLI maps the rejection onto exit code 2
    import tempfile, os

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "lshape.json")
        dump_json({"knots": ["0/1", "1/2", "1/1"],
                   "points": [["0/1", "0/1"], ["1/1", "0/1"],
                              ["1/1", "1/1"]]}, path)
        code = cli_run(["partition", "--input", path, "--n", "1"])
    if code != 2:
        return False, f"CLI exit {code} != 2", b""
    return True, "boundary curve rejected for n=1..4, exit 2, oracle empty",\
        _canonical_bytes(results)


def _random_step_density(rng, pieces):
    cuts = sorted(rng.sample(range(1, 64), pieces - 1))
    knots = [R(0)] + [R(t, 64) for t in cuts] + [R(1)]
    raw = [R(rng.randrange(1, 16)) for _ in range(pieces)]
    total = sum(v * (b - a) for v, a, b in zip(raw, knots, knots[1:]))
    return ("step", knots, [v / total for v in raw])


def _step_mass(dens, a, b):
    _, knots, values = dens
    total = R(0)
    for (k0, k1), v in zip(zip(knots, knots[1:]), values):
        lo, hi = max(k0, a), min(k1, b)
        if lo < hi:
            total += v * (hi - lo)
    return total


def produce_density_splitting():
    results = []
    uniform = ("step", [R(0), R(1)], [R(1)])
    for n in (1, 2, 3, 4):
        out = partition_densities(uniform, uniform, n)
        if out.parameters != tuple(R(i, n + 1) for i in range(n + 2)):
            return False, f"uniform split wrong at n={n}", b""
        results.append([write_number(t, "exact") for t in out.parameters])
    for seed in range(20):
        rng = random.Random(1000 + seed)
        f = _random_step_density(rng, rng.randrange(2, 6))
        g = _random_step_density(rng, rng.randrange(2, 6))
        n = 1 + seed % 3
        out = partition_densities(f, g, n)
        if not out.result.exact:
            return False, f"seed {seed} inexact", b""
        ts = out.parameters
        mass_f = [_step_mass(f, a, b) for a, b in zip(ts, ts[1:])]
        mass_g = [_step_mass(g, a, b) for a, b in zip(ts, ts[1:])]
        perm = out.result.rearrangement.as_perm(out.result.S)
        for i in range(out.result.S):
            if mass_g[i] != mass_f[perm[i]]:
                return False, f"seed {seed} masses mismatch at {i}", b""
        if mass_f != list(out.result.dx) or mass_g != list(out.result.dy):
            return False, f"seed {seed} quadrature disagrees", b""
        results.append({
            "seed": seed, "n": n,
            "parameters": [write_number(t, "exact") for t in ts],
        })
    return True, "uniform exact; 20 step pairs match exact quadrature",\
        _canonical_bytes(results)


_PRODUCERS = [
    ("1 exact shift identity", produce_exact_shift, 60),
    ("2 closing-point dichotomy", produce_dichotomy, 30),
    ("3 graph-case closed forms", produce_graph_closed_forms, 10),
    ("4 climb exactness", produce_climb_exactness, 60),
    ("5 oracle agreement", produce_oracle_agreement, 120),
    ("6 counterexample rejection", produce_counterexample_rejection, 5),
    ("7 density splitting", produce_density_splitting, 30),
]


def test_criterion_1_exact_shift():
    _record(*_PRODUCERS[0])


def test_criterion_2_dichotomy():
    _record(*_PRODUCERS[1])


def test_criterion_3_graph_closed_forms():
    _record(*_PRODUCERS[2])


def test_criterion_4_climb_exactness():
    _record(*_PRODUCERS[3])


def test_criterion_5_oracle_agreement():
    _record(*_PRODUCERS[4])


def test_criterion_6_counterexample():
    _record(*_PRODUCERS[5])


def test_criterion_7_density_splitting():
    _record(*_PRODUCERS[6])


def test_criterion_8_determinism():
    start = time.perf_counter()
    ok = True
    detail = []
    for name, producer, _budget in _PRODUCERS:
        first = _ARTIFACTS.get(name)
        if first is None:
            _ok, _detail, first = producer()
            ok = ok and _ok
        _ok, _d, second = producer()
        ok = ok and _ok
        if first != second:
            ok = False
            detail.append(name)
    elapsed = time.perf_counter() - start
    msg = ("byte-identical reruns" if not detail
           else f"criteria diverged: {detail}")
    print(f"ACCEPTANCE 8 determinism: {'PASS' if ok else 'FAIL'} "
          f"({msg}; {elapsed:.1f}s)")
    assert ok, detail


if __name__ == "__main__":
    failures = 0
    for name, producer, budget in _PRODUCERS:
        try:
            _record(name, producer, budget)
        except AssertionError as exc:
            failures += 1
    try:
        test_criterion_8_determinism()
    except AssertionError:
        failures += 1
    sys.exit(1 if failures else 0)
