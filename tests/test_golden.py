"""Golden bytes: a fixed digest of exact solver output across commits.

The determinism criterion compares reruns within one process; this test
pins the bytes themselves, so a refactor that changes any point, trace
field or rearrangement on these curves fails here.  Every curve is
spelled out with dyadic coordinates (no random generator), and together
they reach each solve branch: below the diagonal, tail normalization
after a diagonal touch, a diagonal tail, the swap above the diagonal,
boundary joins, and `NOT_CLASS_U`, whose height and first closing sum
are both outside class U (each has a flat, or a level that is both a local
maximum and a local minimum).
"""

import hashlib
import json

import pytest

from curvepart import (
    PLCurve,
    diagonal_curve,
    partition_below_diagonal,
    partition_curve,
    pipeline,
    verify,
)
from curvepart.fileio import result_to_obj
from curvepart.pipeline import DEFAULT_TOL
from curvepart.plcurve import point_on_curve
from curvepart.scalar import rat as R

GOLDEN_SHA256 = (
    "7db5b31c68b51d9eb202e9c17753f9e54d8de0d69301dfa1104df2d14df0c2be")

BELOW = PLCurve([0, R(1, 2), 1], [(0, 0), (R(3, 4), R(1, 4)), (1, 1)])
BELOW_WIGGLE = PLCurve(
    [0, R(1, 4), R(1, 2), R(3, 4), 1],
    [(0, 0), (R(3, 8), R(1, 8)), (R(1, 2), R(1, 16)), (R(13, 16), R(1, 2)),
     (1, 1)])
TOUCHING = PLCurve(
    [0, R(1, 4), R(1, 2), R(3, 4), 1],
    [(0, 0), (R(1, 4), R(3, 8)), (R(1, 2), R(1, 2)), (R(3, 4), R(5, 8)),
     (1, 1)])
DIAGONAL_TAIL = PLCurve(
    [0, R(1, 4), R(1, 2), 1],
    [(0, 0), (R(5, 8), R(1, 4)), (R(1, 2), R(1, 2)), (1, 1)])
ABOVE = PLCurve([0, R(1, 2), 1], [(0, 0), (R(1, 4), R(3, 4)), (1, 1)])
JOIN = PLCurve(
    [0, R(1, 4), R(1, 2), R(3, 4), 1],
    [(0, 0), (R(1, 2), R(1, 2)), (R(11, 16), R(5, 16)), (R(7, 8), R(13, 16)),
     (1, 1)])
JOIN_SWAPPED = PLCurve(
    [0, R(1, 4), R(1, 2), R(3, 4), 1],
    [(0, 0), (R(3, 8), R(3, 16)), (R(1, 2), R(1, 2)), (R(5, 16), R(11, 16)),
     (1, 1)])
# neither the height nor the first closing sum is class U
NOT_CLASS_U = PLCurve(
    [R(k, 8) for k in range(6)] + [1],
    [(0, 0), (R(1, 2), R(3, 8)), (R(3, 8), R(3, 16)), (R(1, 2), R(7, 16)),
     (R(1, 2), R(3, 8)), (R(3, 4), R(11, 16)), (1, 1)])


def _golden_results():
    out = []
    for n in range(7):
        out.append(("below", n, partition_below_diagonal(BELOW, n)))
    for n in range(4):
        out.append(("below-wiggle", n, partition_below_diagonal(BELOW_WIGGLE, n)))
    for n in range(1, 7):
        out.append(("curve-below", n, partition_curve(BELOW, n)))
    for name, curve, n in (
        ("touching", TOUCHING, 2),
        ("touching", TOUCHING, 4),
        ("diagonal-tail", DIAGONAL_TAIL, 3),
        ("diagonal", diagonal_curve(), 2),
        ("above", ABOVE, 3),
        ("join", JOIN, 3),
        ("join-swapped", JOIN_SWAPPED, 3),
    ):
        out.append((name, n, partition_curve(curve, n)))
    out.append(("not-class-u", 2, partition_below_diagonal(NOT_CLASS_U, 2)))
    return out


@pytest.fixture(scope="module")
def golden_results():
    return _golden_results()


def _digest(results):
    obj = [[name, n, result_to_obj(res)] for name, n, res in results]
    text = json.dumps(obj, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def test_golden_cases_reach_every_branch(golden_results):
    by_name = {name: res for name, _, res in golden_results}
    assert by_name["touching"].trace.last_touch > 0
    assert by_name["diagonal-tail"].trace.branch == "diagonal"
    assert by_name["above"].trace.swapped
    assert by_name["join"].trace.boundary_joins
    assert by_name["join-swapped"].trace.boundary_joins
    assert by_name["join-swapped"].trace.swapped
    assert by_name["not-class-u"].exact
    assert not by_name["not-class-u"].trace.perturbations


def test_golden_bytes(golden_results):
    assert _digest(golden_results) == GOLDEN_SHA256


# each case solves through partition_curve and proves the branch it took
BRANCH_CASES = {
    "below": (BELOW, 4, DEFAULT_TOL,
              lambda r: r.trace.branch == "below" and r.trace.last_touch == 0),
    "touching": (TOUCHING, 4, DEFAULT_TOL, lambda r: r.trace.last_touch > 0),
    "diagonal-tail": (DIAGONAL_TAIL, 3, DEFAULT_TOL,
                      lambda r: r.trace.branch == "diagonal"),
    "above": (ABOVE, 3, DEFAULT_TOL, lambda r: r.trace.swapped),
    "join": (JOIN, 3, DEFAULT_TOL, lambda r: r.trace.boundary_joins),
    "join-swapped": (JOIN_SWAPPED, 3, DEFAULT_TOL,
                     lambda r: r.trace.boundary_joins and r.trace.swapped),
    "not-class-u": (NOT_CLASS_U, 3, DEFAULT_TOL,
                    lambda r: r.exact and not r.trace.perturbations),
}


@pytest.mark.parametrize("name", list(BRANCH_CASES))
def test_one_final_verify_per_solve(monkeypatch, name):
    """`partition_curve` is the one verified boundary: each solve runs the
    geometric check once, on the input curve, whatever the branch."""
    curve, n, tol, took_branch = BRANCH_CASES[name]
    real = pipeline._final_verify
    checked = []

    def counting(c, res, t):
        checked.append(c)
        return real(c, res, t)

    monkeypatch.setattr(pipeline, "_final_verify", counting)
    res = partition_curve(curve, n, tol=tol)
    assert took_branch(res)
    assert checked == [curve]


@pytest.mark.parametrize("name", ("join", "join-swapped"))
def test_join_points_lie_on_the_curve(name):
    """A join projects its points onto the tail, and the map back to the
    input is exact, so `_final_verify` can ask for exact membership."""
    curve, n, tol, took_branch = BRANCH_CASES[name]
    res = partition_curve(curve, n, tol=tol)
    assert took_branch(res)
    assert all(point_on_curve(curve, p) for p in res.points)


@pytest.mark.parametrize("n", range(1, 7))
def test_not_class_u_exact(n):
    res = partition_curve(NOT_CLASS_U, n, tol=0)
    assert res.exact and not res.trace.perturbations
    assert verify(NOT_CLASS_U, res.points, tol=0).ok
