"""The benchmark's layer trace (curvebench/layertrace.py) wraps curvepart
functions by module and name, and its hooks read the results.  A rename, a
changed result type or a dropped call breaks only traced benchmark runs
(exit 3, or an error inside a hook); these checks make the plain test run
catch it, with one traced op per benchmark workload kind.  The file is
loaded by path and only read."""

import importlib
import importlib.util
from collections import defaultdict
from pathlib import Path

import pytest

from curvepart import oracle, pipeline, random_curve
from curvepart.scalar import rat

from test_pipeline import DIPPING_TAIL

LAYERTRACE = Path(__file__).resolve().parents[1] / "curvebench" / "layertrace.py"


@pytest.fixture(scope="module")
def layertrace():
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_targets_name_callables(layertrace):
    for mod_name, fn_name, kind, _ in layertrace.TARGETS:
        mod = importlib.import_module(f"curvepart.{mod_name}")
        assert callable(getattr(mod, fn_name, None)), f"{mod_name}.{fn_name}"
        assert kind in ("span", "leaf")
    spans = {fn for _, fn, kind, _ in layertrace.TARGETS if kind == "span"}
    assert set(layertrace.HOOKS) <= spans


def test_partitioning_functions_hook_reads_y_and_xs(layertrace):
    curve = random_curve(1, vertices=6)
    pf = pipeline.build_partitioning_functions(curve, 3)
    stats = defaultdict(int)
    layertrace._on_build_partitioning_functions(stats, (curve, 3), pf)
    bits = max(v.denominator.bit_length()
               for f in (pf.y,) + pf.xs for bp in f.breakpoints for v in bp)
    assert bits > 0
    assert stats["scalar.pf_den_bits_max"] == bits


def _traced(layertrace, fn, *args):
    """Tracer and result of one traced op."""
    tracer = layertrace.Tracer("curvepart")
    tracer.install()
    try:
        return tracer, tracer.run_op(0, fn, *args)
    finally:
        tracer.uninstall()


def _solve_and_verify(curve, n, tol):
    # a solve op as the benchmark runs it: the solve, then the verify
    res = pipeline.partition_curve(curve, n, tol=tol)
    assert oracle.verify(curve, res.points, tol=0 if res.exact else tol).ok
    return res


def test_traced_solve_records_every_solve_target(layertrace):
    # one below-diagonal solve
    tracer, _ = _traced(layertrace, _solve_and_verify,
                        random_curve(1, vertices=6), 4, pipeline.DEFAULT_TOL)
    tracer.check_bindings("deep-induction")
    assert tracer.stats["scalar.pf_den_bits_max"] > 0


def test_traced_wide_pair_records_every_solve_target(layertrace):
    # wide-curve's shape: below the diagonal, 40 vertices; n = 2 solves
    # with no climb and n = 3 with one, and the pair reaches every target
    curve = random_curve(5, vertices=40)
    tracer = layertrace.Tracer("curvepart")
    tracer.install()
    try:
        for op_id, n in enumerate((2, 3)):
            tracer.run_op(op_id, _solve_and_verify, curve, n,
                          pipeline.DEFAULT_TOL)
    finally:
        tracer.uninstall()
    tracer.check_bindings("wide-curve")
    totals = tracer.totals()
    # the induction finds t_stop on its row table: only the dispatch's
    # diagonal-touch search calls level_set, once per op
    assert totals["plfun.level_set"][0] == 2
    assert totals["climb.solve_either_orientation"][0] == 1


def test_traced_join_records_every_join_target(layertrace):
    # the tail's join accepts its fifth cut; the rejected ones snap points
    # onto the tail, and every cut's solve climbs
    tracer, res = _traced(layertrace, _solve_and_verify,
                          DIPPING_TAIL, 4, rat(1, 10**9))
    assert len(res.trace.boundary_joins) > 1
    tracer.check_bindings("interior-joins")


def _sweep(curve, n, grid):
    # looked up at call time, as the benchmark's op does, so the traced
    # binding runs
    return oracle.brute_force(curve, n, grid=grid)


def test_traced_sweep_records_every_oracle_target(layertrace):
    tracer, res = _traced(layertrace, _sweep,
                          random_curve(4, vertices=4), 1, 200)
    assert res
    tracer.check_bindings("oracle-sweep")
