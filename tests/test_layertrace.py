"""The benchmark's layer trace (curvebench/layertrace.py) wraps curvepart
functions by module and name, and its hooks read the results.  A rename or
a changed result type breaks only traced benchmark runs (exit 3, or an
error inside a hook); these checks make the plain test run catch it.  The
file is loaded by path and only read."""

import importlib
import importlib.util
from collections import defaultdict
from pathlib import Path

import pytest

from curvepart import oracle, pipeline, random_curve

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


def test_traced_solve_records_every_solve_target(layertrace):
    # one below-diagonal solve plus the harness's verify, as a benchmark op
    curve = random_curve(1, vertices=6)
    tracer = layertrace.Tracer("curvepart")
    tracer.install()
    try:
        res = tracer.run_op(0, pipeline.partition_curve, curve, 4)
        assert oracle.verify(curve, res.points).ok
    finally:
        tracer.uninstall()
    tracer.check_bindings("deep-induction")
    assert tracer.stats["scalar.pf_den_bits_max"] > 0
