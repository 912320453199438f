"""curvepart benchmark: closed loop, one client, one process, no threads.

Run from the root of a curvepart checkout (the package is imported from its
src/ directory, nothing needs installing):

    python3 curvebench/run.py --workload deep-induction --seed 1 --seconds 30 --trace 0
    python3 curvebench/run.py --workload all --seed 1 --seconds 30 --trace 1

Each op gets a fresh input (see workloads.py) and the run cycles through the
workload's pool of shapes until --seconds have been spent inside ops.  In
the statistics every shape weighs the same, whatever its number of ops, and
every time is scaled to a reference machine speed (see SpeedProbe).

--trace 0 reports the end-to-end metrics.  --trace 1 runs every input twice,
untraced and then traced, and reports the per-layer metrics of the traced
ops plus the tracing overhead.  Every metric is printed on a `metric` line
with its unit; the last line is one JSON object with the keys correct,
attempted, failed and metrics.  `--workload all` runs each workload in its
own process and merges their JSON lines.

Exit codes: 0 done, 2 no curvepart source to run, 3 the layer trace missed a
binding.
"""

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from layertrace import TARGETS, BindingError, Tracer, den_bits
from workloads import WORKLOADS, canonical_bytes, check_op, digest, make_cycle, run_op

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_REPS = 9
PACKAGE = "curvepart"


def import_curvepart():
    """Import curvepart afresh from the checkout's src/ directory."""
    for name in [m for m in sys.modules
                 if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    pkg = importlib.import_module(PACKAGE)
    if SRC not in Path(pkg.__file__).resolve().parents:
        raise ImportError(f"{PACKAGE} came from {pkg.__file__}, not {SRC}")
    return {name: importlib.import_module(f"{PACKAGE}.{name}")
            for name in ("pipeline", "oracle", "fileio", "scalar")}


# Co-tenants on a small shared VM slow every Python loop for seconds at a
# time, and how often they do so drifts over minutes: on the 2-core Intel
# Xeon VM the benchmark was tuned on, a fixed Fraction loop read 11-22 ms in
# consecutive 5-s windows, and one solve repeated for a minute varied 1.9x.
# Raw times therefore differ by tens of percent between runs of the same
# code.  probe_work is timed between ops all through the run, and each op's
# time is multiplied by (REF_PROBE_S / p) ** PROBE_EXPONENT, p being the
# median probe time within PROBE_WINDOW_S of the op, so that it reads as
# seconds at that machine's uncontended speed.  The exponent is the
# least-squares slope of log op time on log probe time (0.71 for a
# deep-induction solve, 0.65 for an oracle sweep): contention slows the
# probe more than the library.  Over ten deep-induction runs this cut the
# spread of op_s_p50 across seeds from 0.25 to 0.09 of its median.  The probe never calls
# curvepart, so no program change moves it.
PROBE_EVERY_S = 0.25
PROBE_SAMPLES = 2
PROBE_WINDOW_S = 1.5
PROBE_EXPONENT = 0.7
REF_PROBE_S = 0.002


def probe_work():
    """Fixed Fraction arithmetic with growing denominators and small tuples,
    the bulk of the exact core's work."""
    acc, pts = Fraction(0), []
    for i in range(1, 700):
        f = Fraction(i % 97 + 1, i % 89 + 2)
        acc += f
        pts.append((f, acc))
    return max(pts)


class SpeedProbe:
    """Times probe_work between ops, at most every PROBE_EVERY_S."""

    def __init__(self):
        self.samples = []  # (mid time, seconds)
        self._last = None

    def maybe(self, force=False):
        now = time.perf_counter()
        if not force and self._last is not None and now - self._last < PROBE_EVERY_S:
            return
        for _ in range(PROBE_SAMPLES):
            t0 = time.perf_counter()
            probe_work()
            t1 = time.perf_counter()
            self.samples.append(((t0 + t1) / 2, t1 - t0))
        self._last = time.perf_counter()

    def scale(self, start, end):
        """Factor taking a time measured over [start, end] to the reference
        speed."""
        lo, hi = start - PROBE_WINDOW_S, end + PROBE_WINDOW_S
        near = statistics.median(dt for t, dt in self.samples if lo <= t <= hi)
        return (REF_PROBE_S / near) ** PROBE_EXPONENT


def setup(wl, seed, probe):
    """Import plus first-cycle input generation, SETUP_REPS times; the last
    repetition's modules and inputs are the ones measured.  Returns the
    median scaled time."""
    spans = []
    probe.maybe(force=True)
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        mods = import_curvepart()
        inputs = make_cycle(wl, mods["fileio"], seed, 0)
        spans.append((t0, time.perf_counter()))
    probe.maybe(force=True)
    return mods, inputs, statistics.median(
        (t1 - t0) * probe.scale(t0, t1) for t0, t1 in spans)


@dataclass(frozen=True)
class SolveFacts:
    """What the metrics need from a returned solve; results themselves are
    dropped, so peak memory does not grow with the number of ops run."""

    exact: bool
    joins: int
    refine_rounds: int
    swapped: bool
    den_bits: int

    @classmethod
    def of(cls, res):
        tr = res.trace
        return cls(res.exact, len(tr.boundary_joins), len(tr.perturbations),
                   tr.swapped, den_bits(c for pt in res.points for c in pt))


@dataclass
class Op:
    cycle: int
    shape: int
    traced: bool
    start: float
    end: float
    latency: float = 0.0  # end - start, scaled to the reference speed
    solve: SolveFacts = None  # returned solves only
    error: str = None   # raised: exception type and message
    wrong: str = None   # returned, but the check rejected the output


def _timed(wl, mods, inp, cycle, tracer=None):
    """Run and check one op; returns the Op and the result (None if raised)."""
    t0 = time.perf_counter()
    try:
        if tracer is None:
            res, rep = run_op(wl, mods, inp)
        else:
            tracer.install()
            try:
                res, rep = tracer.run_op(len(tracer.spans), run_op, wl, mods, inp)
            finally:
                tracer.uninstall()
    except Exception as exc:  # a failed op is counted, never fatal
        t1 = time.perf_counter()
        print(f"op failed: cycle {cycle} shape {inp.shape}: "
              f"{traceback.format_exception_only(exc)[-1].strip()}",
              file=sys.stderr)
        return Op(cycle, inp.shape, tracer is not None, t0, t1,
                  error=f"{type(exc).__name__}: {exc}"), None
    op = Op(cycle, inp.shape, tracer is not None, t0, time.perf_counter(),
            solve=SolveFacts.of(res) if wl.kind == "solve" else None,
            wrong=check_op(wl, mods, inp, res, rep))
    if op.wrong:
        print(f"op wrong: cycle {cycle} shape {inp.shape}: {op.wrong}",
              file=sys.stderr)
    return op, res


def measure(wl, mods, seed, seconds, first, probe, tracer=None):
    """Closed loop over the pool until `seconds` are spent inside ops.

    With a tracer, each input runs untraced and then traced.  Returns the
    ops, latencies scaled by the probe, and the canonical bytes of each
    cycle-0 result, by pool shape.
    """
    ops, cycle0 = [], {}
    spent, cycle = 0.0, 0
    probe.maybe(force=True)
    while spent < seconds:
        inputs = make_cycle(wl, mods["fileio"], seed, cycle) if cycle else first
        for inp in inputs:
            if spent >= seconds:
                break
            for tr in (None, tracer) if tracer else (None,):
                probe.maybe()
                op, res = _timed(wl, mods, inp, cycle, tr)
                ops.append(op)
                spent += op.end - op.start
                if cycle == 0 and tr is None:
                    cycle0[inp.shape] = (
                        canonical_bytes(wl, mods["fileio"], res)
                        if res is not None else op.error.encode())
        cycle += 1
    probe.maybe(force=True)
    for op in ops:
        op.latency = (op.end - op.start) * probe.scale(op.start, op.end)
    return ops, cycle0


def _shape_weights(ops):
    """Each pool shape gets total weight 1/K, split evenly over its ops, so a
    run that stops mid-cycle favours no shape."""
    per_shape = Counter(op.shape for op in ops)
    return [1 / (len(per_shape) * per_shape[op.shape]) for op in ops]


def _weighted_quantile(ops, weights, p):
    """The p-th percentile of latency under the shape weights, read as the
    mean over a band of weight around p (+-5 points, narrower near 100).  A
    single order statistic moves with the noise of one op; the band averages
    the several ops of the shape it falls in."""
    half = min(5, (100 - p) / 2) / 100
    lo, hi = p / 100 - half, p / 100 + half
    acc = total = 0.0
    for op, w in sorted(zip(ops, weights), key=lambda ow: ow[0].latency):
        overlap = min(acc + w, hi) - max(acc, lo)
        if overlap > 0:
            total += overlap * op.latency
        acc += w
    return total / (hi - lo)


def end_to_end(wl, ops, setup_s):
    weights = _shape_weights(ops)
    failed = sum(1 for op in ops if op.error or op.wrong)
    solves = [op.solve for op in ops if op.solve is not None]
    tail = _weighted_quantile(ops, weights, wl.tail_pct)
    beyond = sum(1 for op in ops if op.latency > tail)
    mean_s = sum(w * op.latency for op, w in zip(ops, weights))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    rows = [
        ("op_s_p50", _weighted_quantile(ops, weights, 50), "s",
         f"{len(ops)} ops over {len(set(op.shape for op in ops))} shapes; "
         f"unscaled median {statistics.median(op.end - op.start for op in ops):.4g} s"),
        ("op_s_tail", tail, "s",
         f"p{wl.tail_pct}, {beyond} of {len(ops)} ops beyond it"),
        ("ops_per_s", 1 / mean_s, "1/s",
         f"v {wl.vertices[0]}-{wl.vertices[1]}, n {wl.orders[0]}-{wl.orders[1]}"),
        ("failed_frac", failed / len(ops), "ratio", f"{failed} of {len(ops)}"),
    ]
    if wl.kind == "solve":
        exact = sum(1 for r in solves if r.exact)
        rows.append(("exact_frac", _ratio(exact, len(solves)),
                     "ratio", f"{exact} of {len(solves)} returned solves"))
    rows += [
        ("peak_rss_mb", rss_mb, "MB", "ru_maxrss of this process"),
        ("setup_s", setup_s, "s",
         f"import + input generation, median of {SETUP_REPS}"),
    ]
    if beyond < 10:
        print(f"warning: only {beyond} ops beyond p{wl.tail_pct}", file=sys.stderr)
    return rows


# Metrics that only the printed report carries: they are 0 on some workloads,
# so the JSON line leaves them to "attempted" and "failed".
REPORT_ONLY = {"failed_frac", "exact_frac"}


def _ratio(a, b):
    return a / b if b else 0.0


# (name, unit) of every per-layer metric, in report order
PER_LAYER = (
    ("plcurve.point_on_curve.calls", "count/op"),
    ("plcurve.point_on_curve.self_s", "s/op"),
    ("plcurve.point_on_curve.segments_scanned", "count/op"),
    ("plcurve.point_curve_distance_sq.calls", "count/op"),
    ("plcurve.point_curve_distance_sq.self_s", "s/op"),
    ("plcurve.curve_intersections.calls", "count/op"),
    ("plcurve.curve_intersections.self_s", "s/op"),
    ("plcurve.curve_intersections.segment_pairs", "count/op"),
    ("plcurve.curve_intersections.hit_yield", "ratio"),
    ("plcurve.nearest_point_on_curve.calls", "count/op"),
    ("plcurve.nearest_point_on_curve.self_s", "s/op"),
    ("plcurve.curve_from_functions.self_s", "s/op"),
    ("plfun.compose.calls", "count/op"),
    ("plfun.compose.self_s", "s/op"),
    ("plfun.compose.out_pieces_max", "count"),
    ("plfun.pl_eval.calls", "count/op"),
    ("plfun.pl_eval.self_s", "s/op"),
    ("plfun.level_set.calls", "count/op"),
    ("plfun.level_set.self_s", "s/op"),
    ("plfun.pl_combine.calls", "count/op"),
    ("plfun.pl_combine.self_s", "s/op"),
    ("climb.solve_either_orientation.calls", "count/op"),
    ("climb.solve_either_orientation.self_s", "s/op"),
    ("climb.level_complex_path.self_s", "s/op"),
    ("climb.level_complex_path.cells", "count/op"),
    ("climb.level_complex_path.edge_yield", "ratio"),
    ("pipeline.partition_curve.self_s", "s/op"),
    ("pipeline.build_partitioning_functions.calls", "count/op"),
    ("pipeline.build_partitioning_functions.self_s", "s/op"),
    ("pipeline.extract_points.calls", "count/op"),
    ("pipeline.extract_points.self_s", "s/op"),
    ("pipeline.partition_below_diagonal.per_op", "count/op"),
    ("pipeline.join_attempts", "count/op"),
    ("pipeline.join_yield", "ratio"),
    ("pipeline.refine_rounds", "count/op"),
    ("pipeline.joined_frac", "ratio"),
    ("pipeline.swapped_frac", "ratio"),
    ("pipeline.exact_frac", "ratio"),
    ("scalar.out_den_bits_max", "bits"),
    ("scalar.out_den_bits_p50", "bits"),
    ("scalar.pf_den_bits_max", "bits"),
    ("oracle.verify.calls", "count/op"),
    ("oracle.verify.self_s", "s/op"),
    ("oracle.brute_force.self_s", "s/op"),
    ("oracle.closure_shot.calls", "count/op"),
    ("oracle.closure_shot.self_s", "s/op"),
    ("oracle.shots_per_solution", "count"),
    ("trace.overhead_frac", "ratio"),
)


def per_layer(wl, ops, tracer):
    """Per-op layer metrics of the traced ops, as (name, value, unit, note).
    Self times are raw seconds, not scaled to the reference speed."""
    traced = [op for op in ops if op.traced]
    n_ops = len(traced)
    totals, st = tracer.totals(), tracer.stats
    vals = {}
    for mod, fn, _, _ in TARGETS:
        calls, self_s = totals[f"{mod}.{fn}"]
        vals[f"{mod}.{fn}.calls"] = (calls / n_ops, "")
        vals[f"{mod}.{fn}.self_s"] = (self_s / n_ops, "")

    solves = [op.solve for op in traced if op.solve is not None]
    joins = [r.joins for r in solves]
    joined = sum(1 for j in joins if j)
    bits = sorted(r.den_bits for r in solves)
    untraced_s = sum(op.latency for op in ops if not op.traced)
    vals.update({
        "plcurve.point_on_curve.segments_scanned": (
            st["plcurve.point_on_curve.segments_scanned"] / n_ops,
            "computed: curve segments per call"),
        "plcurve.curve_intersections.segment_pairs": (
            st["plcurve.curve_intersections.segment_pairs"] / n_ops,
            "computed: segments(a) x segments(b) per call"),
        "plcurve.curve_intersections.hit_yield": (
            _ratio(st["plcurve.curve_intersections.used"],
                   st["plcurve.curve_intersections.hits"]),
            "first hits used / hits returned"),
        "plfun.compose.out_pieces_max": (
            st["plfun.compose.out_pieces_max"], "largest result, in pieces"),
        "climb.level_complex_path.cells": (
            st["climb.level_complex_path.cells"] / n_ops,
            "computed: pieces(f1) x pieces(f2) per call"),
        "climb.level_complex_path.edge_yield": (
            _ratio(st["climb.level_complex_path.edges"],
                   st["climb.level_complex_path.cells"]),
            "path edges walked / cells enumerated"),
        "pipeline.partition_below_diagonal.per_op": (
            vals["pipeline.partition_below_diagonal.calls"][0], ""),
        "pipeline.join_attempts": (
            sum(joins) / n_ops, "len(trace.boundary_joins), returned solves"),
        "pipeline.join_yield": (
            _ratio(joined, sum(joins)), "accepted joins / join attempts"),
        "pipeline.refine_rounds": (
            sum(r.refine_rounds for r in solves) / n_ops,
            "len(trace.perturbations), returned solves"),
        "pipeline.joined_frac": (joined / n_ops, ""),
        "pipeline.swapped_frac": (
            sum(1 for r in solves if r.swapped) / n_ops, ""),
        "pipeline.exact_frac": (
            _ratio(sum(1 for r in solves if r.exact), len(solves)),
            "of returned solves"),
        "scalar.out_den_bits_max": (
            bits[-1] if bits else 0, "exact count: result point denominators"),
        "scalar.out_den_bits_p50": (
            statistics.median(bits) if bits else 0,
            "exact count: per-op maximum, median over ops"),
        "scalar.pf_den_bits_max": (
            st["scalar.pf_den_bits_max"],
            "exact count: build_partitioning_functions breakpoints"),
        "oracle.shots_per_solution": (
            _ratio(totals["oracle.closure_shot"][0],
                   st["oracle.brute_force.solutions"]), ""),
        "trace.overhead_frac": (
            sum(op.latency for op in traced) / untraced_s - 1,
            "traced / untraced op time - 1, same inputs"),
    })
    return [(name, vals[name][0], unit, vals[name][1]) for name, unit in PER_LAYER]


def stamp(mods):
    scalar = mods["scalar"].Scalar
    return {
        "backend": f"{scalar.__module__}.{scalar.__qualname__}",
        "python": platform.python_version(),
        "cores": os.cpu_count(),
    }


def run_one(args):
    wl = WORKLOADS[args.workload]
    probe = SpeedProbe()
    mods, first, setup_s = setup(wl, args.seed, probe)
    info = stamp(mods)
    print(f"# curvebench workload={wl.name} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace} "
          + " ".join(f"{k}={v}" for k, v in info.items()))

    tracer = Tracer(PACKAGE) if args.trace else None
    ops, cycle0 = measure(wl, mods, args.seed, args.seconds, first, probe, tracer)
    if tracer:
        tracer.check_bindings(wl.name)
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        tracer.dump(out / f"trace-{wl.name}-seed{args.seed}.jsonl",
                    dict(info, workload=wl.name, seed=args.seed,
                         bindings=tracer.bindings))
        rows = per_layer(wl, ops, tracer)
    else:
        rows = end_to_end(wl, ops, setup_s)
    print(f"# times scaled to the reference speed; {len(probe.samples)} probe "
          f"timings, median {statistics.median(dt for _, dt in probe.samples):.4g} s"
          f" against {REF_PROBE_S} s")

    for name, value, unit, note in rows:
        print(f"metric {name} {value:.6g} {unit}" + (f"  # {note}" if note else ""))
    print(f"result_sha256 {digest(cycle0[k] for k in sorted(cycle0))}"
          f"  # cycle 0, {len(cycle0)} inputs")
    failed = sum(1 for op in ops if op.error or op.wrong)
    print(json.dumps({
        "correct": not any(op.wrong for op in ops),
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, value, unit, _ in rows if name not in REPORT_ONLY},
    }))
    return 0


def run_all(args):
    """Each workload in a fresh process; the last line merges their results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            code = proc.returncode or 1
            continue
        res = json.loads(lines[-1])
        merged["correct"] &= res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        for metric, val in res["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = val
    if code:
        return code
    print(json.dumps(merged))
    return 0


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"curvebench: no {SRC / PACKAGE}; run from a curvepart checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    try:
        return run_one(args)
    except BindingError as exc:
        print(f"curvebench: layer trace binding check failed: {exc}",
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
