"""Outside-in layer trace for the curvepart benchmark.

Wraps curvepart's public functions on every module binding (a
`from .plfun import compose` copies the function into pipeline and climb,
so wrapping plfun.compose alone would miss those calls).  Spans (id, name,
start, end, parent, op id, self time) stay in memory until `dump`.  Hot
leaves keep aggregate counters instead of spans.  A layer's self time is its
duration minus the time covered by wrapped callees.
"""

import functools
import json
import sys
import time
from collections import defaultdict

EXACT_CORE = ("deep-induction", "wide-curve")
SOLVE = EXACT_CORE + ("interior-joins",)
ORACLE = ("oracle-sweep",)

# (module, function, kind, workloads on which it must record calls)
TARGETS = (
    ("plcurve", "point_on_curve", "span", SOLVE),
    ("plcurve", "point_curve_distance_sq", "leaf", SOLVE + ORACLE),
    ("plcurve", "curve_intersections", "span", SOLVE),
    ("plcurve", "nearest_point_on_curve", "span", ("interior-joins",)),
    ("plcurve", "curve_from_functions", "span", SOLVE),
    ("plfun", "compose", "span", SOLVE),
    ("plfun", "pl_eval", "leaf", SOLVE),
    ("plfun", "level_set", "span", SOLVE),
    ("plfun", "pl_combine", "span", SOLVE),
    ("climb", "solve_either_orientation", "span", SOLVE),
    ("climb", "level_complex_path", "span", SOLVE),
    ("pipeline", "partition_curve", "span", SOLVE),
    ("pipeline", "build_partitioning_functions", "span", SOLVE),
    ("pipeline", "extract_points", "span", SOLVE),
    ("pipeline", "partition_below_diagonal", "span", SOLVE),
    ("oracle", "verify", "span", SOLVE + ORACLE),
    ("oracle", "brute_force", "span", ORACLE),
    ("oracle", "closure_shot", "leaf", ORACLE),
)


def _segments(curve):
    return len(curve.knots) - 1


def _pieces(f):
    return len(f.breakpoints) - 1


def den_bits(values):
    """Largest denominator, in bits, among exact rationals."""
    return max(v.denominator.bit_length() for v in values)


# Counts derived from a call's inputs and result, kept next to its span.
def _on_point_on_curve(st, args, res):
    st["plcurve.point_on_curve.segments_scanned"] += _segments(args[0])


def _on_curve_intersections(st, args, res):
    st["plcurve.curve_intersections.segment_pairs"] += (
        _segments(args[0]) * _segments(args[1]))
    st["plcurve.curve_intersections.hits"] += len(res)
    st["plcurve.curve_intersections.used"] += 1 if res else 0


def _on_compose(st, args, res):
    key = "plfun.compose.out_pieces_max"
    st[key] = max(st[key], _pieces(res))


def _on_level_complex_path(st, args, res):
    st["climb.level_complex_path.cells"] += _pieces(args[0]) * _pieces(args[1])
    st["climb.level_complex_path.edges"] += len(res) - 1


def _on_build_partitioning_functions(st, args, res):
    bits = max(den_bits(t for bp in f.breakpoints for t in bp)
               for f in (res.y,) + tuple(res.xs))
    st["scalar.pf_den_bits_max"] = max(st["scalar.pf_den_bits_max"], bits)


def _on_brute_force(st, args, res):
    st["oracle.brute_force.solutions"] += len(res)


HOOKS = {
    "point_on_curve": _on_point_on_curve,
    "curve_intersections": _on_curve_intersections,
    "compose": _on_compose,
    "level_complex_path": _on_level_complex_path,
    "build_partitioning_functions": _on_build_partitioning_functions,
    "brute_force": _on_brute_force,
}


class BindingError(RuntimeError):
    pass


class Tracer:
    """Wraps the TARGETS in every loaded module of `package`, records spans
    while installed, and restores every original binding on uninstall."""

    def __init__(self, package):
        self.modules = [m for name, m in sorted(sys.modules.items())
                        if (name == package or name.startswith(package + "."))
                        and m is not None]
        self.spans = []
        self.leaves = defaultdict(lambda: [0, 0.0])
        self.stats = defaultdict(int)
        self.bindings = {}
        self.op_id = None
        self._stack = []
        self._next_id = 0
        self._patched = []

    def _span(self, name, fn, hook):
        spans, stack, stats = self.spans, self._stack, self.stats
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                res = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                if stack:
                    stack[-1][1] += t1 - t0
                spans.append((sid, name, t0, t1, parent, self.op_id,
                              t1 - t0 - frame[1]))
            if hook is not None:
                hook(stats, args, res)
            return res

        return wrapped

    def _leaf(self, name, fn):
        stack, counter = self._stack, self.leaves[name]
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                counter[0] += 1
                counter[1] += dt
                if stack:
                    stack[-1][1] += dt

        return wrapped

    def install(self):
        by_mod = {m.__name__.rsplit(".", 1)[-1]: m for m in self.modules}
        for mod_name, fn_name, kind, _ in TARGETS:
            orig = getattr(by_mod[mod_name], fn_name)
            name = f"{mod_name}.{fn_name}"
            wrapper = (self._leaf(name, orig) if kind == "leaf"
                       else self._span(name, orig, HOOKS.get(fn_name)))
            count = 0
            for mod in self.modules:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, orig))
                        count += 1
            self.bindings[name] = count

    def uninstall(self):
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched = []

    def run_op(self, op_id, fn, *args):
        """Call fn as one op: a root span named 'op' with the given id."""
        self.op_id = op_id
        try:
            return self._span("op", fn, None)(*args)
        finally:
            self.op_id = None

    def totals(self):
        """{name: [calls, self seconds]} over everything recorded."""
        out = defaultdict(lambda: [0, 0.0])
        for s in self.spans:
            row = out[s[1]]
            row[0] += 1
            row[1] += s[6]
        for name, (calls, total) in self.leaves.items():
            out[name] = [calls, total]
        return out

    def check_bindings(self, workload):
        """Raise when a function the workload must exercise recorded no
        call: the sign of a binding the wrapper missed."""
        totals = self.totals()
        idle = [f"{m}.{f}" for m, f, _, on in TARGETS
                if workload in on and totals[f"{m}.{f}"][0] == 0]
        if idle:
            raise BindingError(
                f"no calls recorded on {workload} for: {', '.join(idle)}")

    def dump(self, path, header):
        """Write the spans and leaf counters once, as JSON lines."""
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for name, (calls, total) in sorted(self.leaves.items()):
                fh.write(json.dumps({"leaf": name, "calls": calls,
                                     "total_s": total}) + "\n")
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")
