"""Equal-increment partitions of curves from (0,0) to (1,1).

The paper's construction partitions one curve below the diagonal: it
builds partitioning functions by induction (each step walks one climb
against the height, prepared once per solve, unchecked, and reads the new
functions off its level path in one pass: `climb.walk`,
`climb.read_path`) and extracts the points from an auxiliary-curve
intersection.  Each level of the induction is one row table (t, x(t),
y(t)) with a row where x or y bends; the climb and the closing curve read
the closing sum x + y only up to its first t_stop at 1, so the table is
cut there before any canonical pass or intersection.  Every climb is
exact, so a curve below the diagonal always solves exactly.
Everything else `partition_curve` does maps that one
solve back to the input: the tail after the last diagonal touch is
normalized, mirrored when it rides above the diagonal, and `_assemble`
undoes both in one step.  The one inexact
route is boundary joining, for a normalized tail that leaves the lower
triangle: over a fixed budget of JOIN_CUTS cuts it joins the cut tail to
the origin, projects the points back onto the tail and accepts the first
cut with positive increments and a shift-1 residual within tol; a spent
budget raises ConvergenceError.  The stages return results unchecked;
`partition_curve` is the one verified boundary, where every branch passes
`_final_verify` with every point exactly on the curve.

Kernel costs of the induction, per level, for r rows in the level's
table and a level path of e steps:

- _closing_rows(rows): O(r) integer sums up to t_stop, each compared with
  1 on its integer parts; one Fraction per row kept, and for a t_stop
  inside a row segment one interpolation (`scalar.lerp`).
- the profile's canonical pass (`plfun.canonical`) on those rows and two
  `climb.Companion`s, O(r) each; the climb (`climb.walk`, against the
  height prepared once per solve) costs what `climb` lists.
- climb.read_path: O(e) steps plus the rows crossed, then one canonical
  pass of the new rows.
- extract_points, once per solve: the closing curve's first meeting with
  the input, then 2(n - 1) + 2 `pl_eval`s for y and the x_i (`xs_at`).
"""

from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from types import SimpleNamespace

from . import climb
from .errors import (
    ConvergenceError,
    InternalInvariantError,
    NonInteriorCurveError,
    PreconditionError,
)
from .plcurve import (
    PLCurve,
    curve_from_functions,
    curve_intersections,
    is_lower_triangle_interior,
    is_unit_interior,
    nearest_point_on_curve,
    point_on_curve,
    require_endpoints,
    normalize_tail,
    swap_curve,
)
from .plfun import (
    PLFunction,
    canonical,
    compose,
    level_set,
    pl_eval,
    pl_sub,
)
from .scalar import ONE, ZERO, Scalar, lerp, offset, rat

DEFAULT_TOL = rat(1, 10**9)
# retry budget of the inexact route: boundary-join cuts for k = 1..JOIN_CUTS
JOIN_CUTS = 48
# sample pieces per density piece in pl_density_cumulative
DENSITY_SUBDIV = 8


@dataclass(frozen=True)
class PartitioningFunctions:
    """Functions y, x_1..x_n with (x_i(t), x_{i-1}(t) + y(t)) on the curve,
    x_0 = 0; n is len(bases) + 1.

    rows is the last level's row table (t, x_n(t), y(t)), a row exactly
    where x_n or y bends; y and x_n are its columns as functions.  Each
    older x_i is kept as its level built it, bases[i-1] (the width for
    i = 1, width o g1 of level i-1 after that), with the inner maps of the
    levels after it: x_i = bases[i-1] o inners[i-1] o ... o inners[-1].
    Bases and inner maps are breakpoint tables, with no canonical pass,
    that `pl_eval` and `compose` read.  `xs_at` evaluates every x_i
    through that chain; `xs` composes it in full on first read.
    """

    y: PLFunction
    x: PLFunction
    bases: tuple
    inners: tuple
    rows: tuple

    @cached_property
    def xs(self):
        """x_1..x_n as functions, composed level by level as the paper's
        induction carries them."""
        xs = []
        for base, inner in zip(self.bases, self.inners):
            xs = [compose(x, inner) for x in xs + [base]]
        return tuple(xs) + (self.x,)

    def xs_at(self, t):
        """(x_1(t), ..., x_n(t)), walking t back through the inner maps."""
        vals = [pl_eval(self.x, t)]
        for base, inner in zip(reversed(self.bases), reversed(self.inners)):
            t = pl_eval(inner, t)
            vals.append(pl_eval(base, t))
        return vals[::-1]


@dataclass(frozen=True)
class Rearrangement:
    """Either a cyclic shift k (dy_i = dx_{(i-k) mod S}) or an explicit
    permutation p (dy_i = dx_{p[i]})."""

    shift: int = None
    perm: tuple = None

    def as_perm(self, s):
        if self.perm is not None:
            return self.perm
        return tuple((i - self.shift) % s for i in range(s))


@dataclass(frozen=True)
class PipelineTrace:
    last_touch: object = ZERO
    branch: str = "below"
    boundary_joins: tuple = ()
    # always empty: every climb is exact; kept so result files keep the key
    perturbations: tuple = ()
    residual_history: tuple = ()
    anchor: object = ZERO
    swapped: bool = False
    solver_frame_points: tuple = ()


@dataclass(frozen=True)
class PartitionResult:
    """Partition points with their rearrangement.  S, dx and dy are derived
    from the points at construction, so they always agree with them."""

    points: tuple
    rearrangement: Rearrangement
    exact: bool
    residual: object
    trace: PipelineTrace = field(default_factory=PipelineTrace)
    S: int = field(init=False)
    dx: tuple = field(init=False)
    dy: tuple = field(init=False)

    def __post_init__(self):
        pts = tuple(self.points)
        dx, dy = increments(pts)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "S", len(pts) - 1)
        object.__setattr__(self, "dx", dx)
        object.__setattr__(self, "dy", dy)


def increments(points):
    dx = tuple(b[0] - a[0] for a, b in zip(points, points[1:]))
    dy = tuple(b[1] - a[1] for a, b in zip(points, points[1:]))
    return dx, dy


def _shift_residual(dx, dy, k):
    s = len(dx)
    return max(abs(dy[i] - dx[(i - k) % s]) for i in range(s))


def build_partitioning_functions(curve, n):
    """Induction on n carrying y, x_1..x_n, as in the paper: y = height and
    x_1 = width to start; each level walks one climb of the height
    against the closing sum x_n + y up to its first t_stop at 1, in the
    closing sum's own parameter (`climb.walk` reads levels only), and
    reads the new y = y o tau, x_{n+1} = width o g1 and the inner map tau
    (the climb's g2) off the walk's level path.  Every climb runs against
    the height prepared once per solve (`climb.Prepared`: checked,
    contracted and ranked).  Nothing is composed: in one pass over the
    path (`climb.read_path`), at each vertex, y and tau come from one
    interpolation on the closing sum's row segment, sharing its fraction,
    and x from one on the height's, at the vertex's level, each one
    Fraction built from integer products.  Where a path edge crosses a
    knot of y or of the width that the profile's canonical form lacks,
    the pass emits a row, where `compose` would break either function,
    so each function is the composition itself.  The older x_i are kept
    as their level built them, with the inner maps after them
    (`PartitioningFunctions`).

    Each level is carried as one row table (t, x(t), y(t)) in joint
    canonical form (`plfun.canonical`), a row exactly where x or y bends:
    the curve's own knots and vertices to start, then each level's rows
    from the one pass, passed once.  The climb reads the closing sum's
    rows (t, x + y, y) only up to t_stop (`_closing_rows`), so its
    profile's canonical pass runs on those rows alone.  y and x_n become
    `PLFunction`s once, after the last level; for n = 1 they are the
    curve's height and width.

    By associativity of exact composition, x_i = width o tau_i and y =
    height o tau_1 for the products tau_i of the maps.  The rest (height o
    tau_i == x_{i-1} + y, the start at 0, the close at (1, 1)) follows
    exactly from the climb identities.  No climb identity is checked here:
    `partition_curve`'s `_final_verify` checks every point exactly on the
    curve, positive increments and the rearrangement, so a wrong climb
    either raises there or leaves points that pass it, a correct
    partition.

    The curve must run from (0,0) to (1,1) through the open unit square.
    Every climb is exact, whatever the profiles' folds and flats.
    """
    if n < 1:
        raise PreconditionError("n must be a positive integer")
    require_endpoints(curve)
    if not is_unit_interior(curve):
        raise NonInteriorCurveError("curve leaves the open unit square")

    height = curve.y_function()
    rows = _curve_rows(curve)
    along_height = climb.Companion([(t, y, x) for t, x, y in rows],
                                   height.knots)
    # the height is prepared once for the n - 1 climbs against it
    prepared = climb.Prepared(height) if n > 1 else None
    bases, inners = [], []
    for _ in range(1, n):
        closing = _closing_rows(rows)
        profile = SimpleNamespace(
            breakpoints=canonical([(t, w) for t, w, _ in closing]))
        path = climb.walk(prepared, profile)
        along_sum = climb.Companion(
            closing, [t for t, _ in profile.breakpoints])
        bases.append(_table((t, x) for t, x, _ in rows))
        rows, tau = climb.read_path(path, along_height, along_sum)
        inners.append(_table(tau))
        rows = canonical(rows)
    if n == 1:
        y, x = height, curve.x_function()
    else:
        y = PLFunction((t, v) for t, _, v in rows)
        x = PLFunction((t, v) for t, v, _ in rows)
    return PartitioningFunctions(y=y, x=x, bases=tuple(bases),
                                 inners=tuple(inners), rows=tuple(rows))


def _curve_rows(curve):
    """The curve's row table (t, x(t), y(t)): its knots are where either
    coordinate bends, so the table is in joint canonical form."""
    return [(t, x, y) for t, (x, y) in zip(curve.knots, curve.vertices)]


def _table(points):
    """A breakpoint table: the points (t, v) as given, with no canonical
    pass, and their times, as `pl_eval`, `compose` and
    `curve_from_functions` read a function."""
    bps = tuple(points)
    return SimpleNamespace(breakpoints=bps, knots=tuple(t for t, _ in bps))


def _closing_rows(rows):
    """The closing sum's rows (t, x + y, y) of a row table (t, x, y) up to
    the first t_stop with x + y = 1, the last row at t_stop.

    The sum is 0 at t = 0, so t_stop is the first row where it reaches 1,
    or lies inside the row segment before the first row where it passes
    1; x and y are linear on a row segment, so that row is interpolated.
    No row after t_stop is read or summed.  Each sum a/b + c/d is formed
    on integer parts, (ad + cb) / bd, and compared with 1 there; it
    becomes one Fraction, normalised once, only where a row keeps it.
    """
    out = []
    for t, x, y in rows:
        a, b = x.numerator, x.denominator
        c, d = y.numerator, y.denominator
        num, den = a * d + c * b, b * d
        if num >= den:
            if num > den:
                t0, w0, y0 = out[-1]
                lam = offset(ONE, w0, Scalar(num, den))
                t, y = lerp(lam, t0, t), lerp(lam, y0, y)
            out.append((t, ONE, y))
            return out
        out.append((t, Scalar(num, den), y))
    raise InternalInvariantError("closing sum never reaches 1")


def extract_points(curve, pf):
    """Points from the first meeting of the closing curve with the input.

    The closing curve (1 - y(t), x_n(t) + y(t)) is built from the last
    level's closing-sum rows up to t_stop (`_closing_rows`), in the rows'
    own parameter; the rows are jointly canonical, so the curve has a
    vertex exactly where one coordinate bends.  On [0, t_stop] it runs
    inside the square from (1, 0), below the input, to the top edge,
    above it (the input reaches y = 1 only at (1, 1)), so it meets the
    input, and the first meeting on the whole closing curve lies at or
    before t_stop.  `curve_intersections` returns the meeting with the
    smallest closing-curve parameter t0 (the start of a collinear
    overlap), and only t0 is read.  The x_i are evaluated there (`xs_at`),
    never composed.  The result, shift 1, is exact by construction and
    unchecked here.
    """
    closing = _closing_rows(pf.rows)
    eta = curve_from_functions(_table((t, ONE - y) for t, _, y in closing),
                               _table((t, w) for t, w, _ in closing))
    hits = curve_intersections(eta, curve)
    if not hits:
        raise InternalInvariantError("closing curve missed the input curve")
    t0 = hits[0].t_a

    yt = pl_eval(pf.y, t0)
    pts = [(ZERO, ZERO)]
    prev = ZERO
    for xi in pf.xs_at(t0):
        pts.append((xi, prev + yt))
        prev = xi
    pts.append((ONE - yt, prev + yt))
    pts.append((ONE, ONE))

    return _below_result(pts)


def _below_result(points):
    """Exact result of a below-diagonal solve: shift 1, which on the
    one-increment tail (0,0), (1,1) is shift 0."""
    pts = tuple(points)
    return PartitionResult(
        points=pts, rearrangement=Rearrangement(shift=1 % (len(pts) - 1)),
        exact=True, residual=ZERO, trace=PipelineTrace(solver_frame_points=pts))


def partition_below_diagonal(curve, n):
    """Partition a curve that stays strictly inside 0 < y < x < 1.

    n is the partitioning-function count: the result has S = n + 2
    increments; n = 0 is the plain closing-point case.  Always exact: every
    climb in the induction is.

    Unchecked, as a solver stage: `partition_curve(curve, n + 1)` returns
    the same points, verified.
    """
    if n < 0:
        raise PreconditionError("n must be nonnegative")
    require_endpoints(curve)
    if not is_lower_triangle_interior(curve):
        raise NonInteriorCurveError(
            "curve must stay strictly below the diagonal inside the unit square"
        )

    if n == 0:
        _, _, y = _closing_rows(_curve_rows(curve))[-1]
        return _below_result(((ZERO, ZERO), (ONE - y, y), (ONE, ONE)))

    pf = build_partitioning_functions(curve, n)
    return extract_points(curve, pf)


def partition_curve(curve, n, tol=DEFAULT_TOL):
    """Equal-increment partition with S = n + 1 increments.

    Dispatch: a curve ending in a diagonal segment gets uniform points on
    that segment (identity rearrangement); otherwise the tail after the
    last diagonal touch is normalized to a fresh unit-square curve, swapped
    above the diagonal, solved below it, and mapped back.  The combined
    rearrangement fixes the initial diagonal increment and cyclically
    shifts the rest.  Every branch exits through `_final_verify` on the
    input curve: this is the one verified boundary.
    """
    if n < 1:
        raise PreconditionError("n must be a positive integer")
    require_endpoints(curve)
    if not is_unit_interior(curve):
        raise NonInteriorCurveError(
            "curve leaves the open unit square at an interior parameter"
        )
    res = _dispatch(curve, n + 1, tol)
    return _final_verify(curve, res, tol)


def _dispatch(curve, s_total, tol):
    """The branches of `partition_curve`, S = s_total; unverified."""
    x_fun, y_fun = curve.x_function(), curve.y_function()
    # x - y vanishes at t = 0 and t = 1, so the last contact item ends at 1;
    # it is a diagonal tail when it starts before 1, and otherwise the item
    # before it ends at the last touch (at 0 when there is none)
    items = level_set(pl_sub(x_fun, y_fun), ZERO)
    tail_start = items[-1][0]
    if tail_start < 1:
        return _diagonal_tail_result(x_fun, tail_start, s_total)
    last_touch = items[-2][1]

    if last_touch == 0:
        eta, anchor = curve, ZERO
        s_eta = s_total
    else:
        eta, anchor = normalize_tail(curve, last_touch)
        s_eta = s_total - 1

    swapped = False
    if s_eta == 1:
        eta_res = _below_result(((ZERO, ZERO), (ONE, ONE)))
    else:
        # the first segment leaves (0,0) on the side of its end vertex
        ex, ey = eta.vertices[1]
        swapped = ey > ex
        eta_solve = swap_curve(eta) if swapped else eta
        if is_lower_triangle_interior(eta_solve):
            eta_res = partition_below_diagonal(eta_solve, s_eta - 2)
        else:
            eta_res = _boundary_join_solve(eta_solve, s_eta, tol)

    return _assemble(eta_res, last_touch, anchor, swapped)


def _diagonal_tail_result(x_fun, tail_start, s_total):
    c = pl_eval(x_fun, tail_start)
    step = (ONE - c) / s_total
    pts = [(ZERO, ZERO)]
    for i in range(1, s_total + 1):
        v = c + i * step
        pts.append((v, v))
    return PartitionResult(
        points=pts,
        rearrangement=Rearrangement(shift=0), exact=True, residual=ZERO,
        trace=PipelineTrace(last_touch=ONE, branch="diagonal",
                            solver_frame_points=tuple(pts)),
    )


def _boundary_join_solve(eta, s_eta, tol):
    """Cut at the last zero of the height, join a segment from the origin,
    and accept the first join whose solution snaps onto the tail curve
    within tol.  After that zero the tail keeps 0 < y < x < 1, and so
    does the segment from the origin, so every joined curve lies in the
    lower triangle.  Each cut is recorded in boundary_joins; a cut is
    skipped when its snapped points do not increase.  residual_history
    keeps the best residual so far."""
    # y(0) = 0 < 1 = y(1): the last zero of the height ends the last item
    t_last = level_set(eta.y_function(), ZERO)[-1][1]
    if t_last == 0:
        raise NonInteriorCurveError(
            "tail curve leaves the lower triangle but its height never "
            "returns to zero; unsupported accumulation pattern"
        )

    tried = []
    history = []
    best = None
    for k in range(1, JOIN_CUTS + 1):
        t_k = t_last + (ONE - t_last) / 2**k
        tried.append(t_k)
        i = bisect_right(eta.knots, t_k)
        joined = PLCurve((ZERO, t_k) + eta.knots[i:],
                         ((ZERO, ZERO), eta(t_k)) + eta.vertices[i:])
        res = partition_below_diagonal(joined, s_eta - 2)
        snapped = []
        any_snapped = False
        for p in res.points:
            if point_on_curve(eta, p):
                snapped.append(p)
                continue
            any_snapped = True
            snapped.append(nearest_point_on_curve(eta, p))
        dx, dy = increments(snapped)
        if any(d <= 0 for d in dx + dy):
            continue
        resid = _shift_residual(dx, dy, 1)
        best = min(best, resid) if best is not None else resid
        history.append(best)
        if resid <= tol:
            return PartitionResult(
                points=snapped, rearrangement=Rearrangement(shift=1),
                exact=resid == 0 and not any_snapped,
                residual=resid,
                trace=PipelineTrace(boundary_joins=tuple(tried),
                                    residual_history=tuple(history)),
            )
    raise ConvergenceError(
        f"boundary joining failed to verify within {JOIN_CUTS} cuts",
        best_residual=best, history=history)


def _assemble(eta_res, last_touch, anchor, swapped):
    """The one map from the tail frame back to the input.  A swapped solve
    is mirrored (shift k becomes -k mod S), then a normalized tail is
    scaled back behind its diagonal increment, which stays first.  The
    trace keeps the solve's own points, below the diagonal, as
    solver_frame_points.  A permutation that fixes index 0 is a cyclic
    shift only when it is the identity, so the result is shift 0 when k
    is 0 (only the one-increment tail) and else the perm."""
    pts = eta_res.points
    k = eta_res.rearrangement.shift
    if swapped:
        pts = tuple((y, x) for x, y in pts)
        k = -k % eta_res.S
    rearr = Rearrangement(shift=k)
    if last_touch != 0:
        scale = ONE - anchor
        pts = ((ZERO, ZERO),) + tuple(
            (anchor + x * scale, anchor + y * scale) for x, y in pts)
        if k != 0:
            inner = rearr.as_perm(eta_res.S)
            rearr = Rearrangement(perm=(0,) + tuple(1 + p for p in inner))
    return PartitionResult(
        points=pts, rearrangement=rearr,
        exact=eta_res.exact, residual=eta_res.residual,
        trace=PipelineTrace(
            last_touch=last_touch,
            branch="above" if swapped else "below",
            boundary_joins=eta_res.trace.boundary_joins,
            residual_history=eta_res.trace.residual_history,
            anchor=anchor,
            swapped=swapped,
            solver_frame_points=eta_res.points,
        ),
    )


@dataclass(frozen=True)
class DensitiesResult:
    """Split parameters t_0 = 0 < ... < t_{S} = 1 and the underlying
    cumulative-curve partition."""

    parameters: tuple
    result: PartitionResult
    cumulative_curve: PLCurve


def step_cumulative(knots, values):
    """Exact cumulative distribution of a step density."""
    if len(knots) != len(values) + 1:
        raise PreconditionError("step density needs one more knot than values")
    if any(v < 0 for v in values):
        raise PreconditionError("density values must be nonnegative")
    pts = [(knots[0], ZERO)]
    acc = ZERO
    for (t0, t1), v in zip(zip(knots, knots[1:]), values):
        acc = acc + v * (t1 - t0)
        pts.append((t1, acc))
    return PLFunction(pts)


def pl_density_cumulative(f):
    """Cumulative distribution of a PL density, pre-sampled to a polyline.

    The true cumulative is piecewise quadratic; each density piece is split
    into DENSITY_SUBDIV parts and the exact quadratic values at the sample
    knots are joined by straight segments.
    """
    if any(v < 0 for v in f.values):
        raise PreconditionError("density must be nonnegative")
    pts = [(ZERO, ZERO)]
    acc = ZERO
    bps = f.breakpoints
    for (t0, v0), (t1, v1) in zip(bps, bps[1:]):
        w = t1 - t0
        slope = (v1 - v0) / w
        for j in range(1, DENSITY_SUBDIV + 1):
            dt = w * rat(j, DENSITY_SUBDIV)
            val = acc + v0 * dt + slope * dt * dt / 2
            pts.append((t0 + dt, val))
        acc = pts[-1][1]
    return PLFunction(pts)


def _cumulative_from_density(dens):
    if dens[0] == "step":
        _, knots, values = dens
        return step_cumulative(knots, values)
    return pl_density_cumulative(dens[1])


def _check_cumulative(cum, name):
    total = pl_eval(cum, ONE)
    if total != 1:
        raise PreconditionError(
            f"density {name} integrates to {total}, not 1", witness=total
        )
    # cum rises from 0 to 1 and never falls, so each level set is one
    # interval: [0, hi] at level 0 and [lo, 1] at level 1
    ((_, hi),) = level_set(cum, ZERO)
    if hi > 0:
        raise PreconditionError(
            f"density {name} has no mass on [0, {hi}]", witness=hi
        )
    ((lo, _),) = level_set(cum, ONE)
    if lo < 1:
        raise PreconditionError(
            f"density {name} has no mass on [{lo}, 1]", witness=lo
        )


def _parameter_of_point(cum_f, cum_g, point):
    """Smallest t with (F(t), G(t)) == point.  Both cumulatives are
    nondecreasing, so each level set is one interval, and t is the start
    of their intersection."""
    fx, gy = point
    ((lo_f, hi_f),) = level_set(cum_f, fx)
    ((lo_g, hi_g),) = level_set(cum_g, gy)
    lo = max(lo_f, lo_g)
    return lo if lo <= min(hi_f, hi_g) else None


def partition_densities(dens_f, dens_g, n, tol=DEFAULT_TOL):
    """Split [0,1] so the interval masses of the two densities agree up to
    the returned rearrangement.

    Densities are step specs ("step", knots, values) or PL functions
    ("pl", f); both must integrate to 1 exactly with strictly interior
    cumulatives.  The cumulative pair traces a curve through the unit
    square, and the curve partition's points pull back to parameters.

    A PL density is split exactly for `pl_density_cumulative`, its
    cumulative sampled at DENSITY_SUBDIV points per piece, not for itself.
    """
    cum_f = _cumulative_from_density(dens_f)
    cum_g = _cumulative_from_density(dens_g)
    _check_cumulative(cum_f, "f")
    _check_cumulative(cum_g, "g")
    curve = curve_from_functions(cum_f, cum_g)
    res = partition_curve(curve, n, tol=tol)
    params = []
    for p in res.points:
        t = _parameter_of_point(cum_f, cum_g, p)
        if t is None:
            raise InternalInvariantError(f"partition point {p} has no parameter")
        params.append(t)
    for a, b in zip(params, params[1:]):
        if not a < b:
            raise InternalInvariantError("split parameters failed to increase")
    return DensitiesResult(parameters=tuple(params), result=res,
                           cumulative_curve=curve)


def _final_verify(curve, res, tol):
    """The one geometric check, run at `partition_curve`'s exit only: the
    rearrangement identity (exactly for exact results, within tol or the
    residual for joins), positive increments and every point exactly on
    the curve.  A join's points are exact projections onto the tail, and
    mirroring and the affine map back are exact, so every branch lands
    its points on the curve itself."""
    perm = res.rearrangement.as_perm(res.S)
    for i in range(res.S):
        gap = abs(res.dy[i] - res.dx[perm[i]])
        if res.exact and gap != 0:
            raise InternalInvariantError("rearrangement identity failed")
        if not res.exact and gap > max(tol, res.residual):
            raise InternalInvariantError("rearrangement identity out of band")
    for d in res.dx + res.dy:
        if d <= 0:
            raise InternalInvariantError("non-positive increment")
    for p in res.points:
        if not point_on_curve(curve, p):
            raise InternalInvariantError(f"point {p} off the curve")
    return res
