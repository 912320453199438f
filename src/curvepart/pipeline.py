"""Equal-increment partitions of curves from (0,0) to (1,1).

The exact route builds partitioning functions by induction (each step
solves one climb) and extracts the points from an auxiliary-curve
intersection.  Each fact is proved once.  `climb.solve` checks every climb
identity exactly, and the partitioning functions lie on the curve as a
consequence.  The stages return results unchecked; `partition_curve` is
the one verified boundary, where every branch passes `_final_verify`, so
`partition_curve(curve, n + 1)` gives the points of
`partition_below_diagonal(curve, n)`, verified.
Every climb is exact, so a curve below the diagonal always solves exactly.
The one inexact route is boundary joining, for a normalized tail that
leaves the lower triangle: it cuts the tail and joins it to the origin,
over a fixed budget of JOIN_CUTS cuts.  The first cut whose points,
snapped back onto the tail, have positive increments and a shift-1
residual within tol is accepted; a spent budget raises ConvergenceError.
"""

from dataclasses import dataclass, field

from . import climb
from .errors import (
    ConvergenceError,
    InternalInvariantError,
    NonInteriorCurveError,
    PreconditionError,
)
from .plcurve import (
    Intersection,
    PLCurve,
    curve_from_functions,
    curve_intersections,
    is_lower_triangle_interior,
    is_unit_interior,
    nearest_point_on_curve,
    point_curve_distance_sq,
    point_on_curve,
    require_endpoints,
    normalize_tail,
    swap_curve,
)
from .plfun import (
    PLFunction,
    compose,
    level_set,
    pl_add,
    pl_compress_param,
    pl_eval,
    pl_scale_values,
    pl_sub,
)
from .scalar import ONE, ZERO, rat

DEFAULT_TOL = rat(1, 10**9)
# retry budget of the inexact route: boundary-join cuts for k = 1..JOIN_CUTS
JOIN_CUTS = 48
# sample pieces per density piece in pl_density_cumulative
DENSITY_SUBDIV = 8


@dataclass(frozen=True)
class PartitioningFunctions:
    """Functions y, x_1..x_n with (x_i(t), x_{i-1}(t) + y(t)) on the curve,
    x_0 = 0; n is len(xs)."""

    y: PLFunction
    xs: tuple


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


def _reduce_to_shift(perm):
    s = len(perm)
    for k in range(s):
        if all(perm[i] == (i - k) % s for i in range(s)):
            return Rearrangement(shift=k)
    return Rearrangement(perm=tuple(perm))


def build_partitioning_functions(curve, n):
    """Induction on n carrying y, x_1..x_n, as in the paper: y = height and
    x_1 = width to start; each level compresses the closing sum x_n + y
    onto [0,1], solves one climb against the height, composes y and every
    x_i with the climb's inner map and appends x_{n+1} = width o g1.

    By associativity of exact composition, x_i = width o tau_i and y =
    height o tau_1 for the products tau_i of the maps.  The rest (height o
    tau_i == x_{i-1} + y, the start at 0, the close at (1, 1)) follows
    exactly from the climb identities, which `climb.solve` checks; nothing
    is re-checked here.

    The curve must run from (0,0) to (1,1) through the open unit square.
    Every climb is exact, whatever the profiles' folds and flats.
    """
    if n < 1:
        raise PreconditionError("n must be a positive integer")
    require_endpoints(curve)
    if not is_unit_interior(curve):
        raise NonInteriorCurveError("curve leaves the open unit square")

    height = curve.y_function()
    width = curve.x_function()
    y, xs = height, [width]
    for _ in range(1, n):
        w = pl_add(xs[-1], y)
        hits = level_set(w, ONE)
        if not hits:
            raise InternalInvariantError("closing sum never reaches 1")
        t_stop = hits[0][0]
        f2 = pl_compress_param(w, t_stop)
        sol = climb.solve(height, f2)
        inner = pl_scale_values(sol.g2, t_stop)
        y = compose(y, inner)
        xs = [compose(x, inner) for x in xs]
        xs.append(compose(width, sol.g1))
    return PartitioningFunctions(y=y, xs=tuple(xs))


def extract_points(curve, pf):
    """Points from the first meeting of the closing curve with the input.

    The closing curve (1 - y(t), x_n(t) + y(t)) starts at (1,0) and ends
    above the top edge, so it meets the input; the intersection with the
    smallest closing-curve parameter is taken.  Only that parameter is
    read, so the intersection scan stops at the first closing-curve segment
    that meets the input.  The result, shift 1, is exact by construction
    and unchecked here.
    """
    y, xs = pf.y, pf.xs
    eta = curve_from_functions(
        pl_scale_values(y, rat(-1), ONE), pl_add(xs[-1], y)
    )
    hits = curve_intersections(eta, curve, first=True)
    if not hits:
        raise InternalInvariantError("closing curve missed the input curve")
    first = hits[0]
    t0 = first.t_a if isinstance(first, Intersection) else first.t_a[0]

    pts = [(ZERO, ZERO)]
    prev = ZERO
    for x in xs:
        xi = pl_eval(x, t0)
        pts.append((xi, prev + pl_eval(y, t0)))
        prev = xi
    pts.append((ONE - pl_eval(y, t0), pl_eval(xs[-1], t0) + pl_eval(y, t0)))
    pts.append((ONE, ONE))

    return PartitionResult(
        points=pts,
        rearrangement=Rearrangement(shift=1),
        exact=True,
        residual=ZERO,
        trace=PipelineTrace(branch="below", solver_frame_points=tuple(pts)),
    )


def _antidiagonal_point(curve):
    """First curve point with x + y = 1; the two-increment base case."""
    w = pl_add(curve.x_function(), curve.y_function())
    hits = level_set(w, ONE)
    if not hits:
        raise InternalInvariantError("curve never meets x + y = 1")
    t0 = hits[0][0]
    return curve(t0)


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
        pts = ((ZERO, ZERO), _antidiagonal_point(curve), (ONE, ONE))
        return PartitionResult(
            points=pts,
            rearrangement=Rearrangement(shift=1), exact=True, residual=ZERO,
            trace=PipelineTrace(branch="below", solver_frame_points=pts),
        )

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
    diff = pl_sub(x_fun, y_fun)
    items = level_set(diff, ZERO)

    for lo, hi in items:
        if hi == 1 and lo < 1:
            return _diagonal_tail_result(x_fun, lo, s_total)

    touches = [hi for lo, hi in items if 0 < hi < 1]
    last_touch = max(touches) if touches else ZERO

    if last_touch == 0:
        eta, anchor = curve, ZERO
        s_eta = s_total
    else:
        eta, anchor = normalize_tail(curve, last_touch)
        s_eta = s_total - 1

    if s_eta == 1:
        eta_res = _trivial_result()
        swapped = False
    else:
        mid = (eta.knots[0] + eta.knots[1]) / 2
        ex, ey = eta(mid)
        swapped = ey > ex
        eta_solve = swap_curve(eta) if swapped else eta
        if is_lower_triangle_interior(eta_solve):
            eta_res = partition_below_diagonal(eta_solve, s_eta - 2)
        else:
            eta_res = _boundary_join_solve(eta_solve, s_eta, tol)
        if swapped:
            eta_res = _swap_result(eta_res)

    return _assemble(eta_res, last_touch, anchor, swapped)


def _trivial_result():
    pts = ((ZERO, ZERO), (ONE, ONE))
    return PartitionResult(
        points=pts,
        rearrangement=Rearrangement(shift=0), exact=True, residual=ZERO,
        trace=PipelineTrace(branch="below", solver_frame_points=pts),
    )


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


def _swap_result(res):
    """Mirror a below-diagonal result; every one carries a cyclic shift."""
    pts = tuple((y, x) for x, y in res.points)
    # dy_i = dx_{(i-1) mod S} swaps into dx_i = dy_{(i-1)}, i.e. shift S-1
    rearr = Rearrangement(shift=(-res.rearrangement.shift) % res.S)
    return PartitionResult(
        points=pts, rearrangement=rearr,
        exact=res.exact, residual=res.residual, trace=res.trace,
    )


def _boundary_join_solve(eta, s_eta, tol):
    """Cut at the last zero of the height, join a segment from the origin,
    and accept the first join whose solution snaps onto the tail curve
    within tol.  Each cut is recorded in boundary_joins; a cut is skipped
    when the joined curve leaves the lower triangle or its snapped points
    do not increase.  residual_history keeps the best residual so far."""
    y_fun = eta.y_function()
    zeros = [hi for lo, hi in level_set(y_fun, ZERO) if 0 < hi < 1]
    if not zeros:
        raise NonInteriorCurveError(
            "tail curve leaves the lower triangle but its height never "
            "returns to zero; unsupported accumulation pattern"
        )
    t_last = max(zeros)

    tried = []
    history = []
    best = None
    for k in range(1, JOIN_CUTS + 1):
        t_k = t_last + (ONE - t_last) / 2**k
        tried.append(t_k)
        tail_knots = [t for t in eta.knots if t_k < t < 1]
        knots = [ZERO, t_k] + tail_knots + [ONE]
        verts = [(ZERO, ZERO), eta(t_k)] + [eta(t) for t in tail_knots] + [
            (ONE, ONE)
        ]
        joined = PLCurve(knots, verts)
        if not is_lower_triangle_interior(joined):
            continue
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
                trace=PipelineTrace(
                    branch="below", boundary_joins=tuple(tried),
                    residual_history=tuple(history),
                    solver_frame_points=res.points,
                ),
            )
    raise ConvergenceError(
        f"boundary joining failed to verify within {JOIN_CUTS} cuts",
        best_residual=best, history=history)


def _assemble(eta_res, last_touch, anchor, swapped):
    scale = ONE - anchor
    if last_touch != 0:
        pts = [(ZERO, ZERO)]
        for x, y in eta_res.points:
            pts.append((anchor + x * scale, anchor + y * scale))
        inner = eta_res.rearrangement.as_perm(eta_res.S)
        perm = [0] + [1 + p for p in inner]
        rearr = _reduce_to_shift(perm)
    else:
        pts = eta_res.points
        rearr = eta_res.rearrangement
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
    zero_items = level_set(cum, ZERO)
    for lo, hi in zero_items:
        if lo == 0 and hi > 0:
            raise PreconditionError(
                f"density {name} has no mass on [0, {hi}]", witness=hi
            )
    one_items = level_set(cum, ONE)
    for lo, hi in one_items:
        if hi == 1 and lo < 1:
            raise PreconditionError(
                f"density {name} has no mass on [{lo}, 1]", witness=lo
            )


def _parameter_of_point(cum_f, cum_g, point):
    """Smallest t with (F(t), G(t)) == point, via level-item intersection."""
    fx, gy = point
    fi = level_set(cum_f, fx)
    gi = level_set(cum_g, gy)
    for lo_a, hi_a in fi:
        for lo_b, hi_b in gi:
            lo, hi = max(lo_a, lo_b), min(hi_a, hi_b)
            if lo <= hi:
                return lo
    return None


def partition_densities(dens_f, dens_g, n, tol=DEFAULT_TOL):
    """Split [0,1] so the interval masses of the two densities agree up to
    the returned rearrangement.

    Densities are step specs ("step", knots, values) or PL functions
    ("pl", f); both must integrate to 1 exactly with strictly interior
    cumulatives.  The cumulative pair traces a curve through the unit
    square, and the curve partition's points pull back to parameters.
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
    rearrangement identity, positive increments and every point on the
    curve, exactly for exact results and within tol for inexact ones."""
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
    # every solve path lands its points exactly on the input curve; the
    # inexact band below is pure defence
    for p in res.points:
        if res.exact:
            if not point_on_curve(curve, p):
                raise InternalInvariantError(f"point {p} off the curve")
        elif point_curve_distance_sq(curve, p) > tol * tol:
            raise InternalInvariantError(f"point {p} too far off the curve")
    return res
