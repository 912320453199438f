"""Equal-increment partition of a function graph with f <= identity.

A chain of auxiliary functions is built by the recursion
g_0(x) = x, g_{i+1}(x) = x - 1 + f(g_i(x)); the largest root of each g_i
anchors the abscissa sequence and the wrap identity
f(x_{i+1}) - f(x_i) = x_i - x_{i-1} (with x_{-1} = x_n - 1) ties the two
increment sequences together as a cyclic shift by one.
"""

from dataclasses import dataclass

from .errors import InternalInvariantError, PreconditionError
from .plfun import (
    PLFunction,
    clamp_to_unit,
    compose,
    identity,
    level_set,
    pl_eval,
)
from .scalar import ONE, ZERO


@dataclass(frozen=True)
class GraphSolution:
    """Roots a_1 < ... < a_n and abscissae 0 = x_0 < ... < x_{n+1} = 1."""

    roots: tuple
    abscissae: tuple
    n: int


def _check_inputs(f, n):
    if n < 1:
        raise PreconditionError("n must be a positive integer")
    if pl_eval(f, ZERO) != 0 or pl_eval(f, ONE) != 1:
        raise PreconditionError("f must map 0 to 0 and 1 to 1")
    for t, v in f.breakpoints:
        if v > t:
            raise PreconditionError(f"f(t) <= t violated at t={t}", witness=t)


def _largest_root(g):
    hits = level_set(g, ZERO)
    if not hits:
        raise InternalInvariantError("auxiliary function has no root")
    # a flat interval at level zero counts by its right endpoint
    return hits[-1][1]


def chain_functions(f, n):
    """g_0 .. g_n materialized as PL functions on [0,1].

    f's argument is clamped to [0,1]; clamping only distorts g_{i+1} left
    of a_i, where g_i has already left [0,1], and never moves the largest
    root.
    """
    gs = [identity()]
    for _ in range(n):
        prev = gs[-1]
        fg = compose(f, clamp_to_unit(prev))
        pts = [(t, t - ONE + v) for t, v in fg.breakpoints]
        gs.append(PLFunction(pts))
    return gs


def solve_graph(f, n):
    """Abscissae x_i = g_{n-i}(a_n), verified against the wrap identities."""
    _check_inputs(f, n)
    gs = chain_functions(f, n)
    roots = [_largest_root(gs[i]) for i in range(1, n + 1)]
    for a, b in zip(roots, roots[1:]):
        if not a < b:
            raise InternalInvariantError("root chain failed to increase")
    a_n = roots[-1]
    xs = [ZERO]
    for i in range(1, n + 1):
        xs.append(pl_eval(gs[n - i], a_n))
    xs.append(ONE)

    for a, b in zip(xs, xs[1:]):
        if not a < b:
            raise InternalInvariantError("abscissae not strictly increasing")
    # wrap identity f(x_{i+1}) - f(x_i) = x_i - x_{i-1}, x_{-1} = x_n - 1
    for i in range(0, n + 1):
        x_prev = xs[n] - ONE if i == 0 else xs[i - 1]
        lhs = pl_eval(f, xs[i + 1]) - pl_eval(f, xs[i])
        rhs = xs[i] - x_prev
        if lhs != rhs:
            raise InternalInvariantError(f"wrap identity failed at index {i}")
    return GraphSolution(roots=tuple(roots), abscissae=tuple(xs), n=n)


def graph_increments(f, sol):
    """(dx, dy) increment sequences of the solved partition points."""
    xs = sol.abscissae
    dx = [b - a for a, b in zip(xs, xs[1:])]
    dy = [pl_eval(f, b) - pl_eval(f, a) for a, b in zip(xs, xs[1:])]
    return dx, dy
