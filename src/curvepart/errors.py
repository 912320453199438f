"""Exception hierarchy shared by all curvepart modules.

The CLI maps these onto exit codes: precondition failures exit 2,
convergence and verification failures (ConvergenceError,
InternalInvariantError) exit 3, input/parse problems exit 1.  No climb
fails for the shape of its profiles, so the convergence failures are the
two spent budgets: boundary joining's and the shift-1 oracle's.
"""


class CurvepartError(Exception):
    """Base class for all errors raised by this package."""


class InputError(CurvepartError):
    """Malformed input file, unknown format, or bad CLI arguments."""


class PreconditionError(CurvepartError):
    """An operation was called on data that violates its stated preconditions."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class DomainError(PreconditionError):
    """Argument outside the domain of a function (e.g. eval at t > 1)."""


class NonInteriorCurveError(PreconditionError):
    """Curve leaves the open unit square at an interior parameter."""


class ConvergenceError(CurvepartError):
    """A budget is spent.  Boundary joining spent its cuts without
    reaching tolerance, and carries the best residual and its history; or
    the shift-1 oracle's walk needs more than oracle.CELL_BUDGET cells,
    and carries neither."""

    def __init__(self, message, best_residual=None, history=()):
        super().__init__(message)
        self.best_residual = best_residual
        self.history = list(history)


class InternalInvariantError(CurvepartError):
    """A verified-by-construction identity failed; indicates a solver bug."""
