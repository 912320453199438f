"""curvepart: exact equal-increment partitions of plane curves.

For a curve from (0,0) to (1,1) through the open unit square, computes
points whose x- and y-increment sequences are positive and equal up to a
cyclic shift, entirely in exact rational arithmetic, plus a coordinated-
level (mountain climbers') solver, a function-graph recursion, an
independent verifier with a brute-force oracle, and a numerical explorer
for the open generalizations.
"""

from .climb import ClimbSolution, solve
from .errors import (
    ConvergenceError,
    CurvepartError,
    DomainError,
    InputError,
    InternalInvariantError,
    NonInteriorCurveError,
    PreconditionError,
)
from .explore import CyclicPermutation, TrialRecord, batch, conjecture_search, random_curve
from .graphcase import GraphSolution, solve_graph
from .oracle import VerifyReport, brute_force, closure_shot, verify
from .pipeline import (
    DensitiesResult,
    PartitioningFunctions,
    PartitionResult,
    PipelineTrace,
    Rearrangement,
    build_partitioning_functions,
    extract_points,
    partition_below_diagonal,
    partition_curve,
    partition_densities,
)
from .plcurve import (
    Intersection,
    Overlap,
    PLCurve,
    curve_from_functions,
    curve_intersections,
    diagonal_curve,
    normalize_tail,
)
from .plfun import (
    PLFunction,
    compose,
    identity,
    level_set,
    pl_eval,
)
from .scalar import Scalar, format_rational, parse_rational, rat

__version__ = "0.1.0"

__all__ = [
    "ClimbSolution", "solve",
    "ConvergenceError", "CurvepartError", "DomainError",
    "InputError", "InternalInvariantError",
    "NonInteriorCurveError", "PreconditionError",
    "CyclicPermutation", "TrialRecord", "batch", "conjecture_search",
    "random_curve",
    "GraphSolution", "solve_graph",
    "VerifyReport", "brute_force", "closure_shot", "verify",
    "DensitiesResult", "PartitioningFunctions", "PartitionResult",
    "PipelineTrace", "Rearrangement", "build_partitioning_functions",
    "extract_points", "partition_below_diagonal", "partition_curve",
    "partition_densities",
    "Intersection", "Overlap", "PLCurve", "curve_from_functions",
    "curve_intersections", "diagonal_curve", "normalize_tail",
    "PLFunction", "compose", "identity", "level_set",
    "pl_eval",
    "Scalar", "format_rational", "parse_rational", "rat",
    "__version__",
]
