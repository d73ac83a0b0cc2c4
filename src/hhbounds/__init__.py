"""Bound chains for convex functions on simplices.

Simplex geometry primitives (volumes, two independent barycentric-coordinate
routes, subsimplex constructors), a zoo of convex test functions, quadrature
ground truth (closed form for the polynomial kinds, the hinge and the 1-D or
two-piece max of affines, Grundmann-Moller cubature for log-sum-exp where it
converges, seeded Monte Carlo otherwise),
one operation per published bound chain, and a randomized verification
harness with tightness analytics and counterexample search.
"""

import os as _os

# The workload is tall-skinny matmuls and tiny solves; multithreaded BLAS
# thrashes on both.  Must be set before the BLAS loads; explicit user
# settings win.  No effect if numpy was already imported.
for _var in (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    _os.environ.setdefault(_var, "1")

from .campaign import (
    CampaignConfig,
    CampaignResult,
    default_config,
    random_simplex,
    replay_failure,
    run_campaign,
    search_cor3_counterexample,
    slack_histograms_csv,
    tightness_ratio,
    tightness_table,
)
from .chains import (
    CHAIN_NAMES,
    ChainReport,
    chain_tolerance,
    choquet_chain,
    cor2_chain,
    cor3_check,
    cor3_condition_holds,
    thm2_upper,
    thm3_chain,
    thm4_chain,
    thm5_upper,
    thm6_chain,
)
from .errors import (
    BarycenterMismatchError,
    CentroidConstraintViolatedError,
    ConditionNotViolatedError,
    DegenerateSimplexError,
    DimensionMismatchError,
    HHBoundsError,
    MissingBaselineError,
    NonFiniteValueError,
    PointOutsideSimplexError,
    SingularSystemError,
    SubsimplexEscapesParentError,
    UnsupportedKindError,
    WorkerError,
)
from .funcs import KINDS, ConvexFunction, random_convex
from .geometry import Simplex, as_point, standard_simplex
from .quadrature import (
    EXACT_KINDS,
    IntegralEstimate,
    ground_truth,
    integrate_cubature,
    integrate_exact,
    integrate_mc,
    sample_uniform,
)
from .tolerances import TOL_CHAIN, TOL_GEOM

__version__ = "0.1.0"

__all__ = [
    "CampaignConfig",
    "CampaignResult",
    "CHAIN_NAMES",
    "ChainReport",
    "ConvexFunction",
    "EXACT_KINDS",
    "IntegralEstimate",
    "KINDS",
    "Simplex",
    "TOL_CHAIN",
    "TOL_GEOM",
    "as_point",
    "chain_tolerance",
    "choquet_chain",
    "cor2_chain",
    "cor3_check",
    "cor3_condition_holds",
    "default_config",
    "ground_truth",
    "integrate_cubature",
    "integrate_exact",
    "integrate_mc",
    "random_convex",
    "random_simplex",
    "replay_failure",
    "run_campaign",
    "sample_uniform",
    "search_cor3_counterexample",
    "slack_histograms_csv",
    "standard_simplex",
    "thm2_upper",
    "thm3_chain",
    "thm4_chain",
    "thm5_upper",
    "thm6_chain",
    "tightness_ratio",
    "tightness_table",
    # errors
    "HHBoundsError",
    "BarycenterMismatchError",
    "CentroidConstraintViolatedError",
    "ConditionNotViolatedError",
    "DegenerateSimplexError",
    "DimensionMismatchError",
    "MissingBaselineError",
    "NonFiniteValueError",
    "PointOutsideSimplexError",
    "SingularSystemError",
    "SubsimplexEscapesParentError",
    "UnsupportedKindError",
    "WorkerError",
]
