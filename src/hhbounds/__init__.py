"""Bound chains for convex functions on simplices.

Simplex geometry primitives (volumes, two independent barycentric-coordinate
routes, subsimplex constructors), a zoo of convex test functions, quadrature
ground truth (closed form for the polynomial kinds, the hinge and the 1-D or
two-piece max of affines, Grundmann-Moller cubature for log-sum-exp where it
converges, seeded Monte Carlo otherwise),
one operation per published bound chain, and a randomized verification
harness with tightness analytics and counterexample search.
"""

import importlib as _importlib
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

__version__ = "0.1.0"

#: The public names by home module.  ``import hhbounds`` loads no
#: submodule (and so not numpy): the first access to a name imports its
#: home module and caches the name here (PEP 562).
_EXPORTS = {
    "campaign": (
        "CampaignConfig", "CampaignResult", "default_config", "random_simplex",
        "replay_failure", "run_campaign", "slack_histograms_csv", "tightness_ratio",
        "tightness_table",
    ),
    "chains": (
        "CHAIN_NAMES", "ChainReport", "chain_tolerance", "choquet_chain", "cor2_chain",
        "cor3_check", "cor3_condition_holds", "search_cor3_counterexample", "thm2_upper",
        "thm3_chain", "thm4_chain", "thm5_upper", "thm6_chain",
    ),
    "errors": (
        "HHBoundsError", "BarycenterMismatchError", "CentroidConstraintViolatedError",
        "ConditionNotViolatedError", "DegenerateSimplexError", "DimensionMismatchError",
        "MissingBaselineError", "NonFiniteValueError", "PointOutsideSimplexError",
        "SingularSystemError", "SubsimplexEscapesParentError", "UnsupportedKindError",
        "WorkerError",
    ),
    "funcs": ("KINDS", "ConvexFunction", "random_convex"),
    "geometry": ("Simplex", "as_point", "standard_simplex"),
    "quadrature": (
        "EXACT_KINDS", "IntegralEstimate", "ground_truth", "integrate_cubature",
        "integrate_exact", "integrate_mc", "sample_uniform",
    ),
    "tolerances": ("TOL_CHAIN", "TOL_GEOM"),
}
_HOMES = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOMES)


def __getattr__(name: str):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_importlib.import_module(f"{__name__}.{_HOMES[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
