"""Exception hierarchy.

Every error raised deliberately by this package derives from
:class:`HHBoundsError`, so callers (and the CLI) can distinguish domain
errors from programming mistakes.
"""


class HHBoundsError(Exception):
    """Base class for all errors raised by hhbounds."""


class DimensionMismatchError(HHBoundsError):
    """A point, function or weight vector has the wrong dimension."""


class DegenerateSimplexError(HHBoundsError):
    """Vertices are affinely dependent (or numerically indistinguishable)."""


class SingularSystemError(DegenerateSimplexError):
    """The barycentric linear system cannot be solved.

    Only reachable for degenerate vertex sets, which the ``Simplex``
    constructor already rejects; kept for defensive completeness.
    """


class PointOutsideSimplexError(HHBoundsError):
    """A point required to lie inside a simplex does not."""


class SubsimplexEscapesParentError(HHBoundsError):
    """A constructed subsimplex has a vertex outside the parent simplex."""


class BarycenterMismatchError(HHBoundsError):
    """A subsimplex was required to share the parent's barycenter but does not."""


class CentroidConstraintViolatedError(HHBoundsError):
    """A convex combination of points misses the required centroid."""


class NonFiniteValueError(HHBoundsError, ValueError):
    """A function's values on a domain are not finite (they overflow the
    float range), so its mean there cannot be estimated; or a point's
    coordinates are not finite, so it has no barycentric weights."""


class UnsupportedKindError(HHBoundsError):
    """The requested operation does not support this function kind."""


class MissingBaselineError(HHBoundsError):
    """A campaign result lacks the baseline chain needed for tightness ratios."""


class ConditionNotViolatedError(HHBoundsError):
    """Counterexample search requested although the sufficiency condition holds."""


class WorkerError(HHBoundsError):
    """A campaign worker process ended without sending its results."""
