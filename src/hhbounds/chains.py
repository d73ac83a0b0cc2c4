"""Inequality chains bounding the integral mean of a convex function.

Each operation evaluates every term of one published two-sided bound chain
for a convex function on a simplex and packages the terms, consecutive
slacks, and a pass/fail verdict into a :class:`ChainReport`.  Terms are
ordered the way the chain is written: lower bounds ascending to the integral
mean, then upper bounds ascending.  A chain passes when every consecutive
slack is ``>= -tolerance`` (:func:`chain_tolerance`); against Monte Carlo
ground truth the tolerance widens to four standard errors so sampling noise
cannot raise false alarms.

Chain catalogue (``CHAIN_NAMES``):

* ``choquet``   - f(centroid) <= mean <= average of vertex values.
* ``thm2``      - mean <= upper bound pinned at an interior point <= classical.
* ``thm3``      - five terms around the mean from a subsimplex sharing the
  parent's centroid, swept over a chosen subsimplex vertex ``j``.
* ``thm4``      - f(P) <= mean over a subsimplex with centroid P <= weighted
  vertex bound (weights of P in the parent).
* ``thm5``      - improvement of thm4's upper bound.
* ``thm6``      - f(centroid) <= mixture of values at points averaging to the
  centroid <= average of vertex values.
* ``cor2``      - 1-D five-term split chain on an interval.
* ``cor3``      - 1-D weighted-endpoint chain over a window [A-y, A+y],
  asserted only when the window-width condition holds.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import (
    BarycenterMismatchError,
    CentroidConstraintViolatedError,
    DimensionMismatchError,
    PointOutsideSimplexError,
    SubsimplexEscapesParentError,
)
from .geometry import Simplex, as_point
from .quadrature import IntegralEstimate
from .tolerances import TOL_CHAIN, TOL_GEOM

__all__ = [
    "CHAIN_NAMES",
    "ChainReport",
    "chain_tolerance",
    "choquet_chain",
    "cor2_chain",
    "cor3_check",
    "cor3_condition_holds",
    "thm2_upper",
    "thm3_chain",
    "thm4_chain",
    "thm5_upper",
    "thm6_chain",
]

CHAIN_NAMES: tuple[str, ...] = (
    "choquet",
    "thm2",
    "thm3",
    "thm4",
    "thm5",
    "thm6",
    "cor2",
    "cor3",
)


def chain_tolerance(gt: IntegralEstimate | None) -> float:
    """Verdict tolerance: ``max(TOL_CHAIN, 4 * gt.std_error)``.

    A closed-form mean has no error, and the ground-truth policy accepts a
    cubature mean only when its error estimate is at most TOL_CHAIN / 10,
    so both are judged at TOL_CHAIN.  Against Monte Carlo it widens to four
    standard errors.
    """
    if gt is None:
        return TOL_CHAIN
    return max(TOL_CHAIN, 4.0 * gt.std_error)


@dataclass(frozen=True)
class ChainReport:
    """Ordered bound-chain terms with slacks and a verdict.

    ``slacks[i] = value[i+1] - value[i]``; the verdict is ``"pass"`` iff all
    slacks are ``>= -tolerance_used``.  For the conditional ``cor3`` chain,
    ``condition_holds`` records whether the chain is asserted at all; when it
    is False the verdict is vacuously ``"pass"`` while slacks still carry the
    raw values.
    """

    chain_name: str
    terms: tuple[tuple[str, float], ...]
    ground_truth: IntegralEstimate | None
    slacks: tuple[float, ...]
    tolerance_used: float
    verdict: str
    condition_holds: bool | None = None

    @property
    def values(self) -> tuple[float, ...]:
        return tuple(v for _, v in self.terms)

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_json_dict(self) -> dict:
        data: dict = {
            "chain": self.chain_name,
            "terms": [{"label": label, "value": value} for label, value in self.terms],
            "slacks": list(self.slacks),
            "tolerance": self.tolerance_used,
            "verdict": self.verdict,
            "ground_truth": (
                self.ground_truth.to_json_dict() if self.ground_truth else None
            ),
        }
        if self.condition_holds is not None:
            data["condition_holds"] = self.condition_holds
        return data


def _build_report(
    name: str,
    labeled_terms: list[tuple[str, float]],
    gt: IntegralEstimate | None,
    *,
    condition_holds: bool | None = None,
) -> ChainReport:
    terms = tuple((label, float(value)) for label, value in labeled_terms)
    values = [value for _, value in terms]
    slacks = tuple(values[i + 1] - values[i] for i in range(len(values) - 1))
    tolerance = chain_tolerance(gt)
    ok = all(slack >= -tolerance for slack in slacks)
    if condition_holds is False:
        ok = True
    return ChainReport(
        chain_name=name,
        terms=terms,
        ground_truth=gt,
        slacks=slacks,
        tolerance_used=tolerance,
        verdict="pass" if ok else "fail",
        condition_holds=condition_holds,
    )


def _values(f, *rows) -> np.ndarray:
    """``f`` at every row of ``rows`` (points or batches of points), in one call."""
    return np.asarray(f(np.vstack(rows)), dtype=float)


@functools.lru_cache(maxsize=8)
def _containment_weights(s: Simplex, sub: Simplex) -> np.ndarray:
    """Parent weights of every subsimplex vertex, then of the subsimplex centroid.

    Row ``k < n+1`` holds the weights of sub vertex ``k`` and the last row
    those of ``sub.centroid``, from one stacked solve; raises if a vertex
    escapes.  Simplices are immutable, so the result is cached by the
    identity of the pair and shared, read-only, by thm3's ``j`` sweep, thm4
    and thm5.
    """
    if sub.dimension != s.dimension:
        raise DimensionMismatchError("subsimplex dimension differs from parent")
    W = s.solve_weights(np.vstack([sub.vertices, sub.centroid]))
    if W[:-1].min() < -TOL_GEOM:
        raise SubsimplexEscapesParentError(
            f"subsimplex vertex outside parent (min weight {W[:-1].min():.3e})"
        )
    W.setflags(write=False)
    return W


# ---------------------------------------------------------------------------
# chains on a full simplex
# ---------------------------------------------------------------------------


def choquet_chain(f, s: Simplex, gt: IntegralEstimate) -> ChainReport:
    """Classical two-sided chain: f(centroid) <= mean <= vertex average.

    ``gt`` must be the mean of ``f`` over ``s`` under the uniform measure,
    whose barycenter is the centroid with equal vertex weights 1/(n+1).
    """
    values = _values(f, s.vertices, s.centroid)
    fv = values[:-1]
    return _build_report(
        "choquet",
        [
            ("f_at_centroid", values[-1]),
            ("integral_mean", gt.mean_value),
            ("vertex_average", fv.mean()),
        ],
        gt,
    )


def thm2_upper(f, s: Simplex, p, gt: IntegralEstimate) -> ChainReport:
    """Upper bound pinned at an interior point p, vs the classical bound.

    Terms: [mean, (sum_k (1-w_k(p)) f(V_k) + f(p)) / (n+1), vertex average].
    At p = centroid the middle term becomes
    ((n/(n+1)) sum f(V_k) + f(centroid)) / (n+1).
    """
    p = as_point(p, s.dimension)
    weights = s.solve_weights(p)
    if weights.min() < -TOL_GEOM:
        raise PointOutsideSimplexError("pin point lies outside the simplex")
    values = _values(f, s.vertices, p)
    fv = values[:-1]
    np1 = s.dimension + 1
    refined = ((1.0 - weights) @ fv + values[-1]) / np1
    return _build_report(
        "thm2",
        [
            ("integral_mean", gt.mean_value),
            ("pinned_upper", refined),
            ("vertex_average", fv.mean()),
        ],
        gt,
    )


def thm3_chain(f, s: Simplex, sub: Simplex, j: int, gt: IntegralEstimate) -> ChainReport:
    """Five-term chain from a subsimplex sharing the parent's centroid.

    With W[k, i] the parent weight of parent-vertex i in sub-vertex k, and
    Q_k = sub vertex k, the terms are::

        f(centroid)
        sum_i W[j, i] * f((sum_{k != i} V_k + Q_j) / (n+1))      (lower)
        integral mean over the parent
        (sum_{k != j} W[k, :] @ f(V) + f(Q_j)) / (n+1)           (upper)
        vertex average

    The ``j`` sweep is the caller's job; every index is valid.
    """
    np1 = s.dimension + 1
    if not 0 <= j < np1:
        raise IndexError(f"vertex index {j} out of range 0..{np1 - 1}")
    W = _containment_weights(s, sub)[:-1]
    centroid = s.centroid
    if np.max(np.abs(sub.centroid - centroid)) > TOL_GEOM:
        raise BarycenterMismatchError(
            "subsimplex centroid differs from parent centroid"
        )
    q_j = sub.vertices[j]
    # Arguments of the lower bound: centroid of the parent with vertex i
    # replaced by sub vertex j.
    args = (s.vertices.sum(axis=0) - s.vertices + q_j) / np1
    # rows: vertices, then the lower-bound arguments, then centroid and q_j
    values = _values(f, s.vertices, args, centroid, q_j)
    fv, f_args = values[:np1], values[np1 : 2 * np1]
    mask = np.arange(np1) != j
    upper = (float((W[mask] @ fv).sum()) + values[-1]) / np1
    lower = float(W[j] @ f_args)
    return _build_report(
        "thm3",
        [
            ("f_at_centroid", values[-2]),
            ("subsimplex_lower", lower),
            ("integral_mean", gt.mean_value),
            ("subsimplex_upper", upper),
            ("vertex_average", fv.mean()),
        ],
        gt,
    )


def thm4_chain(f, s: Simplex, sub: Simplex, gt_sub: IntegralEstimate) -> ChainReport:
    """Two-sided chain for the mean over a subsimplex with centroid P.

    Terms: [f(P), mean over sub, sum_j w_j(P) f(V_j)] with weights taken in
    the parent simplex.  ``gt_sub`` must be the mean of ``f`` over ``sub``.
    """
    weights = _containment_weights(s, sub)[-1]
    values = _values(f, s.vertices, sub.centroid)
    return _build_report(
        "thm4",
        [
            ("f_at_barycenter", values[-1]),
            ("subsimplex_mean", gt_sub.mean_value),
            ("weighted_vertex_bound", float(weights @ values[:-1])),
        ],
        gt_sub,
    )


def thm5_upper(f, s: Simplex, sub: Simplex, gt_sub: IntegralEstimate) -> ChainReport:
    """Improved upper bound for the subsimplex mean of ``thm4``.

    Terms: [mean over sub, (n * sum_j w_j(P) f(V_j) + f(P)) / (n+1),
    sum_j w_j(P) f(V_j)]; the last term is thm4's upper bound, carried so
    the improvement is visible.
    """
    weights = _containment_weights(s, sub)[-1]
    values = _values(f, s.vertices, sub.centroid)
    n = s.dimension
    vertex_bound = float(weights @ values[:-1])
    improved = (n * vertex_bound + values[-1]) / (n + 1)
    return _build_report(
        "thm5",
        [
            ("subsimplex_mean", gt_sub.mean_value),
            ("improved_upper", improved),
            ("weighted_vertex_bound", vertex_bound),
        ],
        gt_sub,
    )


def thm6_chain(f, s: Simplex, points, betas) -> ChainReport:
    """Mixture chain: f(centroid) <= sum_j beta_j f(M_j) <= vertex average.

    The points ``M_j`` must lie in ``s`` and their beta-mixture must equal
    the centroid.  No integral is involved; the tolerance is TOL_CHAIN.
    """
    M = np.atleast_2d(np.asarray(points, dtype=float))
    betas = np.asarray(betas, dtype=float)
    if M.shape[1] != s.dimension:
        raise DimensionMismatchError("points have the wrong dimension")
    if betas.ndim != 1 or betas.shape[0] != M.shape[0]:
        raise DimensionMismatchError("betas length must match number of points")
    if betas.min() < 0.0:
        raise ValueError("betas must be nonnegative")
    if abs(betas.sum() - 1.0) > TOL_GEOM:
        raise ValueError(f"betas sum to {betas.sum()!r}, expected 1")
    W = s.solve_weights(M)
    if W.min() < -TOL_GEOM:
        raise PointOutsideSimplexError("a mixture point lies outside the simplex")
    centroid = s.centroid
    if np.max(np.abs(betas @ M - centroid)) > TOL_GEOM:
        raise CentroidConstraintViolatedError(
            "beta-mixture of points misses the centroid"
        )
    np1 = s.dimension + 1
    values = _values(f, s.vertices, centroid, M)
    return _build_report(
        "thm6",
        [
            ("f_at_centroid", values[np1]),
            ("point_mixture", float(betas @ values[np1 + 1 :])),
            ("vertex_average", values[:np1].mean()),
        ],
        None,
    )


# ---------------------------------------------------------------------------
# 1-D corollary chains
# ---------------------------------------------------------------------------


def cor2_chain(f, a: float, b: float, lam: float, gt: IntegralEstimate) -> ChainReport:
    """Five-term split chain on [a, b] with split parameter lam in [0, 1].

    With m = (1-lam)*a + lam*b the chain reads::

        f((a+b)/2)
        lam * f((a+m)/2) + (1-lam) * f((b+m)/2)
        integral mean over [a, b]
        ((1-lam) f(a) + lam f(b) + f(lam*a + (1-lam)*b)) / 2
        (f(a) + f(b)) / 2

    This is the 1-D specialization of ``thm3`` for the subinterval with
    endpoints m and lam*a + (1-lam)*b (lower bound at the m endpoint, upper
    bound at the other).
    """
    a, b, lam = float(a), float(b), float(lam)
    if not a < b:
        raise ValueError(f"need a < b, got a={a!r}, b={b!r}")
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lam must lie in [0, 1], got {lam!r}")
    if getattr(f, "dim", 1) != 1:
        raise DimensionMismatchError("cor2 requires a 1-D function")
    m = (1.0 - lam) * a + lam * b
    abscissae = np.array(
        [a, b, (a + b) / 2.0, (a + m) / 2.0, (b + m) / 2.0, lam * a + (1.0 - lam) * b]
    )
    f_a, f_b, f_mid, f_left, f_right, f_other = (
        float(v) for v in _values(f, abscissae[:, None])
    )
    lower = lam * f_left + (1.0 - lam) * f_right
    upper = ((1.0 - lam) * f_a + lam * f_b + f_other) / 2.0
    return _build_report(
        "cor2",
        [
            ("f_at_midpoint", f_mid),
            ("split_lower", lower),
            ("integral_mean", gt.mean_value),
            ("split_upper", upper),
            ("endpoint_average", (f_a + f_b) / 2.0),
        ],
        gt,
    )


def cor3_condition_holds(p: float, q: float, a: float, b: float, y: float) -> bool:
    """Window-width condition y <= (b - a) * min(p, q) / (p + q).

    Inclusive at the boundary, with a TOL_GEOM allowance for round-off.
    """
    return y <= (b - a) * min(p, q) / (p + q) + TOL_GEOM


def cor3_check(
    p: float, q: float, a: float, b: float, y: float, f, gt: IntegralEstimate
) -> ChainReport:
    """Weighted-endpoint chain over the window [A-y, A+y], A=(pa+qb)/(p+q).

    Terms: [f(A), mean over the window, (p f(a) + q f(b)) / (p+q)].  The
    chain holds for every convex f iff the window-width condition does; the
    report records ``condition_holds`` and only asserts the verdict when it
    is True.  ``gt`` must be the mean of ``f`` over [A-y, A+y].
    """
    p, q, a, b, y = float(p), float(q), float(a), float(b), float(y)
    if p <= 0.0 or q <= 0.0:
        raise ValueError("p and q must be positive")
    if y <= 0.0:
        raise ValueError("y must be positive")
    if not a <= b:
        raise ValueError(f"need a <= b, got a={a!r}, b={b!r}")
    if getattr(f, "dim", 1) != 1:
        raise DimensionMismatchError("cor3 requires a 1-D function")
    A = (p * a + q * b) / (p + q)
    f_A, f_a, f_b = (float(v) for v in _values(f, np.array([[A], [a], [b]])))
    return _build_report(
        "cor3",
        [
            ("f_at_weighted_point", f_A),
            ("integral_mean", gt.mean_value),
            ("weighted_endpoint_bound", (p * f_a + q * f_b) / (p + q)),
        ],
        gt,
        condition_holds=cor3_condition_holds(p, q, a, b, y),
    )
