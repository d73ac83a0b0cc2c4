"""Inequality chains bounding the integral mean of a convex function.

Every term of a chain is ``∫ f dμ`` for a probability measure ``μ``: the
uniform measure on a domain for the ground-truth mean, and otherwise a few
points with weights, so that every slack is ``∫ f d(μ⁺ − μ⁻)`` for two
measures of equal mass and barycentre (hence every chain is exact on affine
``f``).  Each chain is a pure builder ``build(s, params, weighed)`` that
returns its terms as explicit measures ``(label, points, weights)``, or the
mean, given the parent weights ``weighed`` of its params.  For any set of
instances :func:`chain_reports` makes one weight solve per parent simplex,
calls each function once on the stacked points of all its terms (a point
shared by terms is evaluated once per term), and sums each term's products.
A point's value and weights do not depend on its batch, so a chain run
alone reproduces the terms it gets inside a whole trial.  Terms
are ordered the way the chain is written: lower bounds ascending to the
integral mean, then upper bounds ascending.  A chain passes when every
consecutive slack is ``>= -tolerance`` (:func:`chain_tolerance`); against
Monte Carlo ground truth the tolerance widens to four standard errors so
sampling noise cannot raise false alarms.  :data:`CHAINS` is the one table
of the chains; they are documented on their public functions below.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

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
    "CHAINS",
    "CHAIN_NAMES",
    "ChainReport",
    "DOMAINS",
    "chain_reports",
    "chain_tolerance",
    "choquet_chain",
    "cor2_chain",
    "cor3_check",
    "cor3_condition_holds",
    "cor3_max_halfwidth",
    "thm2_upper",
    "thm3_chain",
    "thm4_chain",
    "thm5_upper",
    "thm6_chain",
]


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
    name: str, labeled_terms, gt: IntegralEstimate | None, *, condition_holds=None
) -> ChainReport:
    terms = tuple([(label, float(value)) for label, value in labeled_terms])
    values = [value for _, value in terms]
    slacks = tuple([high - low for low, high in zip(values, values[1:])])
    tolerance = chain_tolerance(gt)
    ok = condition_holds is False or all([slack >= -tolerance for slack in slacks])
    verdict = "pass" if ok else "fail"
    return ChainReport(name, terms, gt, slacks, tolerance, verdict, condition_holds)


# ---------------------------------------------------------------------------
# parent weights and builders
# ---------------------------------------------------------------------------


def _weighed_rows(key: str, s: Simplex, value) -> np.ndarray:
    """The rows of a param whose parent weights a builder reads: thm2's pin
    point, a subsimplex's vertices then centroid, thm6's mixture points."""
    if key == "point":
        return as_point(value, s.dimension)[None, :]
    if key == "subsimplex":
        if value.dimension != s.dimension:
            raise DimensionMismatchError("subsimplex dimension differs from parent")
        return np.concatenate((value.vertices, value.centroid[None, :]))
    M = np.atleast_2d(np.asarray(value, dtype=float))
    if M.shape[1] != s.dimension:
        raise DimensionMismatchError("points have the wrong dimension")
    if not np.isfinite(M).all():
        raise ValueError("mixture point coordinates must be finite")
    return M


#: The error raised when a row of a weighed param lies outside its parent.
_OUTSIDE = {
    "point": (PointOutsideSimplexError, "pin point lies outside the simplex"),
    "subsimplex": (SubsimplexEscapesParentError, "subsimplex vertex outside parent"),
    "points": (PointOutsideSimplexError, "a mixture point lies outside the simplex"),
}


def _weigh(instances) -> dict:
    """``(id(parent), id(param)) -> (rows, weights)`` of every weighed param,
    from one solve per parent; a param shared by instances is solved and
    checked to lie in its parent once, and its read-only weights are shared
    by their builders."""
    parents: dict[int, tuple[Simplex, dict]] = {}
    for _, (_, s, params) in instances:
        for key in _OUTSIDE:
            if key in params:
                blocks = parents.setdefault(id(s), (s, {}))[1]
                if id(params[key]) not in blocks:
                    blocks[id(params[key])] = key, _weighed_rows(key, s, params[key])
    weighed = {}
    for s, blocks in parents.values():
        W = s.solve_weights(np.concatenate([rows for _, rows in blocks.values()]))
        W.setflags(write=False)
        for param, (key, rows) in blocks.items():
            w, W = W[: len(rows)], W[len(rows) :]
            if w.min() < -TOL_GEOM:
                error, what = _OUTSIDE[key]
                raise error(f"{what} (min weight {w.min():.3e})")
            weighed[id(s), param] = rows, w
    return weighed


_ONE = np.ones(1)
_MEAN = ("integral_mean", None, None)
_SUB_MEAN = ("subsimplex_mean", None, None)


def _at_centroid(s: Simplex) -> tuple:
    return ("f_at_centroid", s.centroid[None, :], _ONE)


def _vertex_average(s: Simplex) -> tuple:
    np1 = s.dimension + 1
    return ("vertex_average", s.vertices, np.full(np1, 1.0 / np1))


def _choquet(s, params, weighed):
    return [_at_centroid(s), _MEAN, _vertex_average(s)], None


def _thm2(s, params, weighed):
    point, W = weighed[id(s), id(params["point"])]
    pinned = np.concatenate((1.0 - W[0], _ONE)) / (s.dimension + 1)
    at = np.concatenate((s.vertices, point))
    return [_MEAN, ("pinned_upper", at, pinned), _vertex_average(s)], None


def _thm3(s, params, weighed):
    sub, j = params["subsimplex"], params["j"]
    if not 0 <= j <= s.dimension:
        raise IndexError(f"vertex index {j} out of range 0..{s.dimension}")
    rows, W = weighed[id(s), id(sub)]
    W = W[:-1]
    if np.abs(sub.centroid - s.centroid).max() > TOL_GEOM:
        raise BarycenterMismatchError("subsimplex centroid differs from parent centroid")
    V, np1 = s.vertices, len(W)
    # argument i: the parent centroid with vertex i replaced by sub vertex j.
    # The upper bound's measure lies on the parent vertices, then every sub
    # vertex; the zero weights of the sub vertices other than j stay, since
    # dropping them would regroup the pairwise sum and move result bits.
    args = (np.add.reduce(V) - V + rows[j]) / np1
    upper = np.zeros(2 * np1)
    upper[:np1], upper[np1 + j] = np.add.reduce(W) - W[j], 1.0
    upper /= np1
    return [
        _at_centroid(s),
        ("subsimplex_lower", args, W[j]),
        _MEAN,
        ("subsimplex_upper", np.concatenate((V, rows[:-1])), upper),
        _vertex_average(s),
    ], None


def _thm4(s, params, weighed):
    rows, W = weighed[id(s), id(params["subsimplex"])]  # the last row is P
    bound = ("weighted_vertex_bound", s.vertices, W[-1])
    return [("f_at_barycenter", rows[-1:], _ONE), _SUB_MEAN, bound], None


def _thm5(s, params, weighed):
    rows, W = weighed[id(s), id(params["subsimplex"])]  # the last row is P
    improved = np.concatenate((s.dimension * W[-1], _ONE)) / (s.dimension + 1)
    return [
        _SUB_MEAN,
        ("improved_upper", np.concatenate((s.vertices, rows[-1:])), improved),
        ("weighted_vertex_bound", s.vertices, W[-1]),
    ], None


def _thm6(s, params, weighed):
    M, _ = weighed[id(s), id(params["points"])]
    betas = np.asarray(params["betas"], dtype=float)
    if betas.ndim != 1 or betas.shape[0] != M.shape[0]:
        raise DimensionMismatchError("betas length must match number of points")
    if not np.isfinite(betas).all():
        raise ValueError("betas must be finite")
    if betas.min() < 0.0:
        raise ValueError("betas must be nonnegative")
    if abs(betas.sum() - 1.0) > TOL_GEOM:
        raise ValueError(f"betas sum to {betas.sum()!r}, expected 1")
    if np.abs(betas @ M - s.centroid).max() > TOL_GEOM:
        raise CentroidConstraintViolatedError("beta-mixture of points misses the centroid")
    return [_at_centroid(s), ("point_mixture", M, betas), _vertex_average(s)], None


def _cor2(s, params, weighed):
    a, b, lam = float(params["a"]), float(params["b"]), float(params["lam"])
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError(f"a and b must be finite, got a={a!r}, b={b!r}")
    if not a < b:
        raise ValueError(f"need a < b, got a={a!r}, b={b!r}")
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lam must lie in [0, 1], got {lam!r}")
    m = (1.0 - lam) * a + lam * b
    x = [a, b, (a + b) / 2.0, (a + m) / 2.0, (b + m) / 2.0, lam * a + (1.0 - lam) * b]
    at = np.array(x)[:, None]
    return [
        ("f_at_midpoint", at[2:3], _ONE),
        ("split_lower", at[3:5], np.array([lam, 1.0 - lam])),
        _MEAN,
        ("split_upper", at[[0, 1, 5]], np.array([1.0 - lam, lam, 1.0]) / 2.0),
        ("endpoint_average", at[:2], np.array([0.5, 0.5])),
    ], None


def _cor3(s, params, weighed):
    p, q, a, b, y = _cor3_params(params)
    at = np.array([(p * a + q * b) / (p + q), a, b])[:, None]
    return [
        ("f_at_weighted_point", at[:1], _ONE),
        _MEAN,
        ("weighted_endpoint_bound", at[1:], np.array([p, q]) / (p + q)),
    ], cor3_condition_holds(p, q, a, b, y)


# ---------------------------------------------------------------------------
# the chain table
# ---------------------------------------------------------------------------


def _cor3_params(params: dict) -> tuple[float, float, float, float, float]:
    """cor3's ``(p, q, a, b, y)`` as floats, checked.

    Its window and its builder both read an instance through here, so
    neither divides by ``p + q`` unchecked.
    """
    p, q, a, b, y = values = [float(params[key]) for key in ("p", "q", "a", "b", "y")]
    cor3_max_halfwidth(p, q, a, b)  # checks p, q and a <= b
    if not y > 0.0:
        raise ValueError("y must be positive")
    if not all(map(math.isfinite, values)):
        raise ValueError(f"p, q, a, b and y must be finite, got {values!r}")
    return p, q, a, b, y


def _window(s: Simplex | None, params: dict) -> Simplex:
    p, q, a, b, y = _cor3_params(params)
    centre = (p * a + q * b) / (p + q)
    return Simplex([[centre - y], [centre + y]])


#: Ground-truth domains, each worked out from an instance's (simplex, params).
#: cor2's interval is the instance's 1-D simplex when it has one (``hh
#: bounds``), else ``[a, b]`` (campaign trials and descriptors); cor3's
#: window is ``[A - y, A + y]`` with ``A = (p a + q b) / (p + q)``.
DOMAINS: dict[str, Callable[[Simplex | None, dict], Simplex]] = {
    "parent": lambda s, p: s,
    "subsimplex": lambda s, p: p["subsimplex"],
    "interval": lambda s, p: Simplex([[p["a"]], [p["b"]]]) if s is None else s,
    "window": _window,
}


@dataclass(frozen=True)
class Chain:
    """One bound chain: its builder (see the module docstring), the
    :data:`DOMAINS` key of its ground-truth domain (None for thm6, which has
    no integral), and the term indices (mean, refined upper, classical
    upper) of a chain refining a classical upper bound."""

    build: Callable
    domain: str | None
    tightness: tuple[int, int, int] | None = None

    @property
    def one_d(self) -> bool:
        """Whether the chain needs a 1-D instance: its domain is an interval."""
        return self.domain in ("interval", "window")


CHAINS: dict[str, Chain] = {
    "choquet": Chain(_choquet, "parent"),
    "thm2": Chain(_thm2, "parent", (0, 1, 2)),
    "thm3": Chain(_thm3, "parent", (2, 3, 4)),
    "thm4": Chain(_thm4, "subsimplex"),
    "thm5": Chain(_thm5, "subsimplex", (0, 1, 2)),
    "thm6": Chain(_thm6, None),
    "cor2": Chain(_cor2, "interval", (2, 3, 4)),
    "cor3": Chain(_cor3, "window"),
}

CHAIN_NAMES: tuple[str, ...] = tuple(CHAINS)


def chain_reports(instances, ground_truths) -> list[ChainReport]:
    """Reports of ``(name, (function, simplex or None, params))`` instances.

    ``ground_truths[k]`` judges the k-th (None for thm6, which has no
    integral).  Every builder runs first; then each function object is
    called once on the stacked points of all its terms, and one
    ``np.add.reduceat`` sums every weighted term's products, each term on
    its own.
    """
    instances = list(instances)
    if not instances:
        return []
    weighed = _weigh(instances)
    built = [CHAINS[name].build(s, params, weighed) for name, (_, s, params) in instances]
    stacks: dict[int, tuple] = {}  # id(f) -> (f, its weighted terms' measures)
    for (_, (f, _, _)), (terms, _) in zip(instances, built):
        stacks.setdefault(id(f), (f, []))[1].extend(t[1:] for t in terms if t[1] is not None)
    values = [f(np.concatenate([at for at, _ in ms])) for f, ms in stacks.values()]
    weights = [w for _, ms in stacks.values() for _, w in ms]
    starts = list(itertools.accumulate([len(w) for w in weights[:-1]], initial=0))
    products = np.concatenate(weights) * np.concatenate(values)
    flat = iter(np.add.reduceat(products, starts).tolist())
    sums = {key: iter([next(flat) for _ in ms]) for key, (_, ms) in stacks.items()}
    return [
        _build_report(name, [(label, gt.mean_value if at is None else next(sums[id(f)]))
                             for label, at, _ in terms], gt, condition_holds=condition)
        for (name, (f, _, _)), (terms, condition), gt in zip(instances, built, ground_truths)
    ]


def _report(name, f, s, params, gt) -> ChainReport:
    return chain_reports([(name, (f, s, params))], [gt])[0]


# ---------------------------------------------------------------------------
# the chains, one instance at a time
# ---------------------------------------------------------------------------


def choquet_chain(f, s: Simplex, gt: IntegralEstimate) -> ChainReport:
    """Classical two-sided chain: f(centroid) <= mean <= vertex average.

    ``gt`` must be the mean of ``f`` over ``s`` under the uniform measure,
    whose barycenter is the centroid with equal vertex weights 1/(n+1).
    """
    return _report("choquet", f, s, {}, gt)


def thm2_upper(f, s: Simplex, p, gt: IntegralEstimate) -> ChainReport:
    """Upper bound pinned at an interior point p, vs the classical bound.

    Terms: [mean, (sum_k (1-w_k(p)) f(V_k) + f(p)) / (n+1), vertex average].
    At p = centroid the middle term becomes
    ((n/(n+1)) sum f(V_k) + f(centroid)) / (n+1).
    """
    return _report("thm2", f, s, {"point": p}, gt)


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
    return _report("thm3", f, s, {"subsimplex": sub, "j": j}, gt)


def thm4_chain(f, s: Simplex, sub: Simplex, gt_sub: IntegralEstimate) -> ChainReport:
    """Two-sided chain for the mean over a subsimplex with centroid P.

    Terms: [f(P), mean over sub, sum_j w_j(P) f(V_j)] with weights taken in
    the parent simplex.  ``gt_sub`` must be the mean of ``f`` over ``sub``.
    """
    return _report("thm4", f, s, {"subsimplex": sub}, gt_sub)


def thm5_upper(f, s: Simplex, sub: Simplex, gt_sub: IntegralEstimate) -> ChainReport:
    """Improved upper bound for the subsimplex mean of ``thm4``.

    Terms: [mean over sub, (n * sum_j w_j(P) f(V_j) + f(P)) / (n+1),
    sum_j w_j(P) f(V_j)]; the last term is thm4's upper bound, carried so
    the improvement is visible.
    """
    return _report("thm5", f, s, {"subsimplex": sub}, gt_sub)


def thm6_chain(f, s: Simplex, points, betas) -> ChainReport:
    """Mixture chain: f(centroid) <= sum_j beta_j f(M_j) <= vertex average.

    The points ``M_j`` must lie in ``s`` and their beta-mixture must equal
    the centroid.  No integral is involved; the tolerance is TOL_CHAIN.
    """
    return _report("thm6", f, s, {"points": points, "betas": betas}, None)


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
    return _report("cor2", f, None, {"a": a, "b": b, "lam": lam}, gt)


def cor3_max_halfwidth(p: float, q: float, a: float, b: float) -> float:
    """The widest window half-width cor3 holds on: ``(b - a) * min(p, q) / (p + q)``.

    Raises ValueError unless ``p`` and ``q`` are positive and ``a <= b``.
    """
    if not (p > 0.0 and q > 0.0):
        raise ValueError("p and q must be positive")
    if not a <= b:
        raise ValueError(f"need a <= b, got a={a!r}, b={b!r}")
    return (b - a) * min(p, q) / (p + q)


def cor3_condition_holds(p: float, q: float, a: float, b: float, y: float) -> bool:
    """Window-width condition y <= :func:`cor3_max_halfwidth`.

    Inclusive at the boundary, with a TOL_GEOM allowance for round-off.
    """
    return y <= cor3_max_halfwidth(p, q, a, b) + TOL_GEOM


def cor3_check(
    p: float, q: float, a: float, b: float, y: float, f, gt: IntegralEstimate
) -> ChainReport:
    """Weighted-endpoint chain over the window [A-y, A+y], A=(pa+qb)/(p+q).

    Terms: [f(A), mean over the window, (p f(a) + q f(b)) / (p+q)].  The
    chain holds for every convex f iff the window-width condition does; the
    report records ``condition_holds`` and only asserts the verdict when it
    is True.  ``gt`` must be the mean of ``f`` over [A-y, A+y].
    """
    return _report("cor3", f, None, {"p": p, "q": q, "a": a, "b": b, "y": y}, gt)
