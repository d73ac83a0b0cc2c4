"""Inequality chains bounding the integral mean of a convex function.

Every term of a chain is ``∫ f dμ`` for a probability measure ``μ``: the
uniform measure on a domain for the ground-truth mean, and otherwise a few
points with weights, so that every slack is ``∫ f d(μ⁺ − μ⁻)`` for two
measures of equal mass and barycentre (hence every chain is exact on affine
``f``).  Each chain is a pure builder that takes a stack of its instances of
one dimension, with their parents' arrays and the parent weights of their
params, and returns its terms as stacked measures: rows of the dimension's
point table, which holds each point once per function, with their weights
and the rows per instance; or None for the mean.  :func:`evaluate_block`
runs a block of instance sets through the builders and returns the terms,
slacks and verdicts of each (chain, dimension) stack as arrays, one row
per instance; :func:`chain_reports`, the public entry, reports one set.
A point's value and weights, and a term's sum, do not depend on the block,
so an instance gets the same bits alone, in its trial and in any block.
Terms are ordered the way the chain is written: lower bounds ascending to
the integral mean, then upper bounds ascending.  A chain passes when every
consecutive slack is ``>= -tolerance`` (:func:`chain_tolerance`); against
Monte Carlo ground truth the tolerance widens to four standard errors so
sampling noise cannot raise false alarms.  :data:`CHAINS` is the one table of the chains, with
their terms, and :data:`DOMAINS` of their ground-truth domains.

An instance set runs in two steps.  :func:`_ground_truths` takes one
ground truth per domain, named by the first instance on it, and integrates
the domains of one seed together, on one Monte Carlo weight stream, before
any chain runs; then :func:`chain_reports` evaluates each function once on
the points of all its chains.  Seeds are keyed by domain name.  ``hh
bounds`` and each campaign trial take both steps, and
:func:`~hhbounds.campaign.replay_failure` the second.

:func:`search_cor3_counterexample` tests the necessity of the cor3 window
condition.  The worst unit hinge has a closed form: its kink is the
endpoint of ``[a, b]`` nearer the weighted point ``A``, and its upper slack
is ``-(y - h)**2 / (4 y)``.  The search certifies that one hinge as a
``cor3`` chain with its exact window mean, and returns it as a descriptor
built by the same code as a campaign failure.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import quadrature  # looked up at call time, so wrappers installed on it see the calls
from .errors import (
    BarycenterMismatchError,
    CentroidConstraintViolatedError,
    ConditionNotViolatedError,
    DimensionMismatchError,
    NonFiniteValueError,
    PointOutsideSimplexError,
    SubsimplexEscapesParentError,
)
from .funcs import ConvexFunction
from .geometry import Simplex, as_point, solve_stacked
from .quadrature import IntegralEstimate
from .tolerances import TOL_CHAIN, TOL_GEOM

__all__ = [
    "CHAINS",
    "CHAIN_NAMES",
    "ChainReport",
    "DOMAINS",
    "chain_reports",
    "chain_tolerance",
    "cor3_condition_holds",
    "cor3_max_halfwidth",
    "search_cor3_counterexample",
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


class ChainRows:
    """The instances of one chain in one dimension of a block, a row each.

    Row ``r`` is instance ``positions[r]`` of instance set ``sets[r]``,
    which identify it in any order: ``values`` holds its terms, ``slacks``
    their consecutive differences, and ``passed`` its verdict at
    ``tolerances[r]`` (vacuously a pass where its cor3 condition is False).
    Built from each row's ``(set, position, instance, ground truth,
    function number)``; a plain class, so that importing the package builds
    no dataclass for it.
    """

    def __init__(self, name, labels, values, conditions, items) -> None:
        self.name, self.labels, self.values, self.conditions = name, labels, values, conditions
        self.ground_truths = [item[3] for item in items]
        self.tolerances = np.array([chain_tolerance(gt) for gt in self.ground_truths])
        self.sets, self.positions = np.array([item[:2] for item in items]).T
        self.slacks = values[:, 1:] - values[:, :-1]
        self.passed = (self.slacks >= -self.tolerances[:, None]).all(axis=1)
        self.passed |= np.array([c is False for c in conditions], dtype=bool)

    def report(self, r: int) -> ChainReport:
        return ChainReport(
            self.name,
            tuple(zip(self.labels, self.values[r].tolist())),
            self.ground_truths[r],
            tuple(self.slacks[r].tolist()),
            float(self.tolerances[r]),
            "pass" if self.passed[r] else "fail",
            self.conditions[r],
        )


# ---------------------------------------------------------------------------
# stacked builders
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


class _Stack:
    """The ``K`` instances of one chain in dimension ``n`` in a block.

    Their terms' points are rows of ``points``, the dimension's point table,
    which holds each point once per function: ``c`` (K,) and ``v`` (K, n+1)
    are the rows of each instance's parent centroid and vertices, ``x`` (K,)
    the first row of its weighed param, and :meth:`own` adds a builder's
    own points.  ``u`` and ``parent`` number each instance's function and
    parent.  ``V`` (K, n+1, n) and ``C`` (K, n) are the parents' coordinates,
    ``X`` the weighed params' rows and ``W`` their parent weights, instance
    ``k``'s from row ``rows[k]`` on, ``counts[k]`` of them; ``blocks[k]`` numbers
    its (function, parent, param), so instances that share one share its rows.
    """

    c = v = x = V = C = X = W = rows = counts = blocks = parent = None

    def __init__(self, n: int, params: list, u: np.ndarray, points: list) -> None:
        self.n, self.params, self.u, self.points = n, params, u, points

    def row(self, offset) -> tuple[np.ndarray, np.ndarray]:
        """Row ``offset`` (an int, or an array of them) of each instance's
        param, and its parent weights."""
        return self.X[self.rows + offset], self.W[self.rows + offset]

    def own(self, at: np.ndarray) -> np.ndarray:
        """The table rows (K, r) of points ``at`` (K, r, n) of the instances."""
        K, r, n = at.shape
        return _place(self.points, at.reshape(K * r, n), np.repeat(self.u, r)).reshape(K, r)


def _place(points: list, at: np.ndarray, owners: np.ndarray) -> np.ndarray:
    """Append rows ``at`` owned by functions ``owners`` to a point table and
    return their row numbers."""
    first = sum(len(piece) for piece, _ in points)
    points.append((at, owners))
    return np.arange(first, first + len(at))


def _each(rows: np.ndarray, weights) -> tuple:
    """A term's measures on table ``rows`` (K, r) with ``weights`` (K, r) or
    (r,): flat rows, flat weights, and ``r`` points per instance."""
    K, r = rows.shape
    flat = np.empty((K, r))
    flat[:] = weights
    return rows.reshape(K * r), flat.reshape(K * r), np.full(K, r)


def _and_one(A: np.ndarray) -> np.ndarray:
    """``(A[k], 1) / (n + 1)`` for each row ``A[k]`` of ``n + 1`` entries."""
    return np.concatenate((A, np.ones((len(A), 1))), axis=1) / A.shape[1]


_ONE = np.ones(1)
_MEAN = ("integral_mean", None)
_SUB_MEAN = ("subsimplex_mean", None)


def _at_centroid(g: _Stack) -> tuple:
    return "f_at_centroid", _each(g.c[:, None], _ONE)


def _vertex_average(g: _Stack) -> tuple:
    return "vertex_average", _each(g.v, np.full(g.n + 1, 1.0 / (g.n + 1)))


def _choquet(g):
    return [_at_centroid(g), _MEAN, _vertex_average(g)], None


def _thm2(g):
    _, w = g.row(0)
    rows = np.concatenate((g.v, g.x[:, None]), axis=1)  # the vertices, then the pin point
    return [_MEAN, ("pinned_upper", _each(rows, _and_one(1.0 - w))), _vertex_average(g)], None


def _thm3(g):
    js = [params["j"] for params in g.params]
    for j in js:
        if not (isinstance(j, numbers.Integral) and 0 <= j <= g.n):
            raise IndexError(f"vertex index {j!r} is not an integer in 0..{g.n}")
    np1, j = g.n + 1, np.array(js, dtype=int)
    if (np.abs(g.row(np1)[0] - g.C).max(axis=1) > TOL_GEOM).any():  # the sub centroids
        raise BarycenterMismatchError("subsimplex centroid differs from parent centroid")
    # once per (parent, subsimplex) pair: the parent-vertex sum and the
    # column sums of the sub vertices' parent weights
    _, first, pair = np.unique(g.blocks, return_index=True, return_inverse=True)
    vertex_sum = np.add.reduce(g.V[first], axis=1)[pair]
    weight_sums = np.add.reduce(g.W[g.rows[first, None] + np.arange(np1)], axis=1)[pair]
    Q, W = g.row(j)  # sub vertex j
    # argument i: the parent centroid with vertex i replaced by sub vertex j.
    # The upper bound's measure lies on the parent vertices, then every sub
    # vertex; the zero weights of the sub vertices other than j stay, since
    # dropping them would regroup the pairwise sum and move result bits.
    args = (vertex_sum[:, None] - g.V + Q[:, None]) / np1
    upper, k = np.zeros((len(j), 2 * np1)), np.arange(len(j))
    upper[:, :np1], upper[k, np1 + j] = weight_sums - W, 1.0
    upper /= np1
    rows = np.concatenate((g.v, g.x[:, None] + np.arange(np1)), axis=1)
    return [
        _at_centroid(g),
        ("subsimplex_lower", _each(g.own(args), W)),
        _MEAN,
        ("subsimplex_upper", _each(rows, upper)),
        _vertex_average(g),
    ], None


def _thm4(g):
    _, w = g.row(g.n + 1)  # each subsimplex's centroid P
    bound = ("weighted_vertex_bound", _each(g.v, w))
    return [("f_at_barycenter", _each((g.x + g.n + 1)[:, None], _ONE)), _SUB_MEAN, bound], None


def _thm5(g):
    _, w = g.row(g.n + 1)  # each subsimplex's centroid P
    rows = np.concatenate((g.v, (g.x + g.n + 1)[:, None]), axis=1)
    return [
        _SUB_MEAN,
        ("improved_upper", _each(rows, _and_one(g.n * w))),
        ("weighted_vertex_bound", _each(g.v, w)),
    ], None


def _thm6(g):
    betas = [np.asarray(params["betas"], dtype=float) for params in g.params]
    if any(b.ndim != 1 or len(b) != m for b, m in zip(betas, g.counts)):
        raise DimensionMismatchError("betas length must match number of points")
    B, starts = np.concatenate(betas), np.cumsum(g.counts) - g.counts
    shift = np.repeat(g.rows - starts, g.counts) + np.arange(len(B))
    if not np.isfinite(B).all():
        raise ValueError("betas must be finite")
    if B.min() < 0.0:
        raise ValueError("betas must be nonnegative")
    sums = np.add.reduceat(B, starts)
    if (off := np.abs(sums - 1.0) > TOL_GEOM).any():
        raise ValueError(f"betas sum to {sums[off.argmax()]!r}, expected 1")
    if (np.abs(np.add.reduceat(B[:, None] * g.X[shift], starts) - g.C).max(axis=1)
            > TOL_GEOM).any():
        raise CentroidConstraintViolatedError("beta-mixture of points misses the centroid")
    mixture = (shift + (g.x - g.rows).repeat(g.counts), B, g.counts)
    return [_at_centroid(g), ("point_mixture", mixture), _vertex_average(g)], None


def _cor2(g):
    a, b, lam = np.array([_cor2_params(params) for params in g.params]).T
    m = (1.0 - lam) * a + lam * b
    x = [a, b, (a + b) / 2.0, (a + m) / 2.0, (b + m) / 2.0, lam * a + (1.0 - lam) * b]
    rows = g.own(np.stack(x, axis=1)[:, :, None])
    upper = np.stack((1.0 - lam, lam, np.ones_like(lam)), axis=1) / 2.0
    return [
        ("f_at_midpoint", _each(rows[:, 2:3], _ONE)),
        ("split_lower", _each(rows[:, 3:5], np.stack((lam, 1.0 - lam), axis=1))),
        _MEAN,
        ("split_upper", _each(rows[:, [0, 1, 5]], upper)),
        ("endpoint_average", _each(rows[:, :2], np.array([0.5, 0.5]))),
    ], None


def _cor3(g):
    values = [_cor3_params(params) for params in g.params]
    p, q, a, b, _ = np.array(values).T
    rows = g.own(np.stack(((p * a + q * b) / (p + q), a, b), axis=1)[:, :, None])
    return [
        ("f_at_weighted_point", _each(rows[:, :1], _ONE)),
        _MEAN,
        ("weighted_endpoint_bound", _each(rows[:, 1:], np.stack((p, q), 1) / (p + q)[:, None])),
    ], [cor3_condition_holds(*v) for v in values]


# ---------------------------------------------------------------------------
# the chain and domain tables
# ---------------------------------------------------------------------------


def _cor2_params(params: dict) -> tuple[float, float, float]:
    """cor2's ``(a, b, lam)`` as floats, checked."""
    a, b, lam = float(params["a"]), float(params["b"]), float(params["lam"])
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError(f"a and b must be finite, got a={a!r}, b={b!r}")
    if not a < b:
        raise ValueError(f"need a < b, got a={a!r}, b={b!r}")
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lam must lie in [0, 1], got {lam!r}")
    return a, b, lam


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


def window_vertices(params: dict) -> list:
    """cor3's window ``[[A - y], [A + y]]``, ``A = (p a + q b) / (p + q)``."""
    p, q, a, b, y = _cor3_params(params)
    centre = (p * a + q * b) / (p + q)
    return [[centre - y], [centre + y]]


#: Ground-truth domains by name, each built from an instance's simplex
#: and params.  cor2's interval is the instance's 1-D simplex when it has
#: one (``hh bounds``), else ``[a, b]`` from its params (campaign trials and
#: descriptors); cor3's window is ``[A - y, A + y]`` with
#: ``A = (p a + q b) / (p + q)``.
DOMAINS: dict[str, Callable[[Simplex | None, dict], Simplex]] = {
    "parent": lambda s, p: s,
    "subsimplex": lambda s, p: p["subsimplex"],
    "interval": lambda s, p: Simplex([[p["a"]], [p["b"]]]) if s is None else s,
    "window": lambda s, p: Simplex(window_vertices(p)),
}


@dataclass(frozen=True)
class Chain:
    """One bound chain: its stacked builder (see the module docstring), the
    :data:`DOMAINS` key of its ground-truth domain (None for thm6, which has
    no integral), the param whose parent weights it reads, and the term
    indices (mean, refined upper, classical upper) of a chain refining a
    classical upper bound."""

    build: Callable
    domain: str | None
    weighs: str | None = None
    tightness: tuple[int, int, int] | None = None

    @property
    def one_d(self) -> bool:
        """Whether the chain needs a 1-D instance: its domain is an interval."""
        return self.domain in ("interval", "window")


#: The chains, with their terms in chain order.  ``V_k`` are the parent's
#: vertices, ``c`` its centroid, ``w(x)`` the parent weights of ``x``, and
#: the vertex average is ``sum_k f(V_k) / (n+1)``.
#:
#: - choquet: ``f(c) <= mean <= vertex average``.
#: - thm2, pin point ``p``: ``mean <= (sum_k (1 - w_k(p)) f(V_k) + f(p)) /
#:   (n+1) <= vertex average``; at ``p = c`` the middle term is
#:   ``(n/(n+1) sum_k f(V_k) + f(c)) / (n+1)``.
#: - thm3, subsimplex with vertices ``Q_k`` and centroid ``c``, ``W[k] =
#:   w(Q_k)``, any ``j`` in ``0..n`` (callers sweep it): ``f(c) <= sum_i
#:   W[j, i] f((sum_{k != i} V_k + Q_j) / (n+1)) <= mean <= (sum_{k != j}
#:   W[k] @ f(V) + f(Q_j)) / (n+1) <= vertex average``.
#: - thm4, subsimplex with centroid ``P``: ``f(P) <= mean over it <= sum_j
#:   w_j(P) f(V_j)``.
#: - thm5, the same: ``mean over it <= (n sum_j w_j(P) f(V_j) + f(P)) /
#:   (n+1) <= sum_j w_j(P) f(V_j)``, thm4's upper bound, carried so the
#:   improvement shows.
#: - thm6, points ``M_j`` whose ``beta``-mixture is ``c``: ``f(c) <= sum_j
#:   beta_j f(M_j) <= vertex average``; no integral, so judged at TOL_CHAIN.
#: - cor2, ``[a, b]`` split at ``m = (1-lam) a + lam b``, ``lam`` in
#:   ``[0, 1]``: ``f((a+b)/2) <= lam f((a+m)/2) + (1-lam) f((b+m)/2) <= mean
#:   <= ((1-lam) f(a) + lam f(b) + f(lam a + (1-lam) b)) / 2 <= (f(a) +
#:   f(b)) / 2``: thm3 in 1-D on the subinterval with ends ``m`` and ``lam a
#:   + (1-lam) b``, its lower bound at the ``m`` end, its upper at the other.
#: - cor3, window ``[A-y, A+y]``, ``A = (p a + q b) / (p+q)``: ``f(A) <=
#:   mean over the window <= (p f(a) + q f(b)) / (p+q)``.  It holds for
#:   every convex ``f`` iff :func:`cor3_condition_holds` does; a report
#:   records that as ``condition_holds`` and asserts its verdict only then.
CHAINS: dict[str, Chain] = {
    "choquet": Chain(_choquet, "parent"),
    "thm2": Chain(_thm2, "parent", "point", (0, 1, 2)),
    "thm3": Chain(_thm3, "parent", "subsimplex", (2, 3, 4)),
    "thm4": Chain(_thm4, "subsimplex", "subsimplex"),
    "thm5": Chain(_thm5, "subsimplex", "subsimplex", (0, 1, 2)),
    "thm6": Chain(_thm6, None, "points"),
    "cor2": Chain(_cor2, "interval", tightness=(2, 3, 4)),
    "cor3": Chain(_cor3, "window"),
}

CHAIN_NAMES: tuple[str, ...] = tuple(CHAINS)


# ---------------------------------------------------------------------------
# evaluating a block
# ---------------------------------------------------------------------------


def _weigh(stacks: list, points: list) -> None:
    """Fill in the parents and weighed params of the stacks ``(name, items,
    g)`` of one dimension, and put their points in the dimension's point
    table ``points``: each parent's centroid and vertices, and each weighed
    param's rows, once per function.  One stacked solve weighs every param;
    a param shared by instances is solved and checked to lie in its parent
    once."""
    parents: dict[tuple[int, int], tuple[int, Simplex, int]] = {}  # -> (number, s, function)
    blocks: dict[tuple[int, int, int], int] = {}
    rows: list[tuple[str, int, int, np.ndarray]] = []  # (key, parent, function, rows)
    for name, items, g in stacks:
        if CHAINS[name].one_d:
            continue
        pairs = [(id(item[2][0]), id(item[2][1])) for item in items]
        g.parent = [parents.setdefault(ids, (len(parents), item[2][1], item[4]))[0]
                    for ids, item in zip(pairs, items)]
        if not (key := CHAINS[name].weighs):
            continue
        numbers = []
        for ids, p, params in zip(pairs, g.parent, g.params):
            if (block := (*ids, id(params[key]))) not in blocks:
                blocks[block] = len(rows)
                s, u = parents[ids][1:]
                rows.append((key, p, u, _weighed_rows(key, s, params[key])))
            numbers.append(blocks[block])
        g.blocks = np.array(numbers)
    if not parents:
        return
    n, simplices = stacks[0][2].n, [s for _, s, _ in parents.values()]
    V, C = np.stack([s.vertices for s in simplices]), np.stack([s.centroid for s in simplices])
    owners = np.repeat([u for *_, u in parents.values()], n + 2)
    base = _place(points, np.concatenate((C[:, None], V), axis=1).reshape(-1, n), owners)
    if rows:
        counts = np.array([len(r) for *_, r in rows])
        starts = np.cumsum(counts) - counts
        X = np.concatenate([r for *_, r in rows])
        W = solve_stacked(simplices, X, np.repeat([p for _, p, _, _ in rows], counts))
        low = np.minimum.reduceat(W.min(axis=1), starts)
        for b in np.flatnonzero(low < -TOL_GEOM)[:1]:
            error, what = _OUTSIDE[rows[b][0]]
            raise error(f"{what} (min weight {low[b]:.3e})")
        x0 = _place(points, X, np.repeat([u for _, _, u, _ in rows], counts))[0]
    for _, _, g in stacks:
        if g.parent is not None:
            g.V, g.C, g.c = V[g.parent], C[g.parent], base[::n + 2][g.parent]
            g.v = g.c[:, None] + np.arange(1, n + 2)
        if g.blocks is not None:
            g.X, g.W, g.rows, g.counts = X, W, starts[g.blocks], counts[g.blocks]
            g.x = g.rows + x0


def _values(funcs: list, P: np.ndarray, owner: np.ndarray) -> np.ndarray:
    """The value at each row of ``P`` of its function ``funcs[owner]``: each
    function is called once, on all its rows, in the order of ``funcs``."""
    order, ends = np.argsort(owner, kind="stable"), np.cumsum(np.bincount(owner)).tolist()
    values = np.empty(len(P))
    for u, a, b in zip(range(len(ends)), [0, *ends], ends):
        if a < b:
            rows = order[a:b]
            values[rows] = funcs[u](P[rows])
    return values


def _dimension_rows(n: int, by_name: dict, funcs: list) -> list[ChainRows]:
    """The rows of the instances of dimension ``n``, a stack per chain, with
    the sum of every weighted term from one ``np.add.reduceat``."""
    points: list = []  # the dimension's point table, as (points, owners) pieces
    stacks = [
        (name, items, _Stack(n, [item[2][2] for item in items],
                             np.array([item[4] for item in items]), points))
        for name, items in by_name.items()
    ]
    _weigh(stacks, points)
    index, weights, lengths, built = [], [], [], []
    for name, items, g in stacks:
        terms, held = CHAINS[name].build(g)
        for rows, w, counts in (measure for _, measure in terms if measure is not None):
            index.append(rows)
            weights.append(w)
            lengths.append(counts)
        labels = tuple(label for label, _ in terms)
        means = [measure is None for _, measure in terms]
        built.append((name, items, labels, means, held or [None] * len(items)))
    P, owner = (np.concatenate(part) for part in zip(*points))
    del stacks, points[:]  # free the builders' arrays before the functions run
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        values = _values(funcs, P, owner)
    if not (finite := np.isfinite(values)).all():
        f = funcs[owner[finite.argmin()]]
        raise NonFiniteValueError(
            f"{getattr(f, 'kind', type(f).__name__)} has non-finite values at the chain "
            f"points of dimension {n}: its values overflow"
        )
    products = np.concatenate(weights)
    products *= values[np.concatenate(index)]
    lengths = np.concatenate(lengths)
    sums = np.add.reduceat(products, np.cumsum(lengths) - lengths)
    out, done = [], 0
    for name, items, labels, means, held in built:
        columns = []
        for mean in means:
            if mean:
                columns.append([item[3].mean_value for item in items])
            else:
                columns.append(sums[done : done + len(items)])
                done += len(items)
        out.append(ChainRows(name, labels, np.column_stack(columns), held, items))
    return out


def evaluate_block(sets, ground_truths) -> list[ChainRows]:
    """Every chain instance of a block of instance sets, as array rows.

    ``sets`` holds lists of ``(name, (function, simplex or None, params))``
    instances, and ``ground_truths`` their estimates (None for thm6).  The
    instances are stacked by dimension and chain, one dimension after
    another: one stacked solve (:func:`~hhbounds.geometry.solve_stacked`)
    weighs every param the builders read, each builder runs once on its
    stack, each function object is called once on the points of all its
    terms (in the order the instances first name them), and one
    ``np.add.reduceat`` sums every weighted term; only the sums outlive the
    dimension.  Returns the rows of each (chain, dimension) stack, a
    dimension at a time; a row is identified by its set and position, not
    by its order.
    """
    funcs: dict[int, tuple[int, Callable]] = {}
    groups: dict[int, dict[str, list]] = {}  # n -> name -> [(set, position, instance, gt, f)]
    for t, (instances, gts) in enumerate(zip(sets, ground_truths)):
        for i, ((name, instance), gt) in enumerate(zip(instances, gts)):
            n = 1 if CHAINS[name].one_d else instance[1].dimension
            u = funcs.setdefault(id(instance[0]), (len(funcs), instance[0]))[0]
            groups.setdefault(n, {}).setdefault(name, []).append((t, i, instance, gt, u))
    called = [f for _, f in funcs.values()]
    return [rows for n, by_name in groups.items() for rows in _dimension_rows(n, by_name, called)]


def chain_reports(instances, ground_truths) -> list[ChainReport]:
    """Reports of ``(name, (function, simplex or None, params))`` instances.

    ``ground_truths[k]`` judges the k-th (None for thm6, which has no
    integral); a count or a None that does not match raises ValueError.
    The instances are the one set of a block (:func:`evaluate_block`), and
    an instance gets the same bits in any set of any block.
    """
    instances, ground_truths = list(instances), list(ground_truths)
    if len(instances) != len(ground_truths):
        k = min(len(instances), len(ground_truths))
        odd = f"instance {k} ({instances[k][0]})" if k < len(instances) else f"ground truth {k}"
        raise ValueError(f"{odd} has no match: {len(instances)} instances, "
                         f"{len(ground_truths)} ground truths")
    for k, ((name, _), gt) in enumerate(zip(instances, ground_truths)):
        if (CHAINS[name].domain is None) != (gt is None):
            wants = "no ground truth" if CHAINS[name].domain is None else "a ground truth"
            raise ValueError(f"instance {k} ({name}) takes {wants}")
    reports: list = [None] * len(instances)
    if instances:
        for rows in evaluate_block([instances], [ground_truths]):
            for r, position in enumerate(rows.positions.tolist()):
                reports[position] = rows.report(r)
    return reports


def _ground_truths(instances, seeds: dict[str, int], mc_samples: int, domains: dict):
    """The estimate of the ground-truth domain of each ``(name, (function,
    simplex, params))`` instance, in order (None for thm6).  The first
    instance on a domain names the function and simplex that later ones
    share: ``domains[name]``, or built through :data:`DOMAINS`.  ``seeds``
    and ``domains`` are keyed by domain name.  The domains of one seed are
    integrated together, on one Monte Carlo weight stream
    (:func:`~hhbounds.quadrature.ground_truths`); the very same (function,
    simplex) objects share one estimate."""
    pairs: dict[int, dict[tuple, tuple]] = {}  # seed -> object ids -> (function, domain)
    keys: dict[str, tuple] = {}  # domain name -> (seed, object ids)
    for name, (func, simplex, params) in instances:
        if (domain := CHAINS[name].domain) is not None and domain not in keys:
            built = domains[domain] if domain in domains else DOMAINS[domain](simplex, params)
            keys[domain] = seeds[domain], (id(func), id(built))
            pairs.setdefault(seeds[domain], {}).setdefault(keys[domain][1], (func, built))
    estimates = {}
    for seed, seed_pairs in pairs.items():
        found = quadrature.ground_truths(seed_pairs.values(), mc_samples, seed)
        for ids, est in zip(seed_pairs, found):
            estimates[seed, ids] = est
    return [
        None if (domain := CHAINS[name].domain) is None else estimates[keys[domain]]
        for name, _ in instances
    ]


# ---------------------------------------------------------------------------
# the cor3 window condition, and the counterexample search for its necessity
# ---------------------------------------------------------------------------


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


def _descriptor(name: str, where: dict, instance, report: ChainReport, recipe) -> dict:
    """The replayable descriptor of one chain run on ``instance``.

    ``where`` locates it (``{"trial", "dimension"}`` for a campaign failure,
    ``{"dimension": 1}`` for a cor3 witness) and ``recipe`` replays its
    ground truth; :func:`~hhbounds.campaign.replay_failure` reads the
    descriptor back.
    """
    func, simplex, params = instance
    descriptor = {
        "chain": name,
        **where,
        "function": func.to_json_dict(),
        "params": {
            key: value.to_json_dict() if isinstance(value, Simplex)
            else value.tolist() if isinstance(value, np.ndarray) else value
            for key, value in params.items()
        },
        "ground_truth": recipe,
        "verdict": report.verdict,
        "slacks": list(report.slacks),
        "tolerance": report.tolerance_used,
    }
    if simplex is not None:
        descriptor["simplex"] = simplex.to_json_dict()
    return descriptor


def search_cor3_counterexample(p: float, q: float, a: float, b: float, y: float) -> dict | None:
    """The unit hinge that violates the cor3 chain most, when the condition fails.

    Write ``S(k)`` for the cor3 upper slack of the unit hinge
    ``max(0, x - k)``.  Between consecutive points of ``{a, b, A - y, A + y}``
    its endpoint term is linear in ``k`` and its window mean is convex in
    ``k``, so ``S`` is concave on each piece and its minimum lies at one of
    those four kinks.  It lies at the endpoint of ``[a, b]`` nearer ``A``
    (``a`` on a tie), where ``S = -(y - h)**2 / (4 y)`` with ``h`` the
    :func:`cor3_max_halfwidth`.  The mirrored hinge
    ``max(0, k - x)`` differs from this one by an affine function, whose
    cor3 slacks are zero because the window is centred at ``A``, so it
    would score the same.  That one hinge is certified as a ``cor3`` chain
    with its exact window mean (:func:`~hhbounds.quadrature.integrate_exact`),
    and a witness descriptor (replayable via
    :func:`~hhbounds.campaign.replay_failure`) is returned only if its
    slack is negative beyond the report tolerance; otherwise None.
    """
    p, q, a, b, y = float(p), float(q), float(a), float(b), float(y)
    params = {"p": p, "q": q, "a": a, "b": b, "y": y}
    window = DOMAINS["window"](None, params)
    if cor3_condition_holds(p, q, a, b, y):
        raise ConditionNotViolatedError(
            "window-width condition holds; the chain is valid for every convex f"
        )
    centre = (p * a + q * b) / (p + q)
    kink = a if centre - a <= b - centre else b
    func = ConvexFunction(
        kind="hinge_distance",
        params={"slope": [1.0], "threshold": kink},
        label="hinge-witness",
    )
    instance = func, None, params
    gt = quadrature.integrate_exact(func, window)
    report = chain_reports([("cor3", instance)], [gt])[0]
    worst = min(report.slacks)
    if worst >= -report.tolerance_used:
        return None
    witness = _descriptor(
        "cor3", {"dimension": 1}, instance, report, quadrature.ground_truth_recipe(gt, None)
    )
    witness.update(kink=kink, slack=worst, candidates_examined=1)
    return witness
