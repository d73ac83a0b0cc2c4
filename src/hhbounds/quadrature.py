"""Ground-truth integral means over simplices.

Three routes:

* seeded uniform Monte Carlo (any function kind), with the uniform measure
  realized by normalized-exponential Dirichlet weights over the vertices;
* Grundmann-Moller cubature (any function kind; :func:`integrate_cubature`),
  with an embedded error estimate;
* exact closed-form means (:func:`has_exact_mean` says where):

  - ``affine`` and ``quadratic_psd``, in any dimension, via the first and
    second moments of barycentric weights under the uniform measure::

        E[w_i]      = 1/(n+1)
        E[w_i w_j]  = (1 + delta_ij) / ((n+1)(n+2))

  - ``hinge_distance`` ``max(0, a.x - c)``, in any dimension.  With the
    vertex values ``t_k = a.V_k - c`` sorted, the mean is ``G[0..n]/(n+1)``.
    ``G[i..j]`` is the divided difference ``(x)_+^(j-i+1)[t_i..t_j]`` of a
    truncated power, which is ``j-i+1`` times the mean over the face with
    those nodes (Hermite-Genocchi with Curry-Schoenberg)::

        G[i..i] = max(t_i, 0)
        G[i..j] = t_i + ... + t_j                       if t_i >= 0
                = 0                                     if t_j <= 0
                = (t_j G[i+1..j] - t_i G[i..j-1]) / (t_j - t_i)   otherwise

    In the last case both weights are nonnegative (de Boor's B-spline
    recurrence), so nearly coinciding nodes cause no cancellation;
  - ``max_of_affines`` on a 1-D simplex: the trapezoid rule on the interval
    ends and the pieces' pairwise intersections inside it, exact because
    the function is linear between consecutive points;
  - ``max_of_affines`` with two pieces in any dimension:
    ``max(l1, l2) = l1 + max(0, l2 - l1)``, so the mean is ``l1`` at the
    centroid plus the hinge mean of ``l2 - l1``;
  - ``max_of_affines`` with three or more pieces in dims >= 2, by coning
    over the simplex's faces (:mod:`hhbounds.cones`), in dims up to
    :data:`CONE_MAX_DIMENSION` and where its rounding bound is at most
    :data:`CONE_MAX_ERROR`.  In barycentric coordinates
    ``w`` piece ``i`` is the linear form ``(T w)_i``, ``T[i, j]`` its value
    at vertex ``j``.  The uniform measure on a face ``J`` splits into signed
    cones from any point ``p = sum_j w_j v_j`` of its affine hull over its
    facets ``J - j``, of weights ``w_j`` (Lasserre 1998, *Proc. AMS* 126).
    Where every piece takes one value ``h(p)`` at ``p``, ``f - h(p)`` is
    positively homogeneous of degree 1 about ``p``, and its mean over a cone
    of dimension ``m`` is ``m/(m+1)`` times its mean over the base::

        mean_J = h(p) + m/(m+1) sum_j w_j (mean_(J-j) - h(p))

    ``p`` is the common point nearest the face's centroid, and the
    recursion ends at triangles, whose envelope cells are clipped from the
    triangle.  Each face mean carries a propagated rounding bound, which
    grows where a face's point lies far outside it and is large where a
    face has no common point (a face of four or more vertices with more
    pieces than vertices, or pieces parallel on the face).  The guard: the
    mean is rejected, and Monte Carlo taken, where the bound passes
    :data:`CONE_MAX_ERROR`.

The second-moment formula and each closed form are re-verified against
Monte Carlo in the test suite rather than trusted.

The Grundmann-Moller rule of degree ``2S+1`` (Grundmann & Moller 1978,
*SIAM J. Numer. Anal.* 15) integrates every polynomial of that degree
exactly.  Its nodes have barycentric coordinates ``(2b+1)/(n+1+2j)`` for
every ``b`` in ``N^(n+1)`` with ``|b| = j <= S``, and the rule is a signed
combination of the level sums ``T_j`` of ``f`` over those nodes::

    Q_S = sum_j  w(S, j) T_j
    w(S, j) = (-1)^i 2^(-2S) (n+1+2j)^(2S+1) n! / (i! (n+1+2S-i)!),  i = S - j

The weights are exact integer ratios, rounded once by Python's int/int
division.  The rule of degree ``2S-1`` uses the same level sums, so
``|Q_S - Q_(S-1)|`` is an error estimate at no extra cost; it is the
estimate's ``std_error``.  Both rules are applied to ``f`` less its value at
the centroid, which they integrate exactly, so their rounding scales with
the variation of ``f``.  ``n+1+2S`` choose ``n+1`` nodes are evaluated: at
degree 15, 36 on an interval and 11 440 in 8-D.  On an interval the
spread of the arguments of ``log_sum_exp`` is linear in the length, so the
policy cuts an interval whose spread passes :data:`CUBATURE_MAX_SPREAD` into
``2^L`` equal pieces, each within it (up to :data:`CUBATURE_MAX_PIECES`),
and runs the rule on every piece in one call of ``f``; the mean and the
error estimate are the averages over the pieces.

Uniform weights depend only on the dimension and the seed, not on the
simplex, so :func:`integrate_mc_shared` integrates several ``(function,
simplex)`` pairs of one dimension on one weight stream, drawn in blocks of
:data:`MC_BLOCK_ROWS` rows.  Each pair's values are those it gets alone
(:func:`integrate_mc` is the one-pair case), and every value is bit-identical
to drawing, normalising and evaluating all rows at once.  A call keeps one
value array per pair, and no other array outlives its block; it shares no
state with another call, so its result does not depend on the calls before
it or on the process that makes it.

:func:`ground_truths` is the one policy choosing between the routes
(:func:`ground_truth` is its one-pair case): exact where
:func:`has_exact_mean` allows; for the kinds in :data:`CUBATURE_KINDS`, the
degree-:data:`CUBATURE_DEGREE` cubature when the input lies in the range the
rule's accuracy tests cover (:data:`CUBATURE_MAX_DIMENSION`,
:data:`CUBATURE_MAX_SPREAD` per piece, :data:`CUBATURE_MAX_ARGUMENT`) and
its error estimate is at most :data:`CUBATURE_MAX_ERROR`; Monte Carlo
otherwise.  The estimate alone is not enough: it is a heuristic, and where
the function has a kink sharper than the nodes resolve, the degree-13 and
degree-15 rules can agree while both miss the mean.  Each estimate it makes
has a replay recipe (:func:`ground_truth_recipe`), and
:func:`replay_ground_truth` turns a recipe back into the same estimate,
also for an estimate that shared its weight stream.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, NonFiniteValueError, UnsupportedKindError
from .geometry import Simplex
from .tolerances import TOL_CHAIN

__all__ = [
    "CONE_MAX_DIMENSION",
    "CONE_MAX_ERROR",
    "CUBATURE_DEGREE",
    "CUBATURE_KINDS",
    "CUBATURE_MAX_ARGUMENT",
    "CUBATURE_MAX_DIMENSION",
    "CUBATURE_MAX_ERROR",
    "CUBATURE_MAX_PIECES",
    "CUBATURE_MAX_SPREAD",
    "EXACT_KINDS",
    "IntegralEstimate",
    "MC_BLOCK_ROWS",
    "deterministic_mean",
    "ground_truth",
    "ground_truth_recipe",
    "ground_truths",
    "has_exact_mean",
    "integrate_cubature",
    "integrate_exact",
    "integrate_mc",
    "integrate_mc_shared",
    "replay_ground_truth",
    "sample_uniform",
]

METHOD_MC = "monte_carlo"
METHOD_EXACT = "exact_polynomial"
METHOD_CUBATURE = "cubature"

#: Function kinds with an exact closed-form mean in every dimension
#: (``max_of_affines`` has one on 1-D simplices, with two pieces, and where
#: its coned mean is accepted; see :func:`has_exact_mean`).
EXACT_KINDS: tuple[str, ...] = ("affine", "quadratic_psd", "hinge_distance")

#: Largest rounding bound at which a coned ``max_of_affines`` mean (module
#: docstring) is accepted as exact.  An exact verdict is judged at
#: TOL_CHAIN, and this moves its slack by at most a hundredth of that.  The
#: bound is a worst case: on campaign draws in dims 2-8 the errors against a
#: 40-digit evaluation stayed below 2 % of it.
CONE_MAX_ERROR = TOL_CHAIN / 100

#: The policy takes the coned mean only in dimensions up to this one, the
#: range its accuracy tests cover.  A simplex's faces double with each
#: dimension (466 of three or more vertices in 8-D), and so do the coned
#: mean's time and memory.
CONE_MAX_DIMENSION = 8

#: Kinds whose ground truth is tried by cubature before Monte Carlo.
CUBATURE_KINDS: tuple[str, ...] = ("log_sum_exp",)

#: Degree of the ground-truth cubature rule (``2S+1`` with ``S = 7``).
CUBATURE_DEGREE = 15

#: Largest cubature error estimate the policy accepts.  A tenth of
#: TOL_CHAIN, so four times it stays below TOL_CHAIN and a cubature verdict
#: is judged at TOL_CHAIN.
CUBATURE_MAX_ERROR = TOL_CHAIN / 10

#: Most nodes :func:`integrate_cubature` evaluates; a larger degree raises.
CUBATURE_MAX_NODES = 200_000

#: The policy tries cubature only in dimensions up to this one (11 440 nodes
#: at degree 15), the range the rule's accuracy tests cover.  Above it the
#: node count passes the 10^5 default Monte Carlo rows, and in 15-D the cap
#: of :data:`CUBATURE_MAX_NODES`.
CUBATURE_MAX_DIMENSION = 8

#: The policy tries cubature only where every pairwise difference of
#: ``log_sum_exp`` arguments ``A_i.x + b_i`` spans at most this much over the
#: simplex.  The spread sets how sharp the function's kinks are, so it bounds
#: the rule's true error whatever its error estimate says: two-piece functions
#: with their kink inside the simplex, in dims 1-8, stay below 2e-10 at a
#: spread of 3, and reach 1.5e-9 in 1-D at a spread of 4, where the degree-13
#: and degree-15 rules can still agree to 1e-10.
CUBATURE_MAX_SPREAD = 3.0

#: Most equal pieces the policy cuts an interval into for cubature, each with
#: a spread of at most :data:`CUBATURE_MAX_SPREAD` (so spreads up to 48).
CUBATURE_MAX_PIECES = 16

#: ... and where every argument stays within this magnitude on the simplex.
#: The absolute weights of the degree-15 rule sum to under 1400 (8-D), so
#: rounding of values of this size moves the mean by well under 1e-10.
CUBATURE_MAX_ARGUMENT = 100.0

#: Weight rows per block of :func:`integrate_mc_shared`; the value changes
#: no result.  On the Monte Carlo streams of a 48-trial default-mix block
#: (2-core Xeon, one BLAS thread) 8192 rows took 2-7 % less CPU time than
#: 4096, but 4096 keeps a stream's peak at 2.2 MiB (2.8 MiB at 8192) at
#: 10^5 samples.
MC_BLOCK_ROWS = 4096


@dataclass(frozen=True)
class IntegralEstimate:
    """A normalized integral (1/Vol) * integral of f, with its uncertainty.

    ``std_error`` is sample standard deviation / sqrt(samples) for Monte
    Carlo, the embedded error estimate for cubature, and exactly zero for
    the closed-form route.  Only Monte Carlo has ``samples``, and only
    cubature more than one equal ``pieces`` of an interval.
    """

    mean_value: float
    std_error: float
    method: str
    samples: int
    pieces: int = 1

    def __post_init__(self) -> None:
        if self.method not in (METHOD_MC, METHOD_EXACT, METHOD_CUBATURE):
            raise ValueError(f"unknown method {self.method!r}")
        if self.std_error < 0.0 or not np.isfinite(self.std_error):
            raise ValueError("std_error must be finite and nonnegative")
        if not np.isfinite(self.mean_value):
            raise ValueError("mean_value must be finite")
        if self.method == METHOD_EXACT and (self.samples != 0 or self.std_error != 0.0):
            raise ValueError("exact estimates carry no samples and no error")
        if self.method == METHOD_CUBATURE and self.samples != 0:
            raise ValueError("cubature estimates carry no samples")
        if self.method == METHOD_MC and self.samples < 2:
            raise ValueError("monte_carlo estimates need samples >= 2")
        if self.pieces < 1 or (self.pieces > 1 and self.method != METHOD_CUBATURE):
            raise ValueError("only cubature estimates are cut into pieces")

    def to_json_dict(self) -> dict:
        data = {
            "mean_value": self.mean_value,
            "std_error": self.std_error,
            "method": self.method,
            "samples": self.samples,
        }
        if self.pieces > 1:
            data["pieces"] = self.pieces
        return data

    @classmethod
    def from_json_dict(cls, data: dict) -> "IntegralEstimate":
        return cls(
            mean_value=float(data["mean_value"]),
            std_error=float(data["std_error"]),
            method=str(data["method"]),
            samples=int(data["samples"]),
            pieces=int(data.get("pieces", 1)),
        )


def _row_sums(W: np.ndarray) -> np.ndarray:
    """Row sums of an ``(m, w)`` array, bit-identical to a C-contiguous row sum.

    numpy adds a contiguous row of fewer than 8 elements left to right; up
    to 128 elements it keeps 8 running sums ``r_j = a_j + a_(j+8) + ...``
    over the whole groups of 8, adds them as
    ``((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))`` and then adds the
    leftover elements left to right.  Here each step is one elementwise pass
    over columns: the same order, without numpy's per-row reduction overhead,
    which costs more than the additions on rows this short.  Above 128
    numpy's pairwise sum recurses, and its own contiguous row sum is used (a
    strided or ``axis=0`` sum would add sequentially and round differently).
    ``W`` may be a transposed view, as in the ``(k, m)`` layout of
    :meth:`ConvexFunction._eval_batch`.
    """
    width = W.shape[1]
    if width > 128:
        return np.ascontiguousarray(W).sum(axis=1)
    if width < 8:
        total = W[:, 0].copy()
        for j in range(1, width):
            total += W[:, j]
        return total
    tail = width - width % 8
    r = [W[:, j] for j in range(8)]
    for i in range(8, tail, 8):
        r = [r[j] + W[:, i + j] for j in range(8)]
    total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    for j in range(tail, width):
        total += W[:, j]
    return total


def _uniform_weights(rng: np.random.Generator, rows: int, width: int) -> np.ndarray:
    """The next ``rows`` uniform-Dirichlet weight rows of ``width`` vertices.

    I.i.d. standard exponentials normalized to sum one.  Drawing a stream in
    consecutive blocks gives the same rows as one draw, and the normalizing
    sums keep numpy's summation order (see :func:`_row_sums`).
    """
    weights = rng.standard_exponential((rows, width))
    weights /= _row_sums(weights)[:, None]
    return weights


def sample_uniform(s: Simplex, count: int, seed: int) -> np.ndarray:
    """Draw ``count`` uniform points from ``s`` as a ``(count, n)`` array.

    Vertex weights are i.i.d. standard exponentials normalized to sum one
    (uniform-Dirichlet); the stream is deterministic per seed and every row
    lies inside the simplex by construction.  Every point, and with it every
    campaign result and failure replay, is reproduced bit for bit.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    weights = _uniform_weights(np.random.default_rng(seed), count, s.dimension + 1)
    return weights @ s.vertices


def _block_stops(count: int) -> list[int]:
    """End rows of the weight blocks of a ``count``-row stream.

    A last block of one row joins the block before it: a one-row matmul
    takes BLAS's vector path, which can round differently from the
    matrix path every other block (and a one-draw stream) takes.
    """
    return [*range(MC_BLOCK_ROWS, count - 1, MC_BLOCK_ROWS), count]


def _mean_and_error(v: np.ndarray) -> tuple[float, float]:
    """Mean and ``std(ddof=1) / sqrt(n)`` of ``v``, overwriting ``v``.

    numpy's ``std`` sums the squared deviations from the mean in a new
    array; squaring them in place takes the same steps, bit for bit,
    without that temporary.
    """
    mean = v.mean()
    v -= mean
    v *= v
    return float(mean), float(np.sqrt(v.sum() / (len(v) - 1)) / np.sqrt(len(v)))


def integrate_mc_shared(pairs, count: int, seed: int) -> list[IntegralEstimate]:
    """Monte Carlo means of ``(f, simplex)`` pairs of one dimension on one stream.

    One seeded stream of ``count`` weight rows is drawn in blocks; every
    block is mapped into each pair's simplex and its values stored in that
    pair's value array, from which the mean and std_error are computed as
    for a single integral.  A pair's estimate therefore does not depend on
    the other pairs: it equals :func:`integrate_mc` of that pair alone with
    the same seed, bit for bit.  A pair without a finite mean and std_error
    (its values overflow) raises :class:`NonFiniteValueError`, with no numpy
    warning.
    """
    if count < 2:
        raise ValueError("count must be >= 2")
    pairs = list(pairs)
    if not pairs:
        return []
    dims = {s.dimension for _, s in pairs}
    if len(dims) != 1:
        raise DimensionMismatchError(f"pairs span simplex dimensions {sorted(dims)}")
    for f, s in pairs:
        if getattr(f, "dim", s.dimension) != s.dimension:
            raise DimensionMismatchError(
                f"function dimension {f.dim} does not match simplex {s.dimension}"
            )
    rng = np.random.default_rng(seed)
    width = dims.pop() + 1
    values = [np.empty(count) for _ in pairs]
    start = 0
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        for stop in _block_stops(count):
            weights = _uniform_weights(rng, stop - start, width)
            for (f, s), out in zip(pairs, values):
                out[start:stop] = f(weights @ s.vertices)
            start = stop
        stats = [_mean_and_error(v) for v in values]
    for (f, s), (mean, error) in zip(pairs, stats):
        if not (math.isfinite(mean) and math.isfinite(error)):
            raise NonFiniteValueError(
                f"{getattr(f, 'kind', type(f).__name__)} on a {s.dimension}-D simplex "
                f"has no finite Monte Carlo mean (mean {mean!r}, std error {error!r}): "
                "its values overflow"
            )
    return [IntegralEstimate(mean, error, METHOD_MC, count) for mean, error in stats]


def integrate_mc(f, s: Simplex, count: int, seed: int) -> IntegralEstimate:
    """Monte Carlo estimate of the mean of ``f`` over ``s``."""
    return integrate_mc_shared([(f, s)], count, seed)[0]


@functools.lru_cache(maxsize=16)  # a campaign uses one entry per dimension
def _gm_numerators(n: int, order: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """Numerators ``2b+1`` of the Grundmann-Moller nodes, level by level.

    Level ``j <= order`` holds the ``C(j+n, n)`` compositions ``b`` of ``j``
    into ``n+1`` parts (stars and bars); its nodes are ``(2b+1)/(n+1+2j)``.
    Returns the stacked ``uint16`` numerators and the row count of each level.
    Only these small integer tables are cached, no float nodes.
    """
    rows: list[list[int]] = []
    counts = []
    for j in range(order + 1):
        level = [
            [2 * (hi - lo) - 1 for lo, hi in zip((-1, *bars), (*bars, j + n))]
            for bars in itertools.combinations(range(j + n), n)
        ]
        rows += level
        counts.append(len(level))
    table = np.array(rows, dtype=np.uint16)
    table.setflags(write=False)
    return table, tuple(counts)


@functools.lru_cache(maxsize=32)
def _gm_weights(n: int, order: int) -> tuple[float, ...]:
    """Weights ``w(order, j)`` of the level sums (module docstring), as floats.

    Each is an exact integer ratio rounded once by int/int division.
    """
    weights = []
    for j in range(order + 1):
        i = order - j
        num = (n + 1 + 2 * j) ** (2 * order + 1) * math.factorial(n)
        den = 4**order * math.factorial(i) * math.factorial(n + 1 + 2 * order - i)
        weights.append((-1) ** i * num / den)
    return tuple(weights)


def integrate_cubature(f, s: Simplex, degree: int, pieces: int = 1) -> IntegralEstimate:
    """Mean of ``f`` over ``s`` by the Grundmann-Moller rule of ``degree``.

    ``degree`` is an odd integer ``2S+1 >= 3``.  ``std_error`` is the error
    estimate ``|Q_S - Q_(S-1)|`` against the rule of degree ``degree - 2``
    on the same level sums (module docstring); ``samples`` is 0.  On an
    interval, ``pieces`` cuts it into that many equal pieces, and the mean
    and the error estimate are their averages over the pieces.  The same
    ``f``, simplex, degree and pieces give the same estimate bit for bit.
    """
    if (
        isinstance(degree, bool)
        or not isinstance(degree, numbers.Integral)
        or degree < 3
        or degree % 2 == 0
    ):
        raise ValueError(f"cubature degree must be an odd integer >= 3, got {degree!r}")
    n = s.dimension
    if (
        isinstance(pieces, bool)
        or not isinstance(pieces, numbers.Integral)
        or pieces < 1
        or (pieces > 1 and n != 1)
    ):
        raise ValueError(f"cubature pieces must be 1, or an integer > 1 in 1-D, got {pieces!r}")
    if getattr(f, "dim", n) != n:
        raise DimensionMismatchError(
            f"function dimension {f.dim} does not match simplex {n}"
        )
    order = (int(degree) - 1) // 2
    if math.comb(n + 1 + order, n + 1) * pieces > CUBATURE_MAX_NODES:
        raise ValueError(
            f"cubature degree {degree} in dimension {n} on {pieces} piece(s) needs more "
            f"than {CUBATURE_MAX_NODES} nodes"
        )
    numerators, counts = _gm_numerators(n, order)
    denominators = np.repeat(n + 1 + 2 * np.arange(order + 1), counts)
    nodes = numerators / denominators[:, None]
    if pieces == 1:
        values = f(nodes @ s.vertices)[None]
    else:  # piece p runs from cut p to cut p + 1 of the interval
        cuts = np.linspace(0.0, 1.0, pieces + 1)[:, None]
        x = (1.0 - cuts) * s.vertices[0] + cuts * s.vertices[1]
        values = f((nodes @ np.stack([x[:-1], x[1:]], axis=1)).reshape(-1, 1))
        values = values.reshape(pieces, -1)
    means, errors = [], []
    for row in values:
        center = float(row[0])  # the level-0 node is the centroid
        row = row - center
        stops = itertools.accumulate(counts)
        sums = [float(row[stop - count : stop].sum()) for stop, count in zip(stops, counts)]
        fine = math.fsum(w * t for w, t in zip(_gm_weights(n, order), sums))
        coarse = math.fsum(w * t for w, t in zip(_gm_weights(n, order - 1), sums))
        means.append(center + fine)
        errors.append(abs(fine - coarse))
    return IntegralEstimate(
        math.fsum(means) / pieces, math.fsum(errors) / pieces, METHOD_CUBATURE, 0, pieces
    )


def has_exact_mean(f, s: Simplex) -> bool:
    """Whether :func:`integrate_exact` has an exact mean for ``f`` over ``s``.

    It has one for the :data:`EXACT_KINDS`, and for ``max_of_affines`` in
    dimension 1, with two pieces, or, in dimensions up to
    :data:`CONE_MAX_DIMENSION`, where its coned mean (module docstring) has
    a rounding bound of at most :data:`CONE_MAX_ERROR`; that last case
    takes the coned mean, which :func:`integrate_exact` then reuses.
    """
    kind = getattr(f, "kind", None)
    if kind == "max_of_affines":
        return (
            s.dimension == 1
            or len(f.params["offsets"]) == 2
            or (
                f.dim == s.dimension <= CONE_MAX_DIMENSION
                and _coned_mean(f, s) is not None
            )
        )
    return kind in EXACT_KINDS


def _hinge_mean(t: np.ndarray) -> float:
    """Mean of ``max(0, x)`` over a simplex whose vertices map to the nodes ``t``.

    The recurrence of the module docstring, run in place: after pass ``m``,
    ``g[i]`` holds ``G[i..i+m]``.
    """
    t = sorted(float(x) for x in t)
    g = [max(x, 0.0) for x in t]
    for m in range(1, len(t)):
        for i in range(len(t) - m):
            lo, hi = t[i], t[i + m]
            if lo >= 0.0:
                g[i] = sum(t[i : i + m + 1])
            elif hi <= 0.0:
                g[i] = 0.0
            else:
                g[i] = (hi * g[i + 1] - lo * g[i]) / (hi - lo)
    return g[0] / len(t)


def _max_of_affines_mean_1d(f, s: Simplex) -> float:
    """Mean of a 1-D ``max_of_affines`` over ``s`` by the trapezoid rule.

    The envelope's kinks are among the pieces' pairwise intersections, so
    the function is linear between consecutive points of the interval ends
    and the intersections inside the interval.
    """
    lo, hi = np.sort(s.vertices[:, 0])
    slopes, offsets = f.params["slopes"][:, 0], f.params["offsets"]
    with np.errstate(divide="ignore", invalid="ignore"):  # equal slopes never cross
        cross = (offsets[None, :] - offsets[:, None]) / (slopes[:, None] - slopes[None, :])
    x = np.unique(np.concatenate([[lo, hi], cross[(lo < cross) & (cross < hi)]]))
    y = f(x[:, None])
    return float((np.diff(x) * (y[:-1] + y[1:])).sum() / (2.0 * (hi - lo)))


@functools.lru_cache(maxsize=1)  # has_exact_mean, then integrate_exact, on one pair
def _coned_mean(f, s: Simplex) -> float | None:
    """The coned mean of a ``max_of_affines`` ``f`` over ``s`` (``n >= 2``), or
    None where its bound, with the rounding of ``f``'s vertex values, is above
    :data:`CONE_MAX_ERROR` or not finite.  :mod:`hhbounds.cones` is imported
    here, on the first such mean, so that no other use of the package
    compiles it."""
    from .cones import coned_means

    p, V = f.params, s.vertices
    mean, bound = coned_means(p["slopes"] @ V.T + p["offsets"][:, None])
    scale = (np.abs(p["slopes"]) @ np.abs(V).T + np.abs(p["offsets"])[:, None]).max()
    bound += (s.dimension + 2) * np.finfo(float).eps * scale
    return mean if bound <= CONE_MAX_ERROR else None


@functools.lru_cache(maxsize=32)
def _second_moments(np1: int) -> np.ndarray:
    """Read-only ``E[w w^T]`` of uniform weights on ``np1`` vertices."""
    moments = (np.ones((np1, np1)) + np.eye(np1)) / (np1 * (np1 + 1))
    moments.setflags(write=False)
    return moments


def _no_exact_mean(kind, s: Simplex) -> str:
    return (
        f"no exact mean for kind {kind!r} in dimension {s.dimension}; supported: "
        f"{EXACT_KINDS} in any dimension, 'max_of_affines' in dimension 1, with two "
        f"pieces, or in dimensions up to {CONE_MAX_DIMENSION} where its coned mean's "
        f"rounding bound is at most {CONE_MAX_ERROR:g}"
    )


@np.errstate(over="ignore", invalid="ignore")  # a mean that overflows is checked below
def integrate_exact(f, s: Simplex) -> IntegralEstimate:
    """Exact mean of ``f`` over ``s`` where :func:`has_exact_mean` allows.

    A mean that is not finite (its terms overflow) raises
    :class:`NonFiniteValueError`, with no numpy warning.
    """
    kind = getattr(f, "kind", None)
    if kind not in EXACT_KINDS and kind != "max_of_affines":
        raise UnsupportedKindError(_no_exact_mean(kind, s))
    if f.dim != s.dimension:
        raise DimensionMismatchError(
            f"function dimension {f.dim} does not match simplex {s.dimension}"
        )
    if not has_exact_mean(f, s):
        raise UnsupportedKindError(_no_exact_mean(kind, s))
    p = f.params
    centroid = s.centroid
    if kind == "affine":
        mean = float(p["slope"] @ centroid + p["offset"])
    elif kind == "quadratic_psd":
        V, moments = s.vertices, _second_moments(s.dimension + 1)
        gram = V @ p["matrix"] @ V.T
        mean = float((moments * gram).sum() + p["slope"] @ centroid + p["offset"])
    elif kind == "hinge_distance":
        mean = _hinge_mean(s.vertices @ p["slope"] - p["threshold"])
    elif s.dimension == 1:
        mean = _max_of_affines_mean_1d(f, s)
    elif len(p["offsets"]) == 2:  # l1 + max(0, l2 - l1)
        (a1, a2), (b1, b2) = p["slopes"], p["offsets"]
        mean = float(a1 @ centroid + b1) + _hinge_mean(s.vertices @ (a2 - a1) + (b2 - b1))
    else:
        mean = _coned_mean(f, s)
    if not math.isfinite(mean):
        raise NonFiniteValueError(
            f"{kind} on a {s.dimension}-D simplex has no finite closed-form mean "
            f"({mean!r}): its values overflow"
        )
    return IntegralEstimate(mean, 0.0, METHOD_EXACT, 0)


def _cubature_pieces(f, s: Simplex) -> int:
    """The equal pieces the policy cuts ``s`` into for cubature of ``f``; 0
    where it does not try cubature.

    ``f`` must be a ``log_sum_exp`` within :data:`CUBATURE_MAX_DIMENSION`
    and :data:`CUBATURE_MAX_ARGUMENT`, and each piece within
    :data:`CUBATURE_MAX_SPREAD`: the whole simplex, or on an interval the
    fewest of 1, 2, 4, ... :data:`CUBATURE_MAX_PIECES` pieces.  The
    arguments are affine, so their extremes on ``s`` are at its vertices,
    and on an interval their spread is linear in its length.
    """
    if getattr(f, "kind", None) not in CUBATURE_KINDS or s.dimension > CUBATURE_MAX_DIMENSION:
        return 0
    Z = f.params["slopes"] @ s.vertices.T + f.params["offsets"][:, None]
    if not np.abs(Z).max() <= CUBATURE_MAX_ARGUMENT:
        return 0
    gaps = Z[:, None, :] - Z[None, :, :]
    spread = (gaps.max(axis=2) - gaps.min(axis=2)).max()
    most = CUBATURE_MAX_PIECES if s.dimension == 1 else 1
    pieces = 1
    while spread > CUBATURE_MAX_SPREAD * pieces and pieces < most:
        pieces *= 2
    return pieces if spread <= CUBATURE_MAX_SPREAD * pieces else 0


def deterministic_mean(f, s: Simplex) -> IntegralEstimate | None:
    """The policy's exact or accepted cubature mean of ``f`` over ``s``, or
    None where it takes Monte Carlo (:func:`ground_truths` is this, then
    :func:`integrate_mc_shared`)."""
    if has_exact_mean(f, s):
        return integrate_exact(f, s)
    if pieces := _cubature_pieces(f, s):
        estimate = integrate_cubature(f, s, CUBATURE_DEGREE, pieces)
        if estimate.std_error <= CUBATURE_MAX_ERROR:
            return estimate
    return None


def ground_truths(pairs, mc_samples: int = 100_000, seed: int = 0) -> list[IntegralEstimate]:
    """The ground-truth policy for ``(f, simplex)`` pairs of one dimension.

    Exact where :func:`has_exact_mean` allows; for a kind in
    :data:`CUBATURE_KINDS` inside the limits of :func:`_cubature_pieces`,
    the degree-:data:`CUBATURE_DEGREE` cubature if its error estimate is at
    most :data:`CUBATURE_MAX_ERROR`; the other
    pairs by Monte Carlo, all on the one weight stream of ``seed``
    (:func:`integrate_mc_shared`).
    """
    pairs = list(pairs)
    estimates = [deterministic_mean(f, s) for f, s in pairs]
    mc = [i for i, est in enumerate(estimates) if est is None]
    if mc:
        shared = integrate_mc_shared([pairs[i] for i in mc], mc_samples, seed)
        for i, est in zip(mc, shared):
            estimates[i] = est
    return estimates


def ground_truth(f, s: Simplex, mc_samples: int = 100_000, seed: int = 0) -> IntegralEstimate:
    """The ground-truth policy for one pair: exact, cubature or MC."""
    return ground_truths([(f, s)], mc_samples, seed)[0]


def ground_truth_recipe(estimate: IntegralEstimate, seed: int | None) -> dict:
    """The replay recipe of an estimate that :func:`ground_truths` made with ``seed``.

    Exact and cubature recipes do not use ``seed``, so it may be None for them.
    """
    if estimate.method == METHOD_EXACT:
        return {"method": METHOD_EXACT}
    if estimate.method == METHOD_CUBATURE:
        recipe = {"method": METHOD_CUBATURE, "degree": CUBATURE_DEGREE}
        if estimate.pieces > 1:
            recipe["pieces"] = estimate.pieces
        return recipe
    return {"method": METHOD_MC, "samples": estimate.samples, "seed": seed}


def replay_ground_truth(f, s: Simplex, recipe: dict) -> IntegralEstimate:
    """Recompute an estimate from its recipe by the method the recipe records.

    A Monte Carlo recipe replays by Monte Carlo even for a kind that now has
    an exact or cubature mean, and a cubature recipe without ``pieces`` as
    one piece, so old descriptors reproduce bit for bit.
    """
    method = recipe["method"]
    if method == METHOD_EXACT:
        return integrate_exact(f, s)
    if method == METHOD_CUBATURE:
        return integrate_cubature(f, s, recipe["degree"], recipe.get("pieces", 1))
    if method != METHOD_MC:
        raise ValueError(f"unknown ground-truth method {method!r}")
    return integrate_mc(f, s, int(recipe["samples"]), int(recipe["seed"]))
