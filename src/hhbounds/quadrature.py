"""Ground-truth integral means over simplices.

Three routes:

* seeded uniform Monte Carlo (any function kind), with the uniform measure
  realized by normalized-exponential Dirichlet weights over the vertices
  (evaluated on the vertex values where the kind allows);
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
degree 15, 36 on an interval and 11 440 in 8-D.

Where a gap ``z_i - z_j`` of the arguments of ``log_sum_exp`` spreads by
more than :data:`CUBATURE_MAX_SPREAD`, the policy bisects the simplex at the
midpoint of the edge along which some gap spreads most, in the spirit of
Rivara's longest-edge bisection (1984, *IJNME* 20), until every piece is
within it (:func:`_split`; ``2^L`` equal pieces on an interval).  The rule
runs on all pieces in one call of ``f``, in blocks of at most
:data:`MC_BLOCK_ROWS` rows; the mean and the error estimate are the
``math.fsum`` of the pieces' values times ``2^-depth``.

Uniform weights depend only on the dimension and the seed, not on the
simplex, so :func:`integrate_mc_shared` integrates several ``(function,
simplex)`` pairs of one dimension on one stream of i.i.d. standard
exponential rows ``e``, drawn in blocks of :data:`MC_BLOCK_ROWS` rows.  A
row's point is ``x = sum_k w_k V_k`` with ``w = e / sum(e)``.  Every kind
but ``quadratic_psd`` is an outer function ``g(A x + b)`` of affine
arguments, and those arguments are ``(e . T) / sum(e) + b`` with ``T = V
A^T`` the table of the pair's vertex values, so such a pair is evaluated
from the raw rows and their sums alone, with no weight or point matrix
(:meth:`~hhbounds.funcs.ConvexFunction.row_evaluator`).  ``quadratic_psd``
and plain callables get ``f((e / sum(e)) @ V)``.  Each pair's values are
those it gets alone (:func:`integrate_mc` is the one-pair case), and every
value is bit-identical to evaluating all rows at once by the same route.  A
call draws every block into one reused buffer and writes each pair's values
in place into one ``(pairs, count)`` array; no other array outlives its
block.  It shares no state with another call, so its result does not depend
on the calls before it or on the process that makes it.  :func:`sample_uniform`
draws the same stream and writes its points into its result a block at a
time, and ``hh sample`` formats each block of points as it is drawn.

:func:`ground_truths` is the one policy choosing between the routes
(:func:`ground_truth` is its one-pair case): exact where
:func:`has_exact_mean` allows; for the kinds in :data:`CUBATURE_KINDS`, the
degree-:data:`CUBATURE_DEGREE` cubature when the input lies in the range the
rule's accuracy tests cover (:data:`CUBATURE_MAX_DIMENSION`,
:data:`CUBATURE_MAX_SPREAD` on each of at most :data:`CUBATURE_MAX_PIECES`
pieces, :data:`CUBATURE_MAX_ARGUMENT`) and
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

#: Most pieces the policy splits a simplex into for cubature, each with a
#: spread of at most :data:`CUBATURE_MAX_SPREAD` (on an interval, spreads up
#: to 48).  Sixteen pieces in 8-D are 183 040 nodes: on campaign draws in
#: dims 2-8, every accepted split took less CPU time than a 10^5-sample Monte
#: Carlo integral (8-D: at most 5.7 ms against about 9 ms; 2-core Xeon).
CUBATURE_MAX_PIECES = 16

#: ... and where every argument stays within this magnitude on the simplex.
#: The absolute weights of the degree-15 rule sum to under 1400 (8-D), so
#: rounding of values of this size moves the mean by well under 1e-10.
CUBATURE_MAX_ARGUMENT = 100.0

#: Exponential rows per block of :func:`integrate_mc_shared`; the value
#: changes no result.  Blocks start at multiples of it, which a function of
#: one affine argument needs: BLAS's matrix-vector product of the rows with
#: the pair's vertex values rounds a row the same way in every block that
#: starts at a multiple of 4096 (widths 2-10, one BLAS thread), but rows 8
#: or 10 wide can round differently in a block that starts at an odd row.
#: A stream draws every block into one buffer of ``MC_BLOCK_ROWS + 1`` rows
#: (:func:`_exponential_blocks`), so its peak is its result (0.8 MB a pair at
#: 10^5 samples) plus that buffer (295 KB at width 9) and a few vectors of a
#: block's rows.  On two-pair ``exp_affine`` streams of 10^5 rows in dims 2-8
#: (2-core Xeon, one BLAS thread), 8192 and 16384 rows took within 2 % of
#: the CPU time of 4096.
MC_BLOCK_ROWS = 4096


@dataclass(frozen=True)
class IntegralEstimate:
    """A normalized integral (1/Vol) * integral of f, with its uncertainty.

    ``std_error`` is sample standard deviation / sqrt(samples) for Monte
    Carlo, the embedded error estimate for cubature, and exactly zero for
    the closed-form route.  Only Monte Carlo has ``samples``, and only
    cubature more than one ``pieces``.  ``spread`` is the spread limit a
    simplex of two or more dimensions was split at; on an interval
    ``pieces`` alone names the split, ``2^L`` equal pieces.
    """

    mean_value: float
    std_error: float
    method: str
    samples: int
    pieces: int = 1
    spread: float | None = None

    def __post_init__(self) -> None:
        if self.method not in (METHOD_MC, METHOD_EXACT, METHOD_CUBATURE):
            raise ValueError(f"unknown method {self.method!r}")
        if self.std_error < 0.0 or not math.isfinite(self.std_error):
            raise ValueError("std_error must be finite and nonnegative")
        if not math.isfinite(self.mean_value):
            raise ValueError("mean_value must be finite")
        if self.method == METHOD_EXACT and (self.samples != 0 or self.std_error != 0.0):
            raise ValueError("exact estimates carry no samples and no error")
        if self.method == METHOD_CUBATURE and self.samples != 0:
            raise ValueError("cubature estimates carry no samples")
        if self.method == METHOD_MC and self.samples < 2:
            raise ValueError("monte_carlo estimates need samples >= 2")
        if self.pieces < 1 or (self.pieces > 1 and self.method != METHOD_CUBATURE):
            raise ValueError("only cubature estimates are cut into pieces")
        if self.spread is not None and not (self.pieces > 1 and 0.0 < self.spread < math.inf):
            raise ValueError("only a split into pieces has a spread, finite and positive")

    def to_json_dict(self) -> dict:
        data = {
            "mean_value": self.mean_value,
            "std_error": self.std_error,
            "method": self.method,
            "samples": self.samples,
        }
        if self.pieces > 1:
            data["pieces"] = self.pieces
        if self.spread is not None:
            data["spread"] = self.spread
        return data

    @classmethod
    def from_json_dict(cls, data: dict) -> "IntegralEstimate":
        spread = data.get("spread")
        return cls(
            mean_value=float(data["mean_value"]),
            std_error=float(data["std_error"]),
            method=str(data["method"]),
            samples=int(data["samples"]),
            pieces=int(data.get("pieces", 1)),
            spread=None if spread is None else float(spread),
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


def _block_stops(count: int) -> list[int]:
    """End rows of the weight blocks of a ``count``-row stream.

    A last block of one row joins the block before it: a one-row matmul
    takes BLAS's vector path, which can round differently from the
    matrix path every other block (and a one-draw stream) takes.
    """
    return [*range(MC_BLOCK_ROWS, count - 1, MC_BLOCK_ROWS), count]


def _exponential_blocks(count: int, width: int, seed: int):
    """The seeded stream of ``count`` rows of ``width`` i.i.d. standard
    exponentials, as ``(rows, sums)`` per block of :func:`_block_stops`.

    Every block is drawn into one buffer of ``MC_BLOCK_ROWS + 1`` rows,
    allocated once per stream, so ``rows`` is only valid until the next
    block; the draws, row-major, are those of drawing all rows at once.
    """
    rng = np.random.default_rng(seed)
    buffer = np.empty((MC_BLOCK_ROWS + 1, width))
    start = 0
    for stop in _block_stops(count):
        rows = rng.standard_exponential(out=buffer[: stop - start])
        yield rows, _row_sums(rows)
        start = stop


def _points(rows: np.ndarray, sums: np.ndarray, vertices: np.ndarray, out=None) -> np.ndarray:
    """The uniform points ``(rows / sums) @ vertices`` of exponential rows."""
    return np.matmul(rows / sums[:, None], vertices, out=out)


def sample_uniform(s: Simplex, count: int, seed: int) -> np.ndarray:
    """Draw ``count`` uniform points from ``s`` as a ``(count, n)`` array.

    Vertex weights are i.i.d. standard exponentials normalized to sum one
    (uniform-Dirichlet); the stream is deterministic per seed and every row
    lies inside the simplex by construction.  Every point, and with it every
    campaign result and failure replay, is reproduced bit for bit.  The
    points are written into the result a block at a time, with no weight
    matrix.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    points = np.empty((count, s.dimension))
    start = 0
    for rows, sums in _exponential_blocks(count, s.dimension + 1, seed):
        _points(rows, sums, s.vertices, out=points[start : start + len(rows)])
        start += len(rows)
    return points


def _sample_blocks(s: Simplex, count: int, seed: int):
    """The points :func:`sample_uniform` draws, as one array per block of
    the stream, made as they are read; ``count < 1`` raises at the call."""
    if count < 1:
        raise ValueError("count must be >= 1")
    blocks = _exponential_blocks(count, s.dimension + 1, seed)
    return (_points(rows, sums, s.vertices) for rows, sums in blocks)


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


def _on_points(f, vertices: np.ndarray):
    """``f`` at the points :func:`_points` of exponential rows, written into
    ``out``: the points :func:`sample_uniform` draws."""

    def evaluate(rows, sums, out):
        out[...] = f(_points(rows, sums, vertices))
        return out

    return evaluate


def integrate_mc_shared(pairs, count: int, seed: int) -> list[IntegralEstimate]:
    """Monte Carlo means of ``(f, simplex)`` pairs of one dimension on one stream.

    One seeded stream of ``count`` rows of standard exponentials is drawn in
    blocks, with the rows' sums (:func:`_exponential_blocks`).  A pair whose
    ``f`` has a ``row_evaluator`` (every
    :class:`~hhbounds.funcs.ConvexFunction` but a ``quadratic_psd``)
    evaluates each block from its rows and sums on the simplex's vertex
    values; any other ``f`` is called on the block's points ``(rows / sums)
    @ vertices``, as :func:`sample_uniform` gives them.  Pair ``p`` writes
    its values in place into row ``p`` of one ``(pairs, count)`` array, from
    which the mean and std_error are computed as for a single integral.  A
    pair's estimate therefore does not depend on the other pairs: it equals
    :func:`integrate_mc` of that pair alone with the same seed, bit for bit.
    A pair without a finite mean and std_error (its values overflow) raises
    :class:`NonFiniteValueError`, with no numpy warning.
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
    values = np.empty((len(pairs), count))
    start = 0
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        evaluators = [
            getattr(f, "row_evaluator", lambda _: None)(s.vertices) or _on_points(f, s.vertices)
            for f, s in pairs
        ]
        for rows, sums in _exponential_blocks(count, dims.pop() + 1, seed):
            stop = start + len(rows)
            for evaluate, v in zip(evaluators, values):
                evaluate(rows, sums, v[start:stop])
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


def integrate_cubature(
    f, s: Simplex, degree: int, pieces: int = 1, spread: float | None = None
) -> IntegralEstimate:
    """Mean of ``f`` over ``s`` by the Grundmann-Moller rule of ``degree``.

    ``degree`` is an odd integer ``2S+1 >= 3``.  ``std_error`` is the error
    estimate ``|Q_S - Q_(S-1)|`` against the rule of degree ``degree - 2``
    on the same level sums (module docstring); ``samples`` is 0.  The rule
    runs on the whole simplex (``pieces`` 1); with a ``spread``, on the
    split of a ``log_sum_exp`` at that spread (:func:`_split`), which must
    come to ``pieces`` pieces; without one, on ``pieces`` equal pieces of
    an interval, a power of two.  The same ``f``, simplex, degree, pieces
    and spread give the same estimate bit for bit.
    """
    if (
        isinstance(degree, bool)
        or not isinstance(degree, numbers.Integral)
        or degree < 3
        or degree % 2 == 0
    ):
        raise ValueError(f"cubature degree must be an odd integer >= 3, got {degree!r}")
    n = s.dimension
    if isinstance(pieces, bool) or not isinstance(pieces, numbers.Integral) or pieces < 1 or (
        spread is None and pieces > 1 and (n != 1 or pieces & (pieces - 1))
    ):
        raise ValueError(f"cubature pieces must be 1, 2^L in 1-D or given a spread: {pieces!r}")
    if spread is not None and (
        isinstance(spread, bool) or not isinstance(spread, numbers.Real)
        or not 0.0 < spread < math.inf or getattr(f, "kind", None) not in CUBATURE_KINDS
    ):
        raise ValueError(f"a split needs a log_sum_exp and a finite spread > 0, got {spread!r}")
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
    pieces, spread = int(pieces), None if spread is None else float(spread)
    if spread is not None:
        split = _split(_arguments(f, s), spread, pieces)
        if split is None or len(split[0]) != pieces:
            raise ValueError(f"the split at spread {spread!r} does not come to {pieces} pieces")
    elif pieces > 1:  # equal pieces, c_p to c_(p+1) of the interval
        c = np.linspace(0.0, 1.0, pieces + 1)
        cells = np.stack([1.0 - c[:-1], c[:-1], 1.0 - c[1:], c[1:]], axis=1).reshape(-1, 2, 2)
        split = cells, np.full(pieces, pieces.bit_length() - 1)
    else:
        split = np.eye(n + 1)[None], np.zeros(1, dtype=int)
    return _cubature(f, s, order, *split, None if pieces == 1 else spread)


def _arguments(f, s: Simplex) -> np.ndarray:
    """The arguments of a ``log_sum_exp`` at the vertices of ``s``, a row each."""
    return f.params["slopes"] @ s.vertices.T + f.params["offsets"][:, None]


def _split(Z: np.ndarray, spread: float, most: int):
    """The pieces, as ``(cells, depths)``, on which no gap of the arguments
    whose vertex values are the rows of ``Z`` spreads by more than
    ``spread``; None past ``most`` pieces.

    ``cells[p]`` holds piece ``p``'s vertices in barycentric coordinates,
    where the midpoints are exact dyadic weights.  A gap spreads over a
    piece by its largest change along an edge, its vertex values times the
    edge's (exact) barycentric difference.  On an interval both halves of a
    piece have the same difference, so they split alike: ``2^L`` equal pieces.
    """
    width = Z.shape[1]
    i, j = _pairs(len(Z))
    gaps = (Z[i] - Z[j]).T
    cells, depths = np.eye(width)[None], np.zeros(1, dtype=int)
    if not (gaps.max(axis=0) - gaps.min(axis=0)).max(initial=0.0) > spread:
        return cells, depths  # the whole simplex, as the first pass below decides
    a, b = _pairs(width)  # the edges
    done, count = [], 1
    while True:
        change = np.abs((cells[:, a] - cells[:, b]) @ gaps).max(axis=2, initial=0.0)
        wide = change.max(axis=1) > spread
        done.append((cells[~wide], depths[~wide]))
        count += int(wide.sum())
        if count > most:
            return None
        if not wide.any():
            return np.concatenate([c for c, _ in done]), np.concatenate([d for _, d in done])
        cells, depths = cells[wide], np.repeat(depths[wide] + 1, 2)
        edge = change[wide].argmax(axis=1)
        rows = np.arange(len(cells))
        mid = (cells[rows, a[edge]] + cells[rows, b[edge]]) * 0.5
        cells = np.repeat(cells, 2, axis=0)
        cells[0::2][rows, b[edge]] = mid  # the half at vertex a's end
        cells[1::2][rows, a[edge]] = mid


@functools.lru_cache(maxsize=16)
def _pairs(m: int) -> tuple[np.ndarray, np.ndarray]:
    """The index pairs ``i < j`` of ``m`` items, read-only."""
    pairs = np.triu_indices(m, 1)
    for index in pairs:
        index.setflags(write=False)
    return pairs


def _cubature(f, s: Simplex, order: int, cells, depths, spread) -> IntegralEstimate:
    """The rule of ``order`` on the pieces ``cells`` of ``s`` (see :func:`_split`;
    the whole simplex is the one cell ``np.eye(n + 1)``)."""
    n = s.dimension
    numerators, counts = _gm_numerators(n, order)
    denominators = np.repeat(n + 1 + 2 * np.arange(order + 1), counts)
    nodes = numerators / denominators[:, None]
    corners = cells[..., 0, None] * s.vertices[0]
    for k in range(1, n + 1):
        corners += cells[..., k, None] * s.vertices[k]
    values = np.empty((len(cells), len(nodes)))
    rows = min(len(nodes), MC_BLOCK_ROWS)
    group = max(1, MC_BLOCK_ROWS // len(nodes))  # whole pieces per block
    for p in range(0, len(cells), group):
        for r in range(0, len(nodes), rows):
            x = nodes[r : r + rows] @ corners[p : p + group]
            values[p : p + group, r : r + rows] = f(x.reshape(-1, n)).reshape(len(x), -1)
    centers = values[:, 0].copy()  # the level-0 node is the centroid
    values -= centers[:, None]
    stops = itertools.accumulate(counts)  # each row's level sums, in numpy's own order
    sums = np.stack([values[:, i - c : i].sum(axis=1) for i, c in zip(stops, counts)], axis=1)
    fine = [math.fsum(row) for row in (sums * _gm_weights(n, order)).tolist()]
    coarse = [math.fsum(row) for row in (sums[:, :order] * _gm_weights(n, order - 1)).tolist()]
    weights = [math.ldexp(1.0, -d) for d in depths.tolist()]
    mean = math.fsum((c + t) * w for c, t, w in zip(centers.tolist(), fine, weights))
    error = math.fsum(abs(t - u) * w for t, u, w in zip(fine, coarse, weights))
    return IntegralEstimate(mean, error, METHOD_CUBATURE, 0, len(cells), spread)


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
    t = sorted(map(float, t))
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
    scale = (np.abs(p["slopes"]) @ np.abs(V).T + np.abs(p["offsets"])[:, None]).max()
    allowance = (s.dimension + 2) * np.finfo(float).eps * scale
    mean, bound = coned_means(p["slopes"] @ V.T + p["offsets"][:, None], allowance, CONE_MAX_ERROR)
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
    if kind == "max_of_affines" and not has_exact_mean(f, s):  # the others always have one
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


def _cubature_split(f, s: Simplex):
    """The pieces the policy runs cubature of ``f`` on, as :func:`_split`
    gives them; None where it does not try cubature.

    ``f`` must be a ``log_sum_exp`` within :data:`CUBATURE_MAX_DIMENSION`
    and :data:`CUBATURE_MAX_ARGUMENT` (its arguments are affine, so their
    extremes on ``s`` are at its vertices), and the split at
    :data:`CUBATURE_MAX_SPREAD` must come to at most
    :data:`CUBATURE_MAX_PIECES` pieces.
    """
    if getattr(f, "kind", None) not in CUBATURE_KINDS or s.dimension > CUBATURE_MAX_DIMENSION:
        return None
    Z = _arguments(f, s)
    if not np.abs(Z).max() <= CUBATURE_MAX_ARGUMENT:
        return None
    return _split(Z, CUBATURE_MAX_SPREAD, CUBATURE_MAX_PIECES)


def deterministic_mean(f, s: Simplex) -> IntegralEstimate | None:
    """The policy's exact or accepted cubature mean of ``f`` over ``s``, or
    None where it takes Monte Carlo (:func:`ground_truths` is this, then
    :func:`integrate_mc_shared`)."""
    if has_exact_mean(f, s):
        return integrate_exact(f, s)
    if (split := _cubature_split(f, s)) is not None:
        spread = CUBATURE_MAX_SPREAD if s.dimension > 1 and len(split[0]) > 1 else None
        estimate = _cubature(f, s, CUBATURE_DEGREE // 2, *split, spread)
        if estimate.std_error <= CUBATURE_MAX_ERROR:
            return estimate
    return None


def ground_truths(pairs, mc_samples: int = 100_000, seed: int = 0) -> list[IntegralEstimate]:
    """The ground-truth policy for ``(f, simplex)`` pairs of one dimension.

    Exact where :func:`has_exact_mean` allows; for a kind in
    :data:`CUBATURE_KINDS` inside the limits of :func:`_cubature_split`,
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
        if estimate.spread is not None:
            recipe["spread"] = estimate.spread
        return recipe
    return {"method": METHOD_MC, "samples": estimate.samples, "seed": seed}


def replay_ground_truth(f, s: Simplex, recipe: dict) -> IntegralEstimate:
    """Recompute an estimate from its recipe by the method the recipe records.

    A Monte Carlo recipe replays by Monte Carlo even for a kind that now has
    an exact or cubature mean, a cubature recipe without ``pieces`` as one
    piece, and one without ``spread`` as equal pieces of an interval, so old
    descriptors reproduce bit for bit.
    """
    method = recipe["method"]
    if method == METHOD_EXACT:
        return integrate_exact(f, s)
    if method == METHOD_CUBATURE:
        return integrate_cubature(
            f, s, recipe["degree"], recipe.get("pieces", 1), recipe.get("spread")
        )
    if method != METHOD_MC:
        raise ValueError(f"unknown ground-truth method {method!r}")
    return integrate_mc(f, s, int(recipe["samples"]), int(recipe["seed"]))
