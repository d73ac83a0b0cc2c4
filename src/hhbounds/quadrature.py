"""Ground-truth integral means over simplices.

Two routes:

* seeded uniform Monte Carlo (any function kind), with the uniform measure
  realized by normalized-exponential Dirichlet weights over the vertices;
* exact closed-form means for the polynomial kinds (``affine``,
  ``quadratic_psd``) via the first and second moments of barycentric
  weights under the uniform measure:

      E[w_i]      = 1/(n+1)
      E[w_i w_j]  = (1 + delta_ij) / ((n+1)(n+2))

The second-moment formula is re-verified against Monte Carlo in the test
suite rather than trusted.

Uniform weights depend only on the dimension and the seed, not on the
simplex, so :func:`integrate_mc_shared` integrates several ``(function,
simplex)`` pairs of one dimension on one weight stream, drawn in blocks of
:data:`MC_BLOCK_ROWS` rows.  Each pair's values are those it gets alone
(:func:`integrate_mc` is the one-pair case), and every value is bit-identical
to drawing, normalising and evaluating all rows at once.

:func:`ground_truths` is the one policy choosing between the routes
(:func:`ground_truth` is its one-pair case).  Each estimate it makes has a
replay recipe (:func:`ground_truth_recipe`), and :func:`replay_ground_truth`
turns a recipe back into the same estimate, also for an estimate that
shared its weight stream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, UnsupportedKindError
from .geometry import Simplex

__all__ = [
    "EXACT_KINDS",
    "IntegralEstimate",
    "MC_BLOCK_ROWS",
    "ground_truth",
    "ground_truth_recipe",
    "ground_truths",
    "integrate_exact",
    "integrate_mc",
    "integrate_mc_shared",
    "replay_ground_truth",
    "sample_uniform",
]

METHOD_MC = "monte_carlo"
METHOD_EXACT = "exact_polynomial"

#: Function kinds with an exact closed-form mean.
EXACT_KINDS: tuple[str, ...] = ("affine", "quadratic_psd")

#: Weight rows per block of :func:`integrate_mc_shared`; the value changes
#: no result.  On 48-trial default-mix campaign rounds (2-core Xeon, one
#: BLAS thread) 8192 was faster than 4096 and 32768.
MC_BLOCK_ROWS = 8192


@dataclass(frozen=True)
class IntegralEstimate:
    """A normalized integral (1/Vol) * integral of f, with its uncertainty.

    ``std_error`` is sample standard deviation / sqrt(samples) for Monte
    Carlo and exactly zero for the closed-form route.
    """

    mean_value: float
    std_error: float
    method: str
    samples: int

    def __post_init__(self) -> None:
        if self.method not in (METHOD_MC, METHOD_EXACT):
            raise ValueError(f"unknown method {self.method!r}")
        if self.std_error < 0.0 or not np.isfinite(self.std_error):
            raise ValueError("std_error must be finite and nonnegative")
        if not np.isfinite(self.mean_value):
            raise ValueError("mean_value must be finite")
        if self.method == METHOD_EXACT and (self.samples != 0 or self.std_error != 0.0):
            raise ValueError("exact estimates carry no samples and no error")
        if self.method == METHOD_MC and self.samples < 2:
            raise ValueError("monte_carlo estimates need samples >= 2")

    def to_json_dict(self) -> dict:
        return {
            "mean_value": self.mean_value,
            "std_error": self.std_error,
            "method": self.method,
            "samples": self.samples,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "IntegralEstimate":
        return cls(
            mean_value=float(data["mean_value"]),
            std_error=float(data["std_error"]),
            method=str(data["method"]),
            samples=int(data["samples"]),
        )


def _row_sums(W: np.ndarray) -> np.ndarray:
    """Row sums of an ``(m, w)`` array, bit-identical to a C-contiguous row sum.

    numpy adds a contiguous row of fewer than 8 elements left to right, and
    from 8 up with an 8-way pairwise unroll.  Below width 8 the columns are
    accumulated left to right here, one elementwise pass each: the same
    order, without numpy's per-row reduction overhead, which on 2-5 wide rows
    costs more than the additions.  From width 8 up numpy's own contiguous
    row sum is used (a strided or ``axis=0`` sum would add sequentially and
    round differently).  ``W`` may be a transposed view, as in the ``(k, m)``
    layout of :meth:`ConvexFunction._eval_batch`.
    """
    if W.shape[1] >= 8:
        return np.ascontiguousarray(W).sum(axis=1)
    total = W[:, 0].copy()
    for j in range(1, W.shape[1]):
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


def integrate_mc_shared(pairs, count: int, seed: int) -> list[IntegralEstimate]:
    """Monte Carlo means of ``(f, simplex)`` pairs of one dimension on one stream.

    One seeded stream of ``count`` weight rows is drawn in blocks; every
    block is mapped into each pair's simplex and its values stored in that
    pair's value array, from which the mean and std_error are computed as
    for a single integral.  A pair's estimate therefore does not depend on
    the other pairs: it equals :func:`integrate_mc` of that pair alone with
    the same seed, bit for bit.
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
    for stop in _block_stops(count):
        weights = _uniform_weights(rng, stop - start, width)
        for (f, s), out in zip(pairs, values):
            out[start:stop] = f(weights @ s.vertices)
        start = stop
    root = np.sqrt(count)
    return [
        IntegralEstimate(float(v.mean()), float(v.std(ddof=1) / root), METHOD_MC, count)
        for v in values
    ]


def integrate_mc(f, s: Simplex, count: int, seed: int) -> IntegralEstimate:
    """Monte Carlo estimate of the mean of ``f`` over ``s``."""
    return integrate_mc_shared([(f, s)], count, seed)[0]


def integrate_exact(f, s: Simplex) -> IntegralEstimate:
    """Exact mean of an affine or PSD-quadratic function over ``s``."""
    kind = getattr(f, "kind", None)
    if kind not in EXACT_KINDS:
        raise UnsupportedKindError(
            f"no exact mean for kind {kind!r}; supported: {EXACT_KINDS}"
        )
    if f.dim != s.dimension:
        raise DimensionMismatchError(
            f"function dimension {f.dim} does not match simplex {s.dimension}"
        )
    p = f.params
    centroid = s.centroid
    if kind == "affine":
        mean = float(p["slope"] @ centroid + p["offset"])
    else:
        V = s.vertices
        np1 = s.dimension + 1
        gram = V @ p["matrix"] @ V.T
        moments = (np.ones((np1, np1)) + np.eye(np1)) / (np1 * (np1 + 1))
        mean = float((moments * gram).sum() + p["slope"] @ centroid + p["offset"])
    return IntegralEstimate(mean, 0.0, METHOD_EXACT, 0)


def ground_truths(pairs, mc_samples: int = 100_000, seed: int = 0) -> list[IntegralEstimate]:
    """The ground-truth policy for ``(f, simplex)`` pairs of one dimension.

    Exact where the kind allows; the other pairs by Monte Carlo, all on the
    one weight stream of ``seed`` (:func:`integrate_mc_shared`).
    """
    pairs = list(pairs)
    estimates = [
        integrate_exact(f, s) if getattr(f, "kind", None) in EXACT_KINDS else None
        for f, s in pairs
    ]
    mc = [i for i, est in enumerate(estimates) if est is None]
    if mc:
        shared = integrate_mc_shared([pairs[i] for i in mc], mc_samples, seed)
        for i, est in zip(mc, shared):
            estimates[i] = est
    return estimates


def ground_truth(f, s: Simplex, mc_samples: int = 100_000, seed: int = 0) -> IntegralEstimate:
    """The ground-truth policy for one pair: exact when the kind allows, else MC."""
    return ground_truths([(f, s)], mc_samples, seed)[0]


def ground_truth_recipe(estimate: IntegralEstimate, seed: int) -> dict:
    """The replay recipe of an estimate that :func:`ground_truths` made with ``seed``."""
    if estimate.method == METHOD_EXACT:
        return {"method": METHOD_EXACT}
    return {"method": METHOD_MC, "samples": estimate.samples, "seed": seed}


def replay_ground_truth(
    f, s: Simplex, recipe: dict, mc_samples: int | None
) -> IntegralEstimate:
    """Recompute an estimate from its recipe by the method the recipe records.

    A Monte Carlo recipe replays by Monte Carlo even for a kind that now has
    an exact mean, so old descriptors reproduce bit for bit.  ``mc_samples``
    overrides the recorded sample count; None keeps it.
    """
    method = recipe["method"]
    if method == METHOD_EXACT:
        return integrate_exact(f, s)
    if method != METHOD_MC:
        raise ValueError(f"unknown ground-truth method {method!r}")
    samples = int(recipe["samples"] if mc_samples is None else mc_samples)
    return integrate_mc(f, s, samples, int(recipe["seed"]))
