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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, UnsupportedKindError
from .geometry import Simplex

__all__ = [
    "EXACT_KINDS",
    "IntegralEstimate",
    "ground_truth",
    "integrate_exact",
    "integrate_mc",
    "sample_uniform",
]

METHOD_MC = "monte_carlo"
METHOD_EXACT = "exact_polynomial"

#: Function kinds with an exact closed-form mean.
EXACT_KINDS: tuple[str, ...] = ("affine", "quadratic_psd")


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


def sample_uniform(s: Simplex, count: int, seed: int) -> np.ndarray:
    """Draw ``count`` uniform points from ``s`` as a ``(count, n)`` array.

    Vertex weights are i.i.d. standard exponentials normalized to sum one
    (uniform-Dirichlet); the stream is deterministic per seed and every row
    lies inside the simplex by construction.  The normalizing sums keep
    numpy's summation order (see :func:`_row_sums`), so every point, and
    with it every campaign result and failure replay, is reproduced bit for
    bit.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = np.random.default_rng(seed)
    weights = rng.standard_exponential((count, s.dimension + 1))
    weights /= _row_sums(weights)[:, None]
    return weights @ s.vertices


def integrate_mc(f, s: Simplex, count: int, seed: int) -> IntegralEstimate:
    """Monte Carlo estimate of the mean of ``f`` over ``s``."""
    if count < 2:
        raise ValueError("count must be >= 2")
    if getattr(f, "dim", s.dimension) != s.dimension:
        raise DimensionMismatchError(
            f"function dimension {f.dim} does not match simplex {s.dimension}"
        )
    values = np.asarray(f(sample_uniform(s, count, seed)), dtype=float)
    mean = float(values.mean())
    std_error = float(values.std(ddof=1) / np.sqrt(count))
    return IntegralEstimate(mean, std_error, METHOD_MC, count)


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


def ground_truth(f, s: Simplex, mc_samples: int = 100_000, seed: int = 0) -> IntegralEstimate:
    """Preferred ground-truth policy: exact when the kind allows, else MC."""
    if getattr(f, "kind", None) in EXACT_KINDS:
        return integrate_exact(f, s)
    return integrate_mc(f, s, mc_samples, seed)
