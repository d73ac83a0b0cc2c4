"""A zoo of evaluable convex test functions.

Six kinds spanning smooth/nonsmooth and polynomial/non-polynomial behavior:

============== =============================================== ==========
kind           closed form                                     smooth
============== =============================================== ==========
affine         a.x + b                                         yes
quadratic_psd  x'Mx + a.x + b   (M symmetric PSD)              yes
max_of_affines max_i (A_i.x + b_i)                             no
exp_affine     exp(a.x + b)                                    yes
log_sum_exp    log sum_i exp(A_i.x + b_i)                      yes
hinge_distance max(0, a.x - c)                                 no
============== =============================================== ==========

Evaluation accepts a single point (shape ``(n,)``) or a batch (``(m, n)``).
Random generation is deterministic in ``(dim, kind, seed)`` and, when a
simplex is supplied, anchors kinks and exponents to its interior so the
nonsmooth/curved structure actually lands where the bounds are probed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError
from .geometry import Simplex, standard_simplex
from .quadrature import _row_sums
from .tolerances import TOL_CHAIN

__all__ = [
    "KINDS",
    "ConvexFunction",
    "midpoint_convexity_check",
    "random_convex",
]

KINDS: tuple[str, ...] = (
    "affine",
    "quadratic_psd",
    "max_of_affines",
    "exp_affine",
    "log_sum_exp",
    "hinge_distance",
)

# Parameter names per kind; vectors/matrices as noted in the module docstring.
_SCHEMAS = {
    "affine": ("slope", "offset"),
    "quadratic_psd": ("matrix", "slope", "offset"),
    "max_of_affines": ("slopes", "offsets"),
    "exp_affine": ("slope", "offset"),
    "log_sum_exp": ("slopes", "offsets"),
    "hinge_distance": ("slope", "threshold"),
}


def _certify_psd(matrix: np.ndarray) -> None:
    """Reject matrices that are not symmetric positive semidefinite.

    Certification is by attempted Cholesky factorization after a jitter of
    1e-10 * scale, which accepts rank-deficient PSD matrices and rejects
    anything with a meaningfully negative eigenvalue.
    """
    scale = max(1.0, float(np.abs(matrix).max()))
    if float(np.abs(matrix - matrix.T).max()) > 1e-12 * scale:
        raise ValueError("quadratic matrix must be symmetric")
    jittered = matrix + (1e-10 * scale) * np.eye(matrix.shape[0])
    try:
        np.linalg.cholesky(jittered)
    except np.linalg.LinAlgError as exc:
        raise ValueError("quadratic matrix is not positive semidefinite") from exc


@dataclass(frozen=True, eq=False)
class ConvexFunction:
    """A tagged, evaluable convex function on R^n."""

    kind: str
    params: dict = field(repr=False)
    label: str = ""

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown function kind {self.kind!r}")
        fields = _SCHEMAS[self.kind]
        missing = [name for name in fields if name not in self.params]
        if missing:
            raise ValueError(f"{self.kind} params missing {missing}")
        clean: dict = {}
        for name in fields:
            value = self.params[name]
            if name in ("matrix", "slope", "slopes", "offsets"):
                value = np.atleast_1d(np.asarray(value, dtype=float))
                value.setflags(write=False)
            else:
                value = float(value)
            if not np.all(np.isfinite(value)):
                raise ValueError(f"{name} must be finite")
            clean[name] = value
        self._validate_shapes(clean)
        object.__setattr__(self, "params", clean)

    def _validate_shapes(self, p: dict) -> None:
        kind = self.kind
        if kind in ("affine", "exp_affine", "hinge_distance"):
            if p["slope"].ndim != 1:
                raise ValueError("slope must be a vector")
        elif kind == "quadratic_psd":
            M = p["matrix"]
            if M.ndim != 2 or M.shape[0] != M.shape[1]:
                raise ValueError("matrix must be square")
            if p["slope"].shape != (M.shape[0],):
                raise ValueError("slope length must match matrix size")
            _certify_psd(M)
        elif kind in ("max_of_affines", "log_sum_exp"):
            S = p["slopes"]
            if S.ndim == 1:
                S = S.reshape(1, -1)
                S.setflags(write=False)
                p["slopes"] = S
            if S.ndim != 2 or S.shape[0] < 1:
                raise ValueError("need at least one affine piece")
            if p["offsets"].shape != (S.shape[0],):
                raise ValueError("offsets length must match number of pieces")

    @property
    def dim(self) -> int:
        p = self.params
        if self.kind == "quadratic_psd":
            return p["matrix"].shape[0]
        if self.kind in ("max_of_affines", "log_sum_exp"):
            return p["slopes"].shape[1]
        return p["slope"].shape[0]

    def __call__(self, x):
        """Evaluate at a point (returns float) or a batch (returns (m,) array)."""
        X = np.asarray(x, dtype=float)
        single = X.ndim == 1
        X = np.atleast_2d(X)
        if X.shape[1] != self.dim:
            raise DimensionMismatchError(
                f"points have dimension {X.shape[1]}, function expects {self.dim}"
            )
        values = self._eval_batch(X)
        return float(values[0]) if single else values

    def _eval_batch(self, X: np.ndarray) -> np.ndarray:
        p = self.params
        kind = self.kind
        if kind == "affine":
            return X @ p["slope"] + p["offset"]
        if kind == "quadratic_psd":
            return ((X @ p["matrix"]) * X).sum(axis=1) + X @ p["slope"] + p["offset"]
        if kind in ("max_of_affines", "log_sum_exp"):
            # (k, m) layout: one contiguous row of m values per affine piece,
            # so the reductions over the k pieces are k elementwise passes
            # instead of a numpy reduction along a 2-5 wide axis per point.
            # Every value, and the summation order of log_sum_exp (see
            # _row_sums), matches the (m, k) layout, so results stay
            # bit-identical to it and campaign results and replays do not move.
            Z = p["slopes"] @ X.T
            Z += p["offsets"][:, None]
            peak = Z.max(axis=0)
            if kind == "max_of_affines":
                return peak
            # max-subtraction for overflow safety
            Z -= peak
            np.exp(Z, out=Z)
            return peak + np.log(_row_sums(Z.T))
        if kind == "exp_affine":
            return np.exp(X @ p["slope"] + p["offset"])
        # hinge_distance
        return np.maximum(0.0, X @ p["slope"] - p["threshold"])

    # -- serialization ------------------------------------------------------

    def to_json_dict(self) -> dict:
        params = {
            name: (value.tolist() if isinstance(value, np.ndarray) else value)
            for name, value in self.params.items()
        }
        return {"kind": self.kind, "params": params, "label": self.label}

    @classmethod
    def from_json_dict(cls, data: dict) -> "ConvexFunction":
        return cls(
            kind=data["kind"], params=dict(data["params"]), label=data.get("label", "")
        )


def _unit_vector(rng: np.random.Generator, dim: int) -> np.ndarray:
    while True:
        v = rng.standard_normal(dim)
        norm = np.linalg.norm(v)
        if norm > 1e-12:
            return v / norm


def _unit_rows(rng: np.random.Generator, k: int, dim: int) -> np.ndarray:
    return np.vstack([_unit_vector(rng, dim) for _ in range(k)])


def random_convex(
    dim: int, kind: str, seed: int, simplex: Simplex | None = None
) -> ConvexFunction:
    """Generate a random convex function, deterministic in its arguments.

    Coefficient distributions:

    * ``affine``: standard-normal slope and offset.
    * ``quadratic_psd``: matrix A'A with standard-normal A, standard-normal
      linear part.
    * ``max_of_affines``: 2-5 pieces with unit-ball-normalized slopes, all
      passing through a common interior anchor point (so the kink structure
      lies inside the simplex).  In 1-D the slopes are also scaled by
      U(0.5, 1.5), so their magnitudes differ and every draw has a kink.
    * ``exp_affine``: slope of norm U(0.5, 1.5); offset centers the exponent
      near zero at the anchor.
    * ``log_sum_exp``: 2-4 terms, unit slopes scaled by U(0.5, 1.5), offsets
      comparable at the anchor.
    * ``hinge_distance``: unit slope, threshold placing the kink at the
      anchor (interior of the simplex).

    The anchor point is drawn from a symmetric Dirichlet(2) mixture of the
    simplex vertices; when no simplex is given the standard simplex is used.
    """
    if dim < 1:
        raise ValueError("dimension must be >= 1")
    if kind not in KINDS:
        raise ValueError(f"unknown function kind {kind!r}")
    if simplex is None:
        simplex = standard_simplex(dim)
    if simplex.dimension != dim:
        raise DimensionMismatchError(
            f"simplex has dimension {simplex.dimension}, expected {dim}"
        )
    rng = np.random.default_rng(seed)
    anchor = rng.dirichlet(np.full(dim + 1, 2.0)) @ simplex.vertices
    label = f"{kind}-{seed % 10**8:08d}"

    if kind == "affine":
        params = {"slope": rng.standard_normal(dim), "offset": rng.standard_normal()}
    elif kind == "quadratic_psd":
        A = rng.standard_normal((dim, dim))
        params = {
            "matrix": A.T @ A,
            "slope": rng.standard_normal(dim),
            "offset": rng.standard_normal(),
        }
    elif kind == "max_of_affines":
        k = int(rng.integers(2, 6))
        slopes = _unit_rows(rng, k, dim)
        shared_value = 0.5 * rng.standard_normal()
        if dim == 1:
            # 1-D unit slopes are +-1, so all pieces could share one slope
            slopes = slopes * rng.uniform(0.5, 1.5, size=(k, 1))
        params = {"slopes": slopes, "offsets": shared_value - slopes @ anchor}
    elif kind == "exp_affine":
        slope = rng.uniform(0.5, 1.5) * _unit_vector(rng, dim)
        params = {"slope": slope, "offset": rng.uniform(-0.5, 0.5) - slope @ anchor}
    elif kind == "log_sum_exp":
        k = int(rng.integers(2, 5))
        slopes = _unit_rows(rng, k, dim) * rng.uniform(0.5, 1.5, size=(k, 1))
        params = {
            "slopes": slopes,
            "offsets": rng.uniform(-0.5, 0.5, size=k) - slopes @ anchor,
        }
    else:  # hinge_distance
        slope = _unit_vector(rng, dim)
        params = {"slope": slope, "threshold": float(slope @ anchor)}
    return ConvexFunction(kind=kind, params=params, label=label)


def midpoint_convexity_check(f, s: Simplex, trials: int, seed: int) -> bool:
    """Sample pairs in ``s`` and check f((x+y)/2) <= (f(x)+f(y))/2 + TOL_CHAIN.

    Returns False on any violation.  ``f`` may be any callable accepting a
    batch of points; guards the convexity hypothesis every bound requires.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    np1 = s.dimension + 1
    weights = rng.standard_exponential((2 * trials, np1))
    weights /= weights.sum(axis=1, keepdims=True)
    points = weights @ s.vertices
    x, y = points[:trials], points[trials:]
    lhs = f(0.5 * (x + y))
    rhs = 0.5 * (np.asarray(f(x)) + np.asarray(f(y)))
    return bool(np.all(lhs <= rhs + TOL_CHAIN))
