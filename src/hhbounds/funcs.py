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
A point's value has the same bits in every batch of two or more points,
which lets the chains evaluate a whole trial in one call and still replay
one chain alone bit for bit.  Linear forms go through einsum.  The matrix
products of ``quadratic_psd``, and of ``max_of_affines`` and
``log_sum_exp`` with two or more pieces, go through BLAS's matrix-matrix
path, which rounds each row the same way wherever it sits; a one-row batch
takes BLAS's vector path there, which can differ in the last digit.

Each kind is one record of :data:`_KINDS`: its param names and, for every
kind but ``quadratic_psd``, its outer function (identity, ``exp``,
``max(0, .)``, max over pieces, log-sum-exp) of affine arguments ``A x + b``.
Point evaluation and Monte Carlo's evaluation on vertex values
(:meth:`ConvexFunction.row_evaluator`) share that outer function.
:meth:`ConvexFunction.vertex_table` alone builds the table ``A V^T`` of vertex
values that Monte Carlo and the exact and cubature means start from, and
:meth:`ConvexFunction.arguments` alone adds the offsets ``b`` to it.  A new
kind is one record of :data:`_KINDS`, one branch of :func:`random_params`
and, if it has a closed-form mean, one entry of
:data:`hhbounds.quadrature._EXACT_ROUTES`.

Random generation is deterministic in ``(dim, kind, seed)`` and, when a
simplex is supplied, anchors kinks and exponents to its interior so the
nonsmooth/curved structure actually lands where the bounds are probed.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .errors import DimensionMismatchError
from .geometry import Simplex, _real_array, standard_simplex
from .quadrature import _row_sums

__all__ = [
    "KINDS",
    "ConvexFunction",
    "convex_functions",
    "random_convex",
    "random_params",
]

def _certify_psd(matrices: np.ndarray) -> None:
    """Reject a ``(k, n, n)`` stack unless every matrix is symmetric PSD.

    Certification is by one attempted Cholesky factorization of the stack, each
    matrix jittered by 1e-10 * its scale, which accepts rank-deficient PSD
    matrices and rejects anything with a meaningfully negative eigenvalue."""
    scale = np.maximum(1.0, np.abs(matrices).max(axis=(1, 2)))
    asymmetry = np.abs(matrices - matrices.transpose(0, 2, 1)).max(axis=(1, 2))
    if (asymmetry > 1e-12 * scale).any():
        raise ValueError("quadratic matrix must be symmetric")
    jittered = matrices + (1e-10 * scale)[:, None, None] * np.eye(matrices.shape[1])
    try:
        np.linalg.cholesky(jittered)
    except np.linalg.LinAlgError as exc:
        raise ValueError("quadratic matrix is not positive semidefinite") from exc


#: :meth:`ConvexFunction.row_evaluator` scales its table of vertex values
#: below ``2**_TABLE_EXPONENT``, so that a row's products with it cannot
#: overflow for rows summing to less than ``2**24``.
_TABLE_EXPONENT = 1000


def _dot_rows(X: np.ndarray, a: np.ndarray) -> np.ndarray:
    """``X @ a``, each row's products added in one order whatever the batch.

    BLAS's matrix-vector product rounds a row differently depending on where
    it sits in the batch (and a one-row call takes yet another path); the
    loop of numpy's einsum adds every row's products the same way.
    """
    return np.einsum("ij,j->i", X, a)


def _log_sum_exp(Z: np.ndarray, out: np.ndarray | None) -> np.ndarray:
    """``log sum_i exp(Z_i)`` over the rows, the peak subtracted for overflow
    safety; ``Z`` is overwritten."""
    peak = Z.max(axis=0)
    Z -= peak
    np.exp(Z, out=Z)
    return np.add(peak, np.log(_row_sums(Z.T)), out=out)


class _Kind(NamedTuple):
    """A kind's param names (shapes as in the module docstring) and its outer
    function ``outer(Z, out)`` (see :meth:`ConvexFunction._outer`), if any."""

    schema: tuple[str, ...]
    outer: Callable[[np.ndarray, np.ndarray | None], np.ndarray] | None


# The multi-piece kinds take (k, m) arguments: one contiguous row of m values
# per affine piece, so the reductions over the k pieces are k elementwise
# passes instead of a numpy reduction along a 2-5 wide axis per point.  Every
# value, and the summation order of log_sum_exp (see _row_sums), matches the
# (m, k) layout.
_KINDS = {
    "affine": _Kind(("slope", "offset"), lambda Z, out: Z),
    "quadratic_psd": _Kind(("matrix", "slope", "offset"), None),
    "max_of_affines": _Kind(("slopes", "offsets"), lambda Z, out: Z.max(axis=0, out=out)),
    "exp_affine": _Kind(("slope", "offset"), lambda Z, out: np.exp(Z, out=Z)),
    "log_sum_exp": _Kind(("slopes", "offsets"), _log_sum_exp),
    "hinge_distance": _Kind(("slope", "threshold"), lambda Z, out: np.maximum(0.0, Z, out=Z)),
}

KINDS: tuple[str, ...] = tuple(_KINDS)


def _shaped_params(kind: str, params: dict) -> dict:
    """``params`` of a ``kind`` function as read-only floats and float arrays
    of its schema's shapes, not yet checked as finite."""
    record = _KINDS.get(kind) if isinstance(kind, str) else None
    if record is None:
        raise ValueError(f"unknown function kind {kind!r}")
    missing = [name for name in record.schema if name not in params]
    if missing:
        raise ValueError(f"{kind} params missing {missing}")
    p: dict = {}
    for name in record.schema:
        value = params[name]
        if name in ("matrix", "slope", "slopes", "offsets"):
            # a single piece's slopes may come as a vector: it becomes a row
            value = _real_array(value, name, ndmin=2 if name == "slopes" else 1)
            value.setflags(write=False)
        elif isinstance(value, (float, numbers.Real)) and not isinstance(value, bool):
            value = float(value)
        else:
            raise ValueError(f"{name} must be a real number, got {value!r}")
        p[name] = value
    if "matrix" in p:
        M = p["matrix"]
        if M.ndim != 2 or M.shape[0] != M.shape[1]:
            raise ValueError("matrix must be square")
        if p["slope"].shape != (M.shape[0],):
            raise ValueError("slope length must match matrix size")
    elif "slopes" in p:
        S = p["slopes"]
        if S.ndim != 2 or S.shape[0] < 1:
            raise ValueError("need at least one affine piece")
        if p["offsets"].shape != (S.shape[0],):
            raise ValueError("offsets length must match number of pieces")
    elif p["slope"].ndim != 1:
        raise ValueError("slope must be a vector")
    return p


def _finite_psd(cleaned: list[dict]) -> None:
    """Reject shaped params unless all are finite (naming the first that is
    not), then unless every matrix is symmetric PSD (one test per size)."""
    values = [value for p in cleaned for value in p.values()]
    arrays = [value.ravel() for value in values if isinstance(value, np.ndarray)]
    scalars = [value for value in values if not isinstance(value, np.ndarray)]
    if not np.isfinite(np.concatenate([*arrays, scalars])).all():
        raise ValueError(next(f"{name} must be finite" for p in cleaned
                              for name, value in p.items() if not np.isfinite(value).all()))
    matrices: dict[int, list] = {}
    for p in cleaned:
        if "matrix" in p:
            matrices.setdefault(len(p["matrix"]), []).append(p["matrix"])
    for stack in matrices.values():
        _certify_psd(np.stack(stack))


def _clean_params(specs) -> list[dict]:
    """The params of each ``(kind, params, ...)`` in ``specs``, checked as
    finite read-only floats and arrays of its schema's shapes, with one
    finiteness test for the stack and one PSD certificate per matrix size.

    The first bad spec raises the error it raises alone: its kind, schema,
    type or shape error, else its finiteness, symmetry or PSD error, found
    by checking the specs one at a time once a stacked check fails."""
    cleaned, error = [], None
    for kind, params, *_ in specs:
        try:
            cleaned.append(_shaped_params(kind, params))
        except (TypeError, ValueError) as exc:  # raised once those before it are checked
            error = exc
            break
    try:
        _finite_psd(cleaned)
    except ValueError:
        for p in cleaned:
            _finite_psd([p])
        raise
    if error is not None:
        raise error
    return cleaned


@dataclass(frozen=True, eq=False)
class ConvexFunction:
    """A tagged, evaluable convex function on R^n."""

    kind: str
    params: dict = field(repr=False)
    label: str = ""

    def __post_init__(self) -> None:
        [clean] = _clean_params([(self.kind, self.params)])
        object.__setattr__(self, "params", clean)

    @property
    def dim(self) -> int:
        return self.params[_KINDS[self.kind].schema[0]].shape[-1]

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
        if "matrix" in p:
            quadratic = ((X @ p["matrix"]) * X).sum(axis=1)
            return quadratic + _dot_rows(X, p["slope"]) + p["offset"]
        return self._outer(p["slopes"] @ X.T if "slopes" in p else _dot_rows(X, p["slope"]))

    def vertex_table(self, vertices: np.ndarray) -> np.ndarray | None:
        """The linear parts of the arguments at ``vertices``: ``slopes @
        vertices.T``, a row per piece, for the multi-piece kinds, ``vertices @
        slope`` for the others; None for ``quadratic_psd`` (no outer function)."""
        p = self.params
        if _KINDS[self.kind].outer is None:
            return None
        return p["slopes"] @ vertices.T if "slopes" in p else vertices @ p["slope"]

    def arguments(self, vertices: np.ndarray) -> np.ndarray | None:
        """The affine arguments ``A x + b`` at ``vertices``: the
        :meth:`vertex_table` plus the offsets; None for ``quadratic_psd``."""
        T = self.vertex_table(vertices)
        return None if T is None else self._add_offsets(T)

    def row_evaluator(self, vertices: np.ndarray):
        """The values at the points ``(E / sums[:, None]) @ vertices``, as a
        function ``evaluate(E, sums, out=None)`` of rows ``E`` and their sums
        that writes them into ``out`` (a new array if None) and returns it;
        None for ``quadratic_psd``.

        Every other kind is an outer function of affine arguments ``A x + b``,
        and a point's arguments are ``(E @ T) / sums + b`` with ``T`` the
        table ``vertices @ A.T`` of vertex values (:meth:`vertex_table`): one
        product with ``T``, a division of the arguments by the sums and the
        outer function, with no point matrix.  A kind of one argument computes
        all of it in ``out``; the others keep one ``(k, m)`` array of
        arguments.  ``T`` is scaled by a power of two where ``E @ T`` could
        overflow though the arguments do not, which changes no bit of an
        argument that does not overflow.  A row's value depends only on its
        row and sum wherever BLAS's matrix-vector product (one affine
        argument) rounds it the same way: where blocks of rows start at
        multiples of 4096 (:data:`~hhbounds.quadrature.MC_BLOCK_ROWS`).
        """
        T = self.vertex_table(vertices)
        if T is None:
            return None
        exponent = math.frexp(float(np.abs(T).max()))[1] - _TABLE_EXPONENT
        scale = math.ldexp(1.0, max(exponent, 0))
        if scale > 1.0:
            T = T / scale

        def evaluate(E: np.ndarray, sums: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
            Z = T @ E.T if T.ndim == 2 else np.matmul(E, T, out=out)
            Z /= sums
            if scale > 1.0:
                Z *= scale
            return self._outer(Z, out)

        return evaluate

    def _add_offsets(self, Z: np.ndarray) -> np.ndarray:
        """``Z`` with the offsets of the arguments added in place: a row of
        ``offsets`` per piece, ``offset``, or minus ``threshold``."""
        p = self.params
        if "offsets" in p:
            Z += p["offsets"][:, None]
        elif "threshold" in p:
            Z -= p["threshold"]
        else:
            Z += p["offset"]
        return Z

    def _outer(self, Z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The values whose linear parts are ``Z``: ``(k, m)`` for the
        multi-piece kinds, ``(m,)`` for the others.  The offsets are added in
        place, and the kind's outer function is applied in place where it
        keeps the shape; a multi-piece kind writes its values into ``out``
        (a new array if None), and a kind of one argument returns ``Z``."""
        return _KINDS[self.kind].outer(self._add_offsets(Z), out)

    # -- serialization ------------------------------------------------------

    def to_json_dict(self) -> dict:
        params = {
            name: (value.tolist() if isinstance(value, np.ndarray) else value)
            for name, value in self.params.items()
        }
        return {"kind": self.kind, "params": params, "label": self.label}

    @classmethod
    def from_json_dict(cls, data: dict) -> "ConvexFunction":
        if not isinstance(data, dict):
            raise ValueError(f"a function descriptor must be an object, got {data!r}")
        if not isinstance(data["params"], dict):
            raise ValueError(f"params must be an object, got {data['params']!r}")
        return cls(data["kind"], dict(data["params"]), data.get("label", ""))


def _unit_vector(rng: np.random.Generator, dim: int) -> np.ndarray:
    while True:
        v = rng.standard_normal(dim)
        norm = math.sqrt(v.dot(v))  # np.linalg.norm's own formula for a vector
        if norm > 1e-12:
            return v / norm


def _unit_rows(rng: np.random.Generator, k: int, dim: int) -> np.ndarray:
    return np.vstack([_unit_vector(rng, dim) for _ in range(k)])


def _dirichlet(rng: np.random.Generator, k: int) -> np.ndarray:
    """``rng.dirichlet(np.full(k, 2.0))`` with its bits, at about a third of its cost.

    It is numpy's own form for parameters >= 0.1: ``k`` standard gamma draws,
    added left to right and scaled by the reciprocal of their sum.
    """
    draws = rng.standard_gamma(2.0, size=k)
    total = 0.0
    for draw in draws.tolist():  # not sum(): it compensates, numpy does not
        total += draw
    return draws * (1.0 / total)


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
    return ConvexFunction(kind, *random_params(dim, kind, seed, simplex.vertices))


def random_params(
    dim: int, kind: str, seed: int, vertices: np.ndarray, rng: np.random.Generator | None = None
) -> tuple[dict, str]:
    """Unchecked params and label that :func:`random_convex` draws on ``vertices``.

    ``rng``, if given, must be in the state ``np.random.default_rng(seed)``
    starts in (a campaign seeds a block's generators at once)."""
    if rng is None:
        rng = np.random.default_rng(seed)
    anchor = _dirichlet(rng, dim + 1) @ vertices
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
    return params, label


def convex_functions(specs) -> list[ConvexFunction]:
    """``ConvexFunction(kind, params, label)`` of each triple in ``specs``,
    with the checks of that construction made once for the stack
    (:func:`_clean_params`)."""
    specs = list(specs)
    made = []
    for (kind, _, label), params in zip(specs, _clean_params(specs)):
        f = object.__new__(ConvexFunction)  # checked: set the frozen fields directly
        f.__dict__.update(kind=kind, params=params, label=label)
        made.append(f)
    return made
