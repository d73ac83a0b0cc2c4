"""Simplex geometry: volumes, barycentric coordinates, subsimplex constructors.

Conventions used throughout the package:

* a *point* is a 1-D float array of length ``n``; a batch of points is an
  ``(m, n)`` array (one point per row);
* vertex indices are 0-based;
* simplices are immutable; every constructor returns a new value, so the
  centroid stored at construction stays valid and instances are safe to
  share between threads.

Barycentric weights are computed two independent ways: by solving the
linear system that stacks the vertex-combination equations with the
weights-sum-to-one constraint (``solve_weights``), and by ratios of
vertex-replacement volumes (``barycentric_volumes``).  The two must agree;
the test suite enforces this cross-check.  Both use numpy alone: LAPACK's LU
solve (``numpy.linalg.solve``, backward stable, one right-hand side per
point) for the stacked system, and ``numpy.linalg.det`` for the volumes.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (
    DegenerateSimplexError,
    DimensionMismatchError,
    NonFiniteValueError,
    PointOutsideSimplexError,
    SingularSystemError,
)
from .tolerances import DEGENERACY_RTOL, TOL_GEOM

__all__ = ["Simplex", "as_point", "scaled_copies", "simplices", "solve_stacked", "standard_simplex"]


def _abs_det(edges: np.ndarray) -> float:
    """|det| of a square edge matrix.

    numpy's det goes through exp(logdet), which rounds even a 1x1 matrix
    (det([[3.0]]) is 3.0000000000000004), so a 1x1 matrix is its own
    determinant here and interval lengths stay exact.
    """
    if edges.shape == (1, 1):
        return abs(float(edges[0, 0]))
    return abs(float(np.linalg.det(edges)))


#: Where the binary exponent ``e`` of the vertices lies beyond plus or minus
#: this, :func:`solve_stacked` solves on vertex rows and points
#: scaled by ``2**-e``.  LAPACK's LU multiplies by the reciprocal of each
#: pivot, which overflows when a pivot is subnormal (a pivot can lie far
#: below ``max|V|``), and near the top of the float range its elimination
#: updates overflow.  Within it the system is solved as given: scaling makes
#: LAPACK pick other pivots, which moves the weights' last bits.
_SOLVE_EXPONENT_LIMIT = 900


def as_point(x, dim: int | None = None) -> np.ndarray:
    """Validate and return ``x`` as a 1-D float array of finite coordinates."""
    p = np.asarray(x, dtype=float)
    if p.ndim == 0:
        p = p.reshape(1)
    if p.ndim != 1:
        raise DimensionMismatchError(f"point must be 1-D, got shape {p.shape}")
    if dim is not None and p.shape[0] != dim:
        raise DimensionMismatchError(
            f"point has dimension {p.shape[0]}, expected {dim}"
        )
    if not np.isfinite(p).all():
        raise ValueError("point coordinates must be finite")
    return p


def _real_array(value, name: str, ndmin: int = 0) -> np.ndarray:
    """``np.array(value, dtype=float, ndmin=ndmin, copy=None)``, or a
    ValueError naming the field ``name`` where ``value`` is no array of reals."""
    try:
        return np.array(value, dtype=float, ndmin=ndmin, copy=None)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{name} must be an array of real numbers, got {value!r}") from exc


def solve_stacked(simplices, points, owners=None) -> np.ndarray:
    """Barycentric weights of each row of ``points`` in its own simplex.

    Row ``k`` is solved in ``simplices[owners[k]]``, or in ``simplices[0]``
    when ``owners`` is None, and the weights come back as an ``(m, n+1)``
    array.  Each row gets its own copy of its simplex's system, the
    vertex-combination rows over a row of ones, and one batched LU solve
    (LAPACK ``gesv``) takes each copy with the row as its one right-hand
    side.  So a row's weights have the same bits in every batch and beside
    any other rows: a single multi-column solve rounds a column differently
    depending on its neighbours.  A row whose simplex's binary exponent lies
    beyond :data:`_SOLVE_EXPONENT_LIMIT` is solved on that simplex's vertex
    rows and the point scaled by it.  A point whose weights overflow, scaled
    or not, lies so far outside that it raises
    :class:`PointOutsideSimplexError`; a point that is not finite raises
    :class:`NonFiniteValueError`.  A singular system raises
    :class:`SingularSystemError`.
    """
    P = np.asarray(points, dtype=float)
    owners = np.zeros(len(P), dtype=int) if owners is None else owners
    V = np.stack([s._vertices for s in simplices])[owners]
    e = np.array([s._exponent for s in simplices])[owners]
    shift = np.where(np.abs(e) > _SOLVE_EXPONENT_LIMIT, -e, 0)
    if shift.any():
        with np.errstate(over="ignore"):  # a scaled point that overflows is caught below
            V, P = np.ldexp(V, shift[:, None, None]), np.ldexp(P, shift[:, None])
    n = V.shape[2]
    system = np.ones((len(V), n + 1, n + 1))
    system[:, :n] = V.transpose(0, 2, 1)
    rhs = np.concatenate((P, np.ones((len(P), 1))), axis=1)[:, :, None]
    try:
        W = np.linalg.solve(system, rhs)[..., 0]
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(f"barycentric system: {exc}") from exc
    if not np.isfinite(W).all():  # a non-finite point has non-finite weights
        if not np.isfinite(np.asarray(points, dtype=float)).all():
            raise NonFiniteValueError("point coordinates must be finite")
        raise PointOutsideSimplexError("a point lies so far outside that its weights overflow")
    return W


def simplices(vertices, cond_limit: float = math.inf, strict: bool = False) -> list:
    """Validate a ``(k, n+1, n)`` stack of vertex arrays, member by member.

    Member ``i`` comes back as ``Simplex(vertices[i])``, bit for bit, or as
    the error that call raises, returned (raised if ``strict``); with a
    finite ``cond_limit``, also as DegenerateSimplexError where the condition
    number of its edge matrix exceeds it.  ``Simplex(V)`` is a stack of one.
    """
    V = np.array(vertices, dtype=float)
    if V.ndim != 3 or V.shape[2] < 1 or V.shape[1] != V.shape[2] + 1:
        raise DimensionMismatchError(f"need (k, n+1, n) stacked vertices, got shape {V.shape}")
    _, m, n = V.shape
    U, finite = V, True
    if not np.isfinite(V).all():  # such a member is zeroed here and fails below
        finite = np.isfinite(V).all(axis=(1, 2))
        U = np.where(finite[:, None, None], V, 0.0)
    # max|V| * 2**-e lies in [0.5, 1): np.ldexp scales exactly, so edges and centroid sums
    # cannot overflow and keep the unscaled bits elsewhere.  Shape test: |det| / prod(edge
    # lengths) on unit edge rows, scale-free (hypot takes each length without squaring).
    e = np.frexp(np.abs(U).max(axis=(1, 2), keepdims=True))[1]
    U = np.ldexp(U, -e)
    edges = U[:, 1:] - U[:, :1]
    lengths = np.hypot.reduce(edges, axis=2)
    if not lengths.all():  # a zero edge stays zero, so its member's shape is 0
        lengths = np.where(lengths > 0.0, lengths, 1.0)
    unit = edges / lengths[:, :, None]
    shape = np.abs(unit[:, 0, 0] if n == 1 else np.linalg.det(unit))  # see _abs_det
    centroids = np.ldexp(np.add.reduce(U, axis=1) / m, e[:, 0])
    bad = shape <= DEGENERACY_RTOL
    if cond_limit < math.inf:  # a failed member's edges become eye(n), of condition 1
        sv = np.linalg.svd(np.where(bad[:, None, None], np.eye(n), edges), compute_uv=False)
        cond = sv[:, 0] / sv[:, -1]
        bad |= cond > cond_limit
    V.setflags(write=False)
    centroids.setflags(write=False)
    members: list = []
    for i, (failed, exponent) in enumerate(zip(bad.tolist(), e.ravel().tolist())):
        if not failed:
            s = Simplex.__new__(Simplex)
            s._vertices, s._centroid, s._exponent = V[i], centroids[i], exponent
        elif not np.all(finite) and not finite[i]:
            s = ValueError("vertex coordinates must be finite")
        elif shape[i] > DEGENERACY_RTOL:
            s = DegenerateSimplexError(
                f"edge condition number {cond[i]:.3e} exceeds {cond_limit:.3e}")
        else:
            detail = ("repeated vertex" if not np.hypot.reduce(edges[i], axis=1).all()
                      else f"|det| of unit edges={shape[i]:.3e}")
            s = DegenerateSimplexError(f"vertices are affinely dependent ({detail})")
        if strict and failed:
            raise s
        members.append(s)
    return members


def scaled_copies(parents, anchors, scales) -> list:
    """The simplices ``anchors[i] + scales[i] * (V_i - c_i)`` of ``parents[i]``
    (vertices ``V_i``, centroid ``c_i``) as one strict stack (see :func:`simplices`)."""
    C = np.stack([s.centroid for s in parents])[:, None]
    D = np.stack([s.vertices for s in parents]) - C
    Q, T = np.asarray(anchors)[:, None], np.asarray(scales)[:, None, None]
    return simplices(Q + T * D, strict=True)


class Simplex:
    """Nondegenerate n-simplex given by n+1 vertices in R^n."""

    __slots__ = ("_vertices", "_centroid", "_exponent")

    def __init__(self, vertices) -> None:
        V = np.asarray(vertices, dtype=float)
        if V.ndim != 2 or V.shape[1] < 1 or V.shape[0] != V.shape[1] + 1:
            raise DimensionMismatchError(f"need n+1 vertices in R^n, got shape {V.shape}")
        (s,) = simplices(V[None], strict=True)
        self._vertices, self._centroid, self._exponent = s._vertices, s._centroid, s._exponent

    # -- basic data ---------------------------------------------------------

    @property
    def vertices(self) -> np.ndarray:
        """Read-only ``(n+1, n)`` vertex array."""
        return self._vertices

    @property
    def dimension(self) -> int:
        return self._vertices.shape[1]

    @property
    def volume(self) -> float:
        """Lebesgue n-volume, |det(edge matrix)| / n!, computed when read.

        Outside the float range it does not raise: where the determinant
        overflows it reads ``inf``, and where it underflows ``0.0``.
        """
        with np.errstate(over="ignore", under="ignore"):
            edges = self._vertices[1:] - self._vertices[0]
            return _abs_det(edges) / math.factorial(self.dimension)

    @property
    def centroid(self) -> np.ndarray:
        """Read-only vertex centroid, which is also the mean of the uniform measure."""
        return self._centroid

    def __repr__(self) -> str:
        return f"Simplex(dim={self.dimension}, volume={self.volume:.6g})"

    # -- barycentric coordinates --------------------------------------------

    def solve_weights(self, points) -> np.ndarray:
        """Barycentric weights for one point or a batch.

        Returns shape ``(n+1,)`` for a single point, ``(m, n+1)`` for a
        batch.  Weights may be negative when a point lies outside.  The
        solve is :func:`solve_stacked`'s, so a point's weights have the same
        bits in every batch.
        """
        P = np.asarray(points, dtype=float)
        single = P.ndim == 1
        P = np.atleast_2d(P)
        _, n = P.shape
        if n != self.dimension:
            raise DimensionMismatchError(
                f"points have dimension {n}, expected {self.dimension}"
            )
        W = solve_stacked([self], P)
        return W[0] if single else W

    def barycentric_volumes(self, x) -> np.ndarray:
        """Barycentric weights of ``x`` as vertex-replacement volume ratios.

        Requires ``x`` inside the simplex.  The weights come from
        determinants only, independent of :meth:`solve_weights`; the two
        routes must agree within ``TOL_GEOM`` for interior points.
        """
        x = as_point(x, self.dimension)
        raw = self.solve_weights(x)
        if raw.min() < -TOL_GEOM:
            raise PointOutsideSimplexError(
                f"point {x!r} lies outside (min weight {raw.min():.3e})"
            )
        # Ratios do not change under a common scale, so take them on edges
        # divided by the longest edge length: as in the constructor's shape
        # test, no power of the scale is left to overflow or underflow, and
        # the edges are taken on vertices scaled by a power of two.
        e = self._exponent
        V, y = np.ldexp(self._vertices, -e), np.ldexp(x, -e)
        scale = np.hypot.reduce(V[1:] - V[0], axis=1).max()
        V, y = (V - V[0]) / scale, (y - V[0]) / scale
        ratios = np.empty(self.dimension + 1)
        for k in range(len(ratios)):
            W = np.array(V)
            W[k] = y
            ratios[k] = _abs_det(W[1:] - W[0])
        return ratios / ratios.sum()

    def contains(self, x) -> bool:
        """True when all barycentric weights of ``x`` are >= -TOL_GEOM (not when they overflow)."""
        try:
            raw = self.solve_weights(as_point(x, self.dimension))
        except PointOutsideSimplexError:
            return False
        return bool(raw.min() >= -TOL_GEOM)

    # -- derived simplices ----------------------------------------------------

    def replace_vertex(self, i: int, p) -> "Simplex":
        """Return the simplex with vertex ``i`` replaced by interior point ``p``.

        The new volume equals ``weight_i(p) * volume``; replacing by a point
        on the facet opposite vertex ``i`` is degenerate and raises.
        """
        np1 = self.dimension + 1
        if not 0 <= i < np1:
            raise IndexError(f"vertex index {i} out of range 0..{np1 - 1}")
        p = as_point(p, self.dimension)
        if not self.contains(p):
            raise PointOutsideSimplexError("replacement point lies outside the simplex")
        W = np.array(self._vertices)
        W[i] = p
        try:
            return Simplex(W)
        except DegenerateSimplexError as exc:
            raise DegenerateSimplexError(
                f"replacement point lies on the facet opposite vertex {i}"
            ) from exc

    def homothety_about_centroid(self, t: float) -> "Simplex":
        """Scale the simplex by ``t`` in ``(0, 1]`` about its centroid.

        The result is contained in the original and shares its centroid.
        """
        if not 0.0 < t <= 1.0:
            raise ValueError(f"scale must lie in (0, 1], got {t!r}")
        return scaled_copies([self], [self.centroid], [t])[0]

    def centered_subsimplex(self, p, fraction: float) -> "Simplex":
        """Subsimplex with centroid ``p``: vertices ``p + t*(V_k - centroid)``.

        ``t`` is ``fraction`` in ``(0, 1]`` of the largest scale that keeps
        every vertex inside, ``t_max = (n+1) * min_k weight_k(p)``: the
        translated copy has weights ``w_j(p) + t*(delta_jk - 1/(n+1))``, and
        the binding constraint is the smallest weight of ``p``.  At fraction
        1 the subsimplex touches the facet where that weight is zero.  ``p``
        must lie in the interior, where ``t_max`` is positive.
        """
        if not 0.0 < fraction <= 1.0:
            raise ValueError(f"fraction must lie in (0, 1], got {fraction!r}")
        p = as_point(p, self.dimension)
        w_min = float(self.solve_weights(p).min())
        if not w_min > 0.0:
            raise PointOutsideSimplexError(
                f"center point is not interior (min weight {w_min:.3e})"
            )
        t = fraction * ((self.dimension + 1) * w_min)
        return scaled_copies([self], [p], [t])[0]

    # -- serialization ---------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "dimension": self.dimension,
            "vertices": self._vertices.tolist(),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "Simplex":
        if not isinstance(data, dict):
            raise ValueError(f"a simplex descriptor must be an object, got {data!r}")
        s = cls(_real_array(data["vertices"], "vertices"))
        if "dimension" in data and int(data["dimension"]) != s.dimension:
            raise DimensionMismatchError(
                f"descriptor says dimension {data['dimension']}, "
                f"vertices give {s.dimension}"
            )
        return s


def standard_simplex(n: int) -> Simplex:
    """The simplex spanned by the origin and the ``n`` unit basis vectors."""
    if n < 1:
        raise ValueError("dimension must be >= 1")
    V = np.zeros((n + 1, n))
    V[1:] = np.eye(n)
    return Simplex(V)
