"""Exact means of a max of affine functions over a simplex, by coning over its faces.

In barycentric coordinates ``w`` of a simplex, piece ``i`` of
``max_i (A_i.x + b_i)`` is the linear form ``(T w)_i``, where ``T[i, j]`` is
the piece's value at vertex ``j``.  The uniform measure on a face ``J``
splits into signed cones from any point ``p = sum_j w_j v_j`` of its affine
hull over its facets ``J - j``, of weights ``w_j`` (Lasserre 1998, *Proc.
AMS* 126).  Where every piece takes one value ``h(p)`` at ``p``,
``f - h(p)`` is positively homogeneous of degree 1 about ``p``, and its mean
over a cone of dimension ``m`` is ``m/(m+1)`` times its mean over the base::

    mean_J = h(p) + m/(m+1) sum_j w_j (mean_(J-j) - h(p))

:func:`coned_means` takes every face's ``p`` from one stacked solve (the
common point nearest the face's centroid) and walks the faces of four or
more vertices one size at a time, from the triangles, whose means
:func:`triangle_means` sums over the envelope's cells.  Each face mean
carries a rounding bound: ``m/(m+1) sum_j |w_j| err_(J-j)``, plus
``sum_j |w_j| rho / (m+1)`` where the pieces still differ from ``h(p)`` by
up to ``rho`` at ``p`` (the cone over ``J - j`` is then off by at most
``rho`` times the mean of ``1 - t``, ``t`` its radial coordinate), plus the
rounding of the step.  A face whose point lies far outside it amplifies
the bounds below it by ``sum_j |w_j|``; a face with no common point (four
or more vertices with more pieces than vertices, or pieces parallel on the
face) has a large ``rho``.  :mod:`hhbounds.quadrature` takes the mean only where the
bound is small, and imports this module on the first such mean.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

EPS = float(np.finfo(float).eps)


@functools.lru_cache(maxsize=16)  # a campaign uses one entry per dimension
def face_lattice(np1: int) -> tuple:
    """The faces of a simplex with ``np1`` vertices that :func:`coned_means` walks.

    Returns the ``(F3, 3)`` vertex indices of its triangles; the ``(F, np1)``
    boolean membership rows of its faces of four or more vertices, by size;
    and per size, ``(first row, (F_s, s) vertex indices, (F_s, s) facets)``,
    where ``facets[f, q]`` is the row, among the faces one smaller, of face
    ``f`` without its vertex ``q``.  Small dtypes keep the cached tables
    small (about 70 KiB for dims 2-8).
    """
    triangles = list(itertools.combinations(range(np1), 3))
    index = {face: i for i, face in enumerate(triangles)}
    levels, faces = [], []
    for size in range(4, np1 + 1):
        level = list(itertools.combinations(range(np1), size))
        facets = [[index[face[:q] + face[q + 1 :]] for q in range(size)] for face in level]
        levels.append((len(faces), np.array(level, np.int16), np.array(facets, np.int16)))
        index = {face: i for i, face in enumerate(level)}
        faces += level
    member = np.zeros((len(faces), np1), dtype=bool)
    for row, face in enumerate(faces):
        member[row, list(face)] = True
    return np.array(triangles, np.int16).reshape(-1, 3), member, tuple(levels)


def triangle_means(T3: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Means and rounding bounds of ``max_i (T w)_i`` over triangles.

    ``T3`` is ``(F, k, 3)``: each triangle's ``k`` pieces at its vertices,
    which are ``(0, 0)``, ``(1, 0)`` and ``(0, 1)`` in the points ``(u, v)``
    used here.  The cell of piece ``i`` is the triangle clipped
    (Sutherland-Hodgman) by ``T_i - T_r >= 0`` for every other piece ``r``;
    where two pieces tie, the lower index keeps the tie, so coincident
    pieces count once.  A clip adds at most one point to a convex polygon;
    the unused slots repeat its first point.  Each cell is integrated as a
    fan of triangles from its first point (its piece is affine).  The bound
    adds to a rounding allowance the amount by which the cells' areas miss
    the triangle's, which also covers a polygon cut short where rounding
    made it need more points than the clips allow.
    """
    F, k, _ = T3.shape
    rows = F * k
    cells = np.arange(k)
    others = (cells[:, None] + cells[1:]) % k  # the pieces each cell is clipped by, in turn
    D = (T3[:, :, None] - T3[:, others]).reshape(rows, k - 1, 3)
    D[:, :, 1:] -= D[:, :, :1]  # each difference as its value at (0, 0) and its slopes
    later = np.tile(others > cells[:, None], (F, 1))
    Tc = T3.reshape(rows, 3)
    u = np.broadcast_to(np.array([0.0, 1.0, 0.0]), (rows, 3))
    v = np.broadcast_to(np.array([0.0, 0.0, 1.0]), (rows, 3))
    at = np.arange(rows)[:, None]
    for step in range(k - 1):
        d = D[:, step, :1] + D[:, step, 1:2] * u + D[:, step, 2:] * v
        keep = (d > 0.0) | ((d == 0.0) & later[:, step, None])
        n = d.shape[1]
        nxt = (np.arange(n) + 1) % n
        cut = keep != keep[:, nxt]
        t = d / (d - d[:, nxt])  # in [0, 1] on the edges that the line cuts
        mask = np.empty((rows, 2 * n), dtype=bool)
        mask[:, 0::2], mask[:, 1::2] = keep, cut
        order = np.argsort(~mask, axis=1, kind="stable")[:, : n + 1]
        order = np.where(np.arange(n + 1) < mask.sum(axis=1)[:, None], order, order[:, :1])
        clipped = []
        for x in (u, v):
            points = np.empty((rows, 2 * n))
            points[:, 0::2], points[:, 1::2] = x, x + t * (x[:, nxt] - x)
            clipped.append(points[at, order])
        u, v = clipped
    values = Tc[:, :1] + (Tc[:, 1:2] - Tc[:, :1]) * u + (Tc[:, 2:] - Tc[:, :1]) * v
    du, dv = u - u[:, :1], v - v[:, :1]
    cross = du[:, :-1] * dv[:, 1:] - dv[:, :-1] * du[:, 1:]  # twice each fan triangle's area
    parts = (cross * (values[:, :1] + values[:, :-1] + values[:, 1:])).sum(axis=1)
    means = parts.reshape(F, k).sum(axis=1) / 3.0
    area = cross.reshape(F, -1).sum(axis=1)
    bounds = (16 * (k + 2) * EPS + np.abs(area - 1.0)) * np.abs(T3).max(axis=(1, 2))
    return means, bounds


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def coned_means(T: np.ndarray) -> tuple[float, float]:
    """Mean of ``max_i (T w)_i`` over uniform barycentric ``w``, with its rounding bound.

    ``T`` is ``(k, n+1)``, ``n >= 2``: piece ``i`` at vertex ``j``.  Coning
    over the faces of four or more vertices, one level per size, from the
    triangles' means (module docstring).  Every face's common point comes
    from one stacked solve of the normal equations ``A A^T y = e - A g``
    (``A``: the face's pieces less the first, over a row of ones; ``g``:
    its centroid), kept positive definite by ``eps * trace``, plus one step
    of refinement; its equations share the ``k`` columns ``a_j`` of the
    vertices, so ``A A^T`` is the sum of ``a_j a_j^T`` over the face.  A
    non-finite bound means no usable common point.  The pieces are sorted,
    so their order changes no bit, and coincident pieces are kept once.  A
    piece that another is at least at every vertex is at most it on the
    whole simplex, and is dropped (parallel pieces, for one).
    """
    T = T[np.lexsort(T.T[::-1])]
    T = T[np.append(True, (T[1:] != T[:-1]).any(axis=1))]
    T = T[(T[:, None] <= T[None]).all(axis=2).sum(axis=1) == 1]
    k, np1 = T.shape
    triangles, member, levels = face_lattice(np1)
    means, bounds = triangle_means(T[:, triangles].transpose(1, 0, 2))
    if np1 == 3:
        return float(means[0]), float(bounds[0])
    a = np.vstack([T[1:] - T[:1], np.ones(np1)]).T
    G = (member @ (a[:, :, None] * a[:, None, :]).reshape(np1, -1)).reshape(-1, k, k)
    G += (EPS * np.trace(G, axis1=1, axis2=2))[:, None, None] * np.eye(k)
    e = np.eye(k)[-1]
    w = member / member.sum(axis=1, keepdims=True)
    for _ in range(2):
        y = np.linalg.solve(G, (e - w @ a)[..., None])[..., 0]
        w = w + member * (y @ a.T)
    values = w @ T.T  # each piece at each face's point
    top, bottom = values.max(axis=1), values.min(axis=1)
    h = (top + bottom) / 2.0
    sizes = member.sum(axis=1)
    off = (top - bottom) / 2.0 + sizes * EPS * (np.abs(w) @ np.abs(T).T).max(axis=1)
    mass = np.abs(w).sum(axis=1)
    rounding = (np.abs(w.sum(axis=1) - 1.0) + 2 * sizes * EPS) * (1.0 + 2.0 * mass)
    local = off * mass / sizes + rounding * np.abs(T).max()
    for first, faces, facets in levels:
        F, size = faces.shape
        at = np.arange(first, first + F)
        wf, c = w[at[:, None], faces], h[at]
        ratio = (size - 1) / size
        means = c + ratio * (wf * (means[facets] - c[:, None])).sum(axis=1)
        bounds = ratio * (np.abs(wf) * bounds[facets]).sum(axis=1) + local[at]
    return float(means[0]), float(bounds[0])
