"""The coned ``max_of_affines`` mean: three or more pieces in dims >= 2.

The route (``hhbounds.cones.coned_means``) returns a mean and a propagated
rounding bound; the policy takes it where the bound, with the rounding of
the vertex values, is at most ``CONE_MAX_ERROR``.  It is checked:

* against the two-piece and 1-D closed forms, to 1e-13 relative;
* against a 40-digit ``mpmath`` run of the coning recursion, with an
  independent Sutherland-Hodgman clip for the triangles
  (:func:`mp_max_of_affines_mean`): wherever it is accepted, within its bound;
* against plain Monte Carlo at 4 sigma, with parallel and coincident pieces;
* by hypothesis properties that hold within the returned bounds.
"""

import functools
import itertools
import os
import subprocess
import sys
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hhbounds import CampaignConfig, ConvexFunction, Simplex, random_convex, random_simplex
from hhbounds import cones, quadrature
from hhbounds.campaign import _build_block
from hhbounds.cones import coned_means, face_lattice
from hhbounds.quadrature import (
    CONE_MAX_ERROR,
    _hinge_mean,
    _max_of_affines_mean_1d,
    ground_truth,
    has_exact_mean,
    integrate_exact,
    integrate_mc,
)


def vertex_values(f, s: Simplex) -> np.ndarray:
    """``T[i, j]``: piece ``i`` of ``f`` at vertex ``j`` of ``s``."""
    return f.params["slopes"] @ s.vertices.T + f.params["offsets"][:, None]


def campaign_draw(dim: int, pieces: int, rng: np.random.Generator):
    """A ``random_convex`` max of ``pieces`` affines and a random simplex, as a
    campaign draws them (all pieces through one interior anchor)."""
    while True:
        s = random_simplex(dim, rng)
        f = random_convex(dim, "max_of_affines", int(rng.integers(2**31)), simplex=s)
        if len(f.params["offsets"]) == pieces:
            return f, s


def _mp_clip_triangle(T, face, k):
    """Mean over the triangle ``face`` of ``max_i (T w)_i``, by clipping each
    piece's cell from the triangle, in the current mpmath precision."""
    total = mpmath.mpf(0)
    for i in range(k):
        poly = [tuple(mpmath.mpf(int(q == c)) for q in range(3)) for c in range(3)]
        for r in range(k):
            if r == i or not poly:
                continue
            D = [T[i][j] - T[r][j] for j in face]
            dist = [mpmath.fsum(x * y for x, y in zip(D, P)) for P in poly]
            keep = [d > 0 or (d == 0 and r > i) for d in dist]
            clipped = []
            for q, nq in zip(range(len(poly)), [*range(1, len(poly)), 0]):
                if keep[q]:
                    clipped.append(poly[q])
                if keep[q] != keep[nq]:
                    t = dist[q] / (dist[q] - dist[nq])
                    clipped.append(tuple(a + t * (b - a) for a, b in zip(poly[q], poly[nq])))
            poly = clipped
        L = [mpmath.fsum(T[i][j] * P[c] for c, j in enumerate(face)) for P in poly]
        for q in range(1, len(poly) - 1):
            cross = (poly[q][1] - poly[0][1]) * (poly[q + 1][2] - poly[0][2]) - (
                poly[q][2] - poly[0][2]
            ) * (poly[q + 1][1] - poly[0][1])
            total += cross * (L[0] + L[q] + L[q + 1]) / 3
    return total


def mp_max_of_affines_mean(f, s: Simplex, dps: int = 40):
    """``(mean, error)`` of ``f`` over ``s`` by the coning recursion at ``dps`` digits.

    The vertex values are exact products of the float parameters; pieces
    that another is at least at every vertex are dropped, as they are at
    most it on the whole simplex.  Each face's point solves its equations
    by normal equations (least squares where the face has fewer vertices
    than ``f`` pieces).  Pieces drawn
    through one point meet there only up to the rounding of their float
    parameters, so where they still differ by ``rho`` the cone means are off
    by at most ``rho / size`` each; ``error`` adds these up, weighted as the
    recursion weighs them.  A face of four or more vertices whose pieces
    differ by more than 1e-12 has no common point, and the result is None.
    """
    with mpmath.workdps(dps):
        rows = {tuple(row) for row in np.column_stack([f.params["slopes"], f.params["offsets"]])}
        V = [[mpmath.mpf(float(x)) for x in v] + [mpmath.mpf(1)] for v in s.vertices]
        T = [[mpmath.fsum(mpmath.mpf(float(a)) * x for a, x in zip(row, v)) for v in V]
             for row in sorted(rows)]
        T = [t for t in T if not any(u != t and all(map(mpmath.mpf.__le__, t, u)) for u in T)]
        k = len(T)

        @functools.lru_cache(maxsize=None)
        def mean(face):
            if len(face) == 3:
                return _mp_clip_triangle(T, face, k), mpmath.mpf(0)
            size = len(face)
            A = mpmath.matrix([[T[i][j] - T[0][j] for j in face] for i in range(1, k)]
                              + [[1] * size])
            e = mpmath.matrix([0] * (k - 1) + [1])
            if k <= size:
                g = mpmath.matrix([mpmath.mpf(1) / size] * size)
                w = g + A.T * mpmath.lu_solve(A * A.T, e - A * g)
            else:
                w = mpmath.lu_solve(A.T * A, A.T * e)
            w = [w[q] / mpmath.fsum(w) for q in range(size)]
            values = [mpmath.fsum(T[i][j] * w[c] for c, j in enumerate(face)) for i in range(k)]
            rho = (max(values) - min(values)) / 2
            if rho > 1e-12:
                return None
            subs = [mean(face[:q] + face[q + 1 :]) for q in range(size)]
            if None in subs:
                return None
            c, ratio = (max(values) + min(values)) / 2, mpmath.mpf(size - 1) / size
            value = c + ratio * mpmath.fsum(w[q] * (subs[q][0] - c) for q in range(size))
            error = mpmath.fsum(abs(w[q]) * (ratio * subs[q][1] + rho / size) for q in range(size))
            return value, error

        return mean(tuple(range(len(V))))


class TestAgainstClosedForms:
    @pytest.mark.parametrize("dim", range(2, 9))
    def test_two_pieces_match_the_hinge_form(self, dim):
        rng = np.random.default_rng(400 + dim)
        for _ in range(6):
            f, s = campaign_draw(dim, 2, rng)
            (a1, a2), (b1, b2) = f.params["slopes"], f.params["offsets"]
            want = float(a1 @ s.centroid + b1) + _hinge_mean(s.vertices @ (a2 - a1) + (b2 - b1))
            got, bound = coned_means(vertex_values(f, s))
            assert abs(got - want) <= 1e-13 * max(1.0, abs(want)) and bound <= CONE_MAX_ERROR

    def test_intervals_match_the_breakpoint_rule(self):
        # The two triangles (a, b, b) and (b, a, a) of a 1-D function
        # extended constantly in a new direction have x-marginals of
        # densities 2(x - a)/(b - a)^2 and 2(b - x)/(b - a)^2, which average
        # to the uniform density on [a, b].
        rng = np.random.default_rng(410)
        for pieces in (2, 3, 4, 5):
            for _ in range(5):
                f, s = campaign_draw(1, pieces, rng)
                ends = vertex_values(f, s)
                first, _ = coned_means(ends[:, [0, 1, 1]])
                second, _ = coned_means(ends[:, [1, 0, 0]])
                want = _max_of_affines_mean_1d(f, s)
                assert abs((first + second) / 2 - want) <= 1e-13 * max(1.0, abs(want))


class TestAgainstMpmath:
    @pytest.mark.parametrize("dim", range(2, 9))
    def test_within_the_bound_wherever_accepted(self, dim):
        rng = np.random.default_rng(420 + dim)
        accepted = 0
        for pieces in (3, 4, 5) if dim <= 6 else (3, 3, 4, 4):
            f, s = campaign_draw(dim, pieces, rng)
            got, bound = coned_means(vertex_values(f, s))
            if not bound <= CONE_MAX_ERROR:
                continue
            accepted += 1
            assert has_exact_mean(f, s) and integrate_exact(f, s).mean_value == got
            reference, error = mp_max_of_affines_mean(f, s)
            assert error < bound / 100
            assert abs(mpmath.mpf(got) - reference) <= bound + error
        assert accepted >= 2

    def test_campaign_subsimplices(self):
        # the campaign's centred subsimplices may leave out the pieces'
        # common point, and some pieces lie below another on all of them
        cfg = CampaignConfig(function_kinds=("max_of_affines",), dimensions=(3, 5, 7),
                             master_seed=431)
        checked = 0
        for index in range(12):
            _, _, instances, domains = _build_block(cfg, [index])[0]
            f, s = instances["thm4"][0][0], domains["subsimplex"]
            if len(f.params["offsets"]) < 3:
                continue
            got, bound = coned_means(vertex_values(f, s))
            if bound <= CONE_MAX_ERROR:
                reference, error = mp_max_of_affines_mean(f, s)
                assert abs(mpmath.mpf(got) - reference) <= bound + error
                checked += 1
        assert checked >= 4

    def test_above_the_dimension_limit(self):
        f, s = campaign_draw(quadrature.CONE_MAX_DIMENSION + 1, 3, np.random.default_rng(432))
        with mock.patch.object(quadrature, "_coned_mean", side_effect=AssertionError):
            assert not has_exact_mean(f, s)
            assert ground_truth(f, s, mc_samples=500, seed=1) == integrate_mc(f, s, 500, 1)

    def test_rejected_where_faces_have_no_common_point(self):
        # five pieces through one point in 5-D: each 4-vertex face gets five
        # equations in four unknowns, and has no common point
        f, s = campaign_draw(5, 5, np.random.default_rng(430))
        _, bound = coned_means(vertex_values(f, s))
        assert not bound <= CONE_MAX_ERROR
        assert not has_exact_mean(f, s)
        assert mp_max_of_affines_mean(f, s) is None


class TestPricedBeforeTriangles:
    def test_same_domains_accepted_with_fewer_triangle_passes(self):
        # The policy prices the bound from triangle bounds of zero before any
        # triangle: against the full bound, plus the same allowance, it takes
        # and leaves the same means, with the same bits, and the five-piece
        # draws in dims 4-8, whose 4-vertex faces have no common point, skip
        # the triangles.
        rng = np.random.default_rng(460)
        cases = [campaign_draw(dim, pieces, rng)
                 for dim in range(4, 9) for pieces in (5, 5, 3)]
        calls = []
        triangles = cones.triangle_means

        def counting(T3):
            calls.append(len(T3))
            return triangles(T3)

        skipped = accepted = 0
        for f, s in cases:
            T = vertex_values(f, s)
            mean, bound = coned_means(T)
            scale = (np.abs(f.params["slopes"]) @ np.abs(s.vertices).T
                     + np.abs(f.params["offsets"])[:, None]).max()
            bound += (s.dimension + 2) * np.finfo(float).eps * scale
            want = mean if bound <= CONE_MAX_ERROR else None
            del calls[:]
            with mock.patch.object(cones, "triangle_means", counting):
                got = quadrature._coned_mean(f, s)
            assert got == want and (want is None or got.hex() == want.hex())
            if want is not None:
                assert len(calls) == 1
            elif len(f.params["offsets"]) == 5:
                assert not calls
            skipped += not calls
            accepted += want is not None
        assert skipped == 10 and accepted >= 3


def _special(dim: int, case: str, rng: np.random.Generator):
    """A campaign draw of 3-5 pieces with piece 1 made ``case``: "parallel"
    (its slope, another offset) or "coincident" (a copy) to piece 0."""
    f, s = campaign_draw(dim, int(rng.integers(3, 6)), rng)
    slopes, offsets = f.params["slopes"].copy(), f.params["offsets"].copy()
    slopes[1] = slopes[0]
    offsets[1] = offsets[0] + (0.2 if case == "parallel" else 0.0)
    return ConvexFunction("max_of_affines", {"slopes": slopes, "offsets": offsets}), s


class TestAgainstMonteCarlo:
    @pytest.mark.parametrize("dim", range(2, 9))
    def test_within_4_sigma(self, dim):
        rng = np.random.default_rng(440 + dim)
        cases = [campaign_draw(dim, pieces, rng) for pieces in (3, 4, 5)]
        cases += [_special(dim, case, rng) for case in ("parallel", "coincident")]
        exact = 0
        for f, s in cases:
            est = ground_truth(f, s, mc_samples=2)
            if est.method == "monte_carlo":
                continue
            exact += 1
            mc = integrate_mc(f, s, 200_000, seed=int(rng.integers(2**31)))
            assert abs(est.mean_value - mc.mean_value) <= 4 * mc.std_error
        assert exact >= 2

    @pytest.mark.parametrize("dim", [2, 3, 6])
    def test_parallel_and_coincident_pieces_stay_exact(self, dim):
        # the lower of two parallel pieces, and a copy, are dropped first
        rng = np.random.default_rng(450 + dim)
        for case in ("parallel", "coincident"):
            f, s = _special(dim, case, rng)
            assert ground_truth(f, s, mc_samples=2).method == "exact_polynomial"


def _draws(max_dim: int = 5):
    """Hypothesis strategy: a campaign draw of 3-5 pieces in dims 2..max_dim."""
    return st.builds(
        lambda dim, pieces, seed: campaign_draw(dim, pieces, np.random.default_rng(seed)),
        st.integers(2, max_dim),
        st.integers(3, 5),
        st.integers(0, 2**32 - 1),
    )


class TestProperties:
    @settings(max_examples=40, deadline=None)
    @given(_draws(), st.randoms(use_true_random=False))
    def test_permuting_pieces_and_vertices(self, draw, random):
        f, s = draw
        T = vertex_values(f, s)
        mean, bound = coned_means(T)
        pieces, vertices = list(range(T.shape[0])), list(range(T.shape[1]))
        random.shuffle(pieces)
        random.shuffle(vertices)
        same = coned_means(T[pieces])  # the pieces are sorted inside
        assert np.array_equal(same, (mean, bound), equal_nan=True)
        permuted, other = coned_means(T[:, vertices])
        if bound <= CONE_MAX_ERROR and other <= CONE_MAX_ERROR:
            assert abs(permuted - mean) <= bound + other

    @settings(max_examples=40, deadline=None)
    @given(_draws(), st.lists(st.floats(-3.0, 3.0), min_size=9, max_size=9))
    def test_adding_an_affine_function(self, draw, coefficients):
        # the same affine function added to every piece: the mean moves by its
        # value at the centroid, the average of its vertex values
        f, s = draw
        n = s.dimension
        slope, offset = np.array(coefficients[:n]), coefficients[8]
        added = s.vertices @ slope + offset
        T = vertex_values(f, s)
        mean, bound = coned_means(T)
        shifted, other = coned_means(T + added)
        if bound <= CONE_MAX_ERROR and other <= CONE_MAX_ERROR:
            rounding = 4 * np.finfo(float).eps * (np.abs(T).max() + np.abs(added).max())
            assert abs(shifted - (mean + added.mean())) <= bound + other + rounding

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 8), st.integers(0, 2**32 - 1))
    def test_never_used_in_1d_or_for_two_pieces(self, dim, seed):
        rng = np.random.default_rng(seed)
        f, s = campaign_draw(dim, 2 if dim > 1 else int(rng.integers(2, 6)), rng)
        p = f.params
        if dim == 1:
            want = _max_of_affines_mean_1d(f, s)
        else:
            (a1, a2), (b1, b2) = p["slopes"], p["offsets"]
            want = float(a1 @ s.centroid + b1) + _hinge_mean(s.vertices @ (a2 - a1) + (b2 - b1))
        with mock.patch.object(quadrature, "_coned_mean", side_effect=AssertionError):
            assert ground_truth(f, s, mc_samples=2).mean_value == want


def test_face_lattice():
    triangles, member, levels = face_lattice(6)
    assert len(triangles) == 20 and member.shape == (15 + 6 + 1, 6)
    for first, faces, facets in levels:
        for f, face in enumerate(faces):
            assert set(np.flatnonzero(member[first + f])) == set(face)
            below = triangles if len(face) == 4 else next(
                lv for lv in levels if lv[1].shape[1] == len(face) - 1
            )[1]
            for q, facet in enumerate(facets[f]):
                assert list(below[facet]) == [v for v in face if v != face[q]]
    assert [list(t) for t in triangles] == [list(c) for c in itertools.combinations(range(6), 3)]


def test_cones_load_on_the_first_coned_mean():
    # every hh process compiles the package from source; one that takes no
    # coned mean does not compile hhbounds.cones
    child = (
        "import sys\n"
        "import hhbounds\n"
        "before = 'hhbounds.cones' in sys.modules\n"
        "s = hhbounds.standard_simplex(2)\n"
        "f = hhbounds.random_convex(2, 'max_of_affines', 1, simplex=s)\n"
        "print(before, hhbounds.integrate_exact(f, s).method, 'hhbounds.cones' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(quadrature.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", child], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.stdout.split() == ["False", "exact_polynomial", "True"], proc.stderr
