import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from hhbounds import (
    TOL_GEOM,
    DegenerateSimplexError,
    DimensionMismatchError,
    PointOutsideSimplexError,
    Simplex,
    SingularSystemError,
    random_simplex,
    standard_simplex,
)
from hhbounds.geometry import solve_stacked


def hit_ratio_volume(simplex, box_lo, box_hi, count, seed):
    """Independent volume oracle: fraction of box points inside the simplex."""
    rng = np.random.default_rng(seed)
    n = simplex.dimension
    pts = rng.uniform(box_lo, box_hi, size=(count, n))
    inside = simplex.solve_weights(pts).min(axis=1) >= 0.0
    box_vol = float(np.prod(np.full(n, box_hi - box_lo)))
    frac = inside.mean()
    sigma = np.sqrt(frac * (1 - frac) / count)
    return frac * box_vol, 4 * sigma * box_vol


class TestVolume:
    def test_triangle_against_hit_ratio(self):
        s = standard_simplex(2)
        oracle, tol = hit_ratio_volume(s, 0.0, 1.0, 200_000, seed=7)
        assert abs(s.volume - oracle) < tol
        assert abs(s.volume - 0.5) < 1e-15

    def test_4d_standard_against_hit_ratio(self):
        s = standard_simplex(4)
        oracle, tol = hit_ratio_volume(s, 0.0, 1.0, 400_000, seed=11)
        assert abs(s.volume - oracle) < tol
        assert abs(s.volume - 1.0 / 24.0) < 1e-15

    def test_interval_length(self):
        assert Simplex([[2.0], [5.0]]).volume == 3.0

    def test_volume_positive_and_cached(self):
        rng = np.random.default_rng(0)
        for dim in range(1, 7):
            s = random_simplex(dim, rng)
            assert s.volume > 0.0

    def test_centroid_stored_read_only(self):
        s = random_simplex(3, np.random.default_rng(3))
        assert s.centroid is s.centroid
        assert_allclose(s.centroid, s.vertices.mean(axis=0), rtol=0, atol=0)
        with pytest.raises(ValueError):
            s.centroid[0] = 1.0

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateSimplexError):
            Simplex([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
        with pytest.raises(DegenerateSimplexError):
            Simplex([[0.0], [0.0]])

    def test_shape_validation(self):
        with pytest.raises(DimensionMismatchError):
            Simplex([[0.0, 0.0], [1.0, 0.0]])
        with pytest.raises(ValueError):
            Simplex([[0.0], [np.inf]])


class TestExtremeScales:
    """The shape test is scale-free: a simplex scaled by a power of ten in
    1e-300 .. 1e300 is accepted or rejected as at unit scale, with no
    overflow or underflow warning (the suite turns warnings into errors)."""

    SCALES = [10.0**e for e in range(-300, 301, 25)]

    @pytest.mark.parametrize("dim", range(1, 9))
    def test_well_shaped_accepted(self, dim):
        rng = np.random.default_rng(dim)
        for V in (standard_simplex(dim).vertices, random_simplex(dim, rng).vertices):
            for scale in self.SCALES:
                s = Simplex(V * scale)
                assert s.dimension == dim

    @pytest.mark.parametrize("dim", range(1, 9))
    def test_volume_ratios_and_volume_at_any_scale(self, dim):
        # the ratios take unit-scaled edges; the volume reads inf where the
        # determinant overflows and 0.0 where it underflows, and never raises
        rng = np.random.default_rng(900 + dim)
        for V in (standard_simplex(dim).vertices, random_simplex(dim, rng).vertices):
            for scale in (10.0**e for e in range(-150, 151, 25)):
                s = Simplex(V * scale)
                for x in (s.centroid, rng.dirichlet(np.ones(dim + 1)) @ s.vertices):
                    diff = s.barycentric_volumes(x) - s.solve_weights(x)
                    assert np.abs(diff).max() <= TOL_GEOM
                expected = Simplex(V).volume
                for _ in range(dim):
                    expected *= scale
                if expected > sys.float_info.max / math.factorial(dim):
                    assert s.volume == math.inf  # |det| overflows
                elif expected < 1e-300:
                    assert s.volume < 1e-300  # 0.0, or a subnormal on the way
                else:
                    assert math.isclose(s.volume, expected, rel_tol=1e-9)
                assert repr(s).startswith(f"Simplex(dim={dim}, volume=")

    def test_edge_beyond_the_float_range(self):
        # finite vertices whose edge overflows a float: the shape test and
        # the volume ratios take their edges on the vertices scaled by a
        # power of two, so neither warns; the volume reads inf
        s = Simplex([[-1e308], [1e308]])
        assert s.volume == math.inf
        assert s.barycentric_volumes(s.centroid).tolist() == [0.5, 0.5]

    def test_centroid_beyond_the_float_range(self):
        # the coordinate sums overflow a float; the centroid is summed on the
        # vertices scaled by a power of two, so it neither warns nor overflows
        s = Simplex([[-1e308, -1e308], [1e308, -1e308], [-1e308, 1e308]])
        assert np.isfinite(s.centroid).all()
        assert s.contains(s.centroid)

    @pytest.mark.parametrize("scale", [1e-310, 1e-320])
    def test_weights_at_subnormal_scale(self, scale):
        # the exact weights of the stored centroid: at 1e-320 a subnormal
        # holds about 11 bits, so the centroid itself is 1/3 off by 5e-4
        s = Simplex(standard_simplex(2).vertices * scale)
        x, y = (Fraction(v) / Fraction(scale) for v in s.centroid.tolist())
        exact = np.array([float(1 - x - y), float(x), float(y)])
        w = s.solve_weights(s.centroid)
        assert np.abs(w - exact).max() <= TOL_GEOM
        if scale == 1e-310:
            assert np.abs(w - 1.0 / 3.0).max() <= TOL_GEOM
        assert s.contains(s.centroid)
        assert np.abs(s.barycentric_volumes(s.centroid) - w).max() <= TOL_GEOM

    @pytest.mark.parametrize("dim", range(1, 9))
    def test_repeated_and_collinear_rejected(self, dim):
        V = random_simplex(dim, np.random.default_rng(50 + dim)).vertices
        repeated = V.copy()
        repeated[1] = repeated[0]
        bad = [repeated]
        if dim >= 2:
            collinear = V.copy()
            collinear[2] = 0.25 * V[0] + 0.75 * V[1]
            bad.append(collinear)
        for W in bad:
            for scale in self.SCALES:
                with pytest.raises(DegenerateSimplexError):
                    Simplex(W * scale)


class TestConstructorBits:
    """What the constructor and the centred subsimplex compute, bit for bit."""

    @pytest.mark.parametrize("dim", range(1, 9))
    def test_centroid_and_volume(self, dim):
        rng = np.random.default_rng(700 + dim)
        for _ in range(25):
            V = rng.standard_normal((dim + 1, dim))
            s = Simplex(V)
            assert s.centroid.tobytes() == V.mean(axis=0).tobytes()
            E = V[1:] - V[0]
            det = abs(float(E[0, 0])) if dim == 1 else abs(float(np.linalg.det(E)))
            assert s.volume == det / math.factorial(dim)

    @pytest.mark.parametrize("dim", range(1, 9))
    def test_centered_subsimplex_from_a_solve_of_p_alone(self, dim):
        rng = np.random.default_rng(800 + dim)
        for _ in range(25):
            s = random_simplex(dim, rng)
            p = rng.dirichlet(np.full(dim + 1, 2.0)) @ s.vertices
            fraction = float(rng.uniform(0.1, 1.0))
            sub = s.centered_subsimplex(p, fraction)
            t = fraction * ((dim + 1) * float(s.solve_weights(p).min()))
            expected = p + t * (s.vertices - s.centroid)
            assert sub.vertices.tobytes() == expected.tobytes()
            # the weights of p from a stacked solve give the same subsimplex
            others = rng.dirichlet(np.ones(dim + 1), size=3) @ s.vertices
            W = s.solve_weights(np.concatenate((p[None], others)))
            assert s._centered(p, W[0], fraction).vertices.tobytes() == expected.tobytes()


class TestBarycentricSolve:
    def test_centroid_gets_equal_weights(self):
        rng = np.random.default_rng(1)
        for dim in range(1, 7):
            s = random_simplex(dim, rng)
            w = s.solve_weights(s.centroid)
            assert_allclose(w, np.full(dim + 1, 1.0 / (dim + 1)), atol=1e-12)

    def test_vertices_get_unit_weights(self):
        rng = np.random.default_rng(2)
        s = random_simplex(3, rng)
        for j in range(4):
            w = s.solve_weights(s.vertices[j])
            expected = np.zeros(4)
            expected[j] = 1.0
            assert_allclose(w, expected, atol=1e-12)

    def test_2d_point_and_reconstruction(self):
        s = standard_simplex(2)
        x = np.array([0.2, 0.3])
        w = s.solve_weights(x)
        assert_allclose(w, [0.5, 0.2, 0.3], atol=1e-14)
        # substitution oracle: the weights must reproduce the point
        assert_allclose(w @ s.vertices, x, atol=1e-14)

    def test_outside_point_keeps_negative_weight(self):
        s = standard_simplex(2)
        w = s.solve_weights(np.array([0.6, 0.6]))
        assert_allclose(w[0], -0.2, atol=1e-14)

    def test_singular_system_raises_typed_error(self):
        # The constructor rejects degenerate vertices, so make the stacked
        # system singular behind its back: numpy's LinAlgError must surface
        # as the package's own error.
        s = standard_simplex(2)
        s._vertices = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
        with pytest.raises(SingularSystemError) as info:
            s.solve_weights(np.array([0.5, 0.5]))
        assert not isinstance(info.value, np.linalg.LinAlgError)
        assert isinstance(info.value.__cause__, np.linalg.LinAlgError)


class TestStackedSolve:
    """Each row of a stacked solve is solved on its own copy of its
    simplex's system, so it has the bits of a solve of that row alone."""

    @settings(max_examples=60, deadline=None)
    @given(
        dim=st.integers(1, 8),
        exponents=st.lists(st.sampled_from([-1000, -950, -3, 0, 7, 950, 1000]),
                           min_size=1, max_size=5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_each_row_has_the_bits_of_its_solve_alone(self, dim, exponents, seed):
        rng = np.random.default_rng(seed)
        simplices = [Simplex(np.ldexp(random_simplex(dim, rng).vertices, e)) for e in exponents]
        owners = rng.permutation(np.repeat(np.arange(len(simplices)),
                                           rng.integers(1, 13, size=len(simplices))))
        points = np.stack([rng.dirichlet(np.ones(dim + 1)) @ simplices[o].vertices
                           for o in owners])
        W = solve_stacked(simplices, points, owners)
        assert W.shape == (len(points), dim + 1)
        for row, o, w in zip(points, owners, W):
            assert w.tobytes() == simplices[o].solve_weights(row).tobytes()
        first = owners == 0
        alone = solve_stacked(simplices[:1], points[first])  # owners=None: simplices[0]
        assert alone.tobytes() == W[first].tobytes()


class TestBarycentricVolumes:
    def test_centroid_ratios(self):
        rng = np.random.default_rng(3)
        for dim in (1, 2, 4):
            s = random_simplex(dim, rng)
            w = s.barycentric_volumes(s.centroid)
            assert_allclose(w, np.full(dim + 1, 1.0 / (dim + 1)), atol=1e-12)

    def test_vertex_gives_indicator(self):
        s = standard_simplex(3)
        w = s.barycentric_volumes(s.vertices[2])
        expected = np.zeros(4)
        expected[2] = 1.0
        assert_allclose(w, expected, atol=1e-12)

    def test_outside_point_rejected(self):
        s = standard_simplex(2)
        with pytest.raises(PointOutsideSimplexError):
            s.barycentric_volumes(np.array([0.6, 0.6]))

    def test_cross_method_agreement_random_3d(self):
        rng = np.random.default_rng(4)
        s = random_simplex(3, rng)
        x = rng.dirichlet(np.ones(4)) @ s.vertices
        w_solve = s.solve_weights(x)
        w_vol = s.barycentric_volumes(x)
        assert np.abs(w_solve - w_vol).max() < 1e-10


class TestInvariants:
    def test_cross_method_agreement_campaign(self):
        # 25 interior points per dimension 1..8, both routes within 1e-9
        rng = np.random.default_rng(5)
        for dim in range(1, 9):
            s = random_simplex(dim, rng)
            for _ in range(25):
                x = rng.dirichlet(np.ones(dim + 1)) @ s.vertices
                diff = s.solve_weights(x) - s.barycentric_volumes(x)
                assert np.abs(diff).max() < 1e-9

    def test_partition_of_volume(self):
        rng = np.random.default_rng(6)
        for dim in range(1, 7):
            s = random_simplex(dim, rng)
            p = rng.dirichlet(np.full(dim + 1, 2.0)) @ s.vertices
            total = sum(s.replace_vertex(i, p).volume for i in range(dim + 1))
            assert abs(total - s.volume) < 1e-10 * s.volume

    def test_weights_are_affine(self):
        rng = np.random.default_rng(7)
        for dim in (1, 3, 5):
            s = random_simplex(dim, rng)
            for _ in range(20):
                x = rng.dirichlet(np.ones(dim + 1)) @ s.vertices
                y = rng.dirichlet(np.ones(dim + 1)) @ s.vertices
                alpha = rng.uniform()
                mixed = s.solve_weights(alpha * x + (1 - alpha) * y)
                expected = alpha * s.solve_weights(x) + (1 - alpha) * s.solve_weights(y)
                assert np.abs(mixed - expected).max() < 1e-10


class TestReplaceVertex:
    def test_identity_replacement(self):
        s = standard_simplex(2)
        r = s.replace_vertex(1, s.vertices[1])
        assert_allclose(r.vertices, s.vertices)

    def test_centroid_replacement_volume(self):
        s = standard_simplex(2)
        r = s.replace_vertex(0, s.centroid)
        assert abs(r.volume - 1.0 / 6.0) < 1e-15

    def test_volume_matches_weight(self):
        rng = np.random.default_rng(8)
        s = random_simplex(4, rng)
        p = rng.dirichlet(np.full(5, 2.0)) @ s.vertices
        w = s.solve_weights(p)
        for i in range(5):
            assert abs(s.replace_vertex(i, p).volume - w[i] * s.volume) < 1e-12 * s.volume

    def test_facet_point_degenerate(self):
        s = standard_simplex(2)
        # midpoint of the facet opposite vertex 0
        p = 0.5 * (s.vertices[1] + s.vertices[2])
        with pytest.raises(DegenerateSimplexError):
            s.replace_vertex(0, p)

    def test_outside_point_rejected(self):
        s = standard_simplex(2)
        with pytest.raises(PointOutsideSimplexError):
            s.replace_vertex(0, np.array([2.0, 2.0]))


class TestHomothety:
    def test_identity_at_one(self):
        s = standard_simplex(3)
        assert_allclose(s.homothety_about_centroid(1.0).vertices, s.vertices)

    def test_centroid_preserved(self):
        rng = np.random.default_rng(9)
        s = random_simplex(5, rng)
        for t in np.arange(0.1, 1.01, 0.1):
            sub = s.homothety_about_centroid(float(t))
            assert np.abs(sub.centroid - s.centroid).max() < 1e-12

    def test_interval_half(self):
        s = Simplex([[0.0], [1.0]])
        sub = s.homothety_about_centroid(0.5)
        assert_allclose(np.sort(sub.vertices.ravel()), [0.25, 0.75])

    def test_scale_out_of_range(self):
        s = standard_simplex(2)
        with pytest.raises(ValueError):
            s.homothety_about_centroid(0.0)
        with pytest.raises(ValueError):
            s.homothety_about_centroid(1.5)


class TestCenteredSubsimplex:
    def test_identity_at_centroid_full_scale(self):
        s = standard_simplex(2)
        sub = s.centered_subsimplex(s.centroid, 1.0)
        assert_allclose(sub.vertices, s.vertices, atol=1e-15)

    def test_interval_quarter_scale(self):
        # t_max = 2 * 0.25 = 0.5, so fraction 0.5 scales by 0.25
        s = Simplex([[0.0], [1.0]])
        p = np.array([0.25])
        sub = s.centered_subsimplex(p, 0.5)
        assert_allclose(np.sort(sub.vertices.ravel()), [0.125, 0.375])
        assert abs(sub.centroid[0] - 0.25) < 1e-15

    def test_boundary_scale_touches_facet(self):
        s = Simplex([[0.0], [1.0]])
        sub = s.centered_subsimplex(np.array([0.25]), 1.0)
        assert_allclose(np.sort(sub.vertices.ravel()), [0.0, 0.5])
        assert all(s.contains(v) for v in sub.vertices)

    def test_centroid_prescribed(self):
        rng = np.random.default_rng(10)
        for dim in (2, 4, 6):
            s = random_simplex(dim, rng)
            p = rng.dirichlet(np.full(dim + 1, 2.0)) @ s.vertices
            sub = s.centered_subsimplex(p, 0.8)
            assert np.abs(sub.centroid - p).max() < 1e-12
            assert all(s.contains(v) for v in sub.vertices)

    def test_escape_raises(self):
        # a fraction above 1 would put a vertex outside the parent
        s = Simplex([[0.0], [1.0]])
        for fraction in (1.02, 2.0, np.inf):
            with pytest.raises(ValueError):
                s.centered_subsimplex(np.array([0.25]), fraction)

    def test_scale_must_be_positive(self):
        s = standard_simplex(2)
        for fraction in (0.0, -0.5, np.nan):
            with pytest.raises(ValueError):
                s.centered_subsimplex(s.centroid, fraction)

    def test_center_must_be_interior(self):
        s = standard_simplex(2)
        for p in ([0.5, 0.5], [0.0, 0.0], [0.6, 0.6]):
            with pytest.raises(PointOutsideSimplexError):
                s.centered_subsimplex(np.array(p), 0.5)


class TestContains:
    def test_vertices_and_centroid(self):
        s = standard_simplex(3)
        assert all(s.contains(v) for v in s.vertices)
        assert s.contains(s.centroid)

    def test_outside(self):
        s = standard_simplex(2)
        assert not s.contains(np.array([0.6, 0.6]))

    def test_dimension_mismatch(self):
        s = standard_simplex(2)
        with pytest.raises(DimensionMismatchError):
            s.contains(np.array([0.1, 0.1, 0.1]))


class TestJson:
    def test_round_trip(self):
        rng = np.random.default_rng(11)
        s = random_simplex(4, rng)
        data = s.to_json_dict()
        assert data["dimension"] == 4
        back = Simplex.from_json_dict(data)
        assert_allclose(back.vertices, s.vertices)

    def test_dimension_mismatch_detected(self):
        s = standard_simplex(2)
        data = s.to_json_dict()
        data["dimension"] = 3
        with pytest.raises(DimensionMismatchError):
            Simplex.from_json_dict(data)
