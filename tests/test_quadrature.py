import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from hhbounds import (
    ConvexFunction,
    DimensionMismatchError,
    IntegralEstimate,
    KINDS,
    NonFiniteValueError,
    Simplex,
    UnsupportedKindError,
    ground_truth,
    integrate_exact,
    integrate_mc,
    random_convex,
    random_simplex,
    sample_uniform,
    standard_simplex,
)
from hhbounds.quadrature import (
    MC_BLOCK_ROWS,
    _hinge_mean,
    _mean_and_error,
    _row_sums,
    ground_truth_recipe,
    ground_truths,
    integrate_mc_shared,
    replay_ground_truth,
)

UNIT_INTERVAL = Simplex([[0.0], [1.0]])
SQ_1D = ConvexFunction(
    "quadratic_psd", {"matrix": [[1.0]], "slope": [0.0], "offset": 0.0}, "x^2"
)
SQ_2D = ConvexFunction(
    "quadratic_psd", {"matrix": np.eye(2), "slope": np.zeros(2), "offset": 0.0}, "|x|^2"
)


class TestSampleUniform:
    def test_deterministic_byte_identical(self):
        s = standard_simplex(3)
        a = sample_uniform(s, 1000, seed=42)
        b = sample_uniform(s, 1000, seed=42)
        assert a.tobytes() == b.tobytes()

    def test_all_samples_inside_random_5d(self):
        rng = np.random.default_rng(0)
        s = random_simplex(5, rng)
        pts = sample_uniform(s, 10_000, seed=1)
        assert s.solve_weights(pts).min() >= -1e-9

    def test_sample_mean_hits_centroid(self):
        # CLT oracle: per-coordinate mean within 3 standard errors
        rng = np.random.default_rng(2)
        s = random_simplex(3, rng)
        pts = sample_uniform(s, 1_000_000, seed=3)
        se = pts.std(axis=0, ddof=1) / np.sqrt(len(pts))
        assert np.all(np.abs(pts.mean(axis=0) - s.centroid) < 3 * se)

    def test_count_validation(self):
        with pytest.raises(ValueError):
            sample_uniform(standard_simplex(2), 0, seed=0)

    @pytest.mark.parametrize("dim", range(1, 10))
    def test_bit_identical_to_reference(self, dim):
        # dims 1-9 give weight rows 2-10 wide: both sides of the width-8
        # switch in _row_sums
        def reference(s, count, seed):
            weights = np.random.default_rng(seed).standard_exponential(
                (count, s.dimension + 1)
            )
            weights /= weights.sum(axis=1, keepdims=True)
            return weights @ s.vertices

        s = random_simplex(dim, np.random.default_rng(dim))
        for count, seed in ((1, 5), (7, 6), (20_001, 7)):
            assert np.array_equal(sample_uniform(s, count, seed), reference(s, count, seed))


class TestRowSums:
    @pytest.mark.parametrize("width", range(1, 41))
    def test_matches_numpy_row_sum(self, width):
        rng = np.random.default_rng(width)
        # mixed signs and magnitudes make any change of summation order show
        W = rng.standard_normal((5000, width)) * 10.0 ** rng.uniform(-8, 8, (5000, width))
        want = W.sum(axis=1)
        assert np.array_equal(_row_sums(W), want)
        # a transposed view of the (width, m) layout gives the same sums
        assert np.array_equal(_row_sums(np.ascontiguousarray(W.T).T), want)


class TestIntegrateMC:
    def test_constant_function(self):
        f = ConvexFunction("affine", {"slope": [0.0, 0.0], "offset": 3.25})
        est = integrate_mc(f, standard_simplex(2), 1000, seed=4)
        assert est.mean_value == 3.25
        assert est.std_error == 0.0
        assert est.method == "monte_carlo" and est.samples == 1000

    def test_sq_on_unit_interval(self):
        est = integrate_mc(SQ_1D, UNIT_INTERVAL, 1_000_000, seed=5)
        assert abs(est.mean_value - 1.0 / 3.0) < 4 * est.std_error

    def test_sq_norm_on_triangle(self):
        est = integrate_mc(SQ_2D, standard_simplex(2), 1_000_000, seed=6)
        assert abs(est.mean_value - 1.0 / 3.0) < 4 * est.std_error

    def test_error_scaling_with_count(self):
        # std_error ~ 1/sqrt(count): quadrupling the count must halve it
        s = standard_simplex(2)
        f = random_convex(2, "log_sum_exp", 8, simplex=s)
        for seed in range(50):
            small = integrate_mc(f, s, 2000, seed=seed)
            big = integrate_mc(f, s, 8000, seed=seed + 1000)
            ratio = small.std_error / big.std_error
            assert 2.0 * 0.75 < ratio < 2.0 * 1.25

    def test_overflow_raises_typed_error_without_warnings(self):
        # exp(800 x) overflows on most of [0, 1]: the mean is inf and the
        # std error NaN.  This used to warn twice and then raise a bare
        # ValueError from IntegralEstimate.
        f = ConvexFunction("exp_affine", {"slope": [800.0], "offset": 0.0})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteValueError, match="exp_affine on a 1-D simplex"):
                ground_truth(f, UNIT_INTERVAL, 1000, seed=1)
        assert issubclass(NonFiniteValueError, ValueError)


def _one_shot_values(f, s, count, seed):
    """The pre-blocking integrate_mc values: all rows drawn, normalised and evaluated at once."""
    weights = np.random.default_rng(seed).standard_exponential((count, s.dimension + 1))
    weights /= weights.sum(axis=1, keepdims=True)
    return np.asarray(f(weights @ s.vertices), dtype=float)


class _Recording:
    """A function that keeps every batch of values it returns."""

    def __init__(self, f):
        self.f, self.dim, self.batches = f, f.dim, []

    def __call__(self, X):
        self.batches.append(self.f(X))
        return self.batches[-1]


class TestBlockedMC:
    # counts on both sides of a block boundary, including a one-row tail
    COUNTS = (2, MC_BLOCK_ROWS - 1, MC_BLOCK_ROWS, MC_BLOCK_ROWS + 1, 100_000)

    @pytest.mark.parametrize("dim", range(1, 10))
    def test_bit_identical_to_one_shot(self, dim):
        s = random_simplex(dim, np.random.default_rng(dim))
        for k, kind in enumerate(KINDS):
            f = random_convex(dim, kind, 100 * dim + k, simplex=s)
            for count in self.COUNTS:
                want = _one_shot_values(f, s, count, 31 + k)
                recording = _Recording(f)
                est = integrate_mc(recording, s, count, 31 + k)
                assert np.array_equal(np.concatenate(recording.batches), want)
                assert est == IntegralEstimate(
                    float(want.mean()),
                    float(want.std(ddof=1) / np.sqrt(count)),
                    "monte_carlo",
                    count,
                )

    @pytest.mark.parametrize("dim", (1, 2, 5, 9))
    def test_shared_pass_equals_each_pair_alone(self, dim):
        # the replay guarantee: an estimate from a shared pass is the one a
        # recipe replays through integrate_mc of its pair alone
        rng = np.random.default_rng(40 + dim)
        parent = random_simplex(dim, rng)
        pairs = [
            (random_convex(dim, kind, 7 * k, simplex=parent), parent)
            for k, kind in enumerate(KINDS)
        ]
        pairs.append((pairs[2][0], parent.homothety_about_centroid(0.3)))
        pairs.append((pairs[4][0], random_simplex(dim, rng)))
        for count in (2, MC_BLOCK_ROWS + 1, 3 * MC_BLOCK_ROWS + 5):
            shared = [_Recording(f) for f, _ in pairs]
            alone = [_Recording(f) for f, _ in pairs]
            got = integrate_mc_shared([(r, s) for r, (_, s) in zip(shared, pairs)], count, 11)
            assert got == [integrate_mc(r, s, count, 11) for r, (_, s) in zip(alone, pairs)]
            for a, b in zip(shared, alone):
                assert np.array_equal(np.concatenate(a.batches), np.concatenate(b.batches))

    def test_mixed_dimensions_rejected(self):
        pairs = [(random_convex(1, "affine", 1), UNIT_INTERVAL), (SQ_2D, standard_simplex(2))]
        with pytest.raises(DimensionMismatchError):
            integrate_mc_shared(pairs, 100, 0)

    def test_count_validation(self):
        with pytest.raises(ValueError):
            integrate_mc_shared([(SQ_1D, UNIT_INTERVAL)], 1, 0)
        assert integrate_mc_shared([], 100, 0) == []

    def test_in_place_error_has_the_bits_of_std(self):
        # the squared deviations overwrite the values, with the steps of
        # numpy's std: 550 arrays of 2 to 10^5 values at assorted scales
        rng = np.random.default_rng(550)
        sizes = [*range(2, 52), *np.unique(np.geomspace(52, 100_000, 502).astype(int))]
        draws = (rng.standard_normal, rng.standard_exponential, rng.random)
        for k, n in enumerate(sizes):
            v = draws[k % 3](n) * 10.0 ** rng.integers(-8, 9) + rng.choice([0.0, 1.0, 1e6])
            want = (float(v.mean()), float(v.std(ddof=1) / np.sqrt(n)))
            assert _mean_and_error(v.copy()) == want, n


class TestIntegrateExact:
    def test_second_moments_cached_read_only(self):
        from hhbounds.quadrature import _second_moments

        for np1 in range(2, 10):
            moments = _second_moments(np1)
            assert moments is _second_moments(np1) and not moments.flags.writeable
            expected = (np.ones((np1, np1)) + np.eye(np1)) / (np1 * (np1 + 1))
            assert moments.tobytes() == expected.tobytes()

    def test_affine_mean_is_centroid_value(self):
        rng = np.random.default_rng(9)
        for dim in (1, 3, 5):
            s = random_simplex(dim, rng)
            f = random_convex(dim, "affine", 10 + dim)
            est = integrate_exact(f, s)
            assert est.method == "exact_polynomial"
            assert est.std_error == 0.0 and est.samples == 0
            assert abs(est.mean_value - f(s.centroid)) < 1e-14

    def test_sq_on_unit_interval_exact(self):
        est = integrate_exact(SQ_1D, UNIT_INTERVAL)
        assert abs(est.mean_value - 1.0 / 3.0) < 1e-15

    def test_against_symbolic_integration(self):
        # independent oracle: sympy integrates a random quadratic over the
        # standard triangle
        import sympy as sp

        rng = np.random.default_rng(12)
        A = rng.standard_normal((2, 2))
        M = A.T @ A
        slope = rng.standard_normal(2)
        offset = float(rng.standard_normal())
        f = ConvexFunction(
            "quadratic_psd", {"matrix": M, "slope": slope, "offset": offset}
        )
        x, y = sp.symbols("x y")
        expr = (
            M[0, 0] * x**2
            + (M[0, 1] + M[1, 0]) * x * y
            + M[1, 1] * y**2
            + slope[0] * x
            + slope[1] * y
            + offset
        )
        exact = sp.integrate(sp.integrate(expr, (y, 0, 1 - x)), (x, 0, 1)) / sp.Rational(1, 2)
        est = integrate_exact(f, standard_simplex(2))
        assert abs(est.mean_value - float(exact)) < 1e-12

    def test_consistency_with_mc_across_dims(self):
        # exact and MC must agree within 4 standard errors
        rng = np.random.default_rng(13)
        cases = 0
        for dim in range(1, 7):
            for _ in range(17):
                s = random_simplex(dim, rng)
                f = random_convex(dim, "quadratic_psd", int(rng.integers(2**31)))
                exact = integrate_exact(f, s)
                mc = integrate_mc(f, s, 100_000, seed=int(rng.integers(2**31)))
                assert abs(exact.mean_value - mc.mean_value) < 4 * mc.std_error
                cases += 1
        assert cases == 102

    def test_linearity(self):
        rng = np.random.default_rng(14)
        s = random_simplex(3, rng)
        f = random_convex(3, "quadratic_psd", 15)
        g = random_convex(3, "quadratic_psd", 16)
        alpha, beta = 2.0, 0.5
        combo = ConvexFunction(
            "quadratic_psd",
            {
                "matrix": alpha * f.params["matrix"] + beta * g.params["matrix"],
                "slope": alpha * f.params["slope"] + beta * g.params["slope"],
                "offset": alpha * f.params["offset"] + beta * g.params["offset"],
            },
        )
        lhs = integrate_exact(combo, s).mean_value
        rhs = alpha * integrate_exact(f, s).mean_value + beta * integrate_exact(g, s).mean_value
        assert abs(lhs - rhs) < 1e-13 * max(1.0, abs(lhs))

    def test_unsupported_kind(self):
        f = random_convex(2, "log_sum_exp", 17)
        with pytest.raises(UnsupportedKindError):
            integrate_exact(f, standard_simplex(2))

    def test_second_moment_formula_against_mc(self):
        # E[w_i w_j] = (1 + delta_ij)/((n+1)(n+2)) under the uniform measure
        rng = np.random.default_rng(18)
        for dim in (1, 2, 4):
            s = random_simplex(dim, rng)
            pts = sample_uniform(s, 400_000, seed=dim)
            W = s.solve_weights(pts)
            emp = (W[:, :, None] * W[:, None, :]).mean(axis=0)
            np1 = dim + 1
            expected = (np.ones((np1, np1)) + np.eye(np1)) / (np1 * (np1 + 1))
            assert np.abs(emp - expected).max() < 5e-3

    def test_overflowing_closed_form_mean_raises_typed_error(self):
        # the Gram matrix of diag(1e308) on vertices of size 10 overflows;
        # the suite turns warnings into errors, so none may escape matmul
        f = ConvexFunction(
            "quadratic_psd",
            {"matrix": np.eye(2) * 1e308, "slope": np.zeros(2), "offset": 0.0},
        )
        s = Simplex([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
        with pytest.raises(NonFiniteValueError, match="quadratic_psd on a 2-D simplex"):
            ground_truth(f, s, 1000, seed=1)


def _rational_hinge_mean(t):
    """Mean of max(0, x) over nodes ``t`` (distinct), in exact arithmetic.

    ``(x)_+^(n+1)[t_0..t_n] / (n+1)``, with the divided difference written
    out as ``sum_k (t_k)_+^(n+1) / prod_{j != k} (t_k - t_j)``.
    """
    nodes = [Fraction(float(x)) for x in t]
    total = Fraction(0)
    for k, tk in enumerate(nodes):
        denominator = Fraction(1)
        for j, tj in enumerate(nodes):
            if j != k:
                denominator *= tk - tj
        total += max(tk, Fraction(0)) ** len(nodes) / denominator
    return total / len(nodes)


def _hinge(slope, threshold):
    return ConvexFunction(
        "hinge_distance", {"slope": np.atleast_1d(slope), "threshold": threshold}
    )


def _max_1d(slopes, offsets):
    return ConvexFunction(
        "max_of_affines", {"slopes": np.reshape(slopes, (-1, 1)), "offsets": offsets}
    )


def _dense_trapezoid_mean(f, lo, hi, points=200_001):
    x = np.linspace(lo, hi, points)
    y = f(x[:, None])
    return float((np.diff(x) * (y[:-1] + y[1:])).sum() / (2.0 * (hi - lo)))


def _point_on_kink(f, s):
    """The mean of the points where the hinge's kink crosses the edges of ``s``.

    They are the vertices of the simplex's section by the kink hyperplane,
    so their mean lies on the kink and, when it cuts the simplex, inside it.
    """
    t = s.vertices @ f.params["slope"] - f.params["threshold"]
    crossings = [
        s.vertices[i] + t[i] / (t[i] - t[j]) * (s.vertices[j] - s.vertices[i])
        for i in range(len(t))
        for j in range(len(t))
        if t[i] < 0.0 < t[j]
    ]
    return np.mean(crossings, axis=0)


class TestHingeMean:
    @pytest.mark.parametrize("dim", range(1, 9))
    def test_against_mc(self, dim):
        # the parent simplex, and subsimplices centred on the kink, so each
        # holds a fair share of both sides however small it is
        rng = np.random.default_rng(60 + dim)
        for _ in range(4):
            parent = random_simplex(dim, rng)
            f = random_convex(dim, "hinge_distance", int(rng.integers(2**31)), simplex=parent)
            p = _point_on_kink(f, parent)
            for scale in (1.0, 0.5, 0.2):
                s = parent
                if scale < 1.0:
                    s = parent.centered_subsimplex(p, scale)
                exact = integrate_exact(f, s)
                assert exact.method == "exact_polynomial"
                mc = integrate_mc(f, s, 100_000, seed=int(rng.integers(2**31)))
                assert abs(exact.mean_value - mc.mean_value) <= 4 * mc.std_error

    def test_against_rational_divided_difference(self):
        rng = np.random.default_rng(61)
        for _ in range(500):
            t = rng.standard_normal(int(rng.integers(1, 10))) * 10.0 ** rng.uniform(-3, 3)
            want = float(_rational_hinge_mean(t))
            assert abs(_hinge_mean(t) - want) <= 1e-14 * max(1.0, np.abs(t).max())

    def test_near_coincident_nodes_straddling_the_kink(self):
        # a cluster of width eps around 0, and one around a point near 0:
        # the error stays at round-off of the largest node
        rng = np.random.default_rng(62)
        for eps in (1e-3, 1e-6, 1e-9, 1e-12, 1e-15):
            for _ in range(20):
                t = rng.uniform(-1.0, 1.0, int(rng.integers(2, 10))) * eps
                t += rng.choice([0.0, 0.3 * eps, -0.3 * eps])
                if t.min() >= 0.0 or t.max() <= 0.0 or len(set(t)) < len(t):
                    continue
                got = _hinge_mean(t)
                assert 0.0 <= got <= t.max()
                want = float(_rational_hinge_mean(t))
                assert abs(got - want) <= 1e-15 * np.abs(t).max()

    def test_coincident_nodes_against_beta_marginal(self):
        # on the standard simplex x_1 ~ Beta(1, n), so the mean of
        # max(0, x_1 - c) is (1 - c)^(n+1) / (n+1); n of the n+1 nodes coincide
        for dim in range(1, 9):
            s = standard_simplex(dim)
            for c in (0.05, 0.3, 0.8):
                f = _hinge(np.eye(dim)[0], c)
                want = (1.0 - c) ** (dim + 1) / (dim + 1)
                assert abs(integrate_exact(f, s).mean_value - want) <= 1e-15

    def test_simplex_on_one_side_of_the_kink(self):
        rng = np.random.default_rng(63)
        for dim in range(1, 9):
            s = random_simplex(dim, rng)
            slope = rng.standard_normal(dim)
            t = s.vertices @ slope
            above = _hinge(slope, float(t.min()) - 0.5)
            affine = ConvexFunction("affine", {"slope": slope, "offset": 0.5 - t.min()})
            got = integrate_exact(above, s).mean_value
            assert got == pytest.approx(integrate_exact(affine, s).mean_value, rel=1e-14)
            below = _hinge(slope, float(t.max()) + 0.5)
            assert integrate_exact(below, s).mean_value == 0.0

    def test_1d_against_antiderivative(self):
        # mean of max(0, a x - c) over [lo, hi] is (F(hi) - F(lo)) / (hi - lo)
        # with F(x) = max(0, a x - c)^2 / (2 a)
        rng = np.random.default_rng(64)
        for _ in range(200):
            lo = float(rng.normal())
            hi = lo + float(rng.exponential()) + 0.01
            a = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 3.0))
            c = a * float(rng.uniform(lo - 0.5, hi + 0.5))
            F = lambda x: max(0.0, a * x - c) ** 2 / (2.0 * a)  # noqa: E731
            want = (F(hi) - F(lo)) / (hi - lo)
            got = integrate_exact(_hinge(a, c), Simplex([[hi], [lo]])).mean_value
            assert got == pytest.approx(want, rel=1e-13, abs=1e-15)


class TestMaxOfAffines1D:
    def test_against_mc(self):
        rng = np.random.default_rng(70)
        for _ in range(30):
            parent = random_simplex(1, rng)
            f = random_convex(1, "max_of_affines", int(rng.integers(2**31)), simplex=parent)
            for scale in (1.0, 0.2):
                s = parent.homothety_about_centroid(scale)
                exact = integrate_exact(f, s)
                mc = integrate_mc(f, s, 100_000, seed=int(rng.integers(2**31)))
                assert abs(exact.mean_value - mc.mean_value) <= 4 * mc.std_error

    def test_against_dense_trapezoid(self):
        rng = np.random.default_rng(71)
        for _ in range(30):
            k = int(rng.integers(1, 7))
            f = _max_1d(rng.standard_normal(k), rng.standard_normal(k))
            lo = float(rng.normal())
            hi = lo + float(rng.exponential()) + 0.01
            want = _dense_trapezoid_mean(f, lo, hi)
            got = integrate_exact(f, Simplex([[lo], [hi]])).mean_value
            assert abs(got - want) <= 1e-9 * max(1.0, abs(want))

    def test_parallel_pieces(self):
        # equal slopes never intersect; a dominated piece and a duplicate
        # piece change nothing
        f = _max_1d([1.0, 1.0, -0.5, -0.5], [0.0, 0.3, 0.1, 0.1])
        s = Simplex([[-1.0], [2.0]])
        want = _dense_trapezoid_mean(f, -1.0, 2.0)
        assert integrate_exact(f, s).mean_value == pytest.approx(want, abs=1e-9)
        lines = _max_1d([2.0, 2.0], [0.0, 1.0])
        assert integrate_exact(lines, s).mean_value == pytest.approx(2.0 * 0.5 + 1.0)

    def test_breakpoints_outside_the_interval(self):
        # the pieces cross at 0, left of [0.5, 2], and at the end point of
        # [0, 1]: the function is affine on each interval
        f = _max_1d([1.0, -1.0], [0.0, 0.0])
        assert integrate_exact(f, Simplex([[2.0], [0.5]])).mean_value == 1.25
        assert integrate_exact(f, Simplex([[0.0], [1.0]])).mean_value == 0.5
        assert integrate_exact(f, Simplex([[-3.0], [-1.0]])).mean_value == 2.0

    def test_higher_dimensions_unsupported(self):
        # three pieces in 2-D take the coned mean; five pieces through one
        # point in 5-D meet the 4-vertex faces at no common point, so they
        # have no exact mean and take Monte Carlo
        s = standard_simplex(2)
        f = random_convex(2, "max_of_affines", 1, simplex=s)
        assert len(f.params["offsets"]) == 3
        est = ground_truth(f, s, mc_samples=500, seed=1)
        assert est == integrate_exact(f, s) and est.method == "exact_polynomial"
        s5 = standard_simplex(5)
        f5 = random_convex(5, "max_of_affines", 1, simplex=s5)
        assert len(f5.params["offsets"]) == 5
        with pytest.raises(UnsupportedKindError, match="coned mean"):
            integrate_exact(f5, s5)
        assert ground_truth(f5, s5, mc_samples=500, seed=1) == integrate_mc(f5, s5, 500, 1)
        g = random_convex(1, "max_of_affines", 3, simplex=UNIT_INTERVAL)
        assert ground_truth(g, UNIT_INTERVAL, mc_samples=500, seed=1).method == (
            "exact_polynomial"
        )


def _two_pieces(dim, rng, case):
    """Two affine pieces through an interior anchor; ``case`` picks their slopes.

    "crossing" draws two unit slopes as ``random_convex`` does; "parallel"
    repeats the first slope with another offset, and "coincident" repeats the
    whole piece.
    """
    s = random_simplex(dim, rng)
    anchor = rng.dirichlet(np.full(dim + 1, 2.0)) @ s.vertices
    slopes = rng.standard_normal((2, dim))
    slopes /= np.linalg.norm(slopes, axis=1, keepdims=True)
    offsets = 0.5 * rng.standard_normal() - slopes @ anchor
    if case != "crossing":
        slopes[1] = slopes[0]
        offsets[1] = offsets[0] + (0.3 if case == "parallel" else 0.0)
    return s, ConvexFunction("max_of_affines", {"slopes": slopes, "offsets": offsets})


class TestMaxOfAffinesTwoPieces:
    def test_uses_the_closed_form(self):
        s, f = _two_pieces(4, np.random.default_rng(80), "crossing")
        est = ground_truth(f, s, mc_samples=500, seed=1)
        assert est == integrate_exact(f, s) and est.method == "exact_polynomial"

    @pytest.mark.parametrize("dim", range(2, 9))
    def test_against_mc(self, dim):
        rng = np.random.default_rng(81 + dim)
        for case in ("crossing",) * 5 + ("parallel", "coincident"):
            s, f = _two_pieces(dim, rng, case)
            exact = integrate_exact(f, s)
            mc = integrate_mc(f, s, 100_000, seed=int(rng.integers(2**31)))
            assert abs(exact.mean_value - mc.mean_value) <= 4 * mc.std_error, case

    def test_parallel_and_coincident_pieces(self):
        # parallel pieces: the upper one everywhere; coincident: the piece itself
        for case, lift in (("parallel", 0.3), ("coincident", 0.0)):
            s, f = _two_pieces(3, np.random.default_rng(82), case)
            a, b = f.params["slopes"][0], f.params["offsets"][0]
            want = float(a @ s.centroid + b) + lift
            assert integrate_exact(f, s).mean_value == pytest.approx(want, abs=1e-14)

    def test_piece_order_does_not_matter(self):
        s, f = _two_pieces(5, np.random.default_rng(83), "crossing")
        p = f.params
        swapped = ConvexFunction(
            "max_of_affines", {"slopes": p["slopes"][::-1], "offsets": p["offsets"][::-1]}
        )
        assert integrate_exact(swapped, s).mean_value == pytest.approx(
            integrate_exact(f, s).mean_value, abs=1e-13
        )


finite_nodes = st.lists(
    st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False), min_size=1, max_size=9
)


def _recurrence_stays_normal(t: np.ndarray) -> bool:
    """Whether every nonzero value ``_hinge_mean(t)`` computes is surely a normal float.

    A sufficient test.  A nonzero ``G[i..j]`` over ``k <= m`` nodes has a top
    node ``t_j >= d`` (the smallest positive node) and is at least ``t_j/2``
    on a corner of its face of volume fraction ``(t_j/(2w))**(k-1)``, with
    ``w`` the node span.  So no node sum, difference, product, quotient or
    mean is below ``d**m / (2**m * w**(m-1)) * min(d_all, 1/m)``, where
    ``d_all`` is the smallest nonzero ``|node|``; 4 bits cover the rounding.
    """
    positive = t[t > 0.0]
    if positive.size == 0:
        return True  # every value is a node, a node sum or zero
    d, m = positive.min(), len(t)
    d_all = np.abs(t[t != 0.0]).min()
    w = max(np.ptp(t), d)
    log_bound = m * np.log2(d) - m - (m - 1) * np.log2(w) + min(np.log2(d_all), -np.log2(m))
    return log_bound >= np.log2(np.finfo(float).tiny) + 4


class TestHingeMeanProperties:
    @settings(max_examples=200, deadline=None)
    @given(finite_nodes, st.randoms(use_true_random=False))
    def test_permutation_invariance(self, t, random):
        shuffled = list(t)
        random.shuffle(shuffled)
        assert _hinge_mean(shuffled) == _hinge_mean(t)

    @settings(max_examples=200, deadline=None)
    @given(finite_nodes, st.integers(-20, 20), st.floats(0.01, 100.0))
    @example([6.657525979496391e-158, -1.0], 1, 1.0)  # subnormal mean
    @example([2.8266361977673857e-149, -1.0], -18, 1.0)  # subnormal product only
    def test_positive_homogeneity(self, t, power, factor):
        t = np.array(t)
        # a power of two scales every operation exactly, unless one rounds in
        # the subnormal range
        if _recurrence_stays_normal(t) and _recurrence_stays_normal(t * 2.0**power):
            assert _hinge_mean(t * 2.0**power) == _hinge_mean(t) * 2.0**power
        scaled = _hinge_mean(t * factor)
        assert abs(scaled - factor * _hinge_mean(t)) <= 1e-13 * factor * max(
            1.0, np.abs(t).max()
        )

    @settings(max_examples=200, deadline=None)
    @given(finite_nodes)
    def test_positive_minus_negative_part_is_the_mean(self, t):
        # max(0, x) - max(0, -x) = x, and the mean of x is the node average
        t = np.array(t)
        gap = _hinge_mean(t) - _hinge_mean(-t)
        assert abs(gap - t.mean()) <= 1e-13 * max(1.0, np.abs(t).max())


class TestGroundTruthPolicy:
    def test_exact_kinds_use_exact(self):
        est = ground_truth(SQ_1D, UNIT_INTERVAL, mc_samples=100, seed=0)
        assert est.method == "exact_polynomial"

    def test_other_kinds_use_mc(self):
        f = random_convex(1, "exp_affine", 19, simplex=UNIT_INTERVAL)
        est = ground_truth(f, UNIT_INTERVAL, mc_samples=500, seed=0)
        assert est.method == "monte_carlo" and est.samples == 500

    def test_recipe_round_trip(self):
        exp = random_convex(1, "exp_affine", 19, simplex=UNIT_INTERVAL)
        for f in (SQ_1D, exp):
            est = ground_truth(f, UNIT_INTERVAL, mc_samples=500, seed=7)
            recipe = ground_truth_recipe(est, 7)
            assert replay_ground_truth(f, UNIT_INTERVAL, recipe) == est
        assert ground_truth_recipe(ground_truth(SQ_1D, UNIT_INTERVAL), 7) == {
            "method": "exact_polynomial"
        }
        assert ground_truth_recipe(ground_truth(exp, UNIT_INTERVAL, 500, 7), 7) == {
            "method": "monte_carlo", "samples": 500, "seed": 7
        }

    def test_replay_honours_recorded_method(self):
        # a Monte Carlo recipe stays Monte Carlo for a kind with an exact mean
        recipe = {"method": "monte_carlo", "samples": 400, "seed": 3}
        est = replay_ground_truth(SQ_1D, UNIT_INTERVAL, recipe)
        assert est == integrate_mc(SQ_1D, UNIT_INTERVAL, 400, 3)

    def test_policy_over_pairs(self):
        # exact pairs stay exact; the MC pairs share the seed's weight stream
        exp = random_convex(1, "exp_affine", 19, simplex=UNIT_INTERVAL)
        window = Simplex([[0.25], [0.75]])
        got = ground_truths([(exp, UNIT_INTERVAL), (SQ_1D, window), (exp, window)], 500, 7)
        assert got == [
            integrate_mc(exp, UNIT_INTERVAL, 500, 7),
            integrate_exact(SQ_1D, window),
            integrate_mc(exp, window, 500, 7),
        ]
        # no MC pair: the sample count is not used
        assert ground_truths([(SQ_1D, window)], 0, 7) == [integrate_exact(SQ_1D, window)]

    def test_exact_hinge_recipe_replays(self):
        s = random_simplex(3, np.random.default_rng(4))
        hinge = random_convex(3, "hinge_distance", 5, simplex=s)
        est = ground_truth(hinge, s, mc_samples=500, seed=7)
        assert est == integrate_exact(hinge, s)
        recipe = ground_truth_recipe(est, 7)
        assert recipe == {"method": "exact_polynomial"}
        assert replay_ground_truth(hinge, s, recipe) == est

    def test_old_mc_hinge_recipe_replays_bit_for_bit(self):
        # a recipe recorded while the hinge went by Monte Carlo; the values
        # are the ones it gave then
        s = random_simplex(3, np.random.default_rng(4))
        hinge = random_convex(3, "hinge_distance", 5, simplex=s)
        recipe = {"method": "monte_carlo", "samples": 3000, "seed": 23}
        assert replay_ground_truth(hinge, s, recipe) == IntegralEstimate(
            0.14644721670131436, 0.003258131288686053, "monte_carlo", 3000
        )

    def test_replay_rejects_unknown_method(self):
        with pytest.raises(ValueError, match="exact"):
            replay_ground_truth(SQ_1D, UNIT_INTERVAL, {"method": "exact"})


class TestIntegralEstimate:
    def test_validation(self):
        with pytest.raises(ValueError):
            IntegralEstimate(1.0, -0.1, "monte_carlo", 10)
        with pytest.raises(ValueError):
            IntegralEstimate(1.0, 0.0, "exact_polynomial", 5)
        with pytest.raises(ValueError):
            IntegralEstimate(1.0, 0.0, "simpson", 0)
        with pytest.raises(ValueError):
            IntegralEstimate(1.0, 1e-12, "cubature", 5)
        for method, samples in (("exact_polynomial", 0), ("monte_carlo", 10)):
            with pytest.raises(ValueError):
                IntegralEstimate(1.0, 0.0, method, samples, 2)
        with pytest.raises(ValueError):
            IntegralEstimate(1.0, 1e-12, "cubature", 0, 0)

    def test_json_round_trip(self):
        for est in (
            IntegralEstimate(0.25, 0.001, "monte_carlo", 1000),
            IntegralEstimate(0.25, 1e-12, "cubature", 0),
            IntegralEstimate(0.25, 1e-12, "cubature", 0, 4),
        ):
            assert IntegralEstimate.from_json_dict(est.to_json_dict()) == est
        assert "pieces" not in IntegralEstimate(0.25, 1e-12, "cubature", 0).to_json_dict()
