import numpy as np
import pytest
from numpy.testing import assert_allclose

from hhbounds import (
    ConvexFunction,
    DimensionMismatchError,
    IntegralEstimate,
    KINDS,
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
    @pytest.mark.parametrize("width", range(1, 13))
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


class TestIntegrateExact:
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


class TestGroundTruthPolicy:
    def test_exact_kinds_use_exact(self):
        est = ground_truth(SQ_1D, UNIT_INTERVAL, mc_samples=100, seed=0)
        assert est.method == "exact_polynomial"

    def test_other_kinds_use_mc(self):
        f = random_convex(1, "hinge_distance", 19, simplex=UNIT_INTERVAL)
        est = ground_truth(f, UNIT_INTERVAL, mc_samples=500, seed=0)
        assert est.method == "monte_carlo" and est.samples == 500

    def test_recipe_round_trip(self):
        hinge = random_convex(1, "hinge_distance", 19, simplex=UNIT_INTERVAL)
        for f in (SQ_1D, hinge):
            est = ground_truth(f, UNIT_INTERVAL, mc_samples=500, seed=7)
            recipe = ground_truth_recipe(est, 7)
            assert replay_ground_truth(f, UNIT_INTERVAL, recipe, None) == est
        assert ground_truth_recipe(ground_truth(SQ_1D, UNIT_INTERVAL), 7) == {
            "method": "exact_polynomial"
        }
        assert ground_truth_recipe(ground_truth(hinge, UNIT_INTERVAL, 500, 7), 7) == {
            "method": "monte_carlo", "samples": 500, "seed": 7
        }

    def test_replay_honours_recorded_method(self):
        # a Monte Carlo recipe stays Monte Carlo for a kind with an exact mean
        recipe = {"method": "monte_carlo", "samples": 400, "seed": 3}
        est = replay_ground_truth(SQ_1D, UNIT_INTERVAL, recipe, None)
        assert est == integrate_mc(SQ_1D, UNIT_INTERVAL, 400, 3)
        override = replay_ground_truth(SQ_1D, UNIT_INTERVAL, recipe, 900)
        assert override == integrate_mc(SQ_1D, UNIT_INTERVAL, 900, 3)

    def test_policy_over_pairs(self):
        # exact pairs stay exact; the MC pairs share the seed's weight stream
        hinge = random_convex(1, "hinge_distance", 19, simplex=UNIT_INTERVAL)
        window = Simplex([[0.25], [0.75]])
        got = ground_truths([(hinge, UNIT_INTERVAL), (SQ_1D, window), (hinge, window)], 500, 7)
        assert got == [
            integrate_mc(hinge, UNIT_INTERVAL, 500, 7),
            integrate_exact(SQ_1D, window),
            integrate_mc(hinge, window, 500, 7),
        ]
        # no MC pair: the sample count is not used
        assert ground_truths([(SQ_1D, window)], 0, 7) == [integrate_exact(SQ_1D, window)]

    def test_replay_rejects_unknown_method(self):
        with pytest.raises(ValueError, match="exact"):
            replay_ground_truth(SQ_1D, UNIT_INTERVAL, {"method": "exact"}, None)


class TestIntegralEstimate:
    def test_validation(self):
        with pytest.raises(ValueError):
            IntegralEstimate(1.0, -0.1, "monte_carlo", 10)
        with pytest.raises(ValueError):
            IntegralEstimate(1.0, 0.0, "exact_polynomial", 5)
        with pytest.raises(ValueError):
            IntegralEstimate(1.0, 0.0, "simpson", 0)

    def test_json_round_trip(self):
        est = IntegralEstimate(0.25, 0.001, "monte_carlo", 1000)
        back = IntegralEstimate.from_json_dict(est.to_json_dict())
        assert back == est
