import hashlib

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hhbounds import (
    KINDS,
    ConvexFunction,
    DimensionMismatchError,
    Simplex,
    midpoint_convexity_check,
    random_convex,
    random_simplex,
    standard_simplex,
)


def make_sq_norm(dim):
    return ConvexFunction(
        "quadratic_psd",
        {"matrix": np.eye(dim), "slope": np.zeros(dim), "offset": 0.0},
        "sq-norm",
    )


class TestEvaluate:
    def test_affine_is_exactly_affine(self):
        f = ConvexFunction("affine", {"slope": [2.0, -1.0], "offset": 0.5})
        rng = np.random.default_rng(0)
        for _ in range(20):
            x, y = rng.standard_normal((2, 2))
            alpha = rng.uniform()
            mixed = f(alpha * x + (1 - alpha) * y)
            assert abs(mixed - (alpha * f(x) + (1 - alpha) * f(y))) < 1e-12

    def test_sq_norm_value(self):
        f = make_sq_norm(2)
        assert abs(f(np.array([0.3, 0.4])) - 0.25) < 1e-15

    def test_hinge_value(self):
        f = ConvexFunction("hinge_distance", {"slope": [1.0], "threshold": 0.5})
        assert f(np.array([0.75])) == 0.25
        assert f(np.array([0.25])) == 0.0

    def test_max_of_affines_value(self):
        f = ConvexFunction(
            "max_of_affines", {"slopes": [[0.0], [1.0]], "offsets": [0.0, -0.5]}
        )
        assert f(np.array([0.75])) == 0.25

    def test_log_sum_exp_overflow_safe(self):
        f = ConvexFunction(
            "log_sum_exp", {"slopes": [[1000.0], [-1000.0]], "offsets": [0.0, 0.0]}
        )
        assert np.isfinite(f(np.array([1.0])))

    def test_batch_matches_single(self):
        rng = np.random.default_rng(1)
        s = standard_simplex(3)
        for kind in KINDS:
            f = random_convex(3, kind, 99, simplex=s)
            X = rng.dirichlet(np.ones(4), size=16) @ s.vertices
            batch = f(X)
            singles = np.array([f(x) for x in X])
            assert_allclose(batch, singles, rtol=1e-15, atol=1e-15)

    def test_dimension_mismatch(self):
        f = make_sq_norm(2)
        with pytest.raises(DimensionMismatchError):
            f(np.array([1.0, 2.0, 3.0]))


# Reference (m, k)-layout evaluations the kernels must reproduce bit for bit:
# every campaign result and failure replay depends on these exact values.
def reference_max_of_affines(X, slopes, offsets):
    return (X @ slopes.T + offsets).max(axis=1)


def reference_log_sum_exp(X, slopes, offsets):
    Z = X @ slopes.T + offsets
    peak = Z.max(axis=1)
    return peak + np.log(np.exp(Z - peak[:, None]).sum(axis=1))


REFERENCES = {
    "max_of_affines": reference_max_of_affines,
    "log_sum_exp": reference_log_sum_exp,
}


class TestBitIdentity:
    @pytest.mark.parametrize("kind", sorted(REFERENCES))
    @pytest.mark.parametrize("dim", range(1, 9))
    def test_pieces_1_to_10(self, kind, dim):
        rng = np.random.default_rng(100 * dim + len(kind))
        s = random_simplex(dim, rng)
        X = rng.dirichlet(np.ones(dim + 1), size=1001) @ s.vertices
        for k in range(1, 11):
            slopes = rng.standard_normal((k, dim)) * rng.uniform(0.5, 3.0)
            offsets = rng.standard_normal(k)
            f = ConvexFunction(kind, {"slopes": slopes, "offsets": offsets})
            want = REFERENCES[kind](X, f.params["slopes"], f.params["offsets"])
            assert np.array_equal(f(X), want), (kind, dim, k)
            one = REFERENCES[kind](X[3:4], f.params["slopes"], f.params["offsets"])
            assert f(X[3]) == one[0]

    @pytest.mark.parametrize("kind", sorted(REFERENCES))
    def test_generated_functions(self, kind):
        rng = np.random.default_rng(7)
        for dim in range(1, 9):
            s = random_simplex(dim, rng)
            f = random_convex(dim, kind, 1000 + dim, simplex=s)
            X = rng.dirichlet(np.ones(dim + 1), size=4097) @ s.vertices
            want = REFERENCES[kind](X, f.params["slopes"], f.params["offsets"])
            assert np.array_equal(f(X), want)

    def test_log_sum_exp_overflow_case(self):
        params = {"slopes": [[1000.0], [-1000.0]], "offsets": [0.0, 0.0]}
        f = ConvexFunction("log_sum_exp", params)
        X = np.linspace(-1.0, 1.0, 101).reshape(-1, 1)
        want = reference_log_sum_exp(X, f.params["slopes"], f.params["offsets"])
        assert np.all(np.isfinite(want))
        assert np.array_equal(f(X), want)


class TestConstruction:
    def test_psd_certificate_rejects_indefinite(self):
        with pytest.raises(ValueError):
            ConvexFunction(
                "quadratic_psd",
                {"matrix": [[1.0, 0.0], [0.0, -1.0]], "slope": [0.0, 0.0], "offset": 0.0},
            )

    def test_psd_certificate_accepts_semidefinite(self):
        # rank-1, exactly singular
        ConvexFunction(
            "quadratic_psd",
            {"matrix": [[1.0, 1.0], [1.0, 1.0]], "slope": [0.0, 0.0], "offset": 0.0},
        )

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            ConvexFunction(
                "quadratic_psd",
                {"matrix": [[1.0, 0.5], [0.0, 1.0]], "slope": [0.0, 0.0], "offset": 0.0},
            )

    def test_empty_pieces_rejected(self):
        with pytest.raises(ValueError):
            ConvexFunction("max_of_affines", {"slopes": np.zeros((0, 2)), "offsets": []})

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            ConvexFunction("cubic", {"slope": [1.0], "offset": 0.0})

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            ConvexFunction("affine", {"slope": [np.nan], "offset": 0.0})

    @pytest.mark.parametrize(
        "kind, params, name",
        [
            ("affine", {"slope": [1.0], "offset": np.nan}, "offset"),
            ("quadratic_psd", {"matrix": [[1.0]], "slope": [0.0], "offset": -np.inf}, "offset"),
            ("exp_affine", {"slope": [1.0], "offset": np.inf}, "offset"),
            ("hinge_distance", {"slope": [1.0], "threshold": np.inf}, "threshold"),
            ("hinge_distance", {"slope": [1.0], "threshold": np.nan}, "threshold"),
        ],
    )
    def test_nonfinite_scalar_param_rejected(self, kind, params, name):
        with pytest.raises(ValueError, match=f"^{name} must be finite$"):
            ConvexFunction(kind, params)


class TestRandomConvex:
    def test_deterministic_in_seed(self):
        for kind in KINDS:
            f1 = random_convex(3, kind, 1234)
            f2 = random_convex(3, kind, 1234)
            assert f1.label == f2.label
            for name in f1.params:
                assert_allclose(
                    np.asarray(f1.params[name]), np.asarray(f2.params[name]), rtol=0
                )

    def test_psd_certificate_over_many_seeds(self):
        # generation must always pass the construction-time factorization
        for seed in range(1000):
            f = random_convex(3, "quadratic_psd", seed)
            eigs = np.linalg.eigvalsh(f.params["matrix"])
            assert eigs.min() > -1e-10

    def test_generated_max_of_affines_is_midpoint_convex(self):
        s = standard_simplex(3)
        f = random_convex(3, "max_of_affines", 7, simplex=s)
        assert midpoint_convexity_check(f, s, trials=10_000, seed=0)

    def test_unit_slopes(self):
        f = random_convex(4, "max_of_affines", 21)
        norms = np.linalg.norm(f.params["slopes"], axis=1)
        assert_allclose(norms, 1.0, atol=1e-12)

    def test_max_of_affines_1d_always_has_a_kink(self):
        # 1-D unit slopes are +-1; without distinct magnitudes about a
        # quarter of the draws had one slope only and were affine
        rng = np.random.default_rng(5)
        for seed in range(2000):
            s = random_simplex(1, rng)
            f = random_convex(1, "max_of_affines", seed, simplex=s)
            slopes = f.params["slopes"][:, 0]
            assert len(set(slopes)) == len(slopes)
            assert np.all((0.5 <= np.abs(slopes)) & (np.abs(slopes) <= 1.5))
            # a convex function lies strictly below its chord at the midpoint
            # unless it is affine on the interval
            lo, hi = s.vertices[:, 0]
            gap = 0.5 * (f([lo]) + f([hi])) - f([0.5 * (lo + hi)])
            assert gap > 1e-12

    def test_max_of_affines_multidim_draws_unchanged(self):
        # the 1-D slope scaling draws nothing in dims >= 2
        digest = hashlib.sha256()
        for dim in range(2, 9):
            for seed in range(50):
                f = random_convex(dim, "max_of_affines", seed)
                digest.update(f.params["slopes"].tobytes())
                digest.update(f.params["offsets"].tobytes())
        assert digest.hexdigest() == (
            "6ba3f76bd3ee5e6528c68a538cd09ff5234e866996f77a1194502f07f8ce9574"
        )

    def test_hinge_kink_inside_simplex(self):
        rng = np.random.default_rng(2)
        for seed in range(30):
            s = random_simplex(3, rng)
            f = random_convex(3, "hinge_distance", seed, simplex=s)
            # the kink hyperplane slope.x = threshold must cut the vertex set
            g = s.vertices @ f.params["slope"] - f.params["threshold"]
            assert g.min() < 0.0 < g.max()

    def test_finite_on_bounding_box(self):
        rng = np.random.default_rng(3)
        for kind in KINDS:
            for seed in range(10):
                s = random_simplex(4, rng)
                f = random_convex(4, kind, seed, simplex=s)
                lo = s.vertices.min(axis=0)
                hi = s.vertices.max(axis=0)
                corners = rng.uniform(lo, hi, size=(64, 4))
                assert np.all(np.isfinite(f(corners)))

    def test_dim_validation(self):
        with pytest.raises(ValueError):
            random_convex(0, "affine", 1)
        with pytest.raises(ValueError):
            random_convex(2, "septic", 1)


class TestMidpointConvexity:
    def test_affine_passes(self):
        s = standard_simplex(2)
        f = random_convex(2, "affine", 5)
        assert midpoint_convexity_check(f, s, trials=2000, seed=1)

    def test_sq_norm_passes(self):
        s = standard_simplex(2)
        assert midpoint_convexity_check(make_sq_norm(2), s, trials=2000, seed=2)

    def test_concave_fails(self):
        class NegSqNorm:
            def __call__(self, X):
                X = np.atleast_2d(X)
                return -(X**2).sum(axis=1)

        s = standard_simplex(2)
        assert not midpoint_convexity_check(NegSqNorm(), s, trials=2000, seed=3)

    def test_all_zoo_kinds_pass(self):
        rng = np.random.default_rng(4)
        for kind in KINDS:
            for seed in range(5):
                dim = int(rng.integers(1, 6))
                s = random_simplex(dim, rng)
                f = random_convex(dim, kind, seed, simplex=s)
                assert midpoint_convexity_check(f, s, trials=2000, seed=seed)


class TestJensenAtVertices:
    def test_mixture_bound_for_all_kinds(self):
        rng = np.random.default_rng(5)
        for kind in KINDS:
            s = random_simplex(3, rng)
            f = random_convex(3, kind, 17, simplex=s)
            fv = f(s.vertices)
            weights = rng.dirichlet(np.ones(4), size=1000)
            lhs = f(weights @ s.vertices)
            rhs = weights @ fv
            assert np.all(lhs <= rhs + 1e-8)


class TestJson:
    def test_lossless_round_trip(self):
        for kind in KINDS:
            f = random_convex(3, kind, 2024)
            back = ConvexFunction.from_json_dict(f.to_json_dict())
            assert back.kind == f.kind and back.label == f.label
            for name, value in f.params.items():
                assert_allclose(np.asarray(back.params[name]), np.asarray(value), rtol=0)

    def test_serialized_text_round_trips_bitwise(self):
        import json

        from hhbounds.serialize import dumps

        f = random_convex(2, "log_sum_exp", 31)
        text = dumps(f.to_json_dict())
        back = ConvexFunction.from_json_dict(json.loads(text))
        for name, value in f.params.items():
            assert np.array_equal(np.asarray(back.params[name]), np.asarray(value))
