import hashlib

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hhbounds import (
    KINDS,
    ConvexFunction,
    DimensionMismatchError,
    TOL_CHAIN,
    Simplex,
    random_convex,
    random_simplex,
    standard_simplex,
)
from hhbounds import quadrature
from hhbounds.funcs import _KINDS, _dirichlet, convex_functions, random_params


def midpoint_convexity_check(f, s: Simplex, trials: int, seed: int) -> bool:
    """Sample pairs in ``s`` and check f((x+y)/2) <= (f(x)+f(y))/2 + TOL_CHAIN.

    Returns False on any violation.  ``f`` may be any callable accepting a
    batch of points.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    weights = rng.standard_exponential((2 * trials, s.dimension + 1))
    weights /= weights.sum(axis=1, keepdims=True)
    points = weights @ s.vertices
    x, y = points[:trials], points[trials:]
    lhs = f(0.5 * (x + y))
    rhs = 0.5 * (np.asarray(f(x)) + np.asarray(f(y)))
    return bool(np.all(lhs <= rhs + TOL_CHAIN))


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


class TestVertexTable:
    @pytest.mark.parametrize("kind", KINDS)
    def test_bit_identical_to_its_formula(self, kind):
        rng = np.random.default_rng(31)
        for dim in range(1, 9):
            s = random_simplex(dim, rng)
            f = random_convex(dim, kind, 3100 + dim, simplex=s)
            T, p, V = f.vertex_table(s.vertices), f.params, s.vertices
            if kind == "quadratic_psd":
                assert T is None
            elif kind in ("max_of_affines", "log_sum_exp"):
                want = p["slopes"] @ V.T
                assert T.shape == want.shape and T.tobytes() == want.tobytes()
            else:
                want = V @ p["slope"]
                assert T.shape == want.shape and T.tobytes() == want.tobytes()

    @pytest.mark.parametrize("kind", KINDS)
    def test_arguments_bit_identical_to_table_plus_offsets(self, kind):
        rng = np.random.default_rng(32)
        for dim in range(1, 9):
            s = random_simplex(dim, rng)
            f = random_convex(dim, kind, 3200 + dim, simplex=s)
            Z, p, V = f.arguments(s.vertices), f.params, s.vertices
            if kind == "quadratic_psd":
                assert Z is None
                continue
            T = f.vertex_table(V)
            if kind in ("max_of_affines", "log_sum_exp"):
                want = T + p["offsets"][:, None]
            elif kind == "hinge_distance":
                want = T - p["threshold"]
            else:
                want = T + p["offset"]
            assert Z.shape == want.shape and Z.tobytes() == want.tobytes()


class TestKindRegistry:
    """Every kind is one record of ``funcs._KINDS``, and every table keyed by
    kind names only kinds of that record."""

    def test_kinds_in_their_order(self):
        assert KINDS == (
            "affine", "quadratic_psd", "max_of_affines", "exp_affine", "log_sum_exp",
            "hinge_distance",
        )
        assert KINDS == tuple(_KINDS)

    def test_quadrature_tables_name_only_kinds(self):
        # a misspelt route key would leave its kind on Monte Carlo, silently
        named = [*quadrature._EXACT_ROUTES, *quadrature.EXACT_KINDS, *quadrature.CUBATURE_KINDS]
        assert set(named) <= set(KINDS)

    @pytest.mark.parametrize("kind", KINDS)
    def test_random_params_draw_each_kind_in_its_schema(self, kind):
        for dim in (1, 3):
            params, label = random_params(dim, kind, 7, standard_simplex(dim).vertices)
            assert tuple(params) == _KINDS[kind].schema and label.startswith(kind)
            f = ConvexFunction(kind, params, label)
            assert tuple(f.to_json_dict()["params"]) == _KINDS[kind].schema
            assert f.dim == dim


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

    def test_stacked_functions_match_their_single_construction(self):
        rng = np.random.default_rng(41)
        specs = []
        for kind in KINDS * 2:
            dim = int(rng.integers(1, 6))
            V = random_simplex(dim, rng).vertices
            specs.append((kind, *random_params(dim, kind, int(rng.integers(2**31)), V)))
        for (kind, params, label), f in zip(specs, convex_functions(specs)):
            alone = ConvexFunction(kind, params, label)
            assert (f.kind, f.label) == (kind, label)
            assert f.params.keys() == alone.params.keys()
            for name, value in f.params.items():
                assert np.asarray(value).tobytes() == np.asarray(alone.params[name]).tobytes()
                assert not isinstance(value, np.ndarray) or not value.flags.writeable

    @pytest.mark.parametrize("name, value", [
        ("slopes", np.nan), ("offsets", np.inf), ("slopes", "row"), ("offsets", "length"),
    ])
    def test_bad_drawn_spec_raises_what_construction_raises(self, name, value):
        # drawn specs are checked together; a bad one raises the error its
        # own construction raises, and specs in other forms are accepted
        rng = np.random.default_rng(42)
        V = random_simplex(3, rng).vertices
        specs = [(kind, *random_params(3, kind, 7, V)) for kind in KINDS]
        listed = ("affine", {"slope": [1.0, 0.0, 2.0], "offset": 1}, "listed")
        assert len(convex_functions([*specs, listed])) == len(KINDS) + 1
        kind, params, label = specs[4]  # log_sum_exp
        bad = dict(params)
        if value == "row":
            bad[name] = params[name][0]
        elif value == "length":
            bad[name] = params[name][:-1]
        else:
            bad[name] = params[name].copy()
            bad[name][0] = value
        specs[4] = (kind, bad, label)
        with pytest.raises(ValueError) as alone:
            ConvexFunction(kind, bad, label)
        for mixed in (specs, [*specs, listed]):
            with pytest.raises(ValueError, match=str(alone.value)):
                convex_functions(mixed)

    def test_earlier_nonfinite_spec_raises_before_a_later_misshaped_one(self):
        # the stack's one finiteness check still names the first bad spec
        nonfinite = ("exp_affine", {"slope": [1.0, 2.0], "offset": np.inf}, "a")
        misshaped = ("log_sum_exp", {"slopes": np.eye(2), "offsets": [0.0]}, "b")
        fine = ("affine", {"slope": [1.0, 2.0], "offset": 0.0}, "c")
        errors = []
        for spec in (nonfinite, misshaped):
            with pytest.raises(ValueError) as alone:
                ConvexFunction(*spec)
            errors.append(str(alone.value))
        assert errors == ["offset must be finite", "offsets length must match number of pieces"]
        for specs, error in (([fine, nonfinite, misshaped], errors[0]),
                             ([fine, misshaped, nonfinite], errors[1])):
            with pytest.raises(ValueError) as stacked:
                convex_functions(specs)
            assert str(stacked.value) == error

    NON_PSD = ("quadratic_psd", {"matrix": [[1.0, 0.0], [0.0, -1.0]], "slope": [0.0, 0.0],
                                 "offset": 0.0}, "a")

    @pytest.mark.parametrize("later", [
        ("affine", {"slope": [1.0, 2.0], "offset": np.inf}, "b"),
        ("quadratic_psd", {"matrix": [[1.0, 0.5], [0.0, 1.0]], "slope": [0.0, 0.0],
                           "offset": 0.0}, "b"),
    ], ids=["non-finite", "asymmetric"])
    def test_earlier_non_psd_spec_raises_before_a_later_bad_one(self, later):
        # a later spec's finiteness or symmetry error fails the stacked
        # checks first; the error raised is still the first bad spec's
        with pytest.raises(ValueError) as alone:
            ConvexFunction(*self.NON_PSD)
        assert str(alone.value) == "quadratic matrix is not positive semidefinite"
        with pytest.raises(ValueError) as stacked:
            convex_functions([self.NON_PSD, later])
        assert str(stacked.value) == str(alone.value)

    @pytest.mark.parametrize("matrix, message", [
        ([[1.0, 0.0], [0.0, -1.0]], "positive semidefinite"),
        ([[1.0, 0.5], [0.0, 1.0]], "symmetric"),
    ])
    def test_stacked_certificate_rejects_one_bad_matrix(self, matrix, message):
        good = {"matrix": np.eye(2), "slope": [0.0, 0.0], "offset": 0.0}
        bad = {"matrix": matrix, "slope": [0.0, 0.0], "offset": 0.0}
        specs = [("quadratic_psd", good, "a"), ("affine", {"slope": [1.0], "offset": 0.0}, "b"),
                 ("quadratic_psd", bad, "c"), ("quadratic_psd", good, "d")]
        convex_functions([specs[0], specs[1], specs[3]])
        with pytest.raises(ValueError, match=message):
            convex_functions(specs)

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

    @pytest.mark.parametrize("value", [[1.0], None, "2", True, False, {"x": 1.0}, 1 + 0j])
    @pytest.mark.parametrize(
        "kind, params, name",
        [
            ("affine", {"slope": [1.0]}, "offset"),
            ("quadratic_psd", {"matrix": [[1.0]], "slope": [0.0]}, "offset"),
            ("exp_affine", {"slope": [1.0]}, "offset"),
            ("hinge_distance", {"slope": [1.0]}, "threshold"),
        ],
    )
    def test_non_real_scalar_param_rejected(self, kind, params, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be a real number, got "):
            ConvexFunction(kind, {**params, name: value})

    @pytest.mark.parametrize("value", [2, np.float32(0.5), np.int64(-3), 0.25])
    def test_real_scalar_params_accepted(self, value):
        f = ConvexFunction("hinge_distance", {"slope": [1.0], "threshold": value})
        assert type(f.params["threshold"]) is float
        assert f.params["threshold"] == float(value)


class TestBatchIndependence:
    """A point's value has the same bits in every batch of two or more points."""

    @pytest.mark.parametrize("kind", KINDS)
    def test_value_independent_of_batch(self, kind):
        rng = np.random.default_rng(41)
        for dim in range(1, 9):
            for _ in range(3):
                s = random_simplex(dim, rng)
                f = random_convex(dim, kind, int(rng.integers(2**31)), simplex=s)
                X = rng.dirichlet(np.ones(dim + 1), size=60) @ s.vertices
                full = f(X)
                for size in (2, 3, 5, 8, 13, 33):
                    rows = rng.choice(60, size, replace=False)
                    assert np.array_equal(f(X[rows]), full[rows]), (dim, size)
                    start = int(rng.integers(60 - size))
                    assert np.array_equal(f(X[start : start + size]), full[start : start + size])

    @pytest.mark.parametrize("kind", ("affine", "exp_affine", "hinge_distance"))
    def test_linear_kinds_single_point_equals_batch(self, kind):
        rng = np.random.default_rng(43)
        for dim in range(1, 9):
            s = random_simplex(dim, rng)
            f = random_convex(dim, kind, 7, simplex=s)
            X = rng.dirichlet(np.ones(dim + 1), size=20) @ s.vertices
            assert [f(x) for x in X] == f(X).tolist()


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

    @pytest.mark.parametrize("k", range(2, 10))
    def test_dirichlet_in_gamma_form_is_numpys(self, k):
        # the same values and the same generator state after them
        for seed in range(40):
            ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
            assert _dirichlet(ours, k).tobytes() == theirs.dirichlet(np.full(k, 2.0)).tobytes()
            assert ours.bit_generator.state == theirs.bit_generator.state

    def test_params_from_a_given_generator(self):
        # a generator in default_rng(seed)'s state draws what the seed does
        V = random_simplex(3, np.random.default_rng(8)).vertices
        for kind in KINDS:
            for seed in (0, 17, 2**40 + 1):
                rng = np.random.default_rng(seed)
                got = random_params(3, kind, seed, V, rng)
                want = random_params(3, kind, seed, V)
                assert got[1] == want[1]
                assert all(np.array_equal(got[0][key], want[0][key]) for key in want[0])

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
