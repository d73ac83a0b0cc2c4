"""Chains run through ``chain_reports``, against frozen closed-form values
and their invariants.

Frozen oracles (all for f(x) = x^2 / |x|^2 unless noted):

* unit interval:  mean 1/3; classical chain [1/4, 1/3, 1/2]
* standard triangle: mean 1/3; classical chain [2/9, 1/3, 2/3];
  pinned upper at the centroid 14/27
* split chain, lam = 0.75 on [0, 1]: lower 0.296875, upper 0.40625
  (lower derived from the subsimplex chain at the (1-lam)a+lam*b endpoint;
  verified against direct quadrature)
* subinterval [0.125, 0.375]: mean (0.375^3 - 0.125^3)/(3/4) = 13/192
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hhbounds import (
    KINDS,
    TOL_GEOM,
    BarycenterMismatchError,
    CampaignConfig,
    CentroidConstraintViolatedError,
    ConvexFunction,
    DimensionMismatchError,
    HHBoundsError,
    IntegralEstimate,
    NonFiniteValueError,
    PointOutsideSimplexError,
    Simplex,
    SubsimplexEscapesParentError,
    chain_reports,
    chain_tolerance,
    cor3_condition_holds,
    integrate_exact,
    integrate_mc,
    random_convex,
    random_simplex,
    standard_simplex,
)
from hhbounds import chains
from hhbounds.campaign import _build_block
from hhbounds.chains import (
    CHAIN_NAMES,
    CHAINS,
    DOMAINS,
    _Stack,
    _ground_truths,
    _weigh,
    evaluate_block,
)
from hhbounds.cli import build_parser
from hhbounds.serialize import dumps

SQ_1D = ConvexFunction(
    "quadratic_psd", {"matrix": [[1.0]], "slope": [0.0], "offset": 0.0}, "x^2"
)
SQ_2D = ConvexFunction(
    "quadratic_psd", {"matrix": np.eye(2), "slope": np.zeros(2), "offset": 0.0}, "|x|^2"
)
UNIT = Simplex([[0.0], [1.0]])
TRIANGLE = standard_simplex(2)
GT_UNIT = integrate_exact(SQ_1D, UNIT)
GT_TRIANGLE = integrate_exact(SQ_2D, TRIANGLE)
CENTROID = TRIANGLE.centroid[None, :]  # a one-point thm6 mixture


def run_chain(name, f, s, gt=None, **params):
    return chain_reports([(name, (f, s, params))], [gt])[0]


def exact_affine_instances(dim, count, seed):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        s = random_simplex(dim, rng)
        f = random_convex(dim, "affine", int(rng.integers(2**31)))
        yield s, f, integrate_exact(f, s)


class TestChoquet:
    def test_unit_interval_frozen(self):
        rep = run_chain("choquet", SQ_1D, UNIT, GT_UNIT)
        assert_allclose(rep.values, [0.25, 1.0 / 3.0, 0.5], rtol=0, atol=1e-15)
        assert rep.passed
        assert all(slack > 0 for slack in rep.slacks)

    def test_triangle_frozen(self):
        rep = run_chain("choquet", SQ_2D, TRIANGLE, GT_TRIANGLE)
        assert_allclose(rep.values, [2.0 / 9.0, 1.0 / 3.0, 2.0 / 3.0], rtol=0, atol=1e-15)
        assert all(slack > 0 for slack in rep.slacks)

    def test_affine_equality(self):
        for s, f, gt in exact_affine_instances(3, 20, seed=0):
            rep = run_chain("choquet", f, s, gt)
            assert max(abs(x) for x in rep.slacks) < 1e-12


class TestThm2:
    def test_unit_interval_midpoint_frozen(self):
        rep = run_chain("thm2", SQ_1D, UNIT, GT_UNIT, point=np.array([0.5]))
        assert_allclose(rep.values, [1.0 / 3.0, 0.375, 0.5], rtol=0, atol=1e-15)

    def test_triangle_centroid_frozen(self):
        rep = run_chain("thm2", SQ_2D, TRIANGLE, GT_TRIANGLE, point=TRIANGLE.centroid)
        assert_allclose(rep.values, [1.0 / 3.0, 14.0 / 27.0, 2.0 / 3.0], rtol=0, atol=1e-14)

    def test_centroid_reduction_identity(self):
        # pinning at the centroid must equal the closed reduced form exactly
        rng = np.random.default_rng(1)
        for dim in (1, 2, 5):
            s = random_simplex(dim, rng)
            f = random_convex(dim, "quadratic_psd", int(rng.integers(2**31)))
            gt = integrate_exact(f, s)
            rep = run_chain("thm2", f, s, gt, point=s.centroid)
            fv = f(s.vertices)
            np1 = dim + 1
            reduced = (dim / np1 * fv.sum() + f(s.centroid)) / np1
            assert abs(rep.values[1] - reduced) < 1e-12

    def test_refinement_dominance_over_interior_points(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            dim = int(rng.integers(1, 6))
            s = random_simplex(dim, rng)
            kind = ("quadratic_psd", "max_of_affines", "hinge_distance")[int(rng.integers(3))]
            f = random_convex(dim, kind, int(rng.integers(2**31)), simplex=s)
            gt = IntegralEstimate(0.0, 0.0, "exact_polynomial", 0)  # unused by the bound
            p = rng.dirichlet(np.ones(dim + 1)) @ s.vertices
            rep = run_chain("thm2", f, s, gt, point=p)
            assert rep.values[1] <= rep.values[2] + 1e-8

    def test_outside_point_rejected(self):
        with pytest.raises(PointOutsideSimplexError):
            run_chain("thm2", SQ_2D, TRIANGLE, GT_TRIANGLE, point=np.array([0.6, 0.6]))

    def test_affine_equality_of_mean_and_bound(self):
        for s, f, gt in exact_affine_instances(2, 20, seed=3):
            rep = run_chain("thm2", f, s, gt, point=s.vertices.mean(axis=0))
            assert abs(rep.slacks[0]) < 1e-12


class TestThm3:
    def test_degenerates_to_classical_when_sub_is_parent(self):
        rep = run_chain("thm3", SQ_2D, TRIANGLE, GT_TRIANGLE, subsimplex=TRIANGLE, j=1)
        classical = run_chain("choquet", SQ_2D, TRIANGLE, GT_TRIANGLE)
        assert rep.values[0] == classical.values[0]
        assert abs(rep.values[1] - classical.values[0]) < 1e-15
        assert abs(rep.values[3] - classical.values[2]) < 1e-15
        assert rep.values[4] == classical.values[2]

    def test_unit_interval_frozen_split(self):
        sub = Simplex([[0.75], [0.25]])
        for j in (0, 1):
            rep = run_chain("thm3", SQ_1D, UNIT, GT_UNIT, subsimplex=sub, j=j)
            assert_allclose(
                rep.values, [0.25, 0.296875, 1.0 / 3.0, 0.40625, 0.5], rtol=0, atol=1e-15
            )
            assert rep.passed

    def test_affine_equality_all_terms(self):
        rng = np.random.default_rng(4)
        for s, f, gt in exact_affine_instances(3, 20, seed=5):
            sub = s.homothety_about_centroid(float(rng.uniform(0.2, 1.0)))
            rep = run_chain("thm3", f, s, gt, subsimplex=sub, j=int(rng.integers(4)))
            assert max(abs(x) for x in rep.slacks) < 1e-12

    def test_all_j_ordered_for_zoo(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            dim = int(rng.integers(1, 6))
            s = random_simplex(dim, rng)
            f = random_convex(dim, "log_sum_exp", int(rng.integers(2**31)), simplex=s)
            gt = integrate_mc(f, s, 40_000, seed=int(rng.integers(2**31)))
            sub = s.homothety_about_centroid(float(rng.uniform(0.1, 1.0)))
            for j in range(dim + 1):
                assert run_chain("thm3", f, s, gt, subsimplex=sub, j=j).passed

    def test_barycenter_mismatch_rejected(self):
        sub = UNIT.centered_subsimplex(np.array([0.25]), 0.5)
        with pytest.raises(BarycenterMismatchError):
            run_chain("thm3", SQ_1D, UNIT, GT_UNIT, subsimplex=sub, j=0)

    def test_escaping_sub_rejected(self):
        with pytest.raises(SubsimplexEscapesParentError):
            run_chain("thm3", SQ_1D, UNIT, GT_UNIT, subsimplex=Simplex([[-0.5], [1.5]]), j=0)

    @pytest.mark.parametrize("j", [2, -1, 0.5])
    def test_bad_index_rejected(self, j):
        with pytest.raises(IndexError):
            run_chain("thm3", SQ_1D, UNIT, GT_UNIT, subsimplex=UNIT, j=j)


SUB_QUARTER = UNIT.centered_subsimplex(np.array([0.25]), 0.5)  # [0.125, 0.375]
GT_SUB = integrate_exact(SQ_1D, SUB_QUARTER)


class TestThm4:
    def test_reduces_to_classical_when_sub_is_parent(self):
        rep = run_chain("thm4", SQ_1D, UNIT, GT_UNIT, subsimplex=UNIT)
        classical = run_chain("choquet", SQ_1D, UNIT, GT_UNIT)
        assert_allclose(rep.values, classical.values, rtol=0, atol=1e-15)

    def test_frozen_subinterval(self):
        rep = run_chain("thm4", SQ_1D, UNIT, GT_SUB, subsimplex=SUB_QUARTER)
        mean_sub = (0.375**3 - 0.125**3) / (3 * 0.25)
        assert_allclose(rep.values, [0.0625, mean_sub, 0.25], rtol=0, atol=1e-15)

    def test_tiny_sub_collapses_to_point_value(self):
        # smooth kind, scale 1e-3: mean over sub approaches f(P)
        rng = np.random.default_rng(7)
        s = random_simplex(2, rng)
        f = random_convex(2, "quadratic_psd", 11)
        p = rng.dirichlet(np.full(3, 2.0)) @ s.vertices
        sub = s.centered_subsimplex(p, 1e-3)
        rep = run_chain("thm4", f, s, integrate_exact(f, sub), subsimplex=sub)
        assert rep.slacks[0] < 1e-4

    def test_escape_rejected(self):
        with pytest.raises(SubsimplexEscapesParentError):
            run_chain("thm4", SQ_1D, UNIT, GT_SUB, subsimplex=Simplex([[0.5], [1.5]]))


class TestThm5:
    def test_frozen_subinterval(self):
        rep = run_chain("thm5", SQ_1D, UNIT, GT_SUB, subsimplex=SUB_QUARTER)
        mean_sub = (0.375**3 - 0.125**3) / (3 * 0.25)
        assert_allclose(rep.values, [mean_sub, 0.15625, 0.25], rtol=0, atol=1e-15)

    def test_improvement_slack_identity(self):
        # slack(improved -> vertex bound) == (vertex bound - f(P)) / (n+1)
        rng = np.random.default_rng(8)
        for _ in range(20):
            dim = int(rng.integers(1, 6))
            s = random_simplex(dim, rng)
            f = random_convex(dim, "exp_affine", int(rng.integers(2**31)), simplex=s)
            p = rng.dirichlet(np.full(dim + 1, 2.0)) @ s.vertices
            sub = s.centered_subsimplex(p, 0.5)
            gt_sub = integrate_mc(f, sub, 1000, seed=0)
            rep = run_chain("thm5", f, s, gt_sub, subsimplex=sub)
            expected = (rep.values[2] - f(sub.centroid)) / (dim + 1)
            assert abs(rep.slacks[1] - expected) < 1e-12
            assert rep.slacks[1] >= -1e-8

    def test_affine_equality(self):
        rng = np.random.default_rng(9)
        for s, f, gt in exact_affine_instances(2, 10, seed=10):
            p = rng.dirichlet(np.full(3, 2.0)) @ s.vertices
            sub = s.centered_subsimplex(p, 0.7)
            rep = run_chain("thm5", f, s, integrate_exact(f, sub), subsimplex=sub)
            assert max(abs(x) for x in rep.slacks) < 1e-12


class TestThm6:
    def test_single_point_at_centroid(self):
        rep = run_chain("thm6", SQ_2D, TRIANGLE, points=CENTROID, betas=np.array([1.0]))
        assert abs(rep.values[0] - rep.values[1]) < 1e-15
        assert_allclose(rep.values, [2.0 / 9.0, 2.0 / 9.0, 2.0 / 3.0], rtol=0, atol=1e-15)

    def test_facet_midpoints_frozen(self):
        V = TRIANGLE.vertices
        midpoints = (V.sum(axis=0) - V) / 2.0
        rep = run_chain("thm6", SQ_2D, TRIANGLE, points=midpoints, betas=np.full(3, 1.0 / 3.0))
        assert_allclose(rep.values, [2.0 / 9.0, 1.0 / 3.0, 2.0 / 3.0], rtol=0, atol=1e-15)
        assert rep.ground_truth is None
        assert rep.tolerance_used == chain_tolerance(None)

    def test_affine_equality(self):
        for s, f, _ in exact_affine_instances(2, 10, seed=12):
            V = s.vertices
            midpoints = (V.sum(axis=0) - V) / 2.0
            rep = run_chain("thm6", f, s, points=midpoints, betas=np.full(3, 1.0 / 3.0))
            assert max(abs(x) for x in rep.slacks) < 1e-12

    def test_centroid_constraint_enforced(self):
        with pytest.raises(CentroidConstraintViolatedError):
            run_chain(
                "thm6", SQ_2D, TRIANGLE, points=TRIANGLE.vertices[:1], betas=np.array([1.0])
            )

    def test_outside_point_rejected(self):
        with pytest.raises(PointOutsideSimplexError):
            run_chain(
                "thm6", SQ_2D, TRIANGLE, points=np.array([[2.0, 2.0]]), betas=np.array([1.0])
            )

    def test_beta_validation(self):
        with pytest.raises(ValueError):
            run_chain("thm6", SQ_2D, TRIANGLE, points=CENTROID, betas=np.array([0.5]))
        with pytest.raises(ValueError):
            twice = np.vstack([TRIANGLE.centroid, TRIANGLE.centroid])
            run_chain("thm6", SQ_2D, TRIANGLE, points=twice, betas=np.array([1.5, -0.5]))


class TestCor2:
    def test_frozen_lambda_075(self):
        rep = run_chain("cor2", SQ_1D, None, GT_UNIT, a=0.0, b=1.0, lam=0.75)
        assert_allclose(
            rep.values, [0.25, 0.296875, 1.0 / 3.0, 0.40625, 0.5], rtol=0, atol=1e-15
        )
        assert rep.passed

    def test_matches_thm3_split(self):
        # the 1-D specialization must agree with the general subsimplex chain
        lam = 0.6180339887
        sub = Simplex([[(1 - lam) * 0.0 + lam * 1.0], [lam * 0.0 + (1 - lam) * 1.0]])
        rep3 = run_chain("thm3", SQ_1D, UNIT, GT_UNIT, subsimplex=sub, j=0)
        rep2 = run_chain("cor2", SQ_1D, None, GT_UNIT, a=0.0, b=1.0, lam=lam)
        assert_allclose(rep2.values, rep3.values, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("lam", [0.0, 1.0])
    def test_endpoint_lambda_collapses(self, lam):
        rep = run_chain("cor2", SQ_1D, None, GT_UNIT, a=0.0, b=1.0, lam=lam)
        values = rep.values
        assert abs(values[1] - values[0]) < 1e-15  # lower collapses to midpoint value
        assert abs(values[3] - values[4]) < 1e-15  # upper collapses to endpoint mean
        assert rep.passed

    def test_ordered_across_lambda_and_kinds(self):
        rng = np.random.default_rng(13)
        for _ in range(40):
            a = float(rng.normal(0, 1))
            b = a + 0.3 + float(rng.exponential(1.0))
            kind = ("hinge_distance", "exp_affine", "max_of_affines")[int(rng.integers(3))]
            f = random_convex(1, kind, int(rng.integers(2**31)), simplex=Simplex([[a], [b]]))
            gt = integrate_mc(f, Simplex([[a], [b]]), 40_000, seed=int(rng.integers(2**31)))
            rep = run_chain("cor2", f, None, gt, a=a, b=b, lam=float(rng.uniform()))
            assert rep.passed

    def test_affine_equality(self):
        for _, f, _ in exact_affine_instances(1, 10, seed=14):
            gt = integrate_exact(f, UNIT)
            rep = run_chain("cor2", f, None, gt, a=0.0, b=1.0, lam=0.3)
            assert max(abs(x) for x in rep.slacks) < 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            run_chain("cor2", SQ_1D, None, GT_UNIT, a=1.0, b=0.0, lam=0.5)
        with pytest.raises(ValueError):
            run_chain("cor2", SQ_1D, None, GT_UNIT, a=0.0, b=1.0, lam=1.5)


class TestCor3:
    def test_boundary_case_is_classical(self):
        # p=q=1, y at the admissible maximum: window is [a, b] itself
        rep = run_chain("cor3", SQ_1D, None, GT_UNIT, p=1.0, q=1.0, a=0.0, b=1.0, y=0.5)
        assert rep.condition_holds
        assert_allclose(rep.values, [0.25, 1.0 / 3.0, 0.5], rtol=0, atol=1e-15)
        assert rep.passed

    def test_condition_predicate(self):
        assert cor3_condition_holds(1.0, 3.0, 0.0, 1.0, 0.2)
        assert cor3_condition_holds(1.0, 3.0, 0.0, 1.0, 0.25)
        assert not cor3_condition_holds(1.0, 3.0, 0.0, 1.0, 0.3)

    def test_sufficiency_for_zoo(self):
        rng = np.random.default_rng(15)
        for _ in range(40):
            p = float(rng.uniform(0.2, 5.0))
            q = float(rng.uniform(0.2, 5.0))
            a = float(rng.normal(0, 1))
            b = a + 0.3 + float(rng.exponential(1.0))
            y = float(rng.uniform(0.05, 1.0)) * (b - a) * min(p, q) / (p + q)
            A = (p * a + q * b) / (p + q)
            window = Simplex([[A - y], [A + y]])
            kind = ("hinge_distance", "log_sum_exp")[int(rng.integers(2))]
            f = random_convex(1, kind, int(rng.integers(2**31)), simplex=window)
            gt = integrate_mc(f, window, 40_000, seed=int(rng.integers(2**31)))
            rep = run_chain("cor3", f, None, gt, p=p, q=q, a=a, b=b, y=y)
            assert rep.condition_holds and rep.passed

    def test_violated_condition_vacuous_verdict(self):
        # window pokes past b: a hinge rising beyond b breaks the upper bound,
        # but nothing is asserted, so the verdict stays pass with raw slacks
        f = ConvexFunction("hinge_distance", {"slope": [1.0], "threshold": 1.0})
        window = Simplex([[-0.25], [1.25]])
        gt = integrate_mc(f, window, 100_000, seed=16)
        rep = run_chain("cor3", f, None, gt, p=1.0, q=1.0, a=0.0, b=1.0, y=0.75)
        assert rep.condition_holds is False
        assert min(rep.slacks) < -1e-3
        assert rep.verdict == "pass"

    def test_validation(self):
        with pytest.raises(ValueError):
            run_chain("cor3", SQ_1D, None, GT_UNIT, p=0.0, q=1.0, a=0.0, b=1.0, y=0.1)
        with pytest.raises(ValueError):
            run_chain("cor3", SQ_1D, None, GT_UNIT, p=1.0, q=1.0, a=0.0, b=1.0, y=-0.1)


class TestNonFiniteParams:
    """A non-finite chain param raises ValueError instead of giving a verdict."""

    THIRDS = np.full(3, 1.0 / 3.0)
    MIDPOINTS = (TRIANGLE.vertices.sum(axis=0) - TRIANGLE.vertices) / 2.0

    def test_thm6_nan_beta(self):
        betas = np.array([np.nan, 0.5, 0.5])
        with pytest.raises(ValueError, match="finite"):
            run_chain("thm6", SQ_2D, TRIANGLE, points=self.MIDPOINTS, betas=betas)

    def test_thm6_nan_mixture_point(self):
        points = self.MIDPOINTS.copy()
        points[0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            run_chain("thm6", SQ_2D, TRIANGLE, points=points, betas=self.THIRDS)

    @pytest.mark.parametrize("a, b", [(0.0, np.inf), (-np.inf, 1.0)])
    def test_cor2_infinite_endpoint(self, a, b):
        with pytest.raises(ValueError, match="finite"):
            run_chain("cor2", SQ_1D, None, GT_UNIT, a=a, b=b, lam=0.5)

    @pytest.mark.parametrize(
        "p, q, a, b, y",
        [
            (1.0, 1.0, 0.0, np.inf, 0.25),
            (1.0, 1.0, -np.inf, 1.0, 0.25),
            (np.inf, 1.0, 0.0, 1.0, 0.25),
            (1.0, 1.0, 0.0, 1.0, np.inf),
        ],
    )
    def test_cor3_infinite_param(self, p, q, a, b, y):
        with pytest.raises(ValueError, match="finite"):
            run_chain("cor3", SQ_1D, None, GT_UNIT, p=p, q=q, a=a, b=b, y=y)

    def test_overflowing_values_raise_typed_error(self):
        # exp(800 x) overflows at the vertex (1, 0): one typed error for the
        # dimension, and no numpy warning (the suite turns warnings into errors)
        f = ConvexFunction("exp_affine", {"slope": [800.0, 0.0], "offset": 0.0})
        with pytest.raises(NonFiniteValueError, match="exp_affine .* dimension 2"):
            run_chain("thm6", f, TRIANGLE, points=self.MIDPOINTS, betas=self.THIRDS)


class TestWrongDimension:
    """Every chain rejects a function of another dimension than its instance."""

    SUB = TRIANGLE.homothety_about_centroid(0.5)
    PARAMS = {
        "choquet": {},
        "thm2": {"point": TRIANGLE.centroid},
        "thm3": {"subsimplex": SUB, "j": 1},
        "thm4": {"subsimplex": SUB},
        "thm5": {"subsimplex": SUB},
        "thm6": {"points": CENTROID, "betas": [1.0]},
        "cor2": {"a": 0.0, "b": 1.0, "lam": 0.5},
        "cor3": {"p": 1.0, "q": 1.0, "a": 0.0, "b": 1.0, "y": 0.25},
    }

    def test_every_chain_listed(self):
        assert tuple(self.PARAMS) == CHAIN_NAMES

    @pytest.mark.parametrize(
        "name, dim",
        [(name, dim) for name in CHAIN_NAMES for dim in ((2,) if CHAINS[name].one_d else (1, 3))],
    )
    def test_function_of_wrong_dimension_rejected(self, name, dim):
        f = random_convex(dim, "quadratic_psd", 17)
        chain = CHAINS[name]
        gt = None if chain.domain is None else GT_UNIT if chain.one_d else GT_TRIANGLE
        with pytest.raises(DimensionMismatchError, match="function expects"):
            run_chain(name, f, None if chain.one_d else TRIANGLE, gt, **self.PARAMS[name])


class TestTolerance:
    def test_exact_uses_chain_tolerance(self):
        assert chain_tolerance(GT_UNIT) == 1e-8

    def test_mc_widens_to_four_standard_errors(self):
        est = IntegralEstimate(0.0, 1e-3, "monte_carlo", 100)
        assert chain_tolerance(est) == 4e-3

    def test_verdict_fails_beyond_tolerance(self):
        bad = IntegralEstimate(10.0, 0.0, "exact_polynomial", 0)
        rep = run_chain("choquet", SQ_1D, UNIT, bad)
        assert rep.verdict == "fail"
        assert not rep.passed


class TestRegistry:
    def test_bounds_theorem_choices_come_from_registry(self):
        parser = build_parser()
        bounds = next(
            action.choices["bounds"]
            for action in parser._actions
            if action.dest == "command"
        )
        (theorem,) = [a for a in bounds._actions if a.dest == "theorem"]
        assert tuple(theorem.choices) == tuple(CHAINS)

    def test_tightness_rows_unchanged(self):
        rows = {name: c.tightness for name, c in CHAINS.items() if c.tightness}
        assert rows == {
            "thm2": (0, 1, 2),
            "thm3": (2, 3, 4),
            "thm5": (0, 1, 2),
            "cor2": (2, 3, 4),
        }
        assert [name for name, c in CHAINS.items() if c.one_d] == ["cor2", "cor3"]


class TestReportJson:
    def test_shape(self):
        rep = run_chain("choquet", SQ_1D, UNIT, GT_UNIT)
        data = rep.to_json_dict()
        assert data["chain"] == "choquet"
        assert [t["label"] for t in data["terms"]] == [
            "f_at_centroid",
            "integral_mean",
            "vertex_average",
        ]
        assert data["verdict"] == "pass"
        assert data["ground_truth"]["method"] == "exact_polynomial"
        assert len(data["slacks"]) == 2
        assert "condition_holds" not in data

    def test_cor3_records_condition(self):
        rep = run_chain("cor3", SQ_1D, None, GT_UNIT, p=1.0, q=1.0, a=0.0, b=1.0, y=0.5)
        assert rep.to_json_dict()["condition_holds"] is True


def _at(f, x) -> float:
    """f at one point, alone in its call."""
    return float(f(np.asarray(x, dtype=float)))


def single_point_terms(name, f, s, p, mean):
    """A chain's terms with every f value taken one point per call.

    The reference for the batched chain operations: the same formulas, with
    each point evaluated alone and each weight vector solved on its own.
    """
    if name == "cor2":
        a, b, lam = p["a"], p["b"], p["lam"]
        m = (1.0 - lam) * a + lam * b
        g = lambda t: _at(f, [t])  # noqa: E731
        return [
            g((a + b) / 2.0),
            lam * g((a + m) / 2.0) + (1.0 - lam) * g((b + m) / 2.0),
            mean,
            ((1.0 - lam) * g(a) + lam * g(b) + g(lam * a + (1.0 - lam) * b)) / 2.0,
            (g(a) + g(b)) / 2.0,
        ]
    if name == "cor3":
        pw, qw, a, b = p["p"], p["q"], p["a"], p["b"]
        A = (pw * a + qw * b) / (pw + qw)
        return [_at(f, [A]), mean, (pw * _at(f, [a]) + qw * _at(f, [b])) / (pw + qw)]
    V = s.vertices
    np1 = len(V)
    fv = np.array([_at(f, v) for v in V])
    f_c = _at(f, V.mean(axis=0))
    if name == "choquet":
        return [f_c, mean, fv.mean()]
    if name == "thm2":
        w = s.solve_weights(p["point"])
        return [mean, ((1.0 - w) @ fv + _at(f, p["point"])) / np1, fv.mean()]
    if name == "thm3":
        sub, j = p["subsimplex"], p["j"]
        W = np.array([s.solve_weights(q) for q in sub.vertices])
        q_j = sub.vertices[j]
        lower = sum(W[j, i] * _at(f, (V.sum(axis=0) - V[i] + q_j) / np1) for i in range(np1))
        upper = (sum(W[k] @ fv for k in range(np1) if k != j) + _at(f, q_j)) / np1
        return [f_c, lower, mean, upper, fv.mean()]
    if name in ("thm4", "thm5"):
        P = p["subsimplex"].vertices.mean(axis=0)
        bound = s.solve_weights(P) @ fv
        f_P = _at(f, P)
        if name == "thm4":
            return [f_P, mean, bound]
        return [mean, ((np1 - 1) * bound + f_P) / np1, bound]
    # thm6
    mixture = sum(beta * _at(f, x) for beta, x in zip(p["betas"], p["points"]))
    return [f_c, mixture, fv.mean()]


def weighed_stacks(instances):
    """The weighed stacks ``(name, items, g)`` of a block of one set of
    instances, all of one dimension and one function, by chain."""
    items: dict = {}
    for i, (name, instance) in enumerate(instances):
        items.setdefault(name, []).append((0, i, instance, None, 0))
    n, table = instances[0][1][1].dimension, []
    stacks = [
        (name, part, _Stack(n, [item[2][2] for item in part], np.zeros(len(part), int), table))
        for name, part in items.items()
    ]
    _weigh(stacks, table)
    return stacks


def built_terms(name, instance):
    """One instance's terms, from its chain's stacked builder on it alone,
    each measure as its points and weights."""
    f, s, params = instance
    table = []
    g = _Stack(1 if CHAINS[name].one_d else s.dimension, [params], np.zeros(1, int), table)
    _weigh([(name, [(0, 0, instance, None, 0)], g)], table)
    terms, _ = CHAINS[name].build(g)
    points = np.concatenate([piece for piece, _ in table])
    return [(label, m if m is None else (points[m[0]], m[1])) for label, m in terms]


def trial_reports(instances, gt):
    """Reports of every chain of a trial from one evaluator call, all against ``gt``."""
    flat = [(name, case) for name, cases in instances.items() for case in cases]
    gts = [None if name == "thm6" else gt for name, _ in flat]
    return flat, chain_reports(flat, gts)


class TestMeasures:
    """Every weighted term is a probability measure whose barycentre is the
    centroid of its chain's ground-truth domain (the parent for thm6), so
    every slack is the integral of ``f`` against a difference of two
    measures of equal mass and barycentre: the reason each chain is exact
    on affine ``f``."""

    @pytest.mark.parametrize("dim", range(1, 9))
    def test_terms_are_probability_measures_at_the_domain_centroid(self, dim):
        # three campaign trials of each kind: every chain and every thm3 j
        cfg = CampaignConfig(dimensions=(dim,))
        for index in range(3 * len(KINDS)):
            _, _, instances, _ = _build_block(cfg, [index])[0]
            flat = [(name, case) for name, cases in instances.items() for case in cases]
            for name, (f, s, params) in flat:
                chain = CHAINS[name]
                domain = s if chain.domain is None else DOMAINS[chain.domain](s, params)
                for label, measure in built_terms(name, (f, s, params)):
                    if measure is None:
                        continue
                    points, weights = measure
                    assert points.shape == (len(weights), domain.dimension), (name, label)
                    assert abs(weights.sum() - 1.0) <= 1e-12, (name, label)
                    gap = np.abs(weights @ points - domain.centroid).max()
                    assert gap <= TOL_GEOM, (name, label, dim, index)


class TestSharedWork:
    """One evaluation per function, and one stacked weight solve per
    dimension, in a block."""

    @pytest.mark.parametrize("kind", KINDS)
    def test_batched_terms_match_single_point_terms(self, kind):
        # every chain and every thm3 j of campaign-drawn trials in dims 1-8,
        # each trial in one evaluator call; the batched products may round
        # differently from one-point calls, within a few ulps of each term
        gt = IntegralEstimate(0.25, 0.0, "exact_polynomial", 0)
        for dim in range(1, 9):
            cfg = CampaignConfig(dimensions=(dim,), function_kinds=(kind,))
            for index in range(2):
                _, _, instances, _ = _build_block(cfg, [index])[0]
                flat, reports = trial_reports(instances, gt)
                assert len(reports) == len(CampaignConfig().theorems) + dim
                for (name, (f, s, params)), report in zip(flat, reports):
                    want = single_point_terms(name, f, s, params, gt.mean_value)
                    for g, w in zip(report.values, want, strict=True):
                        assert abs(g - w) <= 1e-14 * max(1.0, abs(w)), (name, dim)

    @pytest.mark.parametrize("kind", KINDS)
    def test_terms_identical_alone_and_in_a_trial(self, kind):
        # a chain run alone (chain_reports of it alone, a replay) evaluates only its
        # own points, yet gets the bits it gets inside the whole trial
        gt = IntegralEstimate(0.25, 0.0, "exact_polynomial", 0)
        for dim in range(1, 9):
            cfg = CampaignConfig(dimensions=(dim,), function_kinds=(kind,))
            _, _, instances, _ = _build_block(cfg, [3])[0]
            flat, reports = trial_reports(instances, gt)
            for (name, case), report in zip(flat, reports):
                alone = chain_reports([(name, case)], [report.ground_truth])[0]
                assert alone == report, (name, dim)

    def test_containment_weights_shared(self):
        # thm3's sweep, thm4 and thm5 on one subsimplex read one block of
        # parent weights, solved once: its vertices', then its centroid's
        s = random_simplex(4, np.random.default_rng(31))
        sub = s.homothety_about_centroid(0.6)
        f = random_convex(4, "quadratic_psd", 3, simplex=s)
        shared = {"subsimplex": sub}
        instances = [("thm3", (f, s, {"subsimplex": sub, "j": j})) for j in range(5)]
        instances += [("thm4", (f, s, shared)), ("thm5", (f, s, shared))]
        stacks = weighed_stacks(instances)
        assert [g.blocks.tolist() for _, _, g in stacks] == [[0] * 5, [0], [0]]
        for _, _, g in stacks:
            assert g.rows.tolist() == [0] * len(g.params) and len(g.X) == 6
            assert_allclose(g.X, np.concatenate((sub.vertices, sub.centroid[None])))
            assert_allclose(g.W @ s.vertices, g.X, rtol=0, atol=1e-13)

    def test_thm3_identical_alone_and_in_a_sweep(self):
        # each j alone, with its own evaluation and weight solve, against the
        # whole sweep sharing one call and one solve: the same reports, bit
        # for bit
        rng = np.random.default_rng(32)
        s = random_simplex(5, rng)
        f = random_convex(5, "log_sum_exp", 7, simplex=s)
        sub = s.homothety_about_centroid(0.4)
        gt = integrate_mc(f, s, 2000, seed=3)
        cold = [run_chain("thm3", f, s, gt, subsimplex=sub, j=j).to_json_dict() for j in range(6)]
        sweep = [("thm3", (f, s, {"subsimplex": sub, "j": j})) for j in range(6)]
        warm = [report.to_json_dict() for report in chain_reports(sweep, [gt] * 6)]
        assert warm == cold

    def test_one_solve_per_pair(self, monkeypatch):
        # thm3's j sweep, thm4 and thm5 on one pair: a single stacked solve
        s = random_simplex(3, np.random.default_rng(33))
        f = random_convex(3, "quadratic_psd", 5, simplex=s)
        sub = s.homothety_about_centroid(0.5)
        gt = integrate_exact(f, s)
        calls = []
        solve = chains.solve_stacked

        def counting(simplices, points, owners=None):
            calls.append(np.shape(points))
            return solve(simplices, points, owners)

        monkeypatch.setattr(chains, "solve_stacked", counting)
        shared = {"subsimplex": sub}
        instances = [("thm3", (f, s, {"subsimplex": sub, "j": j})) for j in range(4)]
        instances += [("thm4", (f, s, shared)), ("thm5", (f, s, shared))]
        chain_reports(instances, [gt] * 6)
        assert calls == [(5, 3)]

    def test_one_call_per_function(self):
        # one call per function, on each distinct point of its terms once:
        # the parent's centroid and vertices, the weighed params' rows, and
        # thm3's lower-bound arguments (cor2's abscissae, cor3's three points)
        calls = []

        class Spy:
            def __init__(self, f):
                self.f, self.dim = f, f.dim

            def __call__(self, X):
                calls.append(len(X))
                return self.f(X)

        gt = IntegralEstimate(0.25, 0.0, "exact_polynomial", 0)
        for dim in (1, 4, 8):
            cfg = CampaignConfig(dimensions=(dim,), function_kinds=("quadratic_psd",))
            _, _, instances, _ = _build_block(cfg, [0])[0]
            spies = {id(f): Spy(f) for cases in instances.values() for f, _, _ in cases}
            flat = [
                (name, (spies[id(f)], s, params))
                for name, cases in instances.items()
                for f, s, params in cases
            ]
            calls.clear()
            chain_reports(flat, [None if name == "thm6" else gt for name, _ in flat])
            mixture = len(instances["thm6"][0][2]["points"])
            np1 = dim + 1
            rows = {
                "parent centroid and vertices": 1 + np1,
                "thm2 pin point": 1,
                "thm3 subsimplex vertices and centroid": np1 + 1,
                "thm4 and thm5 subsimplex vertices and centroid": np1 + 1,
                "thm6 mixture points": mixture,
                "thm3 lower-bound arguments, n + 1 per j": np1 * np1,
            }
            assert calls == [sum(rows.values()), 6, 3]


def on_triangle(name, **params):
    return name, (SQ_2D, TRIANGLE, params)


class TestBlocks:
    """An instance gets the same bits in any block: its terms, slacks and
    verdict from :func:`evaluate_block` equal those of ``chain_reports`` of
    it alone, whatever the block size and the instances beside it."""

    TRIALS = 24  # three campaign trials in each of dims 1-8, six kinds in turn

    @pytest.fixture(scope="class")
    def trials(self):
        cfg = CampaignConfig(mc_samples=64)
        out = []
        for index in range(self.TRIALS):
            _, seeds, instances, domains = _build_block(cfg, [index])[0]
            selected = [(name, case) for name in cfg.theorems for case in instances[name]]
            out.append((selected, _ground_truths(selected, seeds, cfg.mc_samples, domains)))
        return out

    def test_every_block_size_matches_each_instance_alone(self, trials):
        dims = {case[1].dimension for selected, _ in trials
                for name, case in selected if name == "choquet"}
        js = {(case[1].dimension, case[2]["j"]) for selected, _ in trials
              for name, case in selected if name == "thm3"}
        mixtures = {len(case[2]["points"]) for selected, _ in trials
                    for name, case in selected if name == "thm6"}
        assert dims == set(range(1, 9))
        assert js == {(n, j) for n in range(1, 9) for j in range(n + 1)}
        assert mixtures == {2, 3, 4}
        alone = [
            [dumps(chain_reports([instance], [gt])[0].to_json_dict())
             for instance, gt in zip(selected, gts)]
            for selected, gts in trials
        ]
        for size in range(1, len(trials) + 1):
            for first in range(0, len(trials), size):
                block = trials[first : first + size]
                rows = evaluate_block([s for s, _ in block], [gts for _, gts in block])
                seen = []
                for chain in rows:
                    where = list(zip(chain.sets.tolist(), chain.positions.tolist()))
                    for r, (t, i) in enumerate(where):
                        assert dumps(chain.report(r).to_json_dict()) == alone[first + t][i]
                    seen += where
                # rows come in no set order: each (set, position) appears exactly once
                assert sorted(seen) == [
                    (t, i) for t, (selected, _) in enumerate(block) for i in range(len(selected))
                ]

    MIDPOINTS = (TRIANGLE.vertices.sum(axis=0) - TRIANGLE.vertices) / 2.0
    SUB = TRIANGLE.homothety_about_centroid(0.5)
    WIDE = Simplex(1.5 * TRIANGLE.vertices - 0.5 * TRIANGLE.centroid)
    INVALID = {
        "pin point outside": on_triangle("thm2", point=[2.0, 2.0]),
        "pin point of another dimension": on_triangle("thm2", point=[0.2] * 3),
        "bad j": on_triangle("thm3", subsimplex=SUB, j=3),
        "moved barycentre": on_triangle("thm3", subsimplex=Simplex(SUB.vertices + 0.01), j=0),
        "sub escapes": on_triangle("thm3", subsimplex=WIDE, j=1),
        "thm4 sub escapes": on_triangle("thm4", subsimplex=Simplex(SUB.vertices + 1.0)),
        "betas too short": on_triangle("thm6", points=MIDPOINTS, betas=[0.5] * 2),
        "negative beta": on_triangle("thm6", points=MIDPOINTS, betas=[0.5, 0.6, -0.1]),
        "betas off one": on_triangle("thm6", points=MIDPOINTS, betas=[0.5, 0.3, 0.3]),
        "mixture off centroid": on_triangle("thm6", points=MIDPOINTS, betas=[0.6, 0.2, 0.2]),
        "mixture point outside": on_triangle("thm6", points=[[3.0, 3.0]], betas=[1.0]),
        "cor2 a > b": ("cor2", (SQ_1D, None, {"a": 1.0, "b": 0.0, "lam": 0.5})),
        "cor3 negative p": (
            "cor3", (SQ_1D, None, {"p": -1.0, "q": 1.0, "a": 0.0, "b": 1.0, "y": 0.1})
        ),
        "function of another dimension": (
            "choquet", (random_convex(3, "affine", 1), TRIANGLE, {})
        ),
    }

    @pytest.mark.parametrize("case", INVALID)
    def test_invalid_instance_raises_in_a_block_as_alone(self, trials, case):
        name, instance = self.INVALID[case]
        gt = None if name == "thm6" else GT_UNIT if CHAINS[name].one_d else GT_TRIANGLE
        with pytest.raises((HHBoundsError, ValueError, IndexError)) as alone:
            chain_reports([(name, instance)], [gt])
        (s0, g0), (s1, g1), (s2, g2) = trials[:3]
        with pytest.raises(type(alone.value)) as inside:
            evaluate_block([s0, s1 + [(name, instance)], s2], [g0, g1 + [gt], g2])
        assert type(inside.value) is type(alone.value)
        assert str(inside.value) == str(alone.value)


CHOQUET = "choquet", (SQ_1D, UNIT, {})
THM6 = on_triangle("thm6", points=CENTROID, betas=[1.0])


class TestMismatchedInputs:
    """``chain_reports`` takes one ground truth per instance, None for thm6
    and only there, and names the instance that breaks that."""

    CASES = {
        "fewer ground truths": ([CHOQUET, CHOQUET], [GT_UNIT], r"instance 1 \(choquet\)"),
        "more ground truths": ([CHOQUET], [GT_UNIT, GT_UNIT], "ground truth 1 has no match"),
        "None for a chain with a mean": (
            [THM6, CHOQUET], [None, None], r"instance 1 \(choquet\) takes a ground truth"
        ),
        "a ground truth for thm6": (
            [CHOQUET, THM6], [GT_UNIT, GT_TRIANGLE], r"instance 1 \(thm6\) takes no ground"
        ),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_rejected_before_any_chain_runs(self, case):
        instances, gts, message = self.CASES[case]
        with pytest.raises(ValueError, match=message):
            chain_reports(instances, gts)
