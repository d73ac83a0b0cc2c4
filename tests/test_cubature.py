"""The Grundmann-Moller cubature rule and its place in the ground-truth policy.

The coverage gate checks every estimate the policy accepts against a
reference, on three sets of inputs:

* campaign-drawn ``log_sum_exp`` domains, against ``mpmath.quad`` on
  intervals, a collapsed-coordinate Gauss-Legendre product rule in dims 2-4,
  and in dims 5-8 the rule three (or four) levels higher, with its own error
  estimate 100 times below the gate (on a domain the policy splits, the
  degree-21 rule on a finer split, :func:`split_reference`).
  :func:`coverage_errors` runs it on any number of domains, so a longer
  sweep is one call away (``coverage_errors(2000)``);
* two-piece functions at the edge of the policy's input limits, with their
  kink inside the simplex, against an exact one-dimensional reduction
  (:func:`two_piece_reference`);
* split domains in dims 2-8 spreading by 3.5-12: two-piece kinks against
  the same reduction, and campaign-style draws of three and four terms
  against :func:`split_reference`.

``mpmath`` is in the ``test`` extras (sympy depends on it too).
"""

import hashlib
import itertools
import json
import math

import mpmath
import numpy as np
import pytest

from hhbounds import (
    CampaignConfig,
    ConvexFunction,
    DimensionMismatchError,
    IntegralEstimate,
    Simplex,
    random_convex,
    random_simplex,
    standard_simplex,
)
from hhbounds.campaign import _build_block, replay_failure
from hhbounds.chains import CHAINS, DOMAINS, _ground_truths, chain_reports
from hhbounds.quadrature import (
    CUBATURE_DEGREE,
    CUBATURE_MAX_ARGUMENT,
    CUBATURE_MAX_DIMENSION,
    CUBATURE_MAX_ERROR,
    CUBATURE_MAX_SPREAD,
    MC_BLOCK_ROWS,
    _arguments,
    _cubature,
    _split,
    ground_truth,
    ground_truth_recipe,
    integrate_cubature,
    integrate_mc,
    replay_ground_truth,
)
from hhbounds.serialize import dumps


def _monomial(exponents):
    """``prod w_i^a_i`` of the barycentric coordinates in the standard simplex."""
    a0, *rest = exponents

    def f(X):
        w0 = 1.0 - X.sum(axis=1)
        return w0**a0 * np.prod(X ** np.array(rest, dtype=float), axis=1)

    return f


def _dirichlet_moment(exponents) -> float:
    """Mean of ``prod w_i^a_i`` over an n-simplex: ``n! prod a_i! / (n + |a|)!``."""
    n = len(exponents) - 1
    num = math.factorial(n) * math.prod(math.factorial(a) for a in exponents)
    return num / math.factorial(n + sum(exponents))


def _exponents(n: int, rng: np.random.Generator, count: int):
    """Every exponent vector of degree <= 15 in dims 1-2, else ``count`` draws.

    The draws always include the pure 15th powers of two coordinates.
    """
    if n <= 2:
        return [
            a
            for a in itertools.product(range(CUBATURE_DEGREE + 1), repeat=n + 1)
            if sum(a) <= CUBATURE_DEGREE
        ]
    picks = [(CUBATURE_DEGREE,) + (0,) * n, (0,) * n + (CUBATURE_DEGREE,)]
    for _ in range(count):
        degree = int(rng.integers(0, CUBATURE_DEGREE + 1))
        picks.append(tuple(int(a) for a in rng.multinomial(degree, np.ones(n + 1) / (n + 1))))
    return picks


class TestRule:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_exact_on_monomials_of_degree_15(self, n):
        rng = np.random.default_rng(100 + n)
        s = standard_simplex(n)
        for exponents in _exponents(n, rng, 40):
            est = integrate_cubature(_monomial(exponents), s, CUBATURE_DEGREE)
            assert abs(est.mean_value - _dirichlet_moment(exponents)) <= 1e-13, exponents
            assert est.method == "cubature" and est.samples == 0

    def test_not_exact_at_degree_16(self):
        # the rule's degree is 15, not more: w0^16 is missed, and the error
        # estimate sees it
        s = standard_simplex(2)
        exponents = (16, 0, 0)
        est = integrate_cubature(_monomial(exponents), s, CUBATURE_DEGREE)
        assert abs(est.mean_value - _dirichlet_moment(exponents)) > 1e-9
        assert est.std_error > 1e-9

    def test_lower_degrees_nest(self):
        # degree 2S+1 is exact on degree 2S+1 but not on 2S+2
        s = standard_simplex(3)
        for degree in (3, 5, 9):
            exact = integrate_cubature(_monomial((degree, 0, 0, 0)), s, degree)
            assert abs(exact.mean_value - _dirichlet_moment((degree, 0, 0, 0))) < 1e-14
            above = integrate_cubature(_monomial((degree + 1, 0, 0, 0)), s, degree)
            assert abs(above.mean_value - _dirichlet_moment((degree + 1, 0, 0, 0))) > 1e-9

    def test_affine_image_of_the_simplex(self):
        # the mean of a quadratic over a random simplex, against the closed form
        rng = np.random.default_rng(3)
        for n in (1, 4, 8):
            s = random_simplex(n, rng)
            f = random_convex(n, "quadratic_psd", 5, simplex=s)
            est = integrate_cubature(f, s, CUBATURE_DEGREE)
            want = ground_truth(f, s).mean_value
            assert abs(est.mean_value - want) <= 1e-12 * max(1.0, abs(want))
            assert est.std_error <= 1e-12 * max(1.0, abs(want))

    @pytest.mark.parametrize("degree", [1, 2, 14, -3, 15.0, True, "15"])
    def test_invalid_degree_raises(self, degree):
        with pytest.raises(ValueError, match="degree"):
            integrate_cubature(_monomial((1, 0)), standard_simplex(1), degree)

    def test_node_count_bounded(self):
        with pytest.raises(ValueError, match="nodes"):
            integrate_cubature(_monomial((1,) + (0,) * 8), standard_simplex(8), 41)

    def test_dimension_mismatch(self):
        f = random_convex(2, "log_sum_exp", 1)
        with pytest.raises(DimensionMismatchError):
            integrate_cubature(f, standard_simplex(3), CUBATURE_DEGREE)


# ---------------------------------------------------------------------------
# coverage gate
# ---------------------------------------------------------------------------


def _mpmath_mean(f, s: Simplex) -> float:
    """Mean of a 1-D ``log_sum_exp`` over ``s`` by ``mpmath.quad`` at 30 digits."""
    lo, hi = sorted(float(v) for v in s.vertices[:, 0])
    slopes = [mpmath.mpf(float(a)) for a in f.params["slopes"][:, 0]]
    offsets = [mpmath.mpf(float(b)) for b in f.params["offsets"]]

    def f_mp(x):
        return mpmath.log(mpmath.fsum(mpmath.exp(a * x + b) for a, b in zip(slopes, offsets)))

    with mpmath.workdps(30):
        return float(mpmath.quad(f_mp, [lo, hi]) / (hi - lo))


def _collapsed_gauss_mean(f, s: Simplex, points: int = 24) -> float:
    """Mean of ``f`` over ``s`` by a Gauss-Legendre product rule on ``[0, 1]^n``.

    The collapsed (Duffy) coordinates ``w_k = u_k prod_{i<k} (1 - u_i)`` map
    the cube onto the simplex with Jacobian ``n! prod_k (1 - u_k)^(n-1-k)``
    relative to the mean.
    """
    n = s.dimension
    x, w = np.polynomial.legendre.leggauss(points)
    u, wu = (x + 1.0) / 2.0, w / 2.0
    index = np.indices((points,) * n).reshape(n, -1).T
    grid, weights = u[index], wu[index].prod(axis=1)
    bary = np.empty((len(grid), n + 1))
    rest = np.ones(len(grid))
    for k in range(n):
        bary[:, k + 1] = rest * grid[:, k]
        weights = weights * (1.0 - grid[:, k]) ** (n - 1 - k)
        rest = rest * (1.0 - grid[:, k])
    bary[:, 0] = rest
    return float(math.factorial(n) * (weights * f(bary @ s.vertices)).sum())


def reference_mean(f, s: Simplex) -> float:
    """A reference mean of ``f`` over ``s``, by the routes of the module docstring."""
    n = s.dimension
    if n == 1:
        return _mpmath_mean(f, s)
    if n <= 4:
        return _collapsed_gauss_mean(f, s)
    if _split(_arguments(f, s), CUBATURE_MAX_SPREAD, 1) is None:  # a split domain
        return split_reference(f, s)
    # The rule three levels up, or four where three have not converged.  Its
    # own estimate must be 100 times below the gate; 1e-12 is at the
    # rounding floor of these levels in 8-D.
    for degree in (CUBATURE_DEGREE + 6, CUBATURE_DEGREE + 8):
        finer = integrate_cubature(f, s, degree)
        if finer.std_error < CUBATURE_MAX_ERROR / 100:
            return finer.mean_value
    raise AssertionError(f"no converged reference: {finer}")


def campaign_domains(count: int, master_seed: int = 20260810):
    """``count`` (function, domain) pairs from ``log_sum_exp``-only campaign trials.

    Each trial gives its parent simplex, its centred subsimplex, its cor2
    interval and its cor3 window; trial dimensions cycle through 1-8.
    """
    cfg = CampaignConfig(function_kinds=("log_sum_exp",), master_seed=master_seed)
    for index in itertools.count():
        _, _, instances, _ = _build_block(cfg, [index])[0]
        for name in ("choquet", "thm4", "cor2", "cor3"):
            func, simplex, params = instances[name][0]
            yield func, DOMAINS[CHAINS[name].domain](simplex, params)
            count -= 1
            if count == 0:
                return


def coverage_errors(count: int, master_seed: int = 20260810):
    """``(dimension, error estimate, true error)`` of each accepted estimate.

    Also returns the number of domains the policy sends to Monte Carlo.
    """
    accepted, rejected = [], 0
    for f, s in campaign_domains(count, master_seed):
        est = ground_truth(f, s, mc_samples=2)
        if est.method != "cubature":
            rejected += 1
            continue
        accepted.append((s.dimension, est.std_error, abs(est.mean_value - reference_mean(f, s))))
    return accepted, rejected


def two_piece_reference(f, s: Simplex) -> float:
    """Mean of a two-piece ``log_sum_exp`` over ``s``, to about 1e-15 relative.

    ``f = l1 + log(1 + e^d)`` with ``d = l2 - l1`` affine, and the values of
    ``d`` at a uniform point of ``s`` have the B-spline density (Curry and
    Schoenberg) on the vertex values ``t_i`` of ``d``::

        M(x) = n sum_i (t_i - x)_+^(n-1) / prod_(j != i) (t_i - t_j)

    so the mean of ``log(1 + e^d)`` is one integral over ``[min t, max t]``,
    done by ``mpmath.quad`` at 60 digits between consecutive knots.
    """
    (a1, a2), (b1, b2) = f.params["slopes"], f.params["offsets"]
    n = s.dimension
    with mpmath.workdps(60):
        t = [mpmath.mpf(float(x)) for x in s.vertices @ (a2 - a1) + (b2 - b1)]
        scale = [
            n / math.prod((t[i] - t[j] for j in range(n + 1) if j != i), start=mpmath.mpf(1))
            for i in range(n + 1)
        ]

        def integrand(x):
            density = mpmath.fsum(c * (ti - x) ** (n - 1) for c, ti in zip(scale, t) if ti > x)
            return mpmath.log1p(mpmath.exp(x)) * density

        softplus = float(mpmath.quad(integrand, sorted(t)))
    return float(a1 @ s.centroid + b1) + softplus


def edge_two_piece(n: int, rng: np.random.Generator, spread: float = CUBATURE_MAX_SPREAD):
    """A two-piece ``log_sum_exp`` at the edge of the policy's input limits.

    Its arguments spread by exactly ``spread`` over the simplex (the
    standard simplex or a campaign-style random one), its kink passes
    through a random interior point, and a common slope and offset put the
    largest argument magnitude at 90 % of :data:`CUBATURE_MAX_ARGUMENT`.
    """
    s = standard_simplex(n) if rng.integers(2) else random_simplex(n, rng)
    gap, common = rng.standard_normal((2, n))
    gap *= spread / np.ptp(s.vertices @ gap)
    common *= 20.0 / np.ptp(s.vertices @ common)
    slopes = np.vstack([common + gap / 2, common - gap / 2])
    kink = rng.dirichlet(np.full(n + 1, rng.choice([0.3, 1.0, 3.0]))) @ s.vertices
    offsets = -slopes @ kink
    offsets += 0.9 * CUBATURE_MAX_ARGUMENT - (slopes @ s.vertices.T + offsets[:, None]).max()
    return ConvexFunction("log_sum_exp", {"slopes": slopes, "offsets": offsets}), s


def split_draw(n: int, k: int, spread: float, rng: np.random.Generator):
    """A campaign-style ``k``-term ``log_sum_exp`` on a random ``n``-simplex
    whose pairwise gaps spread by ``spread`` at most over it.

    Unit slopes scaled by U(0.5, 1.5) and arguments within 0.5 of each other
    at a Dirichlet(2) anchor, as :func:`~hhbounds.funcs.random_convex`
    draws them; then every slope is scaled by one factor, the arguments at
    the anchor kept, so the largest spread is ``spread``.
    """
    s = random_simplex(n, rng)
    anchor = rng.dirichlet(np.full(n + 1, 2.0)) @ s.vertices
    slopes = rng.standard_normal((k, n))
    slopes *= rng.uniform(0.5, 1.5, (k, 1)) / np.linalg.norm(slopes, axis=1, keepdims=True)
    gaps = [s.vertices @ (a - b) for a, b in itertools.combinations(slopes, 2)]
    slopes *= spread / max(np.ptp(g) for g in gaps)
    offsets = rng.uniform(-0.5, 0.5, k) - slopes @ anchor
    return ConvexFunction("log_sum_exp", {"slopes": slopes, "offsets": offsets}), s


def split_reference(f, s: Simplex) -> float:
    """The mean of ``f`` by the degree-21 rule on a split at half the
    policy's spread limit, whose own error estimate must be 100 times below
    the gate.  In 7-D and 8-D that split can run to a thousand pieces and
    take seconds, so there the rule runs on the policy's own pieces."""
    spread = CUBATURE_MAX_SPREAD / (2 if s.dimension <= 6 else 1)
    cells, depths = _split(_arguments(f, s), spread, 10**4)
    finer = _cubature(f, s, 10, cells, depths, None if len(cells) == 1 else spread)
    assert finer.std_error < CUBATURE_MAX_ERROR / 100, finer
    return finer.mean_value


class TestCoverage:
    def test_reference_rules_agree(self):
        # the 2-4-D product rule against the rule three levels up, on
        # domains where both have converged
        checked = 0
        for f, s in campaign_domains(96):
            if 2 <= s.dimension <= 4:
                finer = integrate_cubature(f, s, CUBATURE_DEGREE + 6)
                if finer.std_error < 1e-12:
                    assert abs(_collapsed_gauss_mean(f, s) - finer.mean_value) < 1e-11
                    checked += 1
        assert checked >= 10

    def test_accepted_estimates_within_tolerance(self):
        accepted, rejected = coverage_errors(300)
        assert len(accepted) >= 200 and rejected >= 1
        assert {dim for dim, _, _ in accepted} == set(range(1, 9))
        for dim, bound, error in accepted:
            assert error <= CUBATURE_MAX_ERROR, (dim, bound, error)

    def test_two_piece_reference(self):
        # the 1-D reduction against mpmath.quad in 1-D and the product rule
        # in 2-D, away from the limits
        rng = np.random.default_rng(12)
        for n, reference in ((1, _mpmath_mean), (2, _collapsed_gauss_mean)):
            s = random_simplex(n, rng)
            f = ConvexFunction(
                "log_sum_exp", {"slopes": rng.standard_normal((2, n)), "offsets": [0.1, -0.2]}
            )
            assert abs(two_piece_reference(f, s) - reference(f, s)) < 1e-12

    @pytest.mark.parametrize("n", range(1, CUBATURE_MAX_DIMENSION + 1))
    def test_two_piece_kinks_at_the_limits(self, n):
        rng = np.random.default_rng(300 + n)
        accepted = 0
        for _ in range(4):
            f, s = edge_two_piece(n, rng)
            est = ground_truth(f, s, mc_samples=2)
            if est.method == "cubature":
                accepted += 1
                assert abs(est.mean_value - two_piece_reference(f, s)) <= CUBATURE_MAX_ERROR
        assert accepted >= 2

    @pytest.mark.parametrize("n", range(2, CUBATURE_MAX_DIMENSION + 1))
    def test_split_two_piece_kinks(self, n):
        # two-piece functions spreading by 3.5-12 with their kink inside the
        # simplex, at 90 % of the argument limit: every split estimate the
        # policy accepts, against the exact 1-D reduction
        rng = np.random.default_rng(400 + n)
        split = 0
        for spread in (3.5, 5.0, 8.0, 12.0):
            f, s = edge_two_piece(n, rng, spread)
            est = ground_truth(f, s, mc_samples=2)
            if est.method == "cubature":
                split += est.pieces > 1
                error = abs(est.mean_value - two_piece_reference(f, s))
                assert error <= CUBATURE_MAX_ERROR, (spread, est, error)
        assert split >= 2

    @pytest.mark.parametrize("n", range(2, CUBATURE_MAX_DIMENSION + 1))
    def test_split_campaign_draws(self, n):
        # campaign-style draws of two to four terms spreading by 3.5-12: two
        # terms against the 1-D reduction, three and four against the
        # degree-21 rule on a finer split
        rng = np.random.default_rng(500 + n)
        split = 0
        for k, spread in itertools.product((2, 3, 4), (3.5, 6.0, 12.0)):
            f, s = split_draw(n, k, spread, rng)
            est = ground_truth(f, s, mc_samples=2)
            if est.method == "cubature":
                split += est.pieces > 1
                want = two_piece_reference(f, s) if k == 2 else split_reference(f, s)
                error = abs(est.mean_value - want)
                assert error <= CUBATURE_MAX_ERROR, (k, spread, est, error)
        assert split >= 3

    def test_kink_positions_on_an_interval(self):
        # slopes +-1.5 on [0, 1]: spread 3, kink moved across the interval
        s = Simplex([[0.0], [1.0]])
        accepted = 0
        for c in np.linspace(-0.1, 1.1, 49):
            f = ConvexFunction(
                "log_sum_exp", {"slopes": [[1.5], [-1.5]], "offsets": [-1.5 * c, 1.5 * c]}
            )
            est = ground_truth(f, s, mc_samples=2)
            if est.method == "cubature":
                accepted += 1
                assert abs(est.mean_value - _mpmath_mean(f, s)) <= CUBATURE_MAX_ERROR, c
        assert accepted >= 10


# ---------------------------------------------------------------------------
# the policy, recipes and replay
# ---------------------------------------------------------------------------


class TestPolicy:
    def test_log_sum_exp_uses_cubature(self):
        s = random_simplex(4, np.random.default_rng(7))
        f = random_convex(4, "log_sum_exp", 7, simplex=s)
        est = ground_truth(f, s, mc_samples=500, seed=1)
        assert est == integrate_cubature(f, s, CUBATURE_DEGREE)
        assert est.method == "cubature" and est.std_error <= CUBATURE_MAX_ERROR

    def test_cubature_falls_back_to_mc(self):
        # within the input limits (spread 3), but the rule has not converged
        f = ConvexFunction("log_sum_exp", {"slopes": [[1.5], [-1.5]], "offsets": [-0.75, 0.75]})
        s = Simplex([[0.0], [1.0]])
        assert integrate_cubature(f, s, CUBATURE_DEGREE).std_error > CUBATURE_MAX_ERROR
        assert ground_truth(f, s, mc_samples=500, seed=2) == integrate_mc(f, s, 500, 2)

    @pytest.mark.parametrize(
        "slopes, offsets, error",
        [
            # a kink between the nodes: every node sees one piece, so the
            # degree-13 and degree-15 rules agree on a mean near 0; at a
            # spread of 1000 the interval would need more than 16 pieces
            ([[1000.0], [0.0]], [-999.0, 0.0], 1e-3),
        ],
    )
    def test_sharp_kink_falls_back_to_mc(self, slopes, offsets, error):
        f = ConvexFunction("log_sum_exp", {"slopes": slopes, "offsets": offsets})
        s = Simplex([[0.0], [1.0]])
        est = integrate_cubature(f, s, CUBATURE_DEGREE)
        assert est.std_error <= CUBATURE_MAX_ERROR
        assert abs(est.mean_value - _mpmath_mean(f, s)) > error
        assert ground_truth(f, s, mc_samples=500, seed=2) == integrate_mc(f, s, 500, 2)

    def test_spread_4_is_cut_in_two(self):
        # spread 4 on one piece: the two rules agree to 8e-11 and both miss
        # by 1.5e-9; the policy cuts the interval into two pieces of spread 2
        f = ConvexFunction("log_sum_exp", {"slopes": [[2.0], [-2.0]], "offsets": [-0.8, 0.8]})
        s = Simplex([[0.0], [1.0]])
        whole = integrate_cubature(f, s, CUBATURE_DEGREE)
        assert whole.std_error <= CUBATURE_MAX_ERROR
        assert abs(whole.mean_value - _mpmath_mean(f, s)) > 1.4e-9
        est = ground_truth(f, s, mc_samples=500, seed=2)
        assert est == integrate_cubature(f, s, CUBATURE_DEGREE, 2) and est.pieces == 2
        assert abs(est.mean_value - _mpmath_mean(f, s)) < 1e-12

    def test_large_arguments_fall_back_to_mc(self):
        f = ConvexFunction("log_sum_exp", {"slopes": [[0.5], [-0.5]], "offsets": [150.0, 150.5]})
        s = Simplex([[0.0], [1.0]])
        assert integrate_cubature(f, s, CUBATURE_DEGREE).std_error <= CUBATURE_MAX_ERROR
        assert ground_truth(f, s, mc_samples=500, seed=2) == integrate_mc(f, s, 500, 2)

    @pytest.mark.parametrize("n", [CUBATURE_MAX_DIMENSION + 1, 15])
    def test_high_dimensions_use_mc(self, n):
        # smooth enough for the rule, but above the dimensions it is checked
        # in; at n = 15 the degree-15 rule would need more than 200 000 nodes
        s = standard_simplex(n)
        f = ConvexFunction(
            "log_sum_exp",
            {"slopes": 0.3 * np.vstack([np.ones(n), -np.ones(n)]), "offsets": [0.0, 0.1]},
        )
        assert ground_truth(f, s, mc_samples=500, seed=4) == integrate_mc(f, s, 500, 4)

    def test_other_kinds_never_use_cubature(self):
        s = random_simplex(3, np.random.default_rng(6))
        for kind in ("exp_affine", "max_of_affines"):
            f = random_convex(3, kind, 4, simplex=s)
            assert ground_truth(f, s, mc_samples=500, seed=3).method != "cubature"

    def test_recipe_round_trip(self):
        s = random_simplex(3, np.random.default_rng(7))
        f = random_convex(3, "log_sum_exp", 8, simplex=s)
        est = ground_truth(f, s, mc_samples=500, seed=4)
        recipe = ground_truth_recipe(est, 4)
        assert recipe == {"method": "cubature", "degree": 15}
        again = replay_ground_truth(f, s, json.loads(json.dumps(recipe)))
        assert again == est
        assert dumps(again.to_json_dict()) == dumps(est.to_json_dict())

    def test_recipe_with_invalid_degree_raises(self):
        s = standard_simplex(2)
        f = random_convex(2, "log_sum_exp", 9, simplex=s)
        for degree in (0, 16, None, "15"):
            with pytest.raises(ValueError):
                replay_ground_truth(f, s, {"method": "cubature", "degree": degree})

    def test_cut_recipe_round_trip(self):
        # spread 6 on [0, 1]: two pieces; a recipe without "pieces" is one piece
        s = Simplex([[0.0], [1.0]])
        f = ConvexFunction("log_sum_exp", {"slopes": [[3.0], [-3.0]], "offsets": [-1.4, 1.4]})
        est = ground_truth(f, s, mc_samples=500, seed=4)
        recipe = ground_truth_recipe(est, 4)
        assert recipe == {"method": "cubature", "degree": 15, "pieces": 2}
        again = replay_ground_truth(f, s, json.loads(json.dumps(recipe)))
        assert again == est and dumps(again.to_json_dict()) == dumps(est.to_json_dict())
        assert est.to_json_dict()["pieces"] == 2
        old = replay_ground_truth(f, s, {"method": "cubature", "degree": 15})
        assert old == integrate_cubature(f, s, CUBATURE_DEGREE) and old.pieces == 1
        assert "pieces" not in old.to_json_dict()

    def test_pieces_validation(self):
        s = Simplex([[0.0], [1.0]])
        f = ConvexFunction("log_sum_exp", {"slopes": [[1.0], [-1.0]], "offsets": [0.0, 0.0]})
        for pieces in (0, -2, True, 2.0, "2"):
            with pytest.raises(ValueError):
                integrate_cubature(f, s, CUBATURE_DEGREE, pieces)
        g = random_convex(2, "log_sum_exp", 9, simplex=standard_simplex(2))
        with pytest.raises(ValueError):
            integrate_cubature(g, standard_simplex(2), CUBATURE_DEGREE, 2)
        with pytest.raises(ValueError):  # more nodes than CUBATURE_MAX_NODES
            integrate_cubature(f, s, CUBATURE_DEGREE, 10**5)

    def test_one_piece_has_the_bits_of_the_whole_interval(self):
        s = random_simplex(1, np.random.default_rng(5))
        f = random_convex(1, "log_sum_exp", 5, simplex=s)
        assert integrate_cubature(f, s, CUBATURE_DEGREE, 1) == integrate_cubature(
            f, s, CUBATURE_DEGREE
        )

    def test_old_mc_recipe_replays_by_mc(self):
        s = random_simplex(3, np.random.default_rng(7))
        f = random_convex(3, "log_sum_exp", 8, simplex=s)
        recipe = {"method": "monte_carlo", "samples": 3000, "seed": 23}
        assert replay_ground_truth(f, s, recipe) == integrate_mc(f, s, 3000, 23)


def _interval_log_sum_exp(spread: float, rng: np.random.Generator):
    """A ``log_sum_exp`` of 2-4 pieces on a random interval whose arguments
    spread by ``spread`` over it, every pair crossing inside it."""
    s = random_simplex(1, rng)
    lo, hi = sorted(s.vertices[:, 0])
    k = int(rng.integers(2, 5))
    slopes = rng.uniform(-1.0, 1.0, k)
    slopes *= spread / ((slopes.max() - slopes.min()) * (hi - lo))
    kinks = rng.uniform(lo, hi, k)
    offsets = -slopes * kinks + rng.uniform(-0.1, 0.1, k)
    return ConvexFunction("log_sum_exp", {"slopes": slopes[:, None], "offsets": offsets}), s


class TestSplitCubature:
    @pytest.mark.parametrize("spread", [3.5, 5.5, 11.0, 23.0, 47.5])
    def test_within_the_gate_of_mpmath(self, spread):
        rng = np.random.default_rng(int(spread * 10))
        accepted = 0
        for _ in range(6):
            f, s = _interval_log_sum_exp(spread, rng)
            est = ground_truth(f, s, mc_samples=2)
            if est.method == "cubature":
                accepted += 1
                assert est.pieces == 2 ** math.ceil(math.log2(spread / CUBATURE_MAX_SPREAD))
                assert abs(est.mean_value - _mpmath_mean(f, s)) <= CUBATURE_MAX_ERROR
        assert accepted >= 4

    def test_spread_above_48_takes_mc(self):
        f, s = _interval_log_sum_exp(48.5, np.random.default_rng(8))
        assert ground_truth(f, s, mc_samples=500, seed=3) == integrate_mc(f, s, 500, 3)

    def test_campaign_intervals_leave_mc(self):
        # the 1-D log_sum_exp domains of 96 campaign trials: of those past the
        # spread limit, the split rule takes all but the few whose pieces'
        # error estimates stay above CUBATURE_MAX_ERROR
        cut = mc = 0
        for f, s in campaign_domains(384):
            if s.dimension == 1:
                est = ground_truth(f, s, mc_samples=2)
                cut += est.pieces > 1
                mc += est.method == "monte_carlo"
        assert cut >= 10 and mc <= cut // 4


class _Recording:
    """A function that records the size of every batch it is called on."""

    def __init__(self, f):
        self.f, self.kind, self.params, self.dim, self.batches = f, f.kind, f.params, f.dim, []

    def __call__(self, X):
        self.batches.append(len(X))
        return self.f(X)


class TestSplitOfASimplex:
    def test_interval_estimates_pinned(self):
        # every 1-D cubature estimate of 96 log_sum_exp campaign trials (28
        # of 216 cut into pieces), recorded when intervals had their own
        # equal split
        estimates = [
            ground_truth(f, s, mc_samples=2).to_json_dict()
            for f, s in campaign_domains(384)
            if s.dimension == 1
        ]
        assert all(est["method"] == "cubature" for est in estimates)
        assert sum(est.get("pieces", 1) > 1 for est in estimates) == 28
        assert hashlib.sha256(dumps(estimates).encode()).hexdigest() == (
            "396be8af27aa8ee77156fb16ca602d02bddf73952b63da4b3f2f1e3675b88611"
        )

    def test_interval_split_is_equal_pieces(self):
        # spread 21 on an interval: eight equal pieces, in order, with the
        # cells and bits of an eight-piece recipe
        f = ConvexFunction("log_sum_exp", {"slopes": [[10.5], [-10.5]], "offsets": [0.2, -0.1]})
        s = Simplex([[-0.5], [0.5]])
        cells, depths = _split(_arguments(f, s), CUBATURE_MAX_SPREAD, 16)
        c = np.arange(9) / 8
        equal = np.stack([1 - c[:-1], c[:-1], 1 - c[1:], c[1:]], axis=1).reshape(-1, 2, 2)
        assert np.array_equal(cells, equal)
        assert depths.tolist() == [3] * 8
        est = ground_truth(f, s, mc_samples=2)
        assert est == integrate_cubature(f, s, CUBATURE_DEGREE, 8) and est.spread is None
        assert ground_truth_recipe(est, None) == {"method": "cubature", "degree": 15, "pieces": 8}

    @pytest.mark.parametrize("n", range(2, CUBATURE_MAX_DIMENSION + 1))
    def test_pieces_tile_the_simplex_within_the_spread(self, n):
        rng = np.random.default_rng(600 + n)
        f, s = split_draw(n, 3, 5.0, rng)
        cells, depths = _split(_arguments(f, s), CUBATURE_MAX_SPREAD, 10**4)
        assert len(cells) > 1 and math.fsum(0.5 ** d for d in depths.tolist()) == 1.0
        assert np.array_equal(cells.sum(axis=2), np.ones(cells.shape[:2]))  # dyadic rows
        for cell, depth in zip(cells, depths.tolist()):
            piece = Simplex(cell @ s.vertices)
            assert piece.volume == pytest.approx(s.volume * 0.5**depth, rel=1e-9)
            Z = _arguments(f, piece)
            spread = max(np.ptp(Z[i] - Z[j]) for i, j in itertools.combinations(range(3), 2))
            assert spread <= CUBATURE_MAX_SPREAD * (1 + 1e-12)

    def test_nd_recipe_round_trip(self):
        f, s = split_draw(3, 3, 6.0, np.random.default_rng(9))
        est = ground_truth(f, s, mc_samples=500, seed=4)
        recipe = ground_truth_recipe(est, 4)
        assert recipe == {"method": "cubature", "degree": 15, "pieces": est.pieces, "spread": 3.0}
        assert est.pieces > 1 and est.std_error <= CUBATURE_MAX_ERROR
        again = replay_ground_truth(f, s, json.loads(json.dumps(recipe)))
        assert again == est and dumps(again.to_json_dict()) == dumps(est.to_json_dict())
        assert est.to_json_dict()["spread"] == 3.0
        assert IntegralEstimate.from_json_dict(json.loads(dumps(est.to_json_dict()))) == est
        for pieces in (est.pieces - 1, est.pieces + 1):  # not the split at that spread
            with pytest.raises(ValueError, match="does not come to"):
                replay_ground_truth(f, s, {**recipe, "pieces": pieces})
        # a recipe of the whole simplex replays on it
        whole = replay_ground_truth(f, s, {"method": "cubature", "degree": 15})
        assert whole == integrate_cubature(f, s, CUBATURE_DEGREE) and whole.pieces == 1

    def test_old_mc_recipe_replays_by_mc_on_a_split_domain(self):
        f, s = split_draw(5, 2, 5.0, np.random.default_rng(10))
        assert ground_truth(f, s, mc_samples=500, seed=4).pieces > 1
        recipe = {"method": "monte_carlo", "samples": 3000, "seed": 23}
        assert replay_ground_truth(f, s, recipe) == integrate_mc(f, s, 3000, 23)

    def test_split_needs_a_log_sum_exp_and_a_spread(self):
        s = standard_simplex(2)
        f = random_convex(2, "log_sum_exp", 9, simplex=s)
        g = random_convex(2, "exp_affine", 9, simplex=s)
        for spread in (0.0, -1.0, math.inf, math.nan, True, "3"):
            with pytest.raises(ValueError, match="spread"):
                integrate_cubature(f, s, CUBATURE_DEGREE, 1, spread)
        with pytest.raises(ValueError, match="log_sum_exp"):
            integrate_cubature(g, s, CUBATURE_DEGREE, 1, 3.0)
        with pytest.raises(ValueError):
            IntegralEstimate(0.5, 0.0, "cubature", 0, 1, 3.0)  # one piece, no split

    def test_nodes_evaluated_in_blocks(self):
        # a 7-D split: 6435 nodes a piece, so each piece is two blocks of at
        # most MC_BLOCK_ROWS rows; the mean is the pieces' own means weighed
        f, s = split_draw(7, 2, 4.5, np.random.default_rng(11))
        cells, depths = _split(_arguments(f, s), CUBATURE_MAX_SPREAD, 16)
        assert 1 < len(cells) <= 16
        recording = _Recording(f)
        est = _cubature(recording, s, CUBATURE_DEGREE // 2, cells, depths, 3.0)
        assert max(recording.batches) <= MC_BLOCK_ROWS
        assert sum(recording.batches) == len(cells) * math.comb(15, 8)
        pieces = [integrate_cubature(f, Simplex(c @ s.vertices), CUBATURE_DEGREE) for c in cells]
        mean = math.fsum(p.mean_value * 0.5**d for p, d in zip(pieces, depths.tolist()))
        assert est.mean_value == pytest.approx(mean, rel=1e-14, abs=1e-14)


class TestChanceFailureRegression:
    def test_cor2_trial_628_passes_on_cubature(self):
        # At 256 samples this cor2 trial failed against Monte Carlo with slack
        # -0.08049 at tolerance 0.08043; its interval mean now comes from the
        # cubature rule, and the verdict is judged at TOL_CHAIN.
        cfg = CampaignConfig(trials_per_theorem=2000, mc_samples=256)
        _, seeds, instances, _ = _build_block(cfg, [628])[0]
        selected = [("cor2", instance := instances["cor2"][0])]
        [gt] = _ground_truths(selected, seeds, cfg.mc_samples, {})
        [report] = chain_reports(selected, [gt])
        recipe = ground_truth_recipe(gt, seeds["interval"])
        assert instance[0].kind == "log_sum_exp"
        assert recipe == {"method": "cubature", "degree": 15}
        assert report.passed and report.tolerance_used == 1e-8
        assert min(report.slacks) > 1e-5
        descriptor = {
            "chain": "cor2",
            "function": instance[0].to_json_dict(),
            "params": instance[2],
            "ground_truth": recipe,
        }
        assert replay_failure(json.loads(dumps(descriptor))).slacks == report.slacks
        # the descriptor the campaign recorded then still replays by Monte Carlo
        descriptor["ground_truth"] = {
            "method": "monte_carlo", "samples": 256, "seed": seeds["interval"]
        }
        old = replay_failure(json.loads(dumps(descriptor)))
        assert old.verdict == "fail" and old.slacks[2] == -0.08048860401037738
