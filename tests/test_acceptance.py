"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with ``pytest -v tests/test_acceptance.py`` (add ``-s`` to see the
per-criterion PASS lines).  The full randomized campaign (criterion 3) runs
once as a session fixture and is reused by criteria 5 and 8; criterion 8
performs the second, byte-comparison run.  These three are marked ``slow``;
``pytest -m "not slow"`` leaves them out for a fast development loop.
"""

import time

import numpy as np
import pytest

from hhbounds import (
    CampaignConfig,
    ConvexFunction,
    Simplex,
    choquet_chain,
    default_config,
    integrate_exact,
    integrate_mc,
    random_convex,
    random_simplex,
    run_campaign,
    search_cor3_counterexample,
    standard_simplex,
    thm2_upper,
    thm3_chain,
)

SQ_1D = ConvexFunction(
    "quadratic_psd", {"matrix": [[1.0]], "slope": [0.0], "offset": 0.0}, "x^2"
)
SQ_2D = ConvexFunction(
    "quadratic_psd", {"matrix": np.eye(2), "slope": np.zeros(2), "offset": 0.0}, "|x|^2"
)


@pytest.fixture(scope="session")
def full_campaign():
    return run_campaign(default_config())


def test_criterion_1_classical_interval_chain():
    unit = Simplex([[0.0], [1.0]])
    expected = np.array([0.25, 1.0 / 3.0, 0.5])

    def one_shot():
        gt = integrate_exact(SQ_1D, unit)
        return choquet_chain(SQ_1D, unit, gt)

    report = one_shot()
    assert report.ground_truth.method == "exact_polynomial"
    assert np.abs(np.array(report.values) - expected).max() < 1e-12
    assert report.passed
    timings = []
    for _ in range(50):
        t0 = time.perf_counter()
        one_shot()
        timings.append(time.perf_counter() - t0)
    runtime = float(np.median(timings))
    assert runtime < 1e-3
    print(
        f"\nACCEPTANCE PASS criterion 1: interval chain "
        f"[0.25, 1/3, 0.5] exact, {runtime * 1e6:.0f} us per evaluation"
    )


def test_criterion_2_pinned_upper_desk_check():
    triangle = standard_simplex(2)
    gt = integrate_exact(SQ_2D, triangle)
    report = thm2_upper(SQ_2D, triangle, triangle.centroid, gt)
    expected = np.array([1.0 / 3.0, 14.0 / 27.0, 2.0 / 3.0])
    assert np.abs(np.array(report.values) - expected).max() < 1e-12
    # strictly between the mean and the classical bound
    assert report.values[0] < report.values[1] < report.values[2]
    print(
        "\nACCEPTANCE PASS criterion 2: triangle pinned-upper chain "
        "[1/3, 14/27, 2/3] exact, refinement strict"
    )


@pytest.mark.slow
def test_criterion_3_full_randomized_suite(full_campaign):
    result = full_campaign
    cfg = result.config
    assert cfg.dimensions == tuple(range(1, 9))
    assert cfg.trials_per_theorem == 10_000
    assert cfg.mc_samples == 100_000
    for name in ("thm2", "thm3", "thm4", "thm5", "thm6", "cor2", "cor3"):
        assert name in result.per_theorem
    failures = sum(stats["failures"] for stats in result.per_theorem.values())
    assert failures == 0
    assert result.failures == []
    for name, stats in result.per_theorem.items():
        expected = 10_000
        if name == "thm3":
            expected = 1250 * sum(d + 1 for d in range(1, 9))
        assert stats["evaluations"] == expected
    assert result.wall_time_seconds < 600.0
    print(
        f"\nACCEPTANCE PASS criterion 3: 10^4 trials/theorem over dims 1..8, "
        f"zero failures, {result.wall_time_seconds:.0f}s"
    )


def test_criterion_4_affine_equality_suite():
    cfg = CampaignConfig(
        dimensions=tuple(range(1, 9)),
        trials_per_theorem=1000,
        mc_samples=100_000,
        master_seed=424243,
        function_kinds=("affine",),
    )
    result = run_campaign(cfg)
    assert result.all_passed
    worst = 0.0
    for stats in result.per_theorem.values():
        for row in stats["slacks"]:
            worst = max(worst, abs(row["min"]), abs(row["max"]))
    assert worst <= 1e-8
    print(
        f"\nACCEPTANCE PASS criterion 4: 10^3 affine trials per chain, "
        f"max |slack| = {worst:.2e} <= 1e-8"
    )


@pytest.mark.slow
def test_criterion_5_refinement_dominance(full_campaign):
    per = full_campaign.per_theorem
    # slack position 1 is refined -> classical for thm2, improved -> thm4
    # bound for thm5; both must never dip below -1e-8
    thm2_min = per["thm2"]["slacks"][1]["min"]
    thm5_min = per["thm5"]["slacks"][1]["min"]
    assert thm2_min >= -1e-8
    assert thm5_min >= -1e-8
    print(
        f"\nACCEPTANCE PASS criterion 5: dominance slacks "
        f"thm2 >= {thm2_min:.2e}, thm5 >= {thm5_min:.2e} over all trials"
    )


def _criterion_6_windows():
    """The 20 (p, q, a, b, y, seed) cases of criterion 6, each window too wide."""
    weight_pairs = [(1.0, 1.0), (1.0, 3.0), (2.0, 0.5), (0.7, 0.7), (4.0, 1.0)]
    intervals = [(0.0, 1.0), (-1.0, 1.0), (2.0, 5.0), (-3.0, -1.0)]
    for i, (p, q) in enumerate(weight_pairs):
        for k, (a, b) in enumerate(intervals):
            threshold = (b - a) * min(p, q) / (p + q)
            y = threshold + 0.07 * (b - a)  # 7% of the interval above threshold
            yield p, q, a, b, y, 1000 + 20 * i + k


def test_criterion_6_cor3_necessity():
    found = 0
    for p, q, a, b, y, seed in _criterion_6_windows():
        witness = search_cor3_counterexample(p, q, a, b, y, budget=10_000, seed=seed)
        assert witness is not None, (p, q, a, b, y)
        assert witness["slack"] < -1e-6
        assert witness["candidates_examined"] <= 10_000
        found += 1
    assert found == 20
    print(
        "\nACCEPTANCE PASS criterion 6: 20/20 violated-condition instances "
        "produced witnesses with slack < -1e-6"
    )


def test_criterion_6_witness_slack_independent():
    # the witness slack against the cor3 upper slack of its hinge
    # max(0, s*x - c), s = +-1, with the window mean taken from the ramp's
    # antiderivative max(0, s*x - c)**2 / (2*s)
    for p, q, a, b, y, seed in _criterion_6_windows():
        witness = search_cor3_counterexample(p, q, a, b, y, budget=10_000, seed=seed)
        params = witness["function"]["params"]
        s, c = params["slope"][0], params["threshold"]

        def ramp(x):
            return max(0.0, s * x - c)

        def antiderivative(x):
            return ramp(x) ** 2 / (2.0 * s)

        center = (p * a + q * b) / (p + q)
        lo, hi = center - y, center + y
        mean = (antiderivative(hi) - antiderivative(lo)) / (hi - lo)
        ref = (p * ramp(a) + q * ramp(b)) / (p + q) - mean
        assert abs(witness["slack"] - ref) <= 1e-12 * max(1.0, abs(ref)), (p, q, a, b)


def test_criterion_7_cross_method_geometry():
    rng = np.random.default_rng(20260810)
    checked = 0
    for dim in range(1, 9):
        for _ in range(125):
            s = random_simplex(dim, rng)
            x = rng.dirichlet(np.ones(dim + 1)) @ s.vertices
            w_solve = s.solve_weights(x)
            w_vol = s.barycentric_volumes(x)
            assert np.abs(w_solve - w_vol).max() < 1e-9
            total = sum(s.replace_vertex(i, x).volume for i in range(dim + 1))
            assert abs(total - s.volume) <= 1e-10 * s.volume
            checked += 1
    assert checked == 1000
    print(
        "\nACCEPTANCE PASS criterion 7: solve vs volume-ratio weights agree "
        "to 1e-9 on 10^3 points, partition identity to 1e-10"
    )


@pytest.mark.slow
def test_criterion_8_campaign_determinism(full_campaign, tmp_path_factory):
    directory = tmp_path_factory.mktemp("determinism")
    first = directory / "run1.json"
    second = directory / "run2.json"
    first.write_text(full_campaign.to_json() + "\n")
    rerun = run_campaign(default_config())
    second.write_text(rerun.to_json() + "\n")
    assert first.read_bytes() == second.read_bytes()
    print(
        "\nACCEPTANCE PASS criterion 8: two default-campaign runs wrote "
        f"byte-identical result files ({len(first.read_bytes())} bytes)"
    )


def test_criterion_9_degeneration_identities():
    rng = np.random.default_rng(9)
    kinds = ("quadratic_psd", "max_of_affines", "exp_affine", "log_sum_exp")
    for case in range(60):
        dim = int(rng.integers(1, 7))
        s = random_simplex(dim, rng)
        f = random_convex(dim, kinds[case % 4], int(rng.integers(2**31)), simplex=s)
        gt = (
            integrate_exact(f, s)
            if f.kind == "quadratic_psd"
            else integrate_mc(f, s, 1000, seed=case)
        )
        classical = choquet_chain(f, s, gt)
        # subsimplex chain at full scale collapses onto the classical chain
        degenerate = thm3_chain(f, s, s, int(rng.integers(dim + 1)), gt)
        assert abs(degenerate.values[0] - classical.values[0]) < 1e-12
        assert abs(degenerate.values[1] - classical.values[0]) < 1e-12
        assert abs(degenerate.values[3] - classical.values[2]) < 1e-12
        assert abs(degenerate.values[4] - classical.values[2]) < 1e-12
        # pinning at the centroid reproduces the reduced closed form
        pinned = thm2_upper(f, s, s.centroid, gt)
        fv = f(s.vertices)
        reduced = (dim / (dim + 1) * fv.sum() + f(s.centroid)) / (dim + 1)
        assert abs(pinned.values[1] - reduced) < 1e-12
    print(
        "\nACCEPTANCE PASS criterion 9: full-scale subsimplex chain and "
        "centroid-pinned bound reproduce their closed forms to 1e-12"
    )
