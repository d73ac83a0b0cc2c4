import hashlib

import numpy as np
import pytest

from hhbounds import (
    CampaignConfig,
    ConditionNotViolatedError,
    MissingBaselineError,
    default_config,
    integrate_exact,
    random_convex,
    random_simplex,
    replay_failure,
    run_campaign,
    search_cor3_counterexample,
    slack_histograms_csv,
    standard_simplex,
    thm2_upper,
    thm4_chain,
    tightness_ratio,
    tightness_table,
)
from hhbounds.campaign import TIGHTNESS_TRIPLES
from hhbounds.serialize import dumps

SMALL = CampaignConfig(
    dimensions=(1, 2, 3, 4),
    trials_per_theorem=48,
    mc_samples=4000,
    master_seed=777,
)


@pytest.fixture(scope="module")
def small_result():
    return run_campaign(SMALL)


class TestConfig:
    def test_default_is_full_suite(self):
        cfg = default_config()
        assert cfg.dimensions == tuple(range(1, 9))
        assert cfg.trials_per_theorem == 10_000
        assert cfg.mc_samples == 100_000
        assert len(cfg.theorems) == 8
        cfg.validate()

    def test_unknown_theorem_rejected(self):
        cfg = CampaignConfig(theorems=("choquet", "thm9"))
        with pytest.raises(ValueError, match="thm9"):
            cfg.validate()

    def test_bad_scales_rejected(self):
        with pytest.raises(ValueError):
            CampaignConfig(subsimplex_scales=(0.0, 0.5)).validate()
        with pytest.raises(ValueError):
            CampaignConfig(subsimplex_scales=(0.5, 1.2)).validate()

    def test_json_round_trip(self):
        cfg = CampaignConfig(dimensions=(2, 3), trials_per_theorem=10, master_seed=5)
        back = CampaignConfig.from_json_dict(cfg.to_json_dict())
        assert back == cfg

    def test_unknown_config_key_rejected(self):
        with pytest.raises(ValueError, match="trials"):
            CampaignConfig.from_json_dict({"trials": 10})


class TestRunCampaign:
    def test_zero_failures_on_small_suite(self, small_result):
        assert small_result.all_passed
        assert small_result.failures == []
        assert small_result.trials == 48

    def test_every_chain_sees_every_trial(self, small_result):
        per = small_result.per_theorem
        for name in SMALL.theorems:
            expected = 48
            if name == "thm3":
                # one evaluation per subsimplex vertex; dims cycle 1,2,3,4
                expected = sum(SMALL.dimensions[i % 4] + 1 for i in range(48))
            assert per[name]["evaluations"] == expected
            assert per[name]["passes"] == per[name]["evaluations"]

    def test_slack_stats_shape(self, small_result):
        per = small_result.per_theorem
        assert len(per["choquet"]["slacks"]) == 2
        assert len(per["thm3"]["slacks"]) == 4
        assert len(per["cor2"]["slacks"]) == 4
        for row in per["thm3"]["slacks"]:
            assert row["min"] <= row["p50"] <= row["max"]

    def test_deterministic_byte_identical(self):
        cfg = CampaignConfig(
            dimensions=(1, 3), trials_per_theorem=12, mc_samples=2000, master_seed=99
        )
        a = run_campaign(cfg).to_json()
        b = run_campaign(cfg).to_json()
        assert a == b

    def test_result_bytes_pinned(self):
        # Regression gate for kernel and refactoring work: the default mix
        # (all kinds and chains, dims 1-8) must keep producing these exact
        # result bytes.  A change here has to be stated and explained.
        cfg = CampaignConfig(trials_per_theorem=48, mc_samples=2000)
        digest = hashlib.sha256(run_campaign(cfg).to_json().encode()).hexdigest()
        assert digest == (
            "64f21cda48dc624a101efc2774a141b744f1a6920ff6d926be8eee6b87edade3"
        )

    def test_wall_time_not_serialized(self, small_result):
        assert small_result.wall_time_seconds > 0.0
        assert "wall" not in small_result.to_json()

    def test_affine_only_zoo_equality(self):
        cfg = CampaignConfig(
            dimensions=(1, 2, 3),
            trials_per_theorem=30,
            mc_samples=2000,
            master_seed=5,
            function_kinds=("affine",),
        )
        result = run_campaign(cfg)
        assert result.all_passed
        for stats in result.per_theorem.values():
            for row in stats["slacks"]:
                assert abs(row["min"]) <= 1e-8 and abs(row["max"]) <= 1e-8

    def test_choquet_only_selection(self):
        cfg = CampaignConfig(
            dimensions=(2,),
            trials_per_theorem=10,
            mc_samples=2000,
            master_seed=1,
            theorems=("choquet",),
        )
        result = run_campaign(cfg)
        assert list(result.per_theorem) == ["choquet"]
        assert result.all_passed


class TestReplay:
    def test_descriptor_replays_bitwise(self):
        # build a descriptor by hand (the campaign path yields none on a
        # passing run) and check the replay is exactly reproducible
        rng = np.random.default_rng(0)
        s = random_simplex(3, rng)
        f = random_convex(3, "log_sum_exp", 11, simplex=s)
        descriptor = {
            "chain": "choquet",
            "trial": 0,
            "dimension": 3,
            "simplex": s.to_json_dict(),
            "function": f.to_json_dict(),
            "params": {},
            "ground_truth": {"method": "monte_carlo", "samples": 5000, "seed": 17},
        }
        first = replay_failure(descriptor)
        second = replay_failure(descriptor)
        assert first.slacks == second.slacks
        assert first.verdict == second.verdict

    def test_descriptor_survives_json_round_trip(self):
        import json

        rng = np.random.default_rng(1)
        s = random_simplex(2, rng)
        f = random_convex(2, "hinge_distance", 3, simplex=s)
        sub = s.homothety_about_centroid(0.5)
        descriptor = {
            "chain": "thm3",
            "simplex": s.to_json_dict(),
            "function": f.to_json_dict(),
            "params": {"subsimplex": sub.to_json_dict(), "j": 1},
            "ground_truth": {"method": "monte_carlo", "samples": 3000, "seed": 23},
        }
        direct = replay_failure(descriptor)
        rehydrated = replay_failure(json.loads(dumps(descriptor)))
        assert direct.slacks == rehydrated.slacks

    def test_witness_descriptor_replays(self):
        witness = search_cor3_counterexample(1.0, 1.0, 0.0, 1.0, 0.75, budget=2000, seed=3)
        assert witness is not None
        rep = replay_failure(witness)
        assert list(rep.slacks) == witness["slacks"]
        assert rep.condition_holds is False


class TestTightness:
    def test_ratio_frozen_example(self):
        # unit interval, pin at the midpoint: (3/8 - 1/3) / (1/2 - 1/3) = 1/4
        from hhbounds import ConvexFunction, Simplex

        unit = Simplex([[0.0], [1.0]])
        sq = ConvexFunction(
            "quadratic_psd", {"matrix": [[1.0]], "slope": [0.0], "offset": 0.0}
        )
        gt = integrate_exact(sq, unit)
        rep = thm2_upper(sq, unit, np.array([0.5]), gt)
        ratio = tightness_ratio(rep.values, TIGHTNESS_TRIPLES["thm2"])
        assert abs(ratio - 0.25) < 1e-14

    def test_degenerate_gap_is_null(self):
        f = random_convex(2, "affine", 4)
        s = standard_simplex(2)
        gt = integrate_exact(f, s)
        rep = thm2_upper(f, s, s.centroid, gt)
        assert tightness_ratio(rep.values, TIGHTNESS_TRIPLES["thm2"]) is None

    def test_table_rows_and_bounds(self, small_result):
        rows = tightness_table(small_result)
        names = [row["theorem"] for row in rows]
        assert names == ["thm2", "thm3", "thm5", "cor2"]
        for row in rows:
            if row["n"]:
                # refined <= classical forces ratio <= 1; on passing trials
                # the numerator clears -tolerance, so ratio > -1
                assert row["max"] <= 1.0 + 1e-8
                assert row["min"] >= -1.0

    def test_affine_only_ratios_all_null(self):
        cfg = CampaignConfig(
            dimensions=(2,),
            trials_per_theorem=10,
            mc_samples=2000,
            master_seed=2,
            function_kinds=("affine",),
        )
        rows = tightness_table(run_campaign(cfg))
        for row in rows:
            assert row["n"] == 0 and row["nulls"] > 0
            assert row["min"] is None

    def test_missing_baseline(self, small_result):
        cfg = CampaignConfig(
            dimensions=(2,),
            trials_per_theorem=5,
            mc_samples=2000,
            master_seed=3,
            theorems=("thm2",),
        )
        with pytest.raises(MissingBaselineError):
            tightness_table(run_campaign(cfg))
        cfg2 = CampaignConfig(
            dimensions=(2,),
            trials_per_theorem=5,
            mc_samples=2000,
            master_seed=3,
            theorems=("choquet", "thm6"),
        )
        with pytest.raises(MissingBaselineError):
            tightness_table(run_campaign(cfg2))

    def test_monotone_tightness_in_scale(self):
        # lower slack of the subsimplex chain shrinks with the subsimplex,
        # exactly computable for quadratics
        rng = np.random.default_rng(6)
        grid = (0.8, 0.4, 0.2, 0.1)
        for seed in range(50):
            dim = int(rng.integers(2, 6))
            s = random_simplex(dim, rng)
            f = random_convex(dim, "quadratic_psd", seed)
            p = rng.dirichlet(np.full(dim + 1, 2.0)) @ s.vertices
            t_max = s.max_centered_scale(p)
            slacks = []
            for t in grid:
                sub = s.centered_subsimplex(p, t * t_max)
                rep = thm4_chain(f, s, sub, integrate_exact(f, sub))
                slacks.append(rep.slacks[0])
            for larger, smaller in zip(slacks, slacks[1:]):
                assert smaller <= larger + 1e-12


class TestCsv:
    def test_header_and_rows(self, small_result):
        text = slack_histograms_csv(small_result)
        lines = text.strip().splitlines()
        assert lines[0] == "theorem,slack_index,min,p50,max,n"
        assert any(line.startswith("choquet,0,") for line in lines)
        # 8 chains: 2+2+4+2+2+2+4+2 slack positions
        assert len(lines) == 1 + 20


class TestCor3Search:
    def test_witness_found_for_wide_window(self):
        witness = search_cor3_counterexample(1.0, 1.0, 0.0, 1.0, 0.75, budget=4000, seed=1)
        assert witness is not None
        assert witness["slack"] < -1e-6
        # kink sits near an endpoint of [a, b]
        assert min(abs(witness["kink"]), abs(witness["kink"] - 1.0)) < 0.2
        assert witness["candidates_examined"] <= 4000

    def test_determinism(self):
        w1 = search_cor3_counterexample(0.5, 2.0, -1.0, 2.0, 1.2, budget=3000, seed=9)
        w2 = search_cor3_counterexample(0.5, 2.0, -1.0, 2.0, 1.2, budget=3000, seed=9)
        assert w1 == w2

    def test_condition_not_violated_raises(self):
        with pytest.raises(ConditionNotViolatedError):
            search_cor3_counterexample(1.0, 1.0, 0.0, 1.0, 0.4, budget=100, seed=0)

    def test_barely_violating_window_reports_honestly(self):
        # violation depth ~ (1e-6)^2: far below any certifiable slack, so the
        # search must come back empty rather than fake a witness
        y = 0.5 + 1e-6
        witness = search_cor3_counterexample(1.0, 1.0, 0.0, 1.0, y, budget=500, seed=2)
        assert witness is None

    def test_budget_respected(self):
        witness = search_cor3_counterexample(1.0, 1.0, 0.0, 1.0, 0.75, budget=64, seed=4)
        assert witness is None or witness["candidates_examined"] <= 64


class TestRandomSimplex:
    def test_conditioning_filter(self):
        rng = np.random.default_rng(20)
        for dim in (1, 4, 8):
            for _ in range(20):
                s = random_simplex(dim, rng)
                E = s.vertices[1:] - s.vertices[0]
                assert np.linalg.cond(E) <= 1e6
