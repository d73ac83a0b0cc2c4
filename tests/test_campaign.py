import dataclasses
import hashlib
import json

import numpy as np
import pytest

from hhbounds import (
    CHAIN_NAMES,
    CampaignConfig,
    ConditionNotViolatedError,
    MissingBaselineError,
    Simplex,
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
from hhbounds import quadrature
from hhbounds.campaign import CHAINS
from hhbounds.cli import build_parser
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

    def test_default_config_round_trip_same_bytes(self):
        # the scale 1.0 is read back as the int 1 and must still print as 1.0
        text = dumps(default_config().to_json_dict())
        back = CampaignConfig.from_json_dict(json.loads(text))
        assert dumps(back.to_json_dict()) == text
        assert '"subsimplex_scales":[0.2,0.4,0.6,0.8,1.0]' in text

    def test_unknown_config_key_rejected(self):
        with pytest.raises(ValueError, match="trials"):
            CampaignConfig.from_json_dict({"trials": 10})

    @pytest.mark.parametrize(
        "data, key",
        [
            ({"master_seed": 1.9}, "master_seed"),
            ({"trials_per_theorem": True}, "trials_per_theorem"),
            ({"mc_samples": "4000"}, "mc_samples"),
            ({"dimensions": 3}, "dimensions"),
            ({"dimensions": [2.5]}, "dimensions"),
            ({"dimensions": [True]}, "dimensions"),
            ({"subsimplex_scales": ["a"]}, "subsimplex_scales"),
            ({"theorems": "thm2"}, "theorems"),
        ],
    )
    def test_ill_typed_values_rejected(self, data, key):
        with pytest.raises(ValueError, match=key):
            CampaignConfig.from_json_dict(data)

    def test_non_object_config_rejected(self):
        with pytest.raises(ValueError, match="object"):
            CampaignConfig.from_json_dict([1, 2])

    @pytest.mark.parametrize(
        "overrides, key",
        [
            ({"trials_per_theorem": 2.5}, "trials_per_theorem"),
            ({"trials_per_theorem": 3.0}, "trials_per_theorem"),
            ({"trials_per_theorem": True}, "trials_per_theorem"),
            ({"mc_samples": 1000.5}, "mc_samples"),
            ({"master_seed": 7.0}, "master_seed"),
            ({"dimensions": (2.5,)}, "dimensions"),
            ({"dimensions": (2, True)}, "dimensions"),
        ],
    )
    def test_validate_rejects_non_int(self, overrides, key):
        # a config built in Python fails here, not inside the trial loop
        with pytest.raises(ValueError, match=key):
            CampaignConfig(**overrides).validate()

    @pytest.mark.parametrize(
        "overrides, key",
        [
            ({"dimensions": 3}, "dimensions"),
            ({"function_kinds": 5}, "function_kinds"),
            ({"function_kinds": "affine"}, "function_kinds"),
            ({"function_kinds": ("affine", "cubic")}, "function_kinds"),
            ({"subsimplex_scales": ("a",)}, "subsimplex_scales"),
            ({"subsimplex_scales": (True,)}, "subsimplex_scales"),
            ({"subsimplex_scales": 0.5}, "subsimplex_scales"),
            ({"theorems": "thm2"}, "theorems"),
            ({"theorems": ("thm2", "thm9")}, "theorems"),
        ],
    )
    def test_validate_rejects_ill_typed_lists(self, overrides, key):
        # these used to raise TypeError, or name the wrong value
        with pytest.raises(ValueError, match=key):
            CampaignConfig(**overrides).validate()

    def test_negative_master_seed_rejected(self):
        with pytest.raises(ValueError, match="master_seed"):
            CampaignConfig(master_seed=-1).validate()
        with pytest.raises(ValueError, match="master_seed"):
            CampaignConfig.from_json_dict({"master_seed": -1})

    def test_numpy_integers_accepted(self):
        CampaignConfig(trials_per_theorem=np.int64(3), dimensions=(np.int32(2),)).validate()

    def test_integral_floats_accepted(self):
        cfg = CampaignConfig.from_json_dict({"trials_per_theorem": 3.0, "dimensions": [2.0]})
        assert cfg.trials_per_theorem == 3 and cfg.dimensions == (2,)
        assert isinstance(cfg.trials_per_theorem, int)


class TestRegistry:
    def test_keys_are_the_chain_names(self):
        assert tuple(CHAINS) == CHAIN_NAMES

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
            "ab58e3825e44923ce6480c97be89c08b99f19821e22efcd132870bd4000a52ff"
        )

    def test_polynomial_and_smooth_kinds_result_pinned(self):
        # The default mix without max_of_affines and hinge_distance: the
        # closed-form, cubature and Monte Carlo kinds of the ground-truth policy.
        cfg = CampaignConfig(
            trials_per_theorem=48,
            mc_samples=2000,
            function_kinds=("affine", "quadratic_psd", "exp_affine", "log_sum_exp"),
        )
        digest = hashlib.sha256(run_campaign(cfg).to_json().encode()).hexdigest()
        assert digest == (
            "4b1de7e89603e5dfd01f087f1506e411d4d8c2018fc149d7a62d8d38fed0b43d"
        )

    #: sha256 of ``dumps(per_theorem[name])`` for the simplex chains of a
    #: max_of_affines campaign in dims 2-8: exact ground truth for two
    #: pieces, Monte Carlo for three to five.
    _MAX_OF_AFFINES_SECTIONS = {
        "choquet": "148b1208ffdb3c65c02aa4af8222be5a6b3c48da31f2396eb9e068bf4864917a",
        "thm2": "0832271d6498c90f842a4ca7fc1f186c8354e09414aff033f7378cca83d733dc",
        "thm3": "18bdcfcad42fa0d3a7dad78ded6331ca21fc69de926c9ef085cc25f7688840d3",
        "thm4": "29de0484269dcf76d1a6d2a23592f381f019185f9804d7f9a592d367c1e8e532",
        "thm5": "626c40091956806036c9bf53dfb15bf91a4f4b94ae23dc1d21186d5bd3b83e3a",
        "thm6": "7a482a40bab16cb062f4ffa84dd90a0c05c8fbfd31f16a9cf95569add02318bb",
    }

    def test_max_of_affines_multidim_sections_pinned(self):
        cfg = CampaignConfig(
            dimensions=tuple(range(2, 9)),
            trials_per_theorem=28,
            mc_samples=2000,
            function_kinds=("max_of_affines",),
        )
        result = run_campaign(cfg)
        digests = {
            name: hashlib.sha256(dumps(result.per_theorem[name]).encode()).hexdigest()
            for name in self._MAX_OF_AFFINES_SECTIONS
        }
        assert digests == self._MAX_OF_AFFINES_SECTIONS

    #: sha256 of ``dumps(per_theorem[name])`` for the chains on the parent
    #: simplex and the cor2 interval, and for thm6, for the 48-trial default
    #: mix at 2000 and at 2 MC samples.  thm6 has no ground truth, so its
    #: sections stay as they were before any ground-truth change.
    _UNMOVED_SECTIONS = {
        2000: {
            "choquet": "0a11fbc28522b96c522ef8790d17dc7bbad32019c2cc250f02a072fb4db49281",
            "thm2": "ab94699a031e7582b813c42645042d8be2a1436b1f8e9e908afe18e72387d140",
            "thm3": "9c5ce87b0fc708e18d161b242c57317e01d5589be21c07c63e2e248d498fdf4a",
            "thm6": "f58d69da05946ad08389044131aec98cf444043fdd5dfe1def5a3ee7eaf61fb5",
            "cor2": "faeb86cbaa2a6f8d56da64586440e246ee47c548272c64846aa8010155abe421",
        },
        2: {
            "choquet": "460f74e6051e90515bc7450e1e33ae997f5384fdd6109a7bfd391f267df1f15a",
            "thm2": "6199c7084515d614a9a4159274d7a65812d8dbc8ead04e60322e8eba4cd25548",
            "thm3": "d873ff0943f4d8c65d93b20db8993bfe43e2442083ccdb181d6b08248b331e69",
            "thm6": "f58d69da05946ad08389044131aec98cf444043fdd5dfe1def5a3ee7eaf61fb5",
            "cor2": "3372065786637d1191b00c277fa688f1cb2267b8fc0abfad2ce2121c7d3038e9",
        },
    }

    @pytest.mark.parametrize("mc_samples", [2000, 2])
    def test_unmoved_sections_pinned(self, mc_samples):
        result = run_campaign(CampaignConfig(trials_per_theorem=48, mc_samples=mc_samples))
        digests = {
            name: hashlib.sha256(dumps(result.per_theorem[name]).encode()).hexdigest()
            for name in self._UNMOVED_SECTIONS[mc_samples]
        }
        assert digests == self._UNMOVED_SECTIONS[mc_samples]

    def test_four_ground_truths_per_trial(self, monkeypatch):
        # 4 ground truths per trial (parent, subsimplex, cor2 interval, cor3
        # window), each shared by every chain on its domain; the parent and
        # subsimplex estimates share one weight stream, and so do the
        # interval and window estimates.  Of the 8 hinge_distance trials all
        # 32 are exact; of the 8 max_of_affines trials (none with two pieces
        # in dims >= 2), the 16 on 1-D intervals and windows and the 4 on the
        # two 1-D parents are exact.  Of the 32 domains of the 8 log_sum_exp
        # trials, 25 lie within the cubature limits (dimension, argument
        # spread and magnitude) and its estimate is accepted on all 25; the
        # other 7 go to Monte Carlo.
        counts = {"streams": 0, "mc": 0, "exact": 0, "cubature": 0, "accepted": 0}
        shared, exact = quadrature.integrate_mc_shared, quadrature.integrate_exact
        cubature = quadrature.integrate_cubature

        def counting_shared(pairs, *args):
            counts["streams"] += 1
            counts["mc"] += len(pairs)
            return shared(pairs, *args)

        def counting_exact(*args):
            counts["exact"] += 1
            return exact(*args)

        def counting_cubature(*args):
            estimate = cubature(*args)
            counts["cubature"] += 1
            counts["accepted"] += estimate.std_error <= quadrature.CUBATURE_MAX_ERROR
            return estimate

        monkeypatch.setattr(quadrature, "integrate_mc_shared", counting_shared)
        monkeypatch.setattr(quadrature, "integrate_exact", counting_exact)
        monkeypatch.setattr(quadrature, "integrate_cubature", counting_cubature)
        run_campaign(CampaignConfig(trials_per_theorem=48))
        assert counts == {
            "streams": 29, "mc": 51, "exact": 116, "cubature": 25, "accepted": 25
        }
        assert counts["exact"] + counts["accepted"] + counts["mc"] == 4 * 48

    def test_six_solves_per_closed_form_trial(self, monkeypatch):
        # Per trial: the centred subsimplex and the thm6 mixture shift in
        # _build_trial, then thm2's point, one containment solve for thm3's
        # j sweep, one shared by thm4 and thm5, and thm6's points.
        calls = []
        solve = Simplex.solve_weights

        def counting(self, points):
            calls.append(1)
            return solve(self, points)

        monkeypatch.setattr(Simplex, "solve_weights", counting)
        cfg = CampaignConfig(
            trials_per_theorem=16, mc_samples=2, function_kinds=quadrature.EXACT_KINDS
        )
        run_campaign(cfg)
        assert len(calls) == 6 * 16

    def test_single_chain_selection_keeps_its_section(self):
        # a shared pass gives each domain the estimate it gets alone, so a
        # campaign of thm4 only reproduces the thm4 section of the full one
        cfg = CampaignConfig(trials_per_theorem=24, mc_samples=2000)
        full = run_campaign(cfg).per_theorem["thm4"]
        alone = run_campaign(dataclasses.replace(cfg, theorems=("thm4",)))
        assert dumps(alone.per_theorem["thm4"]) == dumps(full)

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

    def test_negative_zero_coordinates_survive_json(self):
        s = Simplex([[-0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        f = random_convex(2, "quadratic_psd", 4, simplex=s)
        point = np.array([0.25, -0.0])
        report = thm2_upper(f, s, point, integrate_exact(f, s))
        descriptor = {
            "chain": "thm2",
            "dimension": 2,
            "simplex": s.to_json_dict(),
            "function": f.to_json_dict(),
            "params": {"point": point.tolist()},
            "ground_truth": {"method": "exact_polynomial"},
        }
        back = json.loads(dumps(descriptor))
        assert np.signbit(back["simplex"]["vertices"][0][0])
        assert np.signbit(back["params"]["point"][1])
        assert np.signbit(Simplex.from_json_dict(back["simplex"]).vertices[0, 0])
        assert replay_failure(back).slacks == report.slacks

    def test_exact_hinge_descriptor_replays(self):
        rng = np.random.default_rng(2)
        s = random_simplex(4, rng)
        f = random_convex(4, "hinge_distance", 6, simplex=s)
        descriptor = {
            "chain": "thm3",
            "simplex": s.to_json_dict(),
            "function": f.to_json_dict(),
            "params": {"subsimplex": s.homothety_about_centroid(0.4).to_json_dict(), "j": 2},
            "ground_truth": {"method": "exact_polynomial"},
        }
        report = replay_failure(json.loads(dumps(descriptor)))
        assert report.ground_truth == integrate_exact(f, s)
        assert report.tolerance_used == 1e-8 and report.verdict == "pass"
        assert replay_failure(descriptor).slacks == report.slacks

    def test_witness_descriptor_replays(self):
        witness = search_cor3_counterexample(1.0, 1.0, 0.0, 1.0, 0.75, budget=2000, seed=3)
        assert witness is not None
        rep = replay_failure(witness)
        assert list(rep.slacks) == witness["slacks"]
        assert rep.condition_holds is False


class TestPinnedReplay:
    """Fixed outputs that the campaign and replay paths must keep exactly."""

    def test_two_sample_campaign_pinned_and_replayed(self):
        # mc_samples=2 makes the Monte Carlo tolerance noisy enough that the
        # default mix fails on several chains, so the failure path is covered.
        result = run_campaign(CampaignConfig(trials_per_theorem=48, mc_samples=2))
        text = result.to_json()
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "127d2dd922e7093185782c3e55603449c701dc049657c61b37114b9ac5dc2aa1"
        )
        failures = json.loads(text)["failures"]
        assert len(failures) == 21
        assert {d["chain"] for d in failures} == {"choquet", "thm2", "thm3", "thm4", "cor2"}
        for descriptor in failures:
            report = replay_failure(descriptor)
            assert list(report.slacks) == descriptor["slacks"]
            assert report.verdict == descriptor["verdict"]
            assert report.tolerance_used == descriptor["tolerance"]

    _TRIANGLE = Simplex([[0.0, 0.0], [2.0, 0.0], [0.5, 1.5]])

    def test_thm5_descriptor_replay_pinned(self):
        s = self._TRIANGLE
        p = [0.7, 0.4]
        sub = s.centered_subsimplex(p, 0.5)
        descriptor = {
            "chain": "thm5",
            "dimension": 2,
            "simplex": s.to_json_dict(),
            "function": {
                "kind": "log_sum_exp",
                "params": {
                    "slopes": [[1.0, 0.5], [-0.5, 1.0], [0.2, -1.0]],
                    "offsets": [0.0, 0.3, -0.2],
                },
                "label": "",
            },
            "params": {"subsimplex": sub.to_json_dict()},
            "ground_truth": {"method": "monte_carlo", "samples": 3000, "seed": 41},
        }
        report = replay_failure(json.loads(dumps(descriptor)))
        assert report.verdict == "pass"
        assert list(report.slacks) == [0.1258579133606128, 0.0687450378234471]
        assert report.tolerance_used == 0.006167550807916049

    def test_thm6_descriptor_replay_pinned(self):
        descriptor = {
            "chain": "thm6",
            "dimension": 2,
            "simplex": self._TRIANGLE.to_json_dict(),
            "function": {
                "kind": "hinge_distance",
                "params": {"slope": [0.6, -0.8], "threshold": -0.1},
                "label": "",
            },
            "params": {
                "points": [[1.25, 0.75], [0.25, 0.75], [1.0, 0.0]],
                "betas": [1 / 3, 1 / 3, 1 / 3],
            },
            "ground_truth": None,
        }
        report = replay_failure(json.loads(dumps(descriptor)))
        assert report.verdict == "pass"
        assert list(report.slacks) == [0.11666666666666661, 0.15000000000000013]
        assert report.tolerance_used == 1e-08


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
        ratio = tightness_ratio(rep.values, CHAINS["thm2"].tightness)
        assert abs(ratio - 0.25) < 1e-14

    def test_degenerate_gap_is_null(self):
        f = random_convex(2, "affine", 4)
        s = standard_simplex(2)
        gt = integrate_exact(f, s)
        rep = thm2_upper(f, s, s.centroid, gt)
        assert tightness_ratio(rep.values, CHAINS["thm2"].tightness) is None

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
            slacks = []
            for t in grid:
                sub = s.centered_subsimplex(p, t)
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

    def test_witness_keys_are_campaign_descriptor_keys(self):
        # one descriptor format: a 1-D campaign failure, less its trial index,
        # then the search's own keys
        cfg = CampaignConfig(
            dimensions=(1,),
            trials_per_theorem=24,
            mc_samples=2,
            theorems=("cor3",),
            function_kinds=("exp_affine",),
        )
        failure = run_campaign(cfg).failures[0]
        witness = search_cor3_counterexample(1.0, 1.0, 0.0, 1.0, 0.75, budget=500, seed=3)
        assert list(witness) == [key for key in failure if key != "trial"] + [
            "kink", "slack", "candidates_examined"
        ]


class TestRandomSimplex:
    def test_conditioning_filter(self):
        rng = np.random.default_rng(20)
        for dim in (1, 4, 8):
            for _ in range(20):
                s = random_simplex(dim, rng)
                E = s.vertices[1:] - s.vertices[0]
                assert np.linalg.cond(E) <= 1e6
