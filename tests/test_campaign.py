import collections
import dataclasses
import hashlib
import json

import numpy as np
import pytest

from hhbounds import (
    CHAIN_NAMES,
    CampaignConfig,
    ConditionNotViolatedError,
    ConvexFunction,
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
from hhbounds import chains, geometry, quadrature
from hhbounds.campaign import TRIAL_BLOCK, run_instances
from hhbounds.chains import CHAINS
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


@pytest.fixture(scope="module")
def full_24():
    return run_campaign(CampaignConfig(trials_per_theorem=24, mc_samples=2000))


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
            "0ca0a52025911b06ec052fd27f170b4e88610e77648c214d126219c12f313ffd"
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
            "c8e0ee4860539380683a3a6895f54a4b43fd8dc6f930085d7e287535333ae18f"
        )

    #: sha256 of ``dumps(per_theorem[name])`` for the simplex chains of a
    #: max_of_affines campaign in dims 2-8: exact ground truth for two
    #: pieces, Monte Carlo for three to five.
    _MAX_OF_AFFINES_SECTIONS = {
        "choquet": "d6c367ccf497d0cffa7f5f767952237273a62785a6688001df4f384ab6883cf3",
        "thm2": "83cf2dd14b9864dfbb2225e5053f02da1555521737fc9a07a7c060aa71318630",
        "thm3": "95318f485d260e2f20ea82bb0e7f7126d7b3cd0060e57b69e5c9aea2d0e8d938",
        "thm4": "b0c6897792b3ec31a2cbe215ccc9f2c1c04f1477179da8348a8ba88bf0d629a8",
        "thm5": "dab347303cf63993fe1f4595bf38f9cb1155afa691a18778eba4f897476cad37",
        "thm6": "dd0dcfbad494d03831c01ebed841e17c85df6e1d77f3e6f0538842d4dc6c5394",
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
            "choquet": "50861b5596c84946795bef7277c96bfc03582f158856c3d6d753c28b2598e5b2",
            "thm2": "9025e3cdd97c79708ea9fe611fa00ac1134409baaaf8f7d42c1ce524ed702b1b",
            "thm3": "8a5fb357024e0503d6450b709028e6054029aa0a4ae1304a77c980779267484f",
            "thm6": "b152066e953a69666f31832bcfafabc0389aecde6069b6b16fec061b57d87ca7",
            "cor2": "940ae26120957e5ee5bfe25629b6ce8b0e1c695401472aa1fc5614f444b884b4",
        },
        2: {
            "choquet": "eb7368df7d1a4808a4b4ae515c8e4b68fcf100847d826f66e55d318d7dd8d716",
            "thm2": "84ea8c32d3ebf972e06b2aa33141cdf7d13c2fda39ed0f077cc5f33c172a0765",
            "thm3": "f0403a93b793d15627ee3a97f8d4649f6b327f94186e14b09efb848fe4a62cf7",
            "thm6": "b152066e953a69666f31832bcfafabc0389aecde6069b6b16fec061b57d87ca7",
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

    @staticmethod
    def count_solves(monkeypatch) -> list:
        """Record every stacked weight solve: the ones ``Simplex.solve_weights``
        makes and the chain layer's."""
        calls = []
        solve = geometry.solve_stacked

        def counting(simplices, points, owners=None):
            calls.append(len(points))
            return solve(simplices, points, owners)

        monkeypatch.setattr(geometry, "solve_stacked", counting)
        monkeypatch.setattr(chains, "solve_stacked", counting)
        return calls

    def test_one_solve_per_trial_and_one_per_block_dimension(self, monkeypatch):
        # Per trial: one solve in _build_trial of the centred subsimplex's
        # pin point and the thm6 mixture shift together.  Per dimension of a
        # block: one stacked solve of every weight its chains read: thm2's
        # points, the vertices and centroid of each subsimplex, and thm6's
        # points.  The 16 trials are one block, two trials in each of dims 1-8.
        calls = self.count_solves(monkeypatch)
        cfg = CampaignConfig(
            trials_per_theorem=16, mc_samples=2, function_kinds=quadrature.EXACT_KINDS
        )
        run_campaign(cfg)
        assert len(calls) == 16 + 8

    def test_trial_budget_and_shared_domains(self, monkeypatch):
        # A closed-form trial builds 5 simplices (the parent, the thm3
        # homothety, the centred subsimplex, the cor2 interval and the cor3
        # window) and makes 1 solve, and its block 1 more per dimension; the
        # 1-D domains whose ground truths it takes are the very objects its
        # cor2 and cor3 functions were drawn on.
        from hhbounds import campaign

        counts = {"simplices": 0}
        seeded, integrated = [], []
        init = Simplex.__init__
        draw, truths = campaign.random_convex, campaign.ground_truths

        def counting_init(self, vertices):
            counts["simplices"] += 1
            init(self, vertices)

        def recording_draw(dim, kind, seed, simplex=None):
            if dim == 1:
                seeded.append(simplex)
            return draw(dim, kind, seed, simplex=simplex)

        def recording_truths(pairs, *args):
            pairs = list(pairs)
            integrated.extend(d for _, d in pairs if d.dimension == 1)
            return truths(pairs, *args)

        monkeypatch.setattr(Simplex, "__init__", counting_init)
        solves = self.count_solves(monkeypatch)
        monkeypatch.setattr(campaign, "random_convex", recording_draw)
        monkeypatch.setattr(campaign, "ground_truths", recording_truths)
        trials = 24
        cfg = CampaignConfig(
            dimensions=(2, 3, 4, 5, 6, 7, 8),
            trials_per_theorem=trials,
            mc_samples=2,
            master_seed=4242,
            function_kinds=quadrature.EXACT_KINDS,
        )
        run_campaign(cfg)
        assert counts == {"simplices": 5 * trials}
        assert len(solves) == trials + len(cfg.dimensions)
        assert len(seeded) == len(integrated) == 2 * trials
        assert all(a is b for a, b in zip(seeded, integrated))

    def test_three_function_calls_per_trial(self, monkeypatch):
        # the trial's function, its cor2 function and its cor3 function, each
        # called once on the distinct points of its chains' terms (cor2 has
        # six, cor3 three, and every trial function more than eight); the
        # ground truths of these kinds are closed forms, which call none
        calls = []
        call = ConvexFunction.__call__

        def counting(self, x):
            calls.append((id(self), len(x)))
            return call(self, x)

        monkeypatch.setattr(ConvexFunction, "__call__", counting)
        kinds = ("affine", "quadratic_psd", "hinge_distance")
        run_campaign(CampaignConfig(trials_per_theorem=16, mc_samples=2, function_kinds=kinds))
        assert len(calls) == len({f for f, _ in calls}) == 3 * 16
        sizes = collections.Counter(size for _, size in calls)
        assert sizes[6] == 16 and sizes[3] == 16 and sum(sizes.values()) == 48

    @pytest.mark.parametrize("name", CHAIN_NAMES)
    def test_single_chain_selection_keeps_its_section(self, name, full_24):
        # a shared pass gives each domain the estimate it gets alone, and a
        # point its value and weights in any batch, so a campaign of one
        # chain reproduces that chain's section of the full one
        alone = run_campaign(dataclasses.replace(full_24.config, theorems=(name,)))
        assert dumps(alone.per_theorem[name]) == dumps(full_24.per_theorem[name])

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

    def test_nonpositive_cor3_weights_raise_value_error(self):
        witness = search_cor3_counterexample(1.0, 1.0, 0.0, 1.0, 0.75)
        for p, q in ((1.0, -1.0), (0.0, 0.0)):
            bad = {**witness, "params": {**witness["params"], "p": p, "q": q}}
            with pytest.raises(ValueError, match="p and q must be positive"):
                replay_failure(bad)

    @pytest.mark.parametrize("name", ["choquet", "thm2", "thm3", "thm4", "thm5", "thm6"])
    def test_simplex_chain_descriptor_without_simplex_rejected(self, name):
        descriptor = {
            "chain": name,
            "function": random_convex(2, "affine", 1).to_json_dict(),
            "params": {},
            "ground_truth": {"method": "exact_polynomial"},
        }
        with pytest.raises(ValueError, match=f"{name} descriptor needs a simplex"):
            replay_failure(descriptor)

    def test_descriptor_without_recipe_rejected(self):
        s = standard_simplex(2)
        descriptor = {
            "chain": "choquet",
            "simplex": s.to_json_dict(),
            "function": random_convex(2, "affine", 1, simplex=s).to_json_dict(),
            "params": {},
            "ground_truth": None,
        }
        with pytest.raises(ValueError, match="choquet descriptor needs a ground_truth"):
            replay_failure(descriptor)

    @pytest.mark.parametrize("j", [1.5, "1", True])
    def test_non_integer_thm3_index_rejected(self, j):
        s = standard_simplex(2)
        descriptor = {
            "chain": "thm3",
            "simplex": s.to_json_dict(),
            "function": random_convex(2, "affine", 1, simplex=s).to_json_dict(),
            "params": {"subsimplex": s.homothety_about_centroid(0.5).to_json_dict(), "j": j},
            "ground_truth": {"method": "exact_polynomial"},
        }
        with pytest.raises(ValueError, match="j must be an integer"):
            replay_failure(descriptor)
        # an integral float still reads as its index
        descriptor["params"]["j"] = 1.0
        assert replay_failure(descriptor).passed

    def test_witness_descriptor_replays(self):
        witness = search_cor3_counterexample(1.0, 1.0, 0.0, 1.0, 0.75)
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
            "e72b5248f04ea4193ea2411792ff7a809cc0a250ee41177e451499e97aaff38e"
        )
        failures = json.loads(text)["failures"]
        assert len(failures) == 21
        assert {d["chain"] for d in failures} == {"choquet", "thm2", "thm3", "thm4", "cor2"}
        for descriptor in failures:
            report = replay_failure(descriptor)
            assert list(report.slacks) == descriptor["slacks"]
            assert report.verdict == descriptor["verdict"]
            assert report.tolerance_used == descriptor["tolerance"]

    def test_campaign_across_blocks_pinned_and_replayed(self):
        # 300 trials span three blocks of chain evaluation (128, 128, 44).
        # The digest was recorded when every trial was evaluated on its own,
        # and every failure descriptor, in trial order, replays bit for bit.
        result = run_campaign(CampaignConfig(trials_per_theorem=300, mc_samples=2))
        assert result.trials > 2 * TRIAL_BLOCK
        text = result.to_json()
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "7703eab15133f260f605074b02f9e4c127e36f6dfa1a5f277881d29487400964"
        )
        failures = json.loads(text)["failures"]
        assert len(failures) == 71
        trials = [d["trial"] for d in failures]
        assert trials == sorted(trials) and trials[-1] >= 2 * TRIAL_BLOCK
        for descriptor in failures:
            report = replay_failure(descriptor)
            assert list(report.slacks) == descriptor["slacks"]
            assert report.verdict == descriptor["verdict"]
            assert report.tolerance_used == descriptor["tolerance"]

    def test_closed_form_campaign_across_blocks_pinned(self):
        cfg = CampaignConfig(trials_per_theorem=300, function_kinds=quadrature.EXACT_KINDS)
        digest = hashlib.sha256(run_campaign(cfg).to_json().encode()).hexdigest()
        assert digest == "d7a21c516ec151db9d7d30a2688c3d8f41af8d17c15242a541356ff03f7d489d"

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
        assert list(report.slacks) == [0.12585791336061258, 0.06874503782344732]
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
        assert list(report.slacks) == [0.11666666666666661, 0.15000000000000008]
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
        witness = search_cor3_counterexample(1.0, 1.0, 0.0, 1.0, 0.75)
        assert witness is not None
        assert witness["slack"] < -1e-6
        # kink sits near an endpoint of [a, b]
        assert min(abs(witness["kink"]), abs(witness["kink"] - 1.0)) < 0.2
        assert witness["candidates_examined"] <= 4000

    def test_determinism(self):
        w1 = search_cor3_counterexample(0.5, 2.0, -1.0, 2.0, 1.2)
        w2 = search_cor3_counterexample(0.5, 2.0, -1.0, 2.0, 1.2)
        assert w1 == w2

    def test_condition_not_violated_raises(self):
        with pytest.raises(ConditionNotViolatedError):
            search_cor3_counterexample(1.0, 1.0, 0.0, 1.0, 0.4)

    def test_barely_violating_window_reports_honestly(self):
        # violation depth ~ (1e-6)^2: far below any certifiable slack, so the
        # search must come back empty rather than fake a witness
        y = 0.5 + 1e-6
        witness = search_cor3_counterexample(1.0, 1.0, 0.0, 1.0, y)
        assert witness is None

    def test_witness_is_the_worst_unit_hinge(self):
        # S(k), the cor3 upper slack of max(0, x - k), with the window mean
        # from the ramp's antiderivative max(0, x - k)**2 / 2.  The witness
        # slack is the closed form -(y - h)**2 / (4 y), and neither the four
        # kinks {a, b, A - y, A + y} nor a dense kink grid score lower.
        # Windows stay 10 % above h: nearer, the slack shrinks as (y - h)**2
        # and its relative rounding error grows.
        rng = np.random.default_rng(15)
        for _ in range(200):
            p, q = (float(v) for v in rng.uniform(0.05, 20.0, size=2))
            a = float(rng.normal())
            b = a + 0.3 + float(rng.exponential())
            h = (b - a) * min(p, q) / (p + q)
            y = h * float(rng.uniform(1.1, 10.0))
            witness = search_cor3_counterexample(p, q, a, b, y)
            closed = -((y - h) ** 2) / (4.0 * y)
            assert abs(witness["slack"] - closed) <= 1e-12 * abs(closed)
            assert witness["candidates_examined"] == 1
            centre = (p * a + q * b) / (p + q)
            lo, hi = centre - y, centre + y

            def slack(k):
                def anti(x):
                    return max(0.0, x - k) ** 2 / 2.0

                upper = (p * max(0.0, a - k) + q * max(0.0, b - k)) / (p + q)
                return upper - (anti(hi) - anti(lo)) / (hi - lo)

            grid = np.linspace(min(a, lo), max(b, hi), 3001).tolist()
            for k in [a, b, lo, hi] + grid:
                assert witness["slack"] <= slack(k) + 1e-12 * abs(closed), (p, q, a, b, y, k)

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
        witness = search_cor3_counterexample(1.0, 1.0, 0.0, 1.0, 0.75)
        assert list(witness) == [key for key in failure if key != "trial"] + [
            "kink", "slack", "candidates_examined"
        ]


class TestRunInstances:
    """Instances on one ground-truth domain share one ground truth, so a
    later instance with another function or domain is rejected."""

    SEEDS = dict.fromkeys(("parent", "subsimplex", "interval", "window"), 5)

    @pytest.mark.parametrize("differs", ["function", "simplex"])
    def test_second_choquet_on_another_function_or_simplex_rejected(self, differs):
        s1, s2 = standard_simplex(2), random_simplex(2, np.random.default_rng(3))
        f1 = random_convex(2, "quadratic_psd", 1, simplex=s1)
        f2 = random_convex(2, "quadratic_psd", 2, simplex=s2)
        second = (f2, s1, {}) if differs == "function" else (f1, s2, {})
        instances = [("choquet", (f1, s1, {})), ("choquet", second)]
        with pytest.raises(ValueError, match="parent domain"):
            list(run_instances(instances, self.SEEDS, 1000, {}))

    @pytest.mark.parametrize("name", ["thm4", "thm5"])
    def test_two_subsimplices_rejected(self, name):
        s = standard_simplex(2)
        f = random_convex(2, "exp_affine", 4, simplex=s)
        instances = [
            (name, (f, s, {"subsimplex": s.centered_subsimplex(s.centroid, t)}))
            for t in (0.3, 0.8)
        ]
        with pytest.raises(ValueError, match="subsimplex domain"):
            list(run_instances(instances, self.SEEDS, 1000, {}))


class TestRandomSimplex:
    def test_conditioning_filter(self):
        rng = np.random.default_rng(20)
        for dim in (1, 4, 8):
            for _ in range(20):
                s = random_simplex(dim, rng)
                E = s.vertices[1:] - s.vertices[0]
                assert np.linalg.cond(E) <= 1e6
