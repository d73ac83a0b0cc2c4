import collections
import dataclasses
import hashlib
import json
import os
import signal
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hhbounds import (
    CHAIN_NAMES,
    CampaignConfig,
    ConditionNotViolatedError,
    ConvexFunction,
    MissingBaselineError,
    NonFiniteValueError,
    Simplex,
    WorkerError,
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
from hhbounds import campaign, chains, geometry, quadrature
from hhbounds.campaign import TRIAL_BLOCK, _build_block
from hhbounds.chains import CHAINS
from hhbounds.funcs import KINDS
from hhbounds.serialize import dumps

SMALL = CampaignConfig(
    dimensions=(1, 2, 3, 4),
    trials_per_theorem=48,
    mc_samples=4000,
    master_seed=777,
)


#: The pinned sha256 of ``run_campaign(cfg).to_json()`` for the default mix
#: at 48 trials and 2000 Monte Carlo samples, at 48 trials and 2 samples, and
#: at 300 trials (more than two TRIAL_BLOCKs) and 2 samples.
PINNED = {
    "default_48": (
        CampaignConfig(trials_per_theorem=48, mc_samples=2000),
        "53821c9c33f0ed48541dfa79a0ca93003c2d30a4c479f65046e19f606d72e80c",
    ),
    "two_sample_48": (
        CampaignConfig(trials_per_theorem=48, mc_samples=2),
        "7edbc5fe854e4832bafd8f7885a142d904bad760e4b45e27b5f40063e877d543",
    ),
    "two_sample_300": (
        CampaignConfig(trials_per_theorem=300, mc_samples=2),
        "417598ec36e7de73bb397437c94cfbcd10ce8261e515c10fb84a3d88cd96ab8c",
    ),
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _assert_failures_replay(text: str) -> list:
    """Replay every failure descriptor of a result, bit for bit; return them."""
    failures = json.loads(text)["failures"]
    for descriptor in failures:
        report = replay_failure(descriptor)
        assert list(report.slacks) == descriptor["slacks"]
        assert report.verdict == descriptor["verdict"]
        assert report.tolerance_used == descriptor["tolerance"]
    return failures


def _running(pid: int) -> bool:
    """Whether process ``pid`` exists and is not a zombie (Linux /proc)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] not in ("Z", "X")
    except FileNotFoundError:
        return False


@pytest.fixture(autouse=True)
def no_child_left():
    """After each test this process has no child left: every campaign
    worker was reaped (``waitpid`` raises ChildProcessError when none is)."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def one_worker(monkeypatch):
    """Run campaigns in this process alone, for tests that count calls."""
    monkeypatch.setattr(campaign, "WORKERS", 1)


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
        cfg, digest = PINNED["default_48"]
        assert _sha256(run_campaign(cfg).to_json()) == digest

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
            "31a1abad5a2de56eb8ce7427fa19b94162d5067297bce78cc0548ec93781e4bc"
        )

    #: sha256 of ``dumps(per_theorem[name])`` for the simplex chains of a
    #: max_of_affines campaign in dims 2-8: exact ground truth for two
    #: pieces, and for three to five where the coned mean is accepted;
    #: Monte Carlo for the rest.  thm6 has no ground truth.
    _MAX_OF_AFFINES_SECTIONS = {
        "choquet": "f0f06473d32e8eb97129367cc292af0a90dd97ffe503ef604673ae3714106106",
        "thm2": "32d28cc12577d7283e219c88fee2ff807c02e01a4787f9b24a40ebbafa69c35a",
        "thm3": "862c7917caf54413f99a834cc67a06867ee294a756d93d037727613e4133f101",
        "thm4": "35abd9348735cbb00019f7570037ff63a6d1a524680a282d293a7ef0cfda5742",
        "thm5": "ac466a8c80e6e9cee5269db8b71148d30032caa6ab21f1d77260f10c64b958d5",
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
    #: sections stay as they were before any ground-truth change; the others
    #: moved with the coned max_of_affines means on parents and the split
    #: cubature of log_sum_exp on cor2 intervals, and the parent chains again
    #: with the split cubature of log_sum_exp on simplices.  Monte Carlo on
    #: vertex values moved the last bits of cor2 at 2000 samples, and of
    #: every section but thm6 at 2, with the same draws and verdicts.
    _UNMOVED_SECTIONS = {
        2000: {
            "choquet": "50861b5596c84946795bef7277c96bfc03582f158856c3d6d753c28b2598e5b2",
            "thm2": "fc6f6e6e74360eb7d31dedc1efabac130066743f4a59c762346cb71e5d9a29fe",
            "thm3": "8a5fb357024e0503d6450b709028e6054029aa0a4ae1304a77c980779267484f",
            "thm6": "b152066e953a69666f31832bcfafabc0389aecde6069b6b16fec061b57d87ca7",
            "cor2": "a1f152a81c6469f8eadcfc65cbca6e9a2a1c8b4ae0800b56f4a32f62f1d78628",
        },
        2: {
            "choquet": "4344c6e73f0d23111abc01347664ac41782ff5d904d4ef096f9721d31f9a4a62",
            "thm2": "6c671e76d97f9deae59b941da6b75ff15cd8c5acad920cef0c024d632e5e80e6",
            "thm3": "49a7861846ab438fd5bc0b75b05fee73f0319e4535685809a673c26a4939950c",
            "thm6": "b152066e953a69666f31832bcfafabc0389aecde6069b6b16fec061b57d87ca7",
            "cor2": "5127b9f1a1ef3480675c7c9ace5b048c6cca8a533d157295a9f27b78e2df82da",
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

    def test_four_ground_truths_per_trial(self, monkeypatch, one_worker):
        # 4 ground truths per trial (parent, subsimplex, cor2 interval, cor3
        # window), each shared by every chain on its domain; the parent and
        # subsimplex estimates share one weight stream, and so do the
        # interval and window estimates.  Of the 8 hinge_distance trials all
        # 32 are exact; of the 8 max_of_affines trials (none with two pieces
        # in dims >= 2), the 16 on 1-D intervals and windows and the 4 on the
        # two 1-D parents are exact, and 11 of the 12 n-D domains have an
        # accepted coned mean (not the 7-D 5-piece parent, whose 4-vertex
        # faces have no common point).  Of the 32 domains of the 8
        # log_sum_exp trials, 31 lie within the cubature limits (dimension,
        # argument magnitude, and a split at CUBATURE_MAX_SPREAD into at most
        # CUBATURE_MAX_PIECES pieces: 3 intervals and 3 simplices in 3-D and
        # 7-D are cut) and its estimate is accepted on all 31; the other one
        # goes to Monte Carlo.
        counts = {"exact": 0, "cubature": 0, "accepted": 0}
        streams = []
        shared, exact = quadrature.integrate_mc_shared, quadrature.integrate_exact
        cubature = quadrature._cubature

        def counting_shared(pairs, *args):
            streams.append(len(pairs))
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
        monkeypatch.setattr(quadrature, "_cubature", counting_cubature)
        run_campaign(CampaignConfig(trials_per_theorem=48))
        counts.update(streams=len(streams), mc=sum(streams))
        assert counts == {
            "streams": 18, "mc": 34, "exact": 127, "cubature": 31, "accepted": 31
        }
        assert counts["exact"] + counts["accepted"] + counts["mc"] == 4 * 48

    @staticmethod
    def count_solves(monkeypatch) -> list:
        """Record every stacked weight solve: the trial builder's, the ones
        ``Simplex.solve_weights`` makes and the chain layer's."""
        calls = []
        solve = geometry.solve_stacked

        def counting(simplices, points, owners=None):
            calls.append(len(points))
            return solve(simplices, points, owners)

        for module in (geometry, chains, campaign):
            monkeypatch.setattr(module, "solve_stacked", counting)
        return calls

    def test_two_solves_per_block_dimension(self, monkeypatch, one_worker):
        # Per dimension of a block: one solve while building its trials, of
        # every centred subsimplex's pin point and thm6 mixture shift, and one
        # stacked solve of every weight its chains read: thm2's points, the
        # vertices and centroid of each subsimplex, and thm6's points.  The 16
        # trials are one block, two trials in each of dims 1-8.
        calls = self.count_solves(monkeypatch)
        cfg = CampaignConfig(
            trials_per_theorem=16, mc_samples=2, function_kinds=quadrature.EXACT_KINDS
        )
        run_campaign(cfg)
        assert len(calls) == 8 + 8

    def test_trial_budget_and_shared_domains(self, monkeypatch, one_worker):
        # A closed-form trial builds 5 simplices (the parent, the thm3
        # homothety, the centred subsimplex, the cor2 interval and the cor3
        # window), all of them in stacks: per dimension of a block one stack of
        # parents and one of subsimplices, and one stack of the block's 1-D
        # domains, with no Simplex built alone.  A block makes 2 solves per
        # dimension, and the 1-D domains whose ground truths it takes are the
        # very objects of that stack.
        counts = {"alone": 0, "stacks": 0, "members": 0}
        built_1d, integrated = [], []
        init, stacked, mean = Simplex.__init__, campaign.simplices, quadrature.deterministic_mean

        def counting_init(self, vertices):
            counts["alone"] += 1
            init(self, vertices)

        def recording_stack(vertices, *args, **kwargs):
            members = stacked(vertices, *args, **kwargs)
            counts["stacks"] += 1
            counts["members"] += len(members)
            built_1d.extend(s for s in members if s.dimension == 1)
            return members

        def recording_mean(f, domain):
            if domain.dimension == 1:
                integrated.append(domain)
            return mean(f, domain)

        monkeypatch.setattr(Simplex, "__init__", counting_init)
        solves = self.count_solves(monkeypatch)
        monkeypatch.setattr(campaign, "simplices", recording_stack)
        monkeypatch.setattr(geometry, "simplices", recording_stack)  # scaled_copies's
        monkeypatch.setattr(quadrature, "deterministic_mean", recording_mean)
        trials = 24
        cfg = CampaignConfig(
            dimensions=(2, 3, 4, 5, 6, 7, 8),
            trials_per_theorem=trials,
            mc_samples=2,
            master_seed=4242,
            function_kinds=quadrature.EXACT_KINDS,
        )
        run_campaign(cfg)
        dims = len(cfg.dimensions)
        assert counts == {"alone": 0, "stacks": 2 * dims + 1, "members": 5 * trials}
        assert len(solves) == 2 * dims
        assert len(built_1d) == len(integrated) == 2 * trials
        assert all(a is b for a, b in zip(built_1d, integrated))

    def test_three_function_calls_per_trial(self, monkeypatch, one_worker):
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

    def test_aggregation_ignores_stack_order(self):
        # A block's rows come a (chain, dimension) stack at a time; a chain's
        # summary is the same whatever order its stacks are recorded in.
        cfg = CampaignConfig(trials_per_theorem=16, mc_samples=64)
        stacks, _ = campaign._run_block(cfg, range(16))
        assert len(stacks) > len({name for name, _ in stacks})  # a chain has several
        summaries = []
        for order in (stacks, stacks[::-1]):
            aggs = {name: campaign._ChainAgg(name) for name in cfg.theorems}
            for name, rows in order:
                aggs[name].record(*rows)
            summaries.append(dumps({name: agg.summary() for name, agg in aggs.items()}))
        assert summaries[0] == summaries[1]

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


def _trial_bytes(value):
    """Every array, simplex, function, label and seed of a built trial, as
    nested lists of bytes and reprs, for a bitwise comparison."""
    if isinstance(value, Simplex):
        return ["simplex", value.vertices.tobytes(), value.centroid.tobytes(), value._exponent]
    if isinstance(value, np.ndarray):
        return ["array", value.dtype.str, value.shape, value.tobytes()]
    if isinstance(value, ConvexFunction):
        return ["function", value.kind, value.label, _trial_bytes(value.params)]
    if isinstance(value, dict):
        return [(key, _trial_bytes(item)) for key, item in value.items()]
    if isinstance(value, (list, tuple)):
        return [_trial_bytes(item) for item in value]
    return repr(value)


class TestBlockBuilding:
    """A trial built in a block has the bits it gets in a block of one."""

    @settings(max_examples=25, deadline=None)
    @given(
        dimensions=st.lists(st.integers(1, 8), min_size=1, max_size=4, unique=True),
        kinds=st.lists(st.sampled_from(KINDS), min_size=1, max_size=3, unique=True),
        trials=st.integers(1, 24),
        block=st.integers(1, 24),
        master_seed=st.integers(0, 2**32 - 1),
    )
    def test_every_trial_as_in_a_block_of_one(self, dimensions, kinds, trials, block, master_seed):
        cfg = CampaignConfig(dimensions=tuple(dimensions), trials_per_theorem=trials,
                             master_seed=master_seed, function_kinds=tuple(kinds))
        for first in range(0, trials, block):
            indices = range(first, min(first + block, trials))
            for index, built in zip(indices, _build_block(cfg, indices)):
                assert _trial_bytes(built) == _trial_bytes(_build_block(cfg, [index])[0])

    def test_retried_parents_keep_their_draws(self, monkeypatch, one_worker):
        # At COND_LIMIT = 5 most parents in dims 2-4 fail their first try, so
        # those trials are drawn again through random_simplex.  The digest was
        # recorded when every trial was built alone, with random_simplex
        # making each try, so a retry consumes the draws it did then.
        retried = []
        draw = campaign.random_simplex

        def recording(dim, rng):
            retried.append(dim)
            return draw(dim, rng)

        monkeypatch.setattr(campaign, "COND_LIMIT", 5.0)
        monkeypatch.setattr(campaign, "random_simplex", recording)
        cfg = CampaignConfig(dimensions=(1, 2, 3, 4), trials_per_theorem=16, mc_samples=2,
                             master_seed=99, function_kinds=quadrature.EXACT_KINDS)
        text = run_campaign(cfg).to_json()
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "94026c2ec65910867d591026cc00fadf85b120f0de7e69bb511d5b46a527f42c"
        )
        assert retried == [3, 3, 3, 3, 4, 4, 4]

    def test_first_default_trials_pinned(self):
        # The first 48 trials of the default config, every kind in every
        # dimension.  The digest was recorded when every trial and function
        # built its own generator through numpy's seeding and drew its
        # Dirichlets with Generator.dirichlet.
        built = _build_block(default_config(), range(48))
        assert _sha256(repr(_trial_bytes(built))) == (
            "ff1841ffbefce8104a15c5362d18261d181f38658e1d699777e9ff747355382d"
        )


class TestTrialSeeding:
    """A block's generator states, computed in one pass, are numpy's."""

    ENTROPIES = (0, 1, 5, 2**32 - 1, 2**32, 2**63 - 1, 2**64, 2**96 + 3,
                 2**128 - 1, 2**128, 2**200 + 7, 20260810)

    @pytest.mark.parametrize("spawn_key", [(), (0,), (2**32 - 1,), (2**32,), (3, 2**40)])
    def test_states_are_numpys(self, spawn_key):
        # no key, as default_rng(seed) seeds a function; a key, as a trial is
        # seeded; entropies of 1 to 7 words, beyond the pool's 4, and keys of
        # 1 to 3 words
        states = campaign._pcg64_states(
            [campaign._entropy_words(e, spawn_key) for e in self.ENTROPIES]
        )
        for entropy, state in zip(self.ENTROPIES, states):
            seeded = np.random.PCG64(np.random.SeedSequence(entropy, spawn_key=spawn_key))
            assert state == tuple(seeded.state["state"].values())

    def test_drawn_seeds_and_mixed_lengths(self):
        rng = np.random.default_rng(2026)
        seeds = [int(seed) for seed in rng.integers(0, 2**63, size=200)] + [7, 2**33]
        rows = [campaign._entropy_words(s) for s in seeds]
        rows += [campaign._entropy_words(20260810, (index,)) for index in (0, 5, 2**32 + 1)]
        want = [np.random.PCG64(s).state["state"] for s in seeds]
        for index in (0, 5, 2**32 + 1):
            spawned = np.random.SeedSequence(20260810, spawn_key=(index,))
            want.append(np.random.PCG64(spawned).state["state"])
        assert campaign._pcg64_states(rows) == [(w["state"], w["inc"]) for w in want]

    def test_seeded_generator_draws_as_numpys(self):
        (state,) = campaign._pcg64_states([campaign._entropy_words(99, (4,))])
        rng = np.random.Generator(np.random.PCG64(0))
        rng.random(3)  # a used generator, set to the state
        rng.random(dtype=np.float32)  # with a buffered half word
        ours = campaign._seeded(rng, state)
        theirs = np.random.default_rng(np.random.SeedSequence(99, spawn_key=(4,)))
        for draw in ("standard_normal", "random", "integers"):
            args = (2**40,) if draw == "integers" else ()
            assert np.array_equal(getattr(ours, draw)(*args, size=5),
                                  getattr(theirs, draw)(*args, size=5))
        assert ours.random(dtype=np.float32) == theirs.random(dtype=np.float32)


class TestPinnedReplay:
    """Fixed outputs that the campaign and replay paths must keep exactly."""

    def test_two_sample_campaign_pinned_and_replayed(self):
        # mc_samples=2 makes the Monte Carlo tolerance noisy enough that the
        # default mix fails on several chains, so the failure path is covered.
        cfg, digest = PINNED["two_sample_48"]
        text = run_campaign(cfg).to_json()
        assert _sha256(text) == digest
        failures = _assert_failures_replay(text)
        assert len(failures) == 21
        assert {d["chain"] for d in failures} == {"choquet", "thm2", "thm3", "thm4", "cor2"}

    def test_campaign_across_blocks_pinned_and_replayed(self):
        # 300 trials span several blocks: three of 100 trials with one
        # worker, four of 75 with two.
        # The failing set was recorded when every trial was evaluated on its
        # own, and every failure descriptor, in trial order, replays bit for bit.
        cfg, digest = PINNED["two_sample_300"]
        result = run_campaign(cfg)
        assert result.trials > 2 * TRIAL_BLOCK
        text = result.to_json()
        assert _sha256(text) == digest
        failures = _assert_failures_replay(text)
        assert len(failures) == 47
        trials = [d["trial"] for d in failures]
        # the last block starts at trial 200 with one worker, 225 with two
        assert trials == sorted(trials) and trials[-1] >= 225

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


class TestWorkers:
    """A campaign's blocks run on ``campaign.WORKERS`` processes, this one
    and forked children; no result byte and no error depends on how many."""

    @staticmethod
    def count_forks(monkeypatch) -> list:
        """Record the pid of each worker the campaign forks."""
        forks = []
        fork = os.fork

        def recording():
            pid = fork()
            if pid:
                forks.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", recording)
        return forks

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_pinned_bytes_at_every_worker_count(self, workers, monkeypatch):
        monkeypatch.setattr(campaign, "WORKERS", workers)
        forks = self.count_forks(monkeypatch)
        for cfg, digest in PINNED.values():
            text = run_campaign(cfg).to_json()
            assert _sha256(text) == digest
            _assert_failures_replay(text)
        assert len(forks) == len(PINNED) * (workers - 1)

    @staticmethod
    def raise_in_blocks(monkeypatch, raising: dict) -> None:
        """Make block ``b`` (trials ``4b .. 4b+3`` of 24) sleep ``raising[b]``
        seconds, then raise an error naming it."""
        monkeypatch.setattr(campaign, "TRIAL_BLOCK", 4)
        run_block = campaign._run_block

        def failing(cfg, indices):
            if (b := indices[0] // 4) in raising:
                time.sleep(raising[b])
                raise NonFiniteValueError(f"block {b}")
            return run_block(cfg, indices)

        monkeypatch.setattr(campaign, "_run_block", failing)

    @staticmethod
    def _raised() -> str:
        with pytest.raises(NonFiniteValueError) as raised:
            run_campaign(CampaignConfig(trials_per_theorem=24, mc_samples=2))
        return str(raised.value)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_first_error_in_block_order(self, workers, monkeypatch):
        # Six blocks of four trials (with 2 or 3 workers too), cut into
        # consecutive shares, this process running the first.  The later
        # blocks raise first, yet the earliest block's error is the one
        # raised, as in a serial run.
        monkeypatch.setattr(campaign, "WORKERS", workers)
        self.raise_in_blocks(monkeypatch, {2: 0.3, 3: 0.0, 4: 0.0, 5: 0.0})
        assert self._raised() == "block 2"

    def test_own_first_block_raises_while_a_worker_runs(self, monkeypatch):
        # This process runs blocks 0-2 and the worker blocks 3-5.  Block 0
        # comes first, so its error is raised at once: the worker still
        # running block 3 is killed, not waited for.
        monkeypatch.setattr(campaign, "WORKERS", 2)
        self.raise_in_blocks(monkeypatch, {0: 0.0, 3: 60.0})
        start = time.perf_counter()
        assert self._raised() == "block 0"
        assert time.perf_counter() - start < 30.0

    def test_slow_worker_error_before_a_later_workers_fast_one(self, monkeypatch):
        # Worker 1 runs blocks 2-3 and worker 2 blocks 4-5.  Worker 2 raises
        # in block 4 while worker 1 is still in block 2, whose error comes
        # first and is the one raised.
        monkeypatch.setattr(campaign, "WORKERS", 3)
        self.raise_in_blocks(monkeypatch, {2: 0.5, 4: 0.0})
        assert self._raised() == "block 2"

    def test_killed_worker_raises(self, monkeypatch):
        # A worker killed mid-block sends nothing: the campaign raises a
        # WorkerError instead of waiting.  An alarm fails the test if it hangs.
        parent = os.getpid()
        monkeypatch.setattr(campaign, "WORKERS", 2)
        run_block = campaign._run_block

        def dying(cfg, indices):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return run_block(cfg, indices)

        def hung(*_):
            raise TimeoutError("the campaign did not notice its killed worker")

        monkeypatch.setattr(campaign, "_run_block", dying)
        handler = signal.signal(signal.SIGALRM, hung)
        signal.alarm(60)
        try:
            with pytest.raises(WorkerError, match="exit status -9"):
                run_campaign(CampaignConfig(trials_per_theorem=48, mc_samples=2))
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, handler)

    def test_worker_ends_with_its_killed_caller(self):
        # A caller forked for this test runs a closed-form campaign on two
        # workers, in blocks of 2 trials that each take over 0.25 s.  Once
        # the caller is SIGKILLed, its worker must end before its next block
        # instead of running the rest of its share (about 3 s).  A zombie
        # counts as ended: the process that adopts it may never reap it.
        if not os.path.exists(f"/proc/{os.getpid()}/stat"):
            pytest.skip("reads process states from /proc")
        read, write = os.pipe()
        caller = os.fork()
        if caller == 0:
            try:
                os.close(read)
                fork, run_block = os.fork, campaign._run_block

                def reporting():
                    pid = fork()
                    if pid:
                        os.write(write, b"%d\n" % pid)
                    return pid

                def slow(cfg, indices):
                    time.sleep(0.25)
                    return run_block(cfg, indices)

                os.fork, campaign._run_block = reporting, slow
                campaign.WORKERS, campaign.TRIAL_BLOCK = 2, 2
                run_campaign(
                    CampaignConfig(trials_per_theorem=48, function_kinds=quadrature.EXACT_KINDS)
                )
            finally:
                os._exit(0)
        os.close(write)
        with open(read, "rb") as pipe:
            worker = int(pipe.readline())
        time.sleep(0.4)
        os.kill(caller, signal.SIGKILL)
        os.waitpid(caller, 0)
        deadline = time.monotonic() + 0.75
        while _running(worker) and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not _running(worker)

    def test_runs_serially_while_other_threads_run(self, monkeypatch):
        forks = self.count_forks(monkeypatch)
        monkeypatch.setattr(campaign, "WORKERS", 2)
        stop = threading.Event()
        other = threading.Thread(target=stop.wait)
        other.start()
        try:
            cfg, digest = PINNED["two_sample_48"]
            assert _sha256(run_campaign(cfg).to_json()) == digest
        finally:
            stop.set()
            other.join(timeout=10)
        assert not other.is_alive()
        assert forks == []


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


class TestRandomSimplex:
    def test_conditioning_filter(self):
        rng = np.random.default_rng(20)
        for dim in (1, 4, 8):
            for _ in range(20):
                s = random_simplex(dim, rng)
                E = s.vertices[1:] - s.vertices[0]
                assert np.linalg.cond(E) <= 1e6
