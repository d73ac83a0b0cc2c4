import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import hhbounds
from hhbounds import (
    ConvexFunction,
    Simplex,
    random_convex,
    random_simplex,
    sample_uniform,
    standard_simplex,
)
from hhbounds import chains, geometry, quadrature
from hhbounds.cli import main
from hhbounds.serialize import dumps
from jsonfiles import write_json
from test_quadrature import BLOCK_EDGE_COUNTS, reference


@pytest.fixture()
def unit_interval_file(tmp_path):
    path = str(tmp_path / "interval.json")
    write_json(path, Simplex([[0.0], [1.0]]).to_json_dict())
    return path


@pytest.fixture()
def triangle_file(tmp_path):
    path = str(tmp_path / "triangle.json")
    write_json(path, standard_simplex(2).to_json_dict())
    return path


@pytest.fixture()
def sq_1d_file(tmp_path):
    path = str(tmp_path / "sq1.json")
    f = ConvexFunction(
        "quadratic_psd", {"matrix": [[1.0]], "slope": [0.0], "offset": 0.0}, "x^2"
    )
    write_json(path, f.to_json_dict())
    return path


@pytest.fixture()
def sq_2d_file(tmp_path):
    path = str(tmp_path / "sq2.json")
    f = ConvexFunction(
        "quadratic_psd",
        {"matrix": np.eye(2), "slope": np.zeros(2), "offset": 0.0},
        "|x|^2",
    )
    write_json(path, f.to_json_dict())
    return path


@pytest.fixture()
def hinge_1d_file(tmp_path):
    path = str(tmp_path / "hinge.json")
    f = ConvexFunction("hinge_distance", {"slope": [1.0], "threshold": 0.4}, "hinge")
    write_json(path, f.to_json_dict())
    return path


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def json_lines(out):
    return [json.loads(line) for line in out.strip().splitlines()]


class TestBounds:
    def test_choquet_unit_interval(self, capsys, unit_interval_file, sq_1d_file):
        code, out, _ = run_cli(
            capsys, "bounds", unit_interval_file, sq_1d_file, "--theorem", "choquet"
        )
        assert code == 0
        (report,) = json_lines(out)
        values = [t["value"] for t in report["terms"]]
        assert values == [0.25, 1 / 3, 0.5]
        assert report["verdict"] == "pass"
        assert report["ground_truth"]["method"] == "exact_polynomial"

    def test_thm2_centroid_triangle(self, capsys, triangle_file, sq_2d_file):
        code, out, _ = run_cli(
            capsys,
            "bounds", triangle_file, sq_2d_file,
            "--theorem", "thm2", "--point", "centroid",
        )
        assert code == 0
        (report,) = json_lines(out)
        assert abs(report["terms"][1]["value"] - 14 / 27) < 1e-12

    def test_multiple_theorems_stream(self, capsys, unit_interval_file, sq_1d_file):
        code, out, _ = run_cli(
            capsys,
            "bounds", unit_interval_file, sq_1d_file,
            "--theorem", "choquet", "--theorem", "thm3", "--theorem", "cor2",
            "--t", "0.5", "--lam", "0.75",
        )
        assert code == 0
        reports = json_lines(out)
        assert [r["chain"] for r in reports] == ["choquet", "thm3", "cor2"]
        assert all(r["verdict"] == "pass" for r in reports)

    def test_parent_and_interval_share_one_monte_carlo_pair(
        self, capsys, monkeypatch, tmp_path, unit_interval_file
    ):
        # A 1-D cor2's interval is the simplex, on the parent's seed: choquet
        # and cor2 integrate one (function, simplex) pair, and each report has
        # the bytes of its own call.
        path = str(tmp_path / "exp.json")
        f = ConvexFunction("exp_affine", {"slope": [1.5], "offset": -0.25})
        write_json(path, f.to_json_dict())
        streams = []
        shared = quadrature.integrate_mc_shared

        def counting_shared(pairs, *args):
            streams.append(len(pairs))
            return shared(pairs, *args)

        monkeypatch.setattr(quadrature, "integrate_mc_shared", counting_shared)
        argv = ("bounds", unit_interval_file, path, "--mc-samples", "4000")
        code, out, _ = run_cli(capsys, *argv, "--theorem", "choquet", "--theorem", "cor2")
        assert code == 0 and streams == [1]
        assert [r["ground_truth"]["method"] for r in json_lines(out)] == ["monte_carlo"] * 2
        alone = [run_cli(capsys, *argv, "--theorem", name)[1] for name in ("choquet", "cor2")]
        assert streams == [1, 1, 1]
        assert out == "".join(alone)

    def test_explicit_point_coordinates(self, capsys, triangle_file, sq_2d_file):
        code, out, _ = run_cli(
            capsys,
            "bounds", triangle_file, sq_2d_file,
            "--theorem", "thm2", "--point", "0.2,0.3",
        )
        assert code == 0
        assert json_lines(out)[0]["verdict"] == "pass"

    def test_malformed_json_exits_2_no_output(self, capsys, tmp_path, sq_1d_file):
        bad = str(tmp_path / "bad.json")
        with open(bad, "w") as handle:
            handle.write("{not json")
        code, out, err = run_cli(capsys, "bounds", bad, sq_1d_file)
        assert code == 2
        assert out == ""
        assert err != ""

    def test_dimension_mismatch_exits_2(self, capsys, triangle_file, sq_1d_file):
        code, out, _ = run_cli(capsys, "bounds", triangle_file, sq_1d_file)
        assert code == 2
        assert out == ""

    def test_overflowing_mean_exits_2(self, capsys, tmp_path, unit_interval_file):
        path = str(tmp_path / "exp800.json")
        f = ConvexFunction("exp_affine", {"slope": [800.0], "offset": 0.0})
        write_json(path, f.to_json_dict())
        code, out, err = run_cli(capsys, "bounds", unit_interval_file, path)
        assert code == 2
        assert out == ""
        assert err.startswith("error: exp_affine on a 1-D simplex has no finite")

    def test_cor2_requires_1d(self, capsys, triangle_file, sq_2d_file):
        code, out, err = run_cli(
            capsys, "bounds", triangle_file, sq_2d_file, "--theorem", "cor2"
        )
        assert code == 2
        assert "1-D" in err

    @pytest.mark.parametrize("p, q", [("1", "-1"), ("0", "0")])
    def test_nonpositive_cor3_weights_exit_2(self, capsys, unit_interval_file, sq_1d_file, p, q):
        # the default window half-width divides by p + q
        code, out, err = run_cli(
            capsys, "bounds", unit_interval_file, sq_1d_file,
            "--theorem", "cor3", "--cor3-p", p, "--cor3-q", q,
        )
        assert code == 2 and out == ""
        assert "p and q must be positive" in err

    def test_outside_point_exits_2(self, capsys, triangle_file, sq_2d_file):
        code, out, _ = run_cli(
            capsys,
            "bounds", triangle_file, sq_2d_file,
            "--theorem", "thm2", "--point", "0.9,0.9",
        )
        assert code == 2 and out == ""

    def test_mc_path_deterministic_and_env_seed(
        self, capsys, unit_interval_file, hinge_1d_file, monkeypatch
    ):
        args = ("bounds", unit_interval_file, hinge_1d_file, "--theorem", "choquet")
        code1, out1, _ = run_cli(capsys, *args, "--seed", "7")
        code2, out2, _ = run_cli(capsys, *args, "--seed", "7")
        assert code1 == code2 == 0
        assert out1 == out2
        monkeypatch.setenv("HH_SEED", "7")
        _, out3, _ = run_cli(capsys, *args)
        assert out3 == out1
        # explicit flag wins over the environment
        monkeypatch.setenv("HH_SEED", "8")
        _, out4, _ = run_cli(capsys, *args, "--seed", "7")
        assert out4 == out1

    def test_all_simplex_chains_on_triangle(self, capsys, triangle_file, sq_2d_file):
        code, out, _ = run_cli(
            capsys,
            "bounds", triangle_file, sq_2d_file,
            "--theorem", "choquet", "--theorem", "thm2", "--theorem", "thm3",
            "--theorem", "thm4", "--theorem", "thm5", "--theorem", "thm6",
            "--point", "centroid", "--t", "0.5",
        )
        assert code == 0
        reports = json_lines(out)
        assert len(reports) == 6
        assert all(r["verdict"] == "pass" for r in reports)

    def test_subsimplex_ground_truth_shared(
        self, capsys, monkeypatch, triangle_file, tmp_path
    ):
        # thm4 and thm5 use one subsimplex ground truth: the reports equal
        # those of separate calls, with one MC integral fewer.
        path = str(tmp_path / "exp.json")
        write_json(path, random_convex(2, "exp_affine", 4).to_json_dict())
        calls = []
        shared = quadrature.integrate_mc_shared

        def counting(pairs, *args):
            calls.extend(pairs)
            return shared(pairs, *args)

        monkeypatch.setattr(quadrature, "integrate_mc_shared", counting)
        args = ("bounds", triangle_file, path, "--mc-samples", "3000", "--seed", "9")
        _, both, _ = run_cli(capsys, *args, "--theorem", "thm4", "--theorem", "thm5")
        assert len(calls) == 1
        _, out4, _ = run_cli(capsys, *args, "--theorem", "thm4")
        _, out5, _ = run_cli(capsys, *args, "--theorem", "thm5")
        assert both == out4 + out5

    def test_six_chains_make_two_solves(
        self, capsys, monkeypatch, tmp_path, triangle_file, sq_2d_file
    ):
        # the centred subsimplex, then one stacked solve of thm2's point, both
        # subsimplices (the one thm4 and thm5 share once) and thm6's points
        calls = []
        solve = geometry.solve_stacked

        def counting(simplices, points, owners=None):
            calls.append(1)
            return solve(simplices, points, owners)

        monkeypatch.setattr(geometry, "solve_stacked", counting)
        monkeypatch.setattr(chains, "solve_stacked", counting)
        theorem_args = [
            arg for name in ("choquet", "thm2", "thm3", "thm4", "thm5", "thm6")
            for arg in ("--theorem", name)
        ]
        code, _, _ = run_cli(
            capsys, "bounds", triangle_file, sq_2d_file, *theorem_args, "--point", "0.2,0.3"
        )
        assert code == 0
        assert len(calls) == 2

    def test_out_file(self, capsys, tmp_path, unit_interval_file, sq_1d_file):
        out_path = str(tmp_path / "reports.jsonl")
        code, out, _ = run_cli(
            capsys,
            "bounds", unit_interval_file, sq_1d_file,
            "--theorem", "choquet", "--out", out_path,
        )
        assert code == 0 and out == ""
        with open(out_path) as handle:
            assert json.loads(handle.readline())["chain"] == "choquet"


class TestNonFiniteParams:
    """Function files with a non-finite scalar param end in exit 2, naming it."""

    @pytest.mark.parametrize(
        "params, name, theorem",
        [
            ('{"slope": [1.0], "offset": 1e999}', "offset", "choquet"),
            ('{"slope": [1.0], "offset": -1e999}', "offset", "thm6"),
            ('{"slope": [1.0], "threshold": 1e999}', "threshold", "thm6"),
        ],
    )
    def test_overflowing_param_exit_2(
        self, capsys, tmp_path, unit_interval_file, params, name, theorem
    ):
        kind = "hinge_distance" if name == "threshold" else "exp_affine"
        path = tmp_path / "func.json"
        path.write_text('{"kind": "%s", "params": %s}' % (kind, params))
        code, out, err = run_cli(
            capsys, "bounds", unit_interval_file, str(path), "--theorem", theorem
        )
        assert code == 2 and out == ""
        assert f"{name} must be finite" in err

    @pytest.mark.parametrize("token", ["NaN", "Infinity"])
    def test_nonfinite_token_exit_2(self, capsys, tmp_path, unit_interval_file, token):
        path = tmp_path / "func.json"
        path.write_text('{"kind": "exp_affine", "params": {"slope": [1.0], "offset": %s}}' % token)
        code, out, err = run_cli(
            capsys, "bounds", unit_interval_file, str(path), "--theorem", "thm6"
        )
        assert code == 2 and out == ""
        assert token in err


class TestNonFiniteValues:
    """Finite params whose values overflow end in exit 2, naming the kind
    and dimension, with no numpy warning (the suite turns warnings into
    errors)."""

    def test_overflowing_chain_values_exit_2(self, capsys, tmp_path, triangle_file):
        path = tmp_path / "func.json"
        path.write_text('{"kind": "exp_affine", "params": {"slope": [800, 0], "offset": 0}}')
        code, out, err = run_cli(capsys, "bounds", triangle_file, str(path), "--theorem", "thm6")
        assert code == 2 and out == ""
        assert err == (
            "error: exp_affine has non-finite values at the chain points of dimension 2: "
            "its values overflow\n"
        )

    def test_overflowing_closed_form_mean_exit_2(self, capsys, tmp_path):
        simplex, func = tmp_path / "simplex.json", tmp_path / "func.json"
        simplex.write_text('{"vertices": [[0, 0], [10, 0], [0, 10]]}')
        func.write_text(
            '{"kind": "quadratic_psd", "params": {"matrix": [[1e308, 0], [0, 1e308]], '
            '"slope": [0, 0], "offset": 0}}'
        )
        code, out, err = run_cli(
            capsys, "bounds", str(simplex), str(func), "--theorem", "choquet"
        )
        assert code == 2 and out == ""
        assert err.startswith(
            "error: quadratic_psd on a 2-D simplex has no finite closed-form mean"
        )


class TestNonRealParams:
    """A scalar param that is not a real number ends in exit 2, naming it."""

    @pytest.mark.parametrize("value", ["[1.0]", "null", '"2"', "true", "{}"])
    def test_non_real_offset_exit_2(self, capsys, tmp_path, unit_interval_file, value):
        path = tmp_path / "func.json"
        path.write_text('{"kind": "affine", "params": {"slope": [1.0], "offset": %s}}' % value)
        code, out, err = run_cli(capsys, "bounds", unit_interval_file, str(path))
        assert code == 2 and out == ""
        assert err.startswith("error: offset must be a real number, got ")


class TestMalformedDescriptors:
    """A descriptor of the wrong JSON shape ends in exit 2 and one error line
    naming the field, not a traceback."""

    @pytest.mark.parametrize(
        "simplex, function, message",
        [
            (None, '{"kind": "affine", "params": {"slope": {"a": 1}, "offset": 0}}',
             "slope must be an array of real numbers"),
            (None, "[1, 2]", "a function descriptor must be an object"),
            (None, '{"kind": "affine", "params": [1, 2]}', "params must be an object"),
            ('{"vertices": {"a": 1}}', '{"kind": "affine", "params": {"slope": [1], "offset": 0}}',
             "vertices must be an array of real numbers"),
        ],
        ids=["slope-object", "function-list", "params-list", "vertices-object"],
    )
    def test_exit_2_naming_the_field(
        self, capsys, tmp_path, unit_interval_file, simplex, function, message
    ):
        func, simplex_path = tmp_path / "func.json", unit_interval_file
        func.write_text(function)
        if simplex is not None:
            simplex_path = tmp_path / "simplex.json"
            simplex_path.write_text(simplex)
        code, out, err = run_cli(capsys, "bounds", str(simplex_path), str(func))
        assert code == 2 and out == ""
        assert err.startswith(f"error: {message}") and err.count("\n") == 1


class TestBoundsPinned:
    """sha256 of ``hh bounds`` stdout on fixed instances with every flag set.

    The ``exp_affine`` cases are Monte Carlo and pin the seed of each
    ground-truth domain: the simplex (also cor2's interval), the thm4/thm5
    subsimplex and the cor3 window each draw from their own slot of
    ``--seed``.  ``LSE_3D`` is judged against cubature: on the simplex,
    where its arguments spread past ``CUBATURE_MAX_SPREAD`` (3.26), split
    into two pieces, and on the subsimplex whole; the others against closed
    forms.
    """

    SIMPLEX_3D = [[0.0, 0.0, 0.0], [1.5, 0.1, 0.0], [0.2, 1.3, 0.1], [0.1, 0.3, 1.2]]
    INTERVAL = [[-0.5], [1.5]]
    LSE_3D = {
        "kind": "log_sum_exp",
        "params": {
            "slopes": [[1.0, 0.5, -0.3], [-0.5, 1.0, 0.2], [0.2, -1.0, 0.7]],
            "offsets": [0.0, 0.3, -0.2],
        },
    }
    QUAD_3D = {
        "kind": "quadratic_psd",
        "params": {
            "matrix": [[2.0, 0.3, 0.0], [0.3, 1.0, -0.2], [0.0, -0.2, 1.5]],
            "slope": [0.1, -0.4, 0.2],
            "offset": 0.5,
        },
    }
    EXP_3D = {"kind": "exp_affine", "params": {"slope": [0.8, -0.4, 0.3], "offset": -0.2}}
    HINGE_1D = {"kind": "hinge_distance", "params": {"slope": [1.0], "threshold": -0.2}}
    EXP_1D = {"kind": "exp_affine", "params": {"slope": [1.2], "offset": -0.3}}
    QUAD_1D = {
        "kind": "quadratic_psd",
        "params": {"matrix": [[2.0]], "slope": [-0.5], "offset": 0.1},
    }
    FLAGS = (
        "--seed", "11", "--t", "0.6", "--j", "2", "--lam", "0.3",
        "--cor3-p", "2", "--cor3-q", "0.5", "--mc-samples", "4000",
    )
    SIX = ("choquet", "thm2", "thm3", "thm4", "thm5", "thm6")
    #: sha256 of stdout, keyed by the name of the function descriptor above.
    DIGESTS = {
        "LSE_3D": "ac74e08c633b2556fb677c13255d9a0e1a9e393202ebd305bd34f7e156fa6dae",
        "QUAD_3D": "8714aa0eb94c5554c109ca2ecbdabe35dafda3a1371d463944c2153b717192af",
        "EXP_3D": "c949813fa6185f4d57aa167594ae29ba80a2fbe97ddd6f107a5e6d0bcb0ddd93",
        "HINGE_1D": "a947a24ef0aa2e0d8b39b41d89016e3c3daca746929c613b4bdc652d02145f7c",
        "QUAD_1D": "f8f50d671579193f3206f8597b126603762e712f4006eb0f17bab3cc865ca72f",
        "EXP_1D": "cbd85a2433de2c946aa339b63f42aab69678f847485452d5740d98f8a9850d1f",
    }

    def digest(self, capsys, tmp_path, vertices, func, chains, point):
        simplex_path = str(tmp_path / "simplex.json")
        func_path = str(tmp_path / "func.json")
        write_json(simplex_path, {"dimension": len(vertices[0]), "vertices": vertices})
        write_json(func_path, func)
        theorem_args = [arg for name in chains for arg in ("--theorem", name)]
        code, out, _ = run_cli(
            capsys, "bounds", simplex_path, func_path, *theorem_args,
            *self.FLAGS, "--point", point,
        )
        assert code == 0
        return hashlib.sha256(out.encode()).hexdigest()

    @pytest.mark.parametrize("func_name", ["LSE_3D", "QUAD_3D", "EXP_3D"])
    def test_simplex_chains(self, capsys, tmp_path, func_name):
        func = getattr(self, func_name)
        got = self.digest(capsys, tmp_path, self.SIMPLEX_3D, func, self.SIX, "0.4,0.4,0.3")
        assert got == self.DIGESTS[func_name]

    def test_split_cubature_report(self, capsys, tmp_path):
        # the report of a split ground truth names its pieces and spread,
        # and replaying that recipe gives the same estimate
        simplex_path, func_path = str(tmp_path / "simplex.json"), str(tmp_path / "func.json")
        write_json(simplex_path, {"dimension": 3, "vertices": self.SIMPLEX_3D})
        write_json(func_path, self.LSE_3D)
        code, out, _ = run_cli(capsys, "bounds", simplex_path, func_path, "--theorem", "choquet")
        assert code == 0
        gt = json.loads(out)["ground_truth"]
        assert gt["method"] == "cubature" and gt["pieces"] == 2 and gt["spread"] == 3.0
        f = ConvexFunction.from_json_dict(self.LSE_3D)
        recipe = {"method": "cubature", "degree": 15, "pieces": 2, "spread": 3.0}
        replayed = quadrature.replay_ground_truth(f, Simplex(self.SIMPLEX_3D), recipe)
        assert replayed.to_json_dict() == gt

    @pytest.mark.parametrize("func_name", ["HINGE_1D", "QUAD_1D", "EXP_1D"])
    def test_interval_chains(self, capsys, tmp_path, func_name):
        func = getattr(self, func_name)
        got = self.digest(capsys, tmp_path, self.INTERVAL, func, ("cor2", "cor3"), "0.2")
        assert got == self.DIGESTS[func_name]


class TestCampaign:
    def make_config(self, tmp_path, **overrides):
        cfg = {
            "dimensions": [1, 2],
            "trials_per_theorem": 6,
            "mc_samples": 1500,
            "master_seed": 424242,
        }
        cfg.update(overrides)
        path = str(tmp_path / "config.json")
        write_json(path, cfg)
        return path

    def test_small_campaign_exit_0(self, capsys, tmp_path):
        config = self.make_config(tmp_path)
        out_path = str(tmp_path / "result.json")
        code, out, err = run_cli(capsys, "campaign", "--config", config, "--out", out_path)
        assert code == 0
        assert out == ""
        with open(out_path) as handle:
            result = json.load(handle)
        assert result["failures"] == []
        assert result["trials"] == 6
        assert "campaign:" in err

    def test_result_file_byte_identical(self, capsys, tmp_path):
        config = self.make_config(tmp_path)
        p1, p2 = str(tmp_path / "r1.json"), str(tmp_path / "r2.json")
        run_cli(capsys, "campaign", "--config", config, "--out", p1)
        run_cli(capsys, "campaign", "--config", config, "--out", p2)
        with open(p1, "rb") as h1, open(p2, "rb") as h2:
            assert h1.read() == h2.read()

    def test_stdout_and_out_file_pinned(self, capsys, tmp_path):
        # the result JSON, indented by 2 with a trailing newline, whichever
        # way it is written
        config = self.make_config(tmp_path)
        out_path = str(tmp_path / "result.json")
        code, out, _ = run_cli(capsys, "campaign", "--config", config)
        assert code == 0
        run_cli(capsys, "campaign", "--config", config, "--out", out_path)
        with open(out_path, encoding="utf-8") as handle:
            assert handle.read() == out
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "eb3e8cae5eb30152441f7923a05c6121d2b14c04cd402e6c58f459f9484f6865"
        )

    def test_csv_matches_result_json(self, capsys, tmp_path):
        config = self.make_config(tmp_path)
        out_path, csv_path = str(tmp_path / "result.json"), str(tmp_path / "slacks.csv")
        code, _, _ = run_cli(
            capsys, "campaign", "--config", config, "--out", out_path, "--csv", csv_path
        )
        assert code == 0
        with open(out_path, encoding="utf-8") as handle:
            per = json.load(handle)["per_theorem"]
        with open(csv_path, encoding="utf-8") as handle:
            header, *rows = handle.read().splitlines()
        assert header == "theorem,slack_index,min,p50,max,n"
        expected = [
            (name, row) for name, stats in per.items() for row in stats["slacks"]
        ]
        assert len(rows) == len(expected)
        for line, (name, row) in zip(rows, expected):
            chain, position, lo, mid, hi, n = line.split(",")
            assert (chain, int(position), int(n)) == (name, row["position"], row["n"])
            for text, key in ((lo, "min"), (mid, "p50"), (hi, "max")):
                assert float(text).hex() == row[key].hex()
                assert text == repr(row[key])

    def test_unknown_theorem_exit_2(self, capsys, tmp_path):
        config = self.make_config(tmp_path, theorems=["choquet", "thmX"])
        code, out, err = run_cli(capsys, "campaign", "--config", config)
        assert code == 2 and out == ""
        assert "thmX" in err

    @pytest.mark.parametrize(
        "overrides, key",
        [
            ({"master_seed": 1.9}, "master_seed"),
            ({"trials_per_theorem": True}, "trials_per_theorem"),
            ({"dimensions": 3}, "dimensions"),
            ({"dimensions": [2.5]}, "dimensions"),
            ({"subsimplex_scales": ["a"]}, "subsimplex_scales"),
        ],
    )
    def test_ill_typed_config_exit_2(self, capsys, tmp_path, overrides, key):
        config = self.make_config(tmp_path, **overrides)
        code, out, err = run_cli(capsys, "campaign", "--config", config)
        assert code == 2 and out == ""
        assert key in err

    def test_non_integral_mc_samples_exit_2(self, capsys, tmp_path):
        config = self.make_config(tmp_path, mc_samples=1000.5)
        code, out, err = run_cli(capsys, "campaign", "--config", config)
        assert code == 2 and out == ""
        assert "mc_samples" in err

    def test_negative_master_seed_exit_2(self, capsys, monkeypatch, tmp_path):
        config = self.make_config(tmp_path, master_seed=-1)
        code, out, err = run_cli(capsys, "campaign", "--config", config)
        assert code == 2 and out == "" and "master_seed" in err
        code, out, err = run_cli(
            capsys, "campaign", "--config", self.make_config(tmp_path), "--seed", "-1"
        )
        assert code == 2 and out == "" and "master_seed" in err
        monkeypatch.setenv("HH_SEED", "-1")
        code, out, err = run_cli(capsys, "campaign", "--config", self.make_config(tmp_path))
        assert code == 2 and out == "" and "master_seed" in err

    def test_unwritable_out_exit_2(self, capsys, tmp_path):
        config = self.make_config(tmp_path)
        code, out, err = run_cli(
            capsys, "campaign", "--config", config, "--out", str(tmp_path)
        )
        assert code == 2
        assert err != ""

    def test_csv_export(self, capsys, tmp_path):
        config = self.make_config(tmp_path)
        csv_path = str(tmp_path / "slacks.csv")
        out_path = str(tmp_path / "result.json")
        code, _, _ = run_cli(
            capsys, "campaign", "--config", config, "--out", out_path, "--csv", csv_path
        )
        assert code == 0
        with open(csv_path) as handle:
            header = handle.readline().strip()
        assert header == "theorem,slack_index,min,p50,max,n"

    def test_cli_overrides(self, capsys, tmp_path):
        config = self.make_config(tmp_path)
        out_path = str(tmp_path / "result.json")
        code, _, _ = run_cli(
            capsys,
            "campaign", "--config", config, "--out", out_path,
            "--trials", "3", "--seed", "1", "--mc-samples", "500",
        )
        assert code == 0
        with open(out_path) as handle:
            result = json.load(handle)
        assert result["trials"] == 3
        assert result["config"]["master_seed"] == 1
        assert result["config"]["mc_samples"] == 500


class TestCor3Search:
    def test_witness_emitted(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "cor3-search", "--p", "1", "--q", "1", "--a", "0", "--b", "1",
            "--y", "0.75", "--budget", "2000", "--seed", "5",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["witness"]["slack"] < -1e-6

    def test_condition_holds_exit_2(self, capsys):
        code, out, err = run_cli(
            capsys,
            "cor3-search", "--p", "1", "--q", "1", "--a", "0", "--b", "1", "--y", "0.4",
        )
        assert code == 2 and out == ""
        assert "condition holds" in err

    def test_determinism(self, capsys):
        args = (
            "cor3-search", "--p", "2", "--q", "0.5", "--a", "-1", "--b", "1",
            "--y", "0.9", "--budget", "1500", "--seed", "12",
        )
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_output_pinned(self, capsys):
        # sha256 of the whole stdout: witness, certification and recipe
        code, out, _ = run_cli(
            capsys,
            "cor3-search", "--p", "2", "--q", "0.5", "--a", "-1", "--b", "1",
            "--y", "0.9", "--budget", "1500", "--seed", "12",
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "72439581f147f0bb637e2116c357693c9b318498b2c7c5ba91e9cb6c50210179"
        )

    def test_violation_within_tolerance_reports_null(self, capsys):
        # the exact worst slack, -(1e-6)**2 / 2.000004, is within the 1e-8 tolerance
        code, out, _ = run_cli(
            capsys,
            "cor3-search", "--p", "1", "--q", "1", "--a", "0", "--b", "1",
            "--y", "0.500001", "--budget", "50", "--seed", "1",
        )
        assert code == 0
        assert json.loads(out) == {"witness": None}

    @pytest.mark.parametrize("budget", ["0", "-3"])
    def test_budget_below_one_exit_2(self, capsys, budget):
        code, out, err = run_cli(
            capsys,
            "cor3-search", "--p", "1", "--q", "1", "--a", "0", "--b", "1",
            "--y", "0.75", "--budget", budget,
        )
        assert code == 2 and out == ""
        assert "budget must be >= 1" in err

    def test_seed_unused(self, capsys, monkeypatch):
        # the witness is in closed form: --seed and HH_SEED are not read
        args = ("cor3-search", "--p", "1", "--q", "1", "--a", "0", "--b", "1", "--y", "0.75")
        _, plain, _ = run_cli(capsys, *args)
        monkeypatch.setenv("HH_SEED", "not-a-seed")
        code, out, _ = run_cli(capsys, *args, "--seed", "9")
        assert code == 0 and out == plain

    def test_no_mc_samples_flag(self, capsys):
        # the witness is certified exactly, so there is no sample count to set
        code, out, _ = run_cli(
            capsys,
            "cor3-search", "--p", "1", "--q", "1", "--a", "0", "--b", "1",
            "--y", "0.75", "--mc-samples", "1000",
        )
        assert code == 2 and out == ""


class TestNoScipy:
    # What the child prints: the scipy modules loaded after ``import
    # hhbounds`` and after one ``hh bounds`` call with every simplex chain.
    CHILD = (
        "import sys\n"
        "def scipy_modules():\n"
        "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "import hhbounds\n"
        "after_import = scipy_modules()\n"
        "from hhbounds.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "print(repr((code, after_import, scipy_modules())), file=sys.stderr)\n"
    )

    def test_import_and_bounds_do_not_load_scipy(self, tmp_path, triangle_file):
        func = str(tmp_path / "lse.json")
        write_json(func, random_convex(2, "log_sum_exp", 3).to_json_dict())
        src = os.path.dirname(os.path.dirname(os.path.abspath(hhbounds.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        chains = ("choquet", "thm2", "thm3", "thm4", "thm5", "thm6")
        argv = ["bounds", triangle_file, func, "--mc-samples", "2000"]
        argv += [arg for name in chains for arg in ("--theorem", name)]
        proc = subprocess.run(
            [sys.executable, "-c", self.CHILD, *argv],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert len(proc.stdout.splitlines()) == len(chains)
        assert proc.stderr.strip().splitlines()[-1] == repr((0, [], []))


class TestNoThreads:
    # What the child prints: whether ``import hhbounds`` loaded
    # concurrent.futures or multiprocessing, and the threads and processes
    # one ``hh bounds`` call started, on the parent simplex only, so with
    # one Monte Carlo stream.
    CHILD = (
        "import sys\n"
        "import hhbounds\n"
        "after_import = [m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules]\n"
        "import os, threading\n"
        "started = []\n"
        "start = threading.Thread.start\n"
        "threading.Thread.start = lambda self: (started.append(self), start(self))[1]\n"
        "fork = os.fork\n"
        "os.fork = lambda: (started.append('fork'), fork())[1]\n"
        "from hhbounds.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "print(repr((code, after_import, len(started))), file=sys.stderr)\n"
    )

    def test_import_and_one_stream_start_no_thread(self, tmp_path, triangle_file):
        func = str(tmp_path / "exp.json")
        write_json(func, random_convex(2, "exp_affine", 3).to_json_dict())
        src = os.path.dirname(os.path.dirname(os.path.abspath(hhbounds.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        argv = ["bounds", triangle_file, func, "--mc-samples", "20000"]
        argv += [arg for name in ("choquet", "thm2", "thm3") for arg in ("--theorem", name)]
        proc = subprocess.run(
            [sys.executable, "-c", self.CHILD, *argv],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert len(proc.stdout.splitlines()) == 3
        assert proc.stderr.strip().splitlines()[-1] == repr((0, [], 0))


class TestSample:
    def test_points_inside_and_deterministic(self, capsys, triangle_file):
        code, out1, _ = run_cli(
            capsys, "sample", triangle_file, "--count", "50", "--seed", "3"
        )
        assert code == 0
        rows = json_lines(out1)
        assert len(rows) == 50
        s = standard_simplex(2)
        for row in rows:
            assert s.contains(np.asarray(row))
        _, out2, _ = run_cli(capsys, "sample", triangle_file, "--count", "50", "--seed", "3")
        assert out1 == out2

    def test_rows_match_per_row_dumps(self, capsys, tmp_path):
        s = random_simplex(4, np.random.default_rng(5))
        path = str(tmp_path / "s4.json")
        write_json(path, s.to_json_dict())
        _, out, _ = run_cli(capsys, "sample", path, "--count", "300", "--seed", "2")
        rows = sample_uniform(s, 300, 2)
        assert out == "".join(dumps(row.tolist()) + "\n" for row in rows)

    def test_every_stdout_line_is_json(self, capsys, triangle_file):
        _, out, _ = run_cli(capsys, "sample", triangle_file, "--count", "5", "--seed", "0")
        for line in out.strip().splitlines():
            json.loads(line)

    @pytest.mark.parametrize("dim", range(1, 10))
    def test_block_edges_match_whole_matrix_reference(self, capsys, tmp_path, dim):
        # each block of the stream is formatted as it is drawn; stdout and
        # --out both equal the whole-matrix draw, a row of dumps per point
        s = random_simplex(dim, np.random.default_rng(30 + dim))
        path, out_path = str(tmp_path / "s.json"), tmp_path / "points.jsonl"
        write_json(path, s.to_json_dict())
        for count in BLOCK_EDGE_COUNTS:
            want = "".join(dumps(row.tolist()) + "\n" for row in reference(s, count, dim))
            argv = ["sample", path, "--count", str(count), "--seed", str(dim)]
            code, out, _ = run_cli(capsys, *argv)
            assert (code, out) == (0, want), count
            assert main([*argv, "--out", str(out_path)]) == 0
            assert out_path.read_text(encoding="utf-8") == want, count

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_count_below_one_exits_2_before_any_output(self, capsys, tmp_path, triangle_file, count):
        out_path = tmp_path / "points.jsonl"
        code, out, err = run_cli(capsys, "sample", triangle_file, "--count", count)
        assert (code, out) == (2, "") and "count must be >= 1" in err
        assert main(["sample", triangle_file, "--count", count, "--out", str(out_path)]) == 2
        assert not out_path.exists()

    def test_peak_memory_does_not_grow_with_count(self, tmp_path):
        # a block of points at a time: 100 times the rows, the same peak
        # (the whole matrices of 3 * 10^5 4-D points and their weights took
        # about 20 MiB more).  The child reads its own peak, VmHWM: its
        # ru_maxrss would start from the RSS of this process, which spawns it.
        path = str(tmp_path / "s4.json")
        write_json(path, random_simplex(4, np.random.default_rng(4)).to_json_dict())
        probe = (
            "import sys\n"
            "from hhbounds.cli import main\n"
            "code = main(sys.argv[1:])\n"
            "with open('/proc/self/status') as status:\n"
            "    peak = next(line for line in status if line.startswith('VmHWM:'))\n"
            "print(peak.split()[1], file=sys.stderr)\n"
            "sys.exit(code)\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(hhbounds.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        peaks = []
        for count in (3_000, 300_000):
            proc = subprocess.run(
                [sys.executable, "-c", probe, "sample", path, "--count", str(count)],
                env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                timeout=120, check=True,
            )
            peaks.append(int(proc.stderr.split()[-1]))  # KiB on Linux
        assert abs(peaks[1] - peaks[0]) < 2 * 1024, peaks


class TestUsage:
    def test_no_command_exits_2(self, capsys):
        assert main([]) == 2

    def test_unknown_theorem_flag_exits_2(self, capsys, unit_interval_file, sq_1d_file):
        code = main(
            ["bounds", unit_interval_file, sq_1d_file, "--theorem", "thm7"]
        )
        assert code == 2
