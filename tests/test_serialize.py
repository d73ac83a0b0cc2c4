import json
import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from hhbounds.chains import chain_reports
from hhbounds.cli import main
from hhbounds.funcs import ConvexFunction
from hhbounds.geometry import standard_simplex
from hhbounds.quadrature import MC_BLOCK_ROWS, _sample_blocks, integrate_exact, sample_uniform
from hhbounds.serialize import dumps, dumps_lines, read_json
from jsonfiles import write_json

finite_floats = st.floats(allow_nan=False, allow_infinity=False)


def bits(obj):
    """``obj`` with every float replaced by its exact hex form (sign of zero kept)."""
    if isinstance(obj, float):
        return ("float", obj.hex())
    if isinstance(obj, dict):
        return {key: bits(value) for key, value in obj.items()}
    if isinstance(obj, list):
        return [bits(value) for value in obj]
    return obj


class TestDumps:
    def test_float_round_trip_bitwise(self):
        values = [1 / 3, 0.1, 2.0**-53, 1e300, -0.25, math.pi, -0.0, 5e-324, 1.0]
        back = json.loads(dumps(values))
        assert bits(back) == bits(values)

    def test_shortest_repr_keeps_floats(self):
        assert dumps(0.5) == "0.5"
        assert dumps(0.1) == "0.1"
        assert dumps([1.0, 0.25]) == "[1.0,0.25]"
        assert dumps(-0.0) == "-0.0"
        assert dumps([1, 1.0]) == "[1,1.0]"

    def test_negative_zero_and_integral_floats_read_back_as_floats(self):
        back = json.loads(dumps({"z": -0.0, "one": 1.0, "zero": 0.0}))
        assert all(type(value) is float for value in back.values())
        assert math.copysign(1.0, back["z"]) == -1.0
        assert math.copysign(1.0, back["zero"]) == 1.0

    @settings(max_examples=300, deadline=None)
    @given(
        st.recursive(
            finite_floats,
            lambda children: st.lists(children, max_size=4)
            | st.dictionaries(st.text(max_size=4), children, max_size=4),
            max_leaves=20,
        )
    )
    @example(-0.0)
    @example([5e-324, -5e-324, 2.0**-1022 - 2.0**-1074])
    @example({"big": [1.7e308, -1.7e308, 1.7976931348623157e308], "one": 1.0})
    def test_finite_floats_round_trip_bitwise(self, obj):
        for indent in (None, 2):
            assert bits(json.loads(dumps(obj, indent=indent))) == bits(obj)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            dumps(float("nan"))
        with pytest.raises(ValueError):
            dumps([float("inf")])
        with pytest.raises(ValueError):
            dumps({"v": np.array([1.0, -np.inf])})

    def test_numpy_values(self):
        data = {"a": np.float64(0.3), "n": np.int64(7), "v": np.arange(3.0)}
        assert json.loads(dumps(data)) == {"a": 0.3, "n": 7, "v": [0.0, 1.0, 2.0]}

    def test_numpy_nested(self):
        text = dumps({"m": np.eye(2), "t": (np.float32(1.5), [np.uint8(2)])})
        assert text == '{"m":[[1.0,0.0],[0.0,1.0]],"t":[1.5,[2]]}'

    def test_insertion_order_preserved(self):
        assert dumps({"z": 1, "a": 2}) == '{"z":1,"a":2}'

    def test_indent_is_valid_json(self):
        obj = {"rows": [{"x": 1 / 7}, {"x": 2.5}], "name": "t"}
        assert json.loads(dumps(obj, indent=2)) == json.loads(dumps(obj))

    def test_indented_layout(self):
        obj = {"a": [1, {}], "b": [], "c": {"d": None, "e": "é"}, "f": True}
        assert dumps(obj, indent=2) == (
            '{\n  "a": [\n    1,\n    {}\n  ],\n  "b": [],\n'
            '  "c": {\n    "d": null,\n    "e": "é"\n  },\n  "f": true\n}'
        )

    def test_deterministic(self):
        obj = {"values": [1 / 3] * 4, "tag": "x"}
        assert dumps(obj, indent=2) == dumps(obj, indent=2)

    def test_unknown_type_rejected(self):
        with pytest.raises(TypeError):
            dumps(object())

    def test_nonstring_keys_normalized(self):
        assert dumps({1: "x"}) == '{"1":"x"}'

    def test_float_term_reads_back_as_float(self):
        s = standard_simplex(2)
        f = ConvexFunction(kind="affine", params={"slope": [0.0, 0.0], "offset": 1.0})
        report = chain_reports([("choquet", (f, s, {}))], [integrate_exact(f, s)])[0]
        terms = json.loads(dumps(report.to_json_dict()))["terms"]
        assert [term["value"] for term in terms] == [1.0, 1.0, 1.0]
        assert all(type(term["value"]) is float for term in terms)


class TestDumpsLines:
    def test_matches_dumps_per_row(self):
        rng = np.random.default_rng(0)
        M = rng.standard_normal((200, 4)) * 10.0 ** rng.integers(-320, 300, (200, 4))
        M[0] = [-0.0, 1.0, 1e16, 2.0**-1074]
        M[1] = [1 / 3, -2.5, 123456789.0, 5e-324]
        assert dumps_lines(M) == "".join(dumps(row.tolist()) + "\n" for row in M)

    @settings(max_examples=100, deadline=None)
    @given(
        hnp.arrays(
            np.float64,
            hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=6),
            elements=finite_floats,
        )
    )
    def test_matches_dumps_per_row_property(self, M):
        text = dumps_lines(M)
        assert text == "".join(dumps(row.tolist()) + "\n" for row in M)
        back = np.array([json.loads(line) for line in text.splitlines()])
        assert back.tobytes() == M.tobytes()

    def test_single_column(self):
        assert dumps_lines(np.array([[0.5], [2.0]])) == "[0.5]\n[2.0]\n"

    # hh sample formats each block of its stream of points as one chunk
    @pytest.mark.parametrize(
        "rows", [1, 2 * MC_BLOCK_ROWS - 1, 2 * MC_BLOCK_ROWS, 2 * MC_BLOCK_ROWS + 1]
    )
    def test_chunk_edges_match_dumps_per_row(self, rows):
        s = standard_simplex(3)
        text = "".join(map(dumps_lines, _sample_blocks(s, rows, rows)))
        points = sample_uniform(s, rows, rows)
        assert text == "".join(dumps(row.tolist()) + "\n" for row in points)

    def test_one_string_per_chunk(self, monkeypatch, tmp_path):
        # one string per block of hh sample's stream; a one-row tail joins
        # the block before it
        path = str(tmp_path / "interval.json")
        write_json(path, standard_simplex(1).to_json_dict())
        written = []

        class Stdout:
            def writelines(self, chunks):
                written.extend(chunks)

        monkeypatch.setattr(sys, "stdout", Stdout())
        assert main(["sample", path, "--count", str(2 * MC_BLOCK_ROWS + 1)]) == 0
        assert [chunk.count("\n") for chunk in written] == [MC_BLOCK_ROWS, MC_BLOCK_ROWS + 1]

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_nonfinite_rejected_as_dumps(self, bad):
        M = np.ones((3, 2))
        M[1, 1] = bad
        M[2, 0] = float("nan")
        with pytest.raises(ValueError) as expected:
            dumps(M[1].tolist())
        with pytest.raises(ValueError) as got:
            dumps_lines(M)
        assert str(got.value) == str(expected.value)


class TestFiles:
    def test_write_and_read(self, tmp_path):
        path = str(tmp_path / "out.json")
        write_json(path, {"x": 1 / 3})
        assert read_json(path) == {"x": 1 / 3}
        with open(path) as handle:
            assert handle.read().endswith("\n")

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_nonfinite_tokens_rejected(self, tmp_path, token):
        path = tmp_path / "bad.json"
        path.write_text('{"offset": %s}' % token)
        with pytest.raises(ValueError, match=token):
            read_json(str(path))
