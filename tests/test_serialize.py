import json
import math

import numpy as np
import pytest

from hhbounds.serialize import dumps, dumps_lines, jsonable, read_json, write_json


class TestDumps:
    def test_float_17_digits_round_trip(self):
        values = [1 / 3, 0.1, 2.0**-53, 1e300, -0.25, math.pi]
        text = dumps(values)
        back = json.loads(text)
        assert back == values  # bitwise-equal doubles

    def test_trailing_zeros_stripped(self):
        assert dumps(0.5) == "0.5"
        assert dumps([1.0, 0.25]) == "[1,0.25]"

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            dumps(float("nan"))
        with pytest.raises(ValueError):
            dumps([float("inf")])

    def test_numpy_values(self):
        data = {"a": np.float64(0.3), "n": np.int64(7), "v": np.arange(3.0)}
        assert json.loads(dumps(data)) == {"a": 0.3, "n": 7, "v": [0.0, 1.0, 2.0]}

    def test_insertion_order_preserved(self):
        assert dumps({"z": 1, "a": 2}) == '{"z":1,"a":2}'

    def test_indent_is_valid_json(self):
        obj = {"rows": [{"x": 1 / 7}, {"x": 2.5}], "name": "t"}
        assert json.loads(dumps(obj, indent=2)) == json.loads(dumps(obj))

    def test_deterministic(self):
        obj = {"values": [1 / 3] * 4, "tag": "x"}
        assert dumps(obj, indent=2) == dumps(obj, indent=2)

    def test_unknown_type_rejected(self):
        with pytest.raises(TypeError):
            dumps(object())

    def test_nonstring_keys_normalized(self):
        assert dumps({1: "x"}) == '{"1":"x"}'


class TestDumpsLines:
    def test_matches_dumps_per_row(self):
        rng = np.random.default_rng(0)
        M = rng.standard_normal((200, 4)) * 10.0 ** rng.integers(-320, 300, (200, 4))
        M[0] = [-0.0, 1.0, 1e16, 2.0**-1074]
        M[1] = [1 / 3, -2.5, 123456789.0, 5e-324]
        assert dumps_lines(M) == "".join(dumps(row.tolist()) + "\n" for row in M)

    def test_single_column(self):
        assert dumps_lines(np.array([[0.5], [2.0]])) == "[0.5]\n[2]\n"

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


class TestJsonable:
    def test_nested(self):
        out = jsonable({"m": np.eye(2), "t": (np.float32(1.5), [np.uint8(2)])})
        assert out == {"m": [[1.0, 0.0], [0.0, 1.0]], "t": [1.5, [2]]}
