"""README's quick start runs and prints what its comments say, and its
chain tables name every chain of ``CHAINS``."""

import ast
import contextlib
import io
import re
from fractions import Fraction
from pathlib import Path

from hhbounds.chains import CHAIN_NAMES

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def table_names(header: str) -> tuple[str, ...]:
    """The backquoted names in the first column of the table under ``header``,
    row by row (a row may name several)."""
    rows = README.split(header, 1)[1].split("\n\n", 1)[0].splitlines()[2:]
    return tuple(name for row in rows for name in re.findall(r"`(\w+)`", row.split("|")[1]))


def test_quick_start_prints_its_comments():
    code = README.split("```python\n", 1)[1].split("```", 1)[0]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    printed = [ast.literal_eval(line) for line in out.getvalue().splitlines()]
    comments = " ".join(line.split("#", 1)[1] for line in code.splitlines() if "print(" in line)
    expected = [
        [Fraction(term) for term in group.split(", ")]
        for group in re.findall(r"\((\d+/\d+(?:, \d+/\d+)*)\)", comments)
    ]
    assert expected == [
        [Fraction(2, 9), Fraction(1, 3), Fraction(2, 3)],
        [Fraction(1, 3), Fraction(14, 27), Fraction(2, 3)],
    ]
    assert len(printed) == len(expected)
    for values, fractions in zip(printed, expected):
        assert len(values) == len(fractions)
        assert all(abs(v - float(q)) <= 1e-15 for v, q in zip(values, fractions))


def test_chain_catalogue_names_every_chain():
    assert table_names("### Chain catalogue\n\n") == CHAIN_NAMES


def test_params_table_names_every_chain():
    assert table_names("| chain            | `params`") == CHAIN_NAMES
