"""Deterministic JSON emission through the standard library encoder.

:func:`dumps` keeps dict insertion order, writes no ``NaN`` or ``Infinity``,
and writes every float as its shortest round-trip ``repr``, which reads back
bit for bit and as a float (``-0.0`` and ``1.0`` included).  Equal values
therefore give byte-identical files, as the campaign determinism contract
requires.
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np


def _plain(obj: Any) -> Any:
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"cannot serialize object of type {type(obj).__name__}")


def dumps(obj: Any, *, indent: int | None = None) -> str:
    """``obj``, numpy values included, as JSON; a non-finite float raises ValueError."""
    separators = (",", ":" if indent is None else ": ")
    return json.dumps(
        obj, indent=indent, separators=separators, ensure_ascii=False,
        allow_nan=False, default=_plain,
    )


def dumps_lines(matrix) -> str:
    """JSON Lines text of a 2-D float matrix, equal to ``dumps(row.tolist())`` per row.

    A non-finite value raises dumps' error before any text is made.  One
    ``"[%r,...]"`` row template, repeated for every row, formats the matrix
    in one ``%`` call, without the encoder's per-value dispatch (the cost of
    ``hh sample``, which formats its points a block at a time).
    """
    M = np.asarray(matrix, dtype=float)
    finite = np.isfinite(M)
    if not finite.all():
        dumps(float(M[~finite][0]))  # raises dumps' error for the first one
    template = "[" + ",".join(["%r"] * M.shape[1]) + "]\n"
    return template * len(M) % tuple(M.ravel().tolist())


def _reject_constant(token: str):
    raise ValueError(f"non-finite number {token} is not valid JSON")


def read_json(path: str) -> Any:
    """The JSON value in ``path``; ``NaN`` and ``Infinity`` raise ValueError."""
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle, parse_constant=_reject_constant)
