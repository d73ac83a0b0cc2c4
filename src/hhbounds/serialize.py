"""Deterministic JSON emission.

All JSON written by this package goes through :func:`dumps`, which formats
floats with 17 significant digits (lossless for IEEE doubles) and preserves
dict insertion order.  Two runs that produce equal values therefore produce
byte-identical files, which the campaign determinism contract relies on.
"""

from __future__ import annotations

import json
import math
from typing import Any

import numpy as np


def jsonable(obj: Any) -> Any:
    """Recursively convert numpy containers/scalars to plain Python values."""
    if isinstance(obj, np.ndarray):
        return [jsonable(v) for v in obj.tolist()]
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    return obj


def _emit(obj: Any, parts: list[str], indent: int | None, level: int) -> None:
    if obj is None:
        parts.append("null")
    elif obj is True:
        parts.append("true")
    elif obj is False:
        parts.append("false")
    elif isinstance(obj, str):
        parts.append(json.dumps(obj, ensure_ascii=False))
    elif isinstance(obj, int):
        parts.append(str(obj))
    elif isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError(f"cannot serialize non-finite float {obj!r}")
        parts.append(format(obj, ".17g"))
    elif isinstance(obj, dict):
        _emit_container(obj.items(), "{", "}", parts, indent, level, keyed=True)
    elif isinstance(obj, (list, tuple)):
        _emit_container(obj, "[", "]", parts, indent, level, keyed=False)
    else:
        raise TypeError(f"cannot serialize object of type {type(obj).__name__}")


def _emit_container(items, open_ch, close_ch, parts, indent, level, *, keyed) -> None:
    items = list(items)
    if not items:
        parts.append(open_ch + close_ch)
        return
    parts.append(open_ch)
    pad = "" if indent is None else "\n" + " " * (indent * (level + 1))
    for i, item in enumerate(items):
        if i:
            parts.append("," if indent is None else ",")
        parts.append(pad)
        if keyed:
            key, value = item
            if not isinstance(key, str):
                raise TypeError("JSON object keys must be strings")
            parts.append(json.dumps(key, ensure_ascii=False))
            parts.append(": " if indent is not None else ":")
            _emit(value, parts, indent, level + 1)
        else:
            _emit(item, parts, indent, level + 1)
    if indent is not None:
        parts.append("\n" + " " * (indent * level))
    parts.append(close_ch)


def dumps(obj: Any, *, indent: int | None = None) -> str:
    """Serialize ``obj`` to a JSON string with 17-significant-digit floats."""
    parts: list[str] = []
    _emit(jsonable(obj), parts, indent, 0)
    return "".join(parts)


def dumps_lines(matrix) -> str:
    """JSON Lines text with one array per row of a 2-D float matrix.

    Byte-identical to joining ``dumps(row.tolist()) + "\n"`` over the rows,
    but every row is formatted with a single ``"[%.17g,...]"`` template,
    without :func:`dumps`'s per-value dispatch (the cost that dominates
    ``hh sample``).  Rows are converted one at a time, and the row strings
    are freed once joined, so a large sample holds neither a Python float
    per entry nor the row strings while its text is written out.
    """
    M = np.asarray(matrix, dtype=float)
    finite = np.isfinite(M)
    if not finite.all():
        raise ValueError(f"cannot serialize non-finite float {float(M[~finite][0])!r}")
    template = "[" + ",".join(["%.17g"] * M.shape[1]) + "]\n"
    return "".join([template % tuple(row) for row in M])


def write_json(path: str, obj: Any, *, indent: int | None = 2) -> None:
    """Write ``obj`` as JSON (with a trailing newline) to ``path``."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dumps(obj, indent=indent))
        handle.write("\n")


def read_json(path: str) -> Any:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)
