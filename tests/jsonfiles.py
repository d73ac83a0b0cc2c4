"""Test helper: write JSON input files the way ``hh`` reads them."""

from hhbounds.serialize import dumps


def write_json(path: str, obj) -> None:
    """Write ``obj`` as JSON, indented by 2, with a trailing newline to ``path``."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dumps(obj, indent=2) + "\n")
