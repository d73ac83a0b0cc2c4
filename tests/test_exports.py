"""Every exported name resolves, so a deleted function leaves no stale export."""

import importlib
import pkgutil

import pytest

import hhbounds

MODULES = ["hhbounds"] + [
    f"hhbounds.{info.name}" for info in pkgutil.iter_modules(hhbounds.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported))
    assert [item for item in exported if not hasattr(module, item)] == []
