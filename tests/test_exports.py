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


def test_star_import_binds_each_name_to_its_home_object():
    namespace: dict = {}
    exec("from hhbounds import *", namespace)
    assert sorted(namespace) == sorted(["__builtins__", *hhbounds.__all__])
    for name in hhbounds.__all__:
        home = importlib.import_module(f"hhbounds.{hhbounds._HOMES[name]}")
        assert namespace[name] is getattr(home, name), name
        assert name in getattr(home, "__all__", [name]), name


def test_dir_covers_all():
    assert set(hhbounds.__all__) <= set(dir(hhbounds))


def test_unknown_attribute_raises_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        hhbounds.no_such_name


def test_moved_functions_are_exported_where_they_live():
    from hhbounds import campaign, chains

    assert "search_cor3_counterexample" in chains.__all__
    assert hhbounds.search_cor3_counterexample is chains.search_cor3_counterexample
    assert chains._ground_truths.__module__ == chains._descriptor.__module__ == "hhbounds.chains"
    assert "search_cor3_counterexample" not in campaign.__all__
    assert campaign._ground_truths is chains._ground_truths
