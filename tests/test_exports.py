"""Package surface: every name a module lists in __all__ exists."""

import importlib
import pkgutil

import pytest

import tilings

MODULES = ["tilings"] + [f"tilings.{m.name}" for m in pkgutil.iter_modules(tilings.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ lists missing names {missing}"
