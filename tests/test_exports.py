"""Package surface: every name a module lists in __all__ exists, and the
Aztec modules import without scipy."""

import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import tilings

MODULES = ["tilings"] + [f"tilings.{m.name}" for m in pkgutil.iter_modules(tilings.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ lists missing names {missing}"


def test_aztec_and_shuffling_load_no_scipy():
    # both stay light to import: ndimage loads on first use, and the
    # perfect-matching backtracker lives with them, not beside scipy users
    code = ("import sys, tilings.aztec, tilings.shuffling; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True).stdout
    assert out.strip() == "[]"
