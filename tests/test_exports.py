"""Package surface: every name a module lists in __all__ exists, and numpy
is the only runtime dependency: no module's source names scipy, and with
scipy blocked every module imports, every CLI command runs and the weight,
DPP, LPP, hexagon and Aztec sampling paths run."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import tilings
from test_cli import VALID

MODULES = ["tilings"] + [f"tilings.{m.name}" for m in pkgutil.iter_modules(tilings.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ lists missing names {missing}"


def test_aztec_and_shuffling_load_no_scipy():
    # importing the Aztec modules pulls in no scipy module, even where it is installed
    code = ("import sys, tilings.aztec, tilings.shuffling; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True).stdout
    assert out.strip() == "[]"


def run_without_scipy(code, cwd=None):
    # a None entry in sys.modules makes every scipy import raise ImportError
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.run([sys.executable, "-c", 'import sys; sys.modules["scipy"] = None\n' + code],
                          capture_output=True, text=True, env=env, cwd=cwd)
    assert proc.returncode == 0, proc.stderr


def test_cli_imports_and_runs_without_scipy(tmp_path):
    for name in MODULES:
        assert "scipy" not in Path(importlib.import_module(name).__file__).read_text(), name
    code = f"""import importlib, shlex
for name in {MODULES!r}:
    importlib.import_module(name)
from tilings.cli import run
for command, args in {VALID!r}.items():
    assert run([command, *shlex.split(args)]) == 0, command
"""
    # run in tmp_path: some commands write their default output file
    run_without_scipy(code, cwd=tmp_path)


def test_sampling_paths_run_without_scipy():
    run_without_scipy("""
import numpy as np
from tilings import replica_rng
from tilings.growth import lpp_cdf_exact, lpp_value
from tilings.hexagon import HexagonSpec, sample_hexagon
from tilings.ope import DiscreteWeight, build_orthonormal, cd_kernel, sample_dpp
from tilings.schur import cascade_grow
from tilings.shuffling import AztecMeasure, sample_aztec

for alpha, beta in [(2, 3), (0.5, 1.25)]:
    for make in (DiscreteWeight.hahn, DiscreteWeight.associated_hahn):
        assert np.isfinite(make(30, alpha, beta).log_weight()).all()
assert np.isfinite(DiscreteWeight.krawtchouk(30, 0.3).log_weight()).all()
assert 0 < lpp_cdf_exact(16, 16, 0.5, 20) < 1
rng = replica_rng(seed=1, replica=0)
# rank 60 > 32: the Christoffel-Darboux phase, the rebuild, and the
# sequential steps that draw the last 32 points
kernel = cd_kernel(build_orthonormal(DiscreteWeight.krawtchouk(200, 0.5), 60))
assert len(sample_dpp(kernel, rng)) == 60
sample_hexagon(HexagonSpec(3, 3, 3), rng)
sample_aztec(AztecMeasure.from_q(8, 0.5), rng)
W = rng.geometric(0.5, size=(4, 4)) - 1
cascade_grow(W)
lpp_value(W)
""")
