"""Import hygiene: scipy and numpy.polynomial are loaded only where they are used.

Every subcommand runs as a fresh process, so start-up cost is part of each
run. Only the oracle loads any scipy: the top-level package and the f2py
LAPACK extension, scipy.linalg._flapack, whose routines the Schur solve
reads (annulus._lapack). The scipy.linalg package, whose __init__ pulls in
numpy.f2py and unittest, stays unloaded; its dense eigh is imported only for
a dense operator. No other subcommand loads any scipy (the Dirac check's
quadrature is a numpy Gauss-Legendre rule). numpy.polynomial builds that
rule and the one of the rotated-contour K band, which no subcommand but
dirac-check reaches. Each check runs in a fresh interpreter and asserts on
the modules loaded, never on wall time.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import radext

SRC = str(Path(radext.__file__).resolve().parents[1])

# the numpy.polynomial modules loaded since numpy itself was imported (numpy < 2 loads them)
NUMPY_FIRST = """
import json, sys
import numpy
preloaded = set(sys.modules)
def polynomial():
    return sorted(m for m in sys.modules if m.startswith("numpy.polynomial") and m not in preloaded)
"""

# runs cli.main on argv and prints the exit code and every scipy and new numpy.polynomial module
RUN_MAIN = NUMPY_FIRST + """
import contextlib, io
from radext import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(json.dumps({"code": code, "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
                  "polynomial": polynomial(), "f2py": sorted(m for m in sys.modules if m.startswith("numpy.f2py"))}))
"""

# one coupled solve (pttrf, gttrf and heevd) of a Haar U at k = 12, n = 400: its levels as exact
# hex strings, a digest of its vectors, and whether the scipy.linalg package got loaded
SOLVE = """
import hashlib, json, sys
from radext import annulus
from radext.annulus import AnnulusGrid, assemble_radial_hamiltonian, g_from_u, oracle_spectrum
from radext.channels import ModelParams
from radext.extensions import ExtensionMatrix, haar_unitary
ext = ExtensionMatrix(haar_unitary(1), ModelParams())
ham = assemble_radial_hamiltonian(ext.params, AnnulusGrid(r0=1e-3, R=40.0, n=400), g_from_u(ext, 1e-3),
                                  ext.channels)
levels = oracle_spectrum(ham, 12)
vecs = annulus._schur_eigenpairs(ham, 12, ham.norm_upper_bound())[1]
solved = {"levels": [x.hex() for x in levels.tolist()], "vectors": hashlib.sha256(vecs.tobytes()).hexdigest(),
          "package": "scipy.linalg" in sys.modules}
"""

# the extension's file not found: the path finder answers None to annulus._lapack, which looks
# before the scipy.linalg package is loaded, and finds it for the package's own import after
NOT_FOUND = """
import importlib.machinery, sys
real_find_spec = importlib.machinery.PathFinder.find_spec
def find_spec(fullname, path=None, target=None):
    if fullname == "scipy.linalg._flapack" and "scipy.linalg" not in sys.modules:
        return None
    return real_find_spec(fullname, path, target)
importlib.machinery.PathFinder.find_spec = staticmethod(find_spec)
"""


def _python(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=120)


def _scipy_after(*code_args):
    proc = _python("-c", *code_args)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture
def config(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"extension": {"diagonal_thetas": [0.1, 0.2, -0.3, 0.4]},
                                "oracle": {"n": 150, "R": 10.0, "r0": 0.05}}), encoding="utf-8")
    return str(path)


def test_import_cli_loads_no_scipy():
    out = _scipy_after(NUMPY_FIRST + "import radext.cli\n"
                       "print(json.dumps({'scipy': [m for m in sys.modules if m.split('.')[0] == 'scipy'],"
                       " 'polynomial': polynomial()}))")
    assert out["scipy"] == []
    assert out["polynomial"] == []


@pytest.mark.parametrize("argv", [
    ["channels", "--jmax", "3"],
    ["bound-states"],
    ["smatrix", "--E", "1.0"],
    ["gmap", "--r0", "0.1"],
    ["r0scan", "--r0-list", "0.1,0.01"],
    ["emit-config"],
    ["dirac-check"],
], ids=lambda argv: argv[0])
def test_subcommand_loads_no_scipy(argv, config):
    if argv[0] != "channels":
        argv = [argv[0], "--config", config, *argv[1:]]
    out = _scipy_after(RUN_MAIN, *argv)
    assert out["code"] == 0
    assert out["scipy"] == []
    if argv[0] != "dirac-check":  # its quadrature is numpy's Gauss-Legendre rule
        assert out["polynomial"] == []


@pytest.mark.parametrize("command, module", [
    ("oracle", "scipy.linalg._flapack"),
])
def test_subcommand_loads_its_scipy_part(command, module, config):
    out = _scipy_after(RUN_MAIN, command, "--config", config)
    assert out["code"] == 0
    assert module in out["scipy"]
    # the extension alone, without the scipy.linalg package and what its __init__ pulls in
    assert "scipy.linalg" not in out["scipy"]
    assert out["f2py"] == []


def test_package_imported_after_a_solve_reuses_its_routines():
    out = _scipy_after(SOLVE + """
assert not solved["package"]
import numpy as np, scipy.linalg
x = np.zeros(3)
lapack = annulus._lapack()
same = [scipy.linalg.get_lapack_funcs(name, (x,)) is getattr(lapack, "d" + name)
        for name in ("pttrf", "gttrf", "gttrs", "stebz")]
same.append(scipy.linalg.get_lapack_funcs("heevd", (x + 0j,)) is lapack.zheevd)
dense = np.diag([3.0, 1.0, 2.0]) + 0.5 * np.eye(3, k=1) + 0.5 * np.eye(3, k=-1)
levels = oracle_spectrum(dense, 2)
print(json.dumps({"same": same, "module": scipy.linalg.lapack._flapack is lapack,
                  "dense": np.abs(levels - np.linalg.eigvalsh(dense)[:2]).max()}))
""")
    assert out["same"] == [True] * 5
    assert out["module"]
    assert out["dense"] <= 1e-14


def test_package_fallback_gives_the_same_levels():
    # where the extension's file is not found, the package import gives the same module, which
    # gives the same levels and vectors bit for bit
    found = _scipy_after(SOLVE + "print(json.dumps(solved))")
    fallback = _scipy_after(NOT_FOUND + SOLVE + "print(json.dumps(solved))")
    assert not found["package"]
    assert fallback["package"]
    assert fallback["levels"] == found["levels"]
    assert fallback["vectors"] == found["vectors"]


def test_run_as_module_without_runtime_warning():
    proc = _python("-W", "error::RuntimeWarning", "-m", "radext.cli", "channels", "--jmax", "1")
    assert proc.returncode == 0, proc.stderr


def test_submodules_resolve_on_first_access():
    proc = _python("-c", "import radext; radext.annulus.oracle_spectrum\n"
                         "try:\n    radext.missing\nexcept AttributeError:\n    pass\n"
                         "else:\n    raise SystemExit('radext.missing resolved')")
    assert proc.returncode == 0, proc.stderr
