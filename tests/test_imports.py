"""Import hygiene: scipy, numpy.polynomial and each radext module are loaded only where they are used.

Every subcommand runs as a fresh process, so start-up cost is part of each
run. The subcommands that form a link map or solve the oracle (gmap, r0scan
and oracle) load one piece of scipy: the f2py LAPACK extension,
scipy.linalg._flapack, whose zgesdd and zgesv the link map reads and whose
tridiagonal and Hermitian routines the Schur solve reads (annulus._lapack).
Neither the scipy package nor scipy.linalg is imported for it: the
extension is loaded by its path, and their __init__s (platform set-up, and
numpy.f2py and unittest for scipy.linalg) never run; the dense eigh is
imported only for a dense operator. No other subcommand loads any scipy
(the Dirac check's quadrature is a numpy Gauss-Legendre rule). Where the
extension cannot be loaded by its path, the package import gives the same
routines and the same numbers. numpy.polynomial builds that rule and the one
of the rotated-contour K band, and radext.dirac holds the check itself:
no subcommand but dirac-check loads either. Of radext itself, a config is
parsed and refused with radext.channels alone, and each subcommand loads
the physics modules its handler runs and no other. Each check runs in a
fresh interpreter and asserts on the modules loaded, never on wall time.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import radext
from radext.extensions import haar_unitary

SRC = str(Path(radext.__file__).resolve().parents[1])

# the numpy.polynomial modules loaded since numpy itself was imported (numpy < 2 loads them)
NUMPY_FIRST = """
import json, sys
import numpy
preloaded = set(sys.modules)
def polynomial():
    return sorted(m for m in sys.modules if m.startswith("numpy.polynomial") and m not in preloaded)
"""

# runs cli.main on argv (--help exits through SystemExit) and prints the exit code, every radext
# and scipy module, and every new numpy.polynomial module
RUN_MAIN = NUMPY_FIRST + """
import contextlib, io
from radext import cli
with contextlib.redirect_stdout(io.StringIO()):
    try:
        code = cli.main(sys.argv[1:])
    except SystemExit as exc:
        code = exc.code
print(json.dumps({"code": code, "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
                  "polynomial": polynomial(), "f2py": sorted(m for m in sys.modules if m.startswith("numpy.f2py")),
                  "dirac": "radext.dirac" in sys.modules,
                  "radext": sorted(m for m in sys.modules if m.split(".")[0] == "radext")}))
"""

# the radext modules each subcommand loads: the config parse reads radext.channels alone, and
# each handler imports the physics it runs
CORE = ["radext", "radext.channels", "radext.cli"]
EXTENSION = sorted(CORE + ["radext.extensions", "radext.specfun"])
LINK = sorted(EXTENSION + ["radext.annulus"])
MODULES = {"channels": CORE, "emit-config": CORE, "bound-states": EXTENSION, "smatrix": EXTENSION,
           "dirac-check": sorted(EXTENSION + ["radext.dirac"]), "gmap": LINK, "r0scan": LINK, "oracle": LINK}

# one coupled solve (pttrf, gttrf and heevd) of a Haar U at k = 12, n = 400: digests of its link
# value g and its vectors, its levels as exact hex strings, and whether the scipy.linalg package
# got loaded
SOLVE = """
import hashlib, json, sys
from radext import annulus
from radext.annulus import AnnulusGrid, assemble_radial_hamiltonian, g_from_u, oracle_spectrum
from radext.channels import ModelParams
from radext.extensions import ExtensionMatrix, haar_unitary
ext = ExtensionMatrix(haar_unitary(1), ModelParams())
g = g_from_u(ext, 1e-3)
ham = assemble_radial_hamiltonian(ext.params, AnnulusGrid(r0=1e-3, R=40.0, n=400), g, ext.channels)
levels = oracle_spectrum(ham, 12)
vecs = annulus._schur_eigenpairs(ham, 12, ham.norm_upper_bound())[1]
solved = {"g": hashlib.sha256(g.entries.tobytes()).hexdigest(), "levels": [x.hex() for x in levels.tolist()],
          "vectors": hashlib.sha256(vecs.tobytes()).hexdigest(), "package": "scipy.linalg" in sys.modules}
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

# the extension found but failing to load by its path, as where the scipy package's __init__ must
# first add DLL directories: its exec_module raises ImportError until the scipy.linalg package is
# loaded, and succeeds for the package's own import after annulus._lapack dropped its entry
EXEC_FAILS = """
import importlib.machinery, sys
real_exec_module = importlib.machinery.ExtensionFileLoader.exec_module
def exec_module(self, module):
    if module.__name__ == "scipy.linalg._flapack" and "scipy.linalg" not in sys.modules:
        raise ImportError("DLL load failed while importing _flapack")
    return real_exec_module(self, module)
importlib.machinery.ExtensionFileLoader.exec_module = exec_module
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


@pytest.fixture
def invalid_configs(tmp_path):
    """The two invalid configs of a cold run: a grid below 100 nodes, and a doubled Haar U."""
    docs = {"coarse": {"extension": {"diagonal_thetas": [0.1, 0.2, -0.3, 0.4]}, "oracle": {"n": 10}},
            "doubled": {"extension": {"matrix": [[[2.0 * z.real, 2.0 * z.imag] for z in row]
                                                 for row in haar_unitary(1)]}}}
    paths = {}
    for key, doc in docs.items():
        paths[key] = str(tmp_path / f"{key}.json")
        Path(paths[key]).write_text(json.dumps(doc), encoding="utf-8")
    return paths


@pytest.mark.parametrize(("argv", "code", "prefix"), [
    (["--help"], 0, ""),
    (["emit-config", "--config", "coarse"], 2, "config error: oracle: n must be at least 100"),
    (["gmap", "--config", "doubled", "--r0", "0.1"], 3, "unitarity error: extension matrix is not unitary"),
], ids=["help", "schema", "unitarity"])
def test_help_and_refused_configs_load_no_physics(argv, code, prefix, invalid_configs):
    argv = [invalid_configs.get(arg, arg) for arg in argv]
    proc = _python("-c", RUN_MAIN, *argv)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["code"] == code
    assert proc.stderr.startswith(prefix)
    assert out["radext"] == CORE


def test_import_cli_loads_no_scipy():
    out = _scipy_after(NUMPY_FIRST + "import radext.cli\n"
                       "print(json.dumps({'scipy': [m for m in sys.modules if m.split('.')[0] == 'scipy'],"
                       " 'polynomial': polynomial(),"
                       " 'radext': sorted(m for m in sys.modules if m.split('.')[0] == 'radext')}))")
    assert out["scipy"] == []
    assert out["polynomial"] == []
    assert out["radext"] == CORE


@pytest.mark.parametrize("argv", [
    ["channels", "--jmax", "3"],
    ["bound-states"],
    ["smatrix", "--E", "1.0"],
    ["emit-config"],
    ["dirac-check"],
], ids=lambda argv: argv[0])
def test_subcommand_loads_no_scipy(argv, config):
    if argv[0] != "channels":
        argv = [argv[0], "--config", config, *argv[1:]]
    out = _scipy_after(RUN_MAIN, *argv)
    assert out["code"] == 0
    assert out["radext"] == MODULES[argv[0]]
    assert out["scipy"] == []
    if argv[0] != "dirac-check":  # its quadrature is numpy's Gauss-Legendre rule
        assert out["polynomial"] == []
        assert not out["dirac"]


@pytest.mark.parametrize("argv", [
    ["gmap", "--r0", "0.1"],
    ["r0scan", "--r0-list", "0.1,0.01"],
    ["oracle"],
], ids=lambda argv: argv[0])
def test_subcommand_loads_its_scipy_part(argv, config):
    out = _scipy_after(RUN_MAIN, argv[0], "--config", config, *argv[1:])
    assert out["code"] == 0
    assert out["radext"] == MODULES[argv[0]]
    # the extension alone, without the scipy and scipy.linalg packages and what their __init__s
    # pull in
    assert out["scipy"] == ["scipy.linalg._flapack"]
    assert out["f2py"] == []
    assert out["polynomial"] == []
    assert not out["dirac"]


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


def test_failed_load_falls_back_to_the_package():
    # where loading the extension by its path raises ImportError, annulus._lapack drops the entry
    # it registered and takes the package's module, which gives the same g, levels and vectors
    found = _scipy_after(SOLVE + "print(json.dumps(solved))")
    fallback = _scipy_after(EXEC_FAILS + SOLVE + """
import scipy.linalg
solved["module"] = annulus._lapack() is sys.modules["scipy.linalg._flapack"] is scipy.linalg.lapack._flapack
print(json.dumps(solved))
""")
    assert not found["package"]
    assert fallback["package"]
    assert fallback["module"]
    assert fallback["g"] == found["g"]
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
