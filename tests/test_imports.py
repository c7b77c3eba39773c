"""Import hygiene: scipy is loaded only by the subcommands that use it.

Every subcommand runs as a fresh process, so start-up cost is part of each
run: scipy.linalg is needed only by the oracle's eigensolve, and no other
subcommand loads any scipy (the Dirac check's quadrature is a numpy
Gauss-Legendre rule). Each check runs in a fresh interpreter and asserts on
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

# runs cli.main on argv and prints the exit code and every scipy module loaded
RUN_MAIN = """
import contextlib, io, json, sys
from radext import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(json.dumps({"code": code, "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
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
    out = _scipy_after("import json, sys, radext.cli; "
                       "print(json.dumps({'scipy': [m for m in sys.modules if m.split('.')[0] == 'scipy']}))")
    assert out["scipy"] == []


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


@pytest.mark.parametrize("command, module", [
    ("oracle", "scipy.linalg"),
])
def test_subcommand_loads_its_scipy_part(command, module, config):
    out = _scipy_after(RUN_MAIN, command, "--config", config)
    assert out["code"] == 0
    assert module in out["scipy"]


def test_run_as_module_without_runtime_warning():
    proc = _python("-W", "error::RuntimeWarning", "-m", "radext.cli", "channels", "--jmax", "1")
    assert proc.returncode == 0, proc.stderr


def test_submodules_resolve_on_first_access():
    proc = _python("-c", "import radext; radext.annulus.oracle_spectrum\n"
                         "try:\n    radext.missing\nexcept AttributeError:\n    pass\n"
                         "else:\n    raise SystemExit('radext.missing resolved')")
    assert proc.returncode == 0, proc.stderr
