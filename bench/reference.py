"""Reference kernels: fixed work that calls no radext code.

On a shared host the machine's speed drifts by tens of percent within
seconds, and a run's median follows it. Each workload names the kernel that
is bound by what its ops are bound by: the interpreter, a tridiagonal
eigensolve, a banded one or process start with imports. The worker times
that kernel just before each op, outside the timed region, and reports the
op's time at reference speed: wall time * the kernel's reference time / the
kernel's measured time. The wall figures stay in the result file. Set-up is scaled
the same way by run.py, with the `imports` kernel timed before and after
each worker's start.
"""

from __future__ import annotations

import math
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg


def _interpreter() -> float:
    # float arithmetic and small numpy calls; no gc-tracked allocations, so gc
    # settings leave it alone
    x = 0.0
    for k in range(2000):
        x += math.sin(k * 1e-3) * k
    a = np.eye(4) + 0.01
    for _ in range(40):
        a = a @ a
        a /= np.abs(a).max()
    return x + a[0, 0]


_TRI_N = 4000
_TRI_D = 2.0 + np.linspace(0.0, 1.0, _TRI_N) ** 2
_TRI_E = -np.ones(_TRI_N - 1)


def _tridiagonal():
    # the shape of an oracle_diag op: grid arrays, then the lowest eigenvalue
    h = np.diff(np.linspace(1e-3, 40.0, _TRI_N + 1))
    return scipy.linalg.eigh_tridiagonal(_TRI_D + 1.0 / h ** 2, _TRI_E,
                                         select="i", select_range=(0, 0))


_BANDS = (np.random.default_rng(7).standard_normal((5, 100))
          + 1j * np.random.default_rng(8).standard_normal((5, 100)))
_BANDS[0] = _BANDS[0].real + 10.0


def _banded():
    # the shape of an oracle_coupled op: four lowest pairs of a complex banded matrix
    return scipy.linalg.eig_banded(_BANDS, lower=True, select="i", select_range=(0, 3))


def _imports():
    # the shape of a cli_cold op and of a worker's set-up: a fresh interpreter
    # that loads radext's dependencies
    return subprocess.run([sys.executable, "-c", "import numpy, scipy.linalg"], check=True, timeout=60)


@dataclass(frozen=True)
class Kernel:
    name: str
    run: Callable[[], object]
    ref_s: float  # nominal, near its fastest on the README's host: scaled times read at this speed


INTERPRETER = Kernel("interpreter", _interpreter, 0.5e-3)
TRIDIAGONAL = Kernel("tridiagonal", _tridiagonal, 2.0e-3)
BANDED = Kernel("banded", _banded, 1.5e-3)
IMPORTS = Kernel("imports", _imports, 0.3)


def speed(kernel: Kernel) -> float:
    """Reference time over measured time of one kernel run: scales an op's wall time."""
    start = time.perf_counter()
    kernel.run()
    return kernel.ref_s / (time.perf_counter() - start)
